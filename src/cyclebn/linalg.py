"""Exact rational linear algebra.

Row reduction over ``Fraction`` gives affine solution spaces.  An exact
two-phase simplex (Bland's rule, so termination needs no perturbation),
run on ``A x = b, x >= 0`` as given, classifies the set of nonnegative
solutions as empty, a single point, or an infinite polytope: one LP
finds a vertex, a second tests whether anything lies off its support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _vec(xs) -> Vector:
    return tuple(Fraction(x) for x in xs)


@dataclass(frozen=True)
class LinearSystem:
    """``A x = b``."""

    matrix: Matrix
    rhs: Vector

    def __post_init__(self):
        object.__setattr__(self, "matrix", tuple(_vec(r) for r in self.matrix))
        object.__setattr__(self, "rhs", _vec(self.rhs))
        if len(self.matrix) != len(self.rhs):
            raise ValueError("matrix and rhs have different row counts")
        widths = {len(r) for r in self.matrix}
        if len(widths) > 1:
            raise ValueError("ragged matrix")

    @property
    def num_cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def residuals(self, x: Sequence[Fraction]) -> Vector:
        return tuple(sum(a * xi for a, xi in zip(row, x)) - b
                     for row, b in zip(self.matrix, self.rhs))

    def is_solution(self, x: Sequence[Fraction]) -> bool:
        return all(r == 0 for r in self.residuals(x))


@dataclass(frozen=True)
class AffineSpace:
    """Solution space ``particular + span(basis)``; ``particular is None`` means empty."""

    dimension: int                       # ambient dimension n
    particular: Vector | None
    basis: tuple[Vector, ...] = ()

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    def point(self, coefficients: Sequence[Fraction]) -> Vector:
        if self.particular is None:
            raise ValueError("empty space has no points")
        if len(coefficients) != len(self.basis):
            raise ValueError("wrong number of coefficients")
        return tuple(p + sum(c * d[i] for c, d in zip(coefficients, self.basis))
                     for i, p in enumerate(self.particular))


@dataclass(frozen=True)
class PolytopeClass:
    """Classification of {x : A x = b, x >= 0}: 'empty', 'point', or 'infinite'."""

    kind: str
    witness: Vector | None = None


def rref(matrix: Matrix, rhs: Vector) -> tuple[list[list[Fraction]], list[Fraction], list[int]]:
    """Reduced row echelon form of [A | b]; returns (A', b', pivot columns)."""
    a = [list(row) for row in matrix]
    b = list(rhs)
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        b[r], b[pivot_row] = b[pivot_row], b[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        b[r] *= inv
        for i in range(n_rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                b[i] -= f * b[r]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return a, b, pivots


def solve_affine(sys: LinearSystem) -> AffineSpace:
    """Exact solution space of ``A x = b``."""
    n = sys.num_cols
    if not sys.matrix:
        return AffineSpace(n, tuple([ZERO] * n),
                           tuple(_unit(n, i) for i in range(n)))
    a, b, pivots = rref(sys.matrix, sys.rhs)
    rank = len(pivots)
    for i in range(rank, len(a)):
        if b[i] != 0:
            return AffineSpace(n, None)
    free = [c for c in range(n) if c not in pivots]
    particular = [ZERO] * n
    for i, c in enumerate(pivots):
        particular[c] = b[i]
    basis = []
    for f in free:
        d = [ZERO] * n
        d[f] = ONE
        for i, c in enumerate(pivots):
            d[c] = -a[i][f]
        basis.append(tuple(d))
    return AffineSpace(n, tuple(particular), tuple(basis))


def _unit(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


# --- exact simplex ---------------------------------------------------------

def simplex_maximize(a_eq: Sequence[Sequence[Fraction]],
                     b_eq: Sequence[Fraction],
                     objective: Sequence[Fraction]):
    """Maximize c.x subject to A x = b, x >= 0, exactly.

    Returns ("infeasible", None, None), ("unbounded", None, None), or
    ("optimal", value, x).  Two-phase with artificial variables; Bland's
    rule on both phases guarantees termination.
    """
    m = len(a_eq)
    n = len(objective)
    a = [list(_vec(row)) for row in a_eq]
    b = [Fraction(x) for x in b_eq]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # Tableau rows 0..m-1: [original cols | artificial cols | rhs];
    # row m is the reduced-cost row of the phase-1 objective
    # (minimize the artificial sum).
    tab = [a[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]]
           for i in range(m)]
    basis = list(range(n, n + m))
    zrow = [-sum(tab[i][j] for i in range(m)) for j in range(n)] \
        + [ZERO] * m + [-sum(b)]
    tab.append(zrow)
    _pivot_to_optimum(tab, basis, n + m)
    if tab[m][-1] != 0:          # phase-1 optimum = -(residual artificial sum)
        return "infeasible", None, None
    # Drive any artificial still basic (necessarily at zero) out of the basis.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]   # drop redundant zero rows
    tab = [[tab[i][j] for j in range(n)] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    # Phase 2: minimize -objective.
    c = [-x for x in _vec(objective)]
    zrow = list(c) + [ZERO]
    for i, bi in enumerate(basis):
        f = zrow[bi]
        if f != 0:
            zrow = [z - f * t for z, t in zip(zrow, tab[i])]
    tab.append(zrow)
    if _pivot_to_optimum(tab, basis, n) == "unbounded":
        return "unbounded", None, None
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    value = sum(ci * xi for ci, xi in zip(_vec(objective), x))
    return "optimal", value, tuple(x)


def _pivot(tab, basis, row, col):
    inv = 1 / tab[row][col]
    tab[row] = [x * inv for x in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
    basis[row] = col


def _pivot_to_optimum(tab, basis, n_cols):
    """Pivot with Bland's rule until the z-row (last row) is nonnegative."""
    m = len(tab) - 1
    while True:
        enter = next((j for j in range(n_cols) if tab[m][j] < 0), None)
        if enter is None:
            return "optimal"
        candidates = [i for i in range(m) if tab[i][enter] > 0]
        if not candidates:
            return "unbounded"
        best = min(tab[i][-1] / tab[i][enter] for i in candidates)
        row = min((i for i in candidates if tab[i][-1] / tab[i][enter] == best),
                  key=lambda i: basis[i])
        _pivot(tab, basis, row, enter)


def classify_polytope(system: LinearSystem) -> PolytopeClass:
    """Classify {x : A x = b, x >= 0} as empty, a single point, or infinite.

    A first LP with a zero objective proves the set empty or returns a
    vertex v.  The columns of A on the support of a vertex are linearly
    independent, so no other feasible point has its support inside
    supp(v): the set is {v} iff the sum of the coordinates off supp(v)
    has maximum 0, which a second LP decides.  The witness is v.
    """
    n = system.num_cols
    status, _, v = simplex_maximize(system.matrix, system.rhs, (ZERO,) * n)
    if status == "infeasible":
        return PolytopeClass("empty")
    off = tuple(ZERO if x else ONE for x in v)
    if any(off):
        status, value, _ = simplex_maximize(system.matrix, system.rhs, off)
        if status == "unbounded" or value:
            return PolytopeClass("infinite", v)
    return PolytopeClass("point", v)


def null_space_left(p: Sequence[Sequence[Fraction]]) -> AffineSpace:
    """Affine space of row vectors g with g.P = g and sum(g) = 1."""
    n = len(p)
    rows = []
    for j in range(n):
        rows.append([Fraction(p[i][j]) - (ONE if i == j else ZERO)
                     for i in range(n)])
    rows.append([ONE] * n)
    rhs = [ZERO] * n + [ONE]
    return solve_affine(LinearSystem(tuple(rows), tuple(rhs)))
