"""Exact rational linear algebra on one fraction-free integer kernel.

Every solve scales its rows to integers once, column by column: each
column, the right-hand side included, is multiplied by the lcm of its
own denominators (one global lcm would multiply the denominators of all
rows together).  Gauss-Jordan elimination then runs on integers in the
manner of Bareiss and Edmonds: all rows, a simplex z-row included, share
one denominator d, the previous pivot, and every update
``(p*x - f*y) // d`` divides exactly.  Results are turned back into
``Fraction`` values only at the end.

``solve_affine`` returns the unique solution of a system, or None when
it has none or more than one; the stationary vectors and absorption
probabilities of a cutset chain are such solutions.  An exact two-phase
simplex (Bland's rule, so termination needs no perturbation), run on
``A x = b, x >= 0`` as given, classifies the set of nonnegative
solutions as empty, a single point, or an infinite polytope: one
phase 1 finds a vertex, and phase 2, started from that vertex's basis,
tests whether anything lies off its support.  Phase 1 carries no
artificial columns.  Bland's rule tries the original columns first, so
it pivots as it would with them until the artificial sum is minimal, and
any later pivot would be degenerate and leave the vertex as it is.
On the integer tableau d stays positive, ratios are compared by
cross-multiplying, and positive column scales keep every sign and ratio
order, so Bland's rule takes the pivots it takes over ``Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _vec(xs) -> Vector:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


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
class PolytopeClass:
    """Classification of {x : A x = b, x >= 0}: 'empty', 'point', or 'infinite'."""

    kind: str
    witness: Vector | None = None


def _scaled(rows, width: int) -> tuple[list[list[int]], list[int]]:
    """Integer rows and the column scales: column j times the lcm of its
    denominators."""
    cols = zip(*rows) if rows else [()] * width
    scales = [math.lcm(*(x.denominator for x in col)) for col in cols]
    return [[x.numerator * (s // x.denominator) for x, s in zip(row, scales)]
            for row in rows], scales


def _pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """Fraction-free Gauss-Jordan pivot on (r, c) over the shared
    denominator ``d``; returns the new one, the pivot."""
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i == r or not f and p == d:
            continue
        rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
    return p


# --- exact simplex ---------------------------------------------------------

def _phase_one(a_eq: Sequence[Sequence[Fraction]], b_eq: Sequence[Fraction],
               n: int):
    """Phase 1 on ``A x = b, x >= 0``: the feasible tableau
    ``(rows, basis, d, scale)`` over the original columns and the rhs, or
    None when the system is infeasible.  A row whose artificial is basic
    has ``basis[i] >= n``; at the optimum these artificials (at zero) are
    driven out, and rows where none can be are redundant and dropped."""
    m = len(a_eq)
    rows, scale = _scaled([[*row, x] for row, x in zip(a_eq, b_eq)], n + 1)
    tab = [[-x for x in row] if row[-1] < 0 else row for row in rows]
    basis = list(range(n, n + m))
    tab.append([-sum(col) for col in zip(*tab)] or [0] * (n + 1))
    d = _pivot_to_optimum(tab, basis, n, 1)
    if tab.pop()[-1] != 0:       # phase-1 optimum = -(residual artificial sum)
        return None
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                if tab[i][col] < 0:     # the row is 0 = ..., so negate it
                    tab[i] = [-x for x in tab[i]]
                d = _pivot(tab, i, col, d)
                basis[i] = col
    keep = [i for i in range(m) if basis[i] < n]
    return [tab[i] for i in keep], [basis[i] for i in keep], d, scale


def _vertex(rows, basis, d, scale, n) -> Vector:
    """The basic solution of a tableau, unscaled."""
    x = [ZERO] * n
    for row, bi in zip(rows, basis):
        x[bi] = Fraction(row[-1] * scale[bi], d * scale[-1])
    return tuple(x)


def simplex_maximize(a_eq: Sequence[Sequence[Fraction]],
                     b_eq: Sequence[Fraction],
                     objective: Sequence[Fraction], start=None):
    """Maximize c.x subject to A x = b, x >= 0, exactly.

    Returns ("infeasible", None, None), ("unbounded", None, None), or
    ("optimal", value, x).  Phase 2 starts from ``start``, the tableau
    ``_phase_one`` returned for the same system, or from a phase 1 run
    here when it is None.  Bland's rule on both phases guarantees
    termination.
    """
    n = len(objective)
    if start is None:
        start = _phase_one(a_eq, b_eq, n)
        if start is None:
            return "infeasible", None, None
    rows, basis, d, scale = start
    basis = list(basis)
    # Phase 2: minimize -objective, in the scaled variables and times the
    # lcm of the denominators, over the shared denominator d.
    c = _vec(objective)
    lcm = math.lcm(*(x.denominator for x in c))
    zrow = [-d * s * x.numerator * (lcm // x.denominator)
            for x, s in zip(c, scale)] + [0]
    for row, bi in zip(rows, basis):
        f = zrow[bi] // d
        if f:
            zrow = [z - f * t for z, t in zip(zrow, row)]
    tab = [*rows, zrow]
    d = _pivot_to_optimum(tab, basis, n, d)
    if d is None:
        return "unbounded", None, None
    x = _vertex(tab, basis, d, scale, n)
    return "optimal", sum(ci * xi for ci, xi in zip(c, x)), x


def _pivot_to_optimum(tab, basis, n_cols, d):
    """Pivot with Bland's rule until the z-row (last row) is nonnegative;
    returns the denominator, or None when the objective is unbounded."""
    m = len(tab) - 1
    while True:
        enter = next((j for j in range(n_cols) if tab[m][j] < 0), None)
        if enter is None:
            return d
        candidates = [i for i in range(m) if tab[i][enter] > 0]
        if not candidates:
            return None
        row = candidates[0]
        for i in candidates[1:]:
            # b_i / a_i < b_row / a_row, cross-multiplied; ties to the smaller basic index
            lhs, rhs = tab[i][-1] * tab[row][enter], tab[row][-1] * tab[i][enter]
            if lhs < rhs or lhs == rhs and basis[i] < basis[row]:
                row = i
        d = _pivot(tab, row, enter, d)
        basis[row] = enter


def classify_polytope(system: LinearSystem) -> PolytopeClass:
    """Classify {x : A x = b, x >= 0} as empty, a single point, or infinite.

    One phase 1 proves the set empty or reaches a vertex v, read off its
    basis.  The columns of A on the support of a vertex are linearly
    independent, so no other feasible point has its support inside
    supp(v): the set is {v} iff the sum of the coordinates off supp(v)
    has maximum 0, which phase 2 decides, started from v's basis.  The
    witness is v.
    """
    n = system.num_cols
    start = _phase_one(system.matrix, system.rhs, n)
    if start is None:
        return PolytopeClass("empty")
    v = _vertex(*start, n)
    off = tuple(ZERO if x else ONE for x in v)
    status, value, _ = simplex_maximize(system.matrix, system.rhs, off, start)
    if status == "unbounded" or value:
        return PolytopeClass("infinite", v)
    return PolytopeClass("point", v)


def solve_affine(matrix: Sequence[Sequence[Fraction]],
                 rhs: Sequence[Fraction]) -> Vector | None:
    """The unique solution of ``A x = b``, or None when the system has no
    solution or more than one: column c pivots in row c, and every row
    past the last column must reduce to 0 = 0."""
    n = len(matrix[0]) if matrix else 0
    rows, scale = _scaled([[*row, x] for row, x in zip(matrix, rhs)], n + 1)
    d = 1
    for c in range(n):
        k = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if k is None:
            return None
        rows[c], rows[k] = rows[k], rows[c]
        d = _pivot(rows, c, c, d)
    if any(row[-1] for row in rows[n:]):
        return None
    return _vertex(rows, range(n), d, scale, n)


def null_space_left(p: Sequence[Sequence[Fraction]]) -> Vector | None:
    """The row vector g with g.P = g and sum(g) = 1, or None when there
    is none or more than one: all n balance rows and the sum row."""
    n = len(p)
    rows = [[p[i][j] - 1 if i == j else p[i][j] for i in range(n)]
            for j in range(n)]
    rows.append([ONE] * n)
    return solve_affine(rows, [ZERO] * n + [ONE])
