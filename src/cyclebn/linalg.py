"""Exact rational linear algebra on fraction-free integer elimination.

Every result leaves this module as integer numerators over one positive
denominator; only the optimum of ``simplex_maximize`` is a ``Fraction``.
Elimination runs on integers in the manner of Bareiss and Edmonds: the
rows being updated share one denominator d, the previous pivot, and
every update ``(p*x - f*y) // d`` divides exactly.

``solve_affine`` takes integer rows ``[A | b]`` and returns the unique
solution of ``A x = b``, or None when it has none or more than one; the
stationary vectors and absorption probabilities of a cutset chain are
such solutions, and the chain hands over its integer rows as they are.
It runs Bareiss's forward elimination, which updates only the rows
below each pivot, and then an integer back substitution: with d the
last pivot, y = d x is integral by Cramer's rule.

An exact two-phase simplex (Bland's rule, so termination needs no
perturbation), run on ``A x = b, x >= 0`` as given, classifies the set
of nonnegative solutions as empty, a single point, or an infinite
polytope: one phase 1 finds a vertex, and phase 2, started from that
vertex's basis, tests whether anything lies off its support.  Its rows
may hold ``Fraction``s, so each column, the right-hand side included,
is first multiplied by the lcm of its own denominators (one global lcm
would multiply the denominators of all rows together).  The simplex
keeps Gauss-Jordan pivots, which update every row, the z-row included,
so that the whole tableau stays on one denominator.  Phase 1 carries no
artificial columns.  Bland's rule tries the original columns first, so
it pivots as it would with them until the artificial sum is minimal,
and any later pivot would be degenerate and leave the vertex as it is.
On the integer tableau d stays positive, ratios are compared by
cross-multiplying, and positive column scales keep every sign and ratio
order, so Bland's rule takes the pivots it takes over ``Fraction``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .model import _Value

#: A point as integer numerators over one positive denominator.
Point = tuple[tuple[int, ...], int]


class LinearSystem(_Value):
    """``A x = b``, its entries ints or ``Fraction``s, stored as given."""

    _fields = ("matrix", "rhs")

    def __init__(self, matrix, rhs) -> None:
        matrix, rhs = tuple(map(tuple, matrix)), tuple(rhs)
        if len(matrix) != len(rhs):
            raise ValueError("matrix and rhs have different row counts")
        widths = {len(r) for r in matrix}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        vars(self).update(matrix=matrix, rhs=rhs)

    @property
    def num_cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


class PolytopeClass(_Value):
    """Classification of {x : A x = b, x >= 0}: 'empty', 'point', or
    'infinite', with a vertex ``(nums, den)`` as witness when not empty."""

    _fields = ("kind", "witness")

    def __init__(self, kind: str, witness: Point | None = None) -> None:
        vars(self).update(kind=kind, witness=witness)


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


def _vertex(rows, basis, d, scale, n) -> Point:
    """The basic solution of a tableau, unscaled, over ``d * scale[-1]``."""
    x = [0] * n
    for row, bi in zip(rows, basis):
        x[bi] = row[-1] * scale[bi]
    return tuple(x), d * scale[-1]


def simplex_maximize(a_eq: Sequence[Sequence[Fraction]],
                     b_eq: Sequence[Fraction],
                     objective: Sequence[Fraction], start=None):
    """Maximize c.x subject to A x = b, x >= 0, exactly.

    Returns ("infeasible", None, None), ("unbounded", None, None), or
    ("optimal", value, (nums, den)): the optimum, a ``Fraction``, and a
    vertex x = nums / den reaching it.  Phase 2 starts from ``start``,
    the tableau ``_phase_one`` returned for the same system, or from a
    phase 1 run here when it is None.  Bland's rule on both phases
    guarantees termination.
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
    lcm = math.lcm(*(x.denominator for x in objective))
    zrow = [-d * s * x.numerator * (lcm // x.denominator)
            for x, s in zip(objective, scale)] + [0]
    for row, bi in zip(rows, basis):
        f = zrow[bi] // d
        if f:
            zrow = [z - f * t for z, t in zip(zrow, row)]
    tab = [*rows, zrow]
    d = _pivot_to_optimum(tab, basis, n, d)
    if d is None:
        return "unbounded", None, None
    nums, den = x = _vertex(tab, basis, d, scale, n)
    return "optimal", Fraction(sum(c * p for c, p in zip(objective, nums)), den), x


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
    off = tuple(0 if x else 1 for x in v[0])
    status, value, _ = simplex_maximize(system.matrix, system.rhs, off, start)
    if status == "unbounded" or value:
        return PolytopeClass("infinite", v)
    return PolytopeClass("point", v)


def solve_affine(rows: list[list[int]], n: int) -> tuple[list[int], int] | None:
    """Integer rows ``[A | b]`` over n columns: ``(y, d)`` with ``d > 0``
    and ``x = y / d`` the unique solution of ``A x = b``, or None when
    the system has no solution or more than one.  ``rows`` is consumed.

    Forward elimination pivots column c in row c and updates only the
    rows below, each cut down to its columns past c; a row with f = 0
    is still rescaled by p / d onto the new denominator.  A row past the
    n-th is then its bare rhs and must be 0.  Back substitution on the
    pivot rows U gives ``y[c] = (d*b[c] - sum U[c][j]*y[j]) // U[c][c]``
    over j > c, which divides exactly because y is integral.  The last
    pivot d may be negative, and then y and d change sign."""
    d = 1
    for c in range(n):
        k = next((i for i in range(c, len(rows)) if rows[i][0]), None)
        if k is None:
            return None
        rows[c], rows[k] = rows[k], rows[c]
        p, *tail = rows[c]
        for i in range(c + 1, len(rows)):
            f, *row = rows[i]
            if f:
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, tail)]
            elif p != d:
                rows[i] = [p * x // d for x in row]
            else:
                rows[i] = row
        d = p
    if any(rhs for [rhs] in rows[n:]):
        return None
    y = [0] * n
    for c in range(n - 1, -1, -1):
        u = rows[c]
        y[c] = (d * u[-1] - sum(map(int.__mul__, u[1:-1], y[c + 1:]))) // u[0]
    if d < 0:
        return [-yc for yc in y], -d
    return y, d


def null_space_left(rows: Sequence[Sequence[int]],
                    dens: Sequence[int]) -> tuple[list[int], int] | None:
    """The row vector g with g.P = g and sum(g) = 1 as ``(nums, den)``,
    ``g = nums / den``, or None when there is none or more than one,
    where ``P[u][v] = rows[u][v] / dens[u]``.

    In z_u = g_u / dens[u] the n balance rows and the sum row are
    integer: ``sum_u z_u rows[u][v] - z_v dens[v] = 0`` and
    ``sum_u z_u dens[u] = 1``.  With each row over its least
    denominator these are the integers that column scaling would give."""
    n = len(rows)
    system = [[rows[u][v] - dens[u] if u == v else rows[u][v]
               for u in range(n)] + [0] for v in range(n)]
    system.append([*dens, 1])
    solved = solve_affine(system, n)
    if solved is None:
        return None
    z, d = solved
    return [zu * du for zu, du in zip(z, dens)], d
