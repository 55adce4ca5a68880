"""Exact rational linear algebra on fraction-free integer elimination.

Every input is integer and every result leaves this module as integer
numerators over one positive denominator.  Elimination runs on integers
in the manner of Bareiss and Edmonds: the rows being updated share one
denominator d, the previous pivot, and every update
``(p*x - f*y) // d`` divides exactly.

``solve_affine`` takes integer rows ``[A | b]`` and returns the unique
solution of ``A x = b``, or None when it has none or more than one; the
stationary vectors and absorption probabilities of a cutset chain are
such solutions, and the chain hands over its integer rows as they are.
It runs Bareiss's forward elimination, which updates only the rows
below each pivot, and then an integer back substitution: with d the
last pivot, y = d x is integral by Cramer's rule.

An exact two-phase simplex (Bland's rule, so termination needs no
perturbation), run on the integers of ``A x = b, x >= 0`` exactly as
given, classifies the set of nonnegative solutions as empty, a single
point, or an infinite polytope: one phase 1 finds a vertex, and phase 2,
started from that vertex's basis, tests whether anything lies off its
support, and stops at the first basis that shows something does.  The
simplex keeps a condensed tableau, the integer Jordan
exchange of exact vertex codes (Edmonds; Avis's lrs): a row per basic
variable, a slot per nonbasic one (``cols`` names the variable of each)
and the rhs, the z-row included, all on one denominator d, so that a
basic variable is its row's ``row[-1]`` over d.  Bland's rule enters the
smallest variable label, not the first slot, so every pivot is the one
a full Gauss-Jordan tableau would make, on only the nonbasic columns.
Phase 1 starts with the artificials basic and every original column
in a slot; an artificial that leaves loses its slot, since Bland's rule
tries the original columns first and would never bring it back before
the artificial sum is minimal, and any later pivot would be degenerate
and leave the vertex as it is.  On the integer tableau d stays positive
and ratios are compared by cross-multiplying.

``classify_polytope`` runs a zero-forcing presolve first (Andersen and
Andersen, "Presolving in linear programming", 1995): a row with rhs 0
whose live coefficients all have one sign forces those columns to 0,
until nothing changes.  The simplex then runs on the columns left and
the rows that still have one.
"""

from __future__ import annotations

from collections.abc import Sequence

from .model import _Value

#: A point as integer numerators over one positive denominator.
Point = tuple[tuple[int, ...], int]


class LinearSystem(_Value):
    """``A x = b`` with ``int`` entries, stored as given: the simplex runs
    on exactly these integers.  Any other entry, a ``Fraction`` or a
    ``bool`` included, is a ``TypeError``, since ``//`` would floor a
    ``Fraction`` without a word."""

    _fields = ("matrix", "rhs")

    def __init__(self, matrix, rhs) -> None:
        matrix, rhs = tuple(map(tuple, matrix)), tuple(rhs)
        if len(matrix) != len(rhs):
            raise ValueError("matrix and rhs have different row counts")
        widths = {len(r) for r in matrix}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        if set(map(type, rhs)).union(*[map(type, r) for r in matrix]) - {int}:
            raise TypeError("linear system entries must be ints")
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


# --- exact simplex ---------------------------------------------------------

def _exchange(tab, basis, cols, r, s, d, n) -> int:
    """Fraction-free Jordan exchange on the condensed tableau ``tab`` at
    row r and slot s over the shared denominator d; returns the new one,
    the pivot p.  The variable ``cols[s]`` enters row r.  Every other row
    becomes ``(p*x - f*y) // d`` with ``-f`` in slot s, and the pivot
    row keeps its entries with d in slot s, which the leaving variable
    takes; a leaving artificial (label ``>= n``) can never re-enter, so
    its slot is dropped instead.  Rows are replaced, never changed in
    place, except by that drop, which happens only in phase 1."""
    prow = tab[r]
    p = prow[s]
    for i, row in enumerate(tab):
        f = row[s]
        if i == r or not f and p == d:
            continue
        if f:
            tab[i] = new = [(p * x - f * y) // d for x, y in zip(row, prow)]
            new[s] = -f
        else:
            tab[i] = [p * x // d for x in row]
    basis[r], leaving = cols[s], basis[r]
    if leaving < n:
        tab[r] = prow = [*prow]
        prow[s] = d
        cols[s] = leaving
    else:
        for row in tab:
            del row[s]
        del cols[s]
    return p


def _phase_one(a_eq: Sequence[Sequence[int]], b_eq: Sequence[int], n: int):
    """Phase 1 on ``A x = b, x >= 0``: the feasible condensed tableau
    ``(rows, basis, cols, d)``, or None when the system is infeasible.
    Row i holds basic variable ``basis[i]``; its slots hold the nonbasic
    original columns ``cols`` in that order, then the rhs.  The start
    artificial of row i has label ``n + i``.  At the optimum the
    artificials still basic (at zero) are driven out, and rows where
    none can be are redundant and dropped, so ``basis`` and ``cols`` are
    disjoint original columns.  Phase 2 copies what it changes, so the
    start can be reused."""
    m = len(a_eq)
    tab = [[*row, x] if x >= 0 else [-y for y in (*row, x)]
           for row, x in zip(a_eq, b_eq)]
    basis, cols = list(range(n, n + m)), list(range(n))
    tab.append([-sum(col) for col in zip(*tab)] or [0] * (n + 1))
    d = _pivot_to_optimum(tab, basis, cols, 1, n)
    if tab.pop()[-1] != 0:       # phase-1 optimum = -(residual artificial sum)
        return None
    for i in range(m):
        if basis[i] >= n:
            s = min((s for s, x in enumerate(tab[i][:-1]) if x),
                    key=cols.__getitem__, default=None)
            if s is not None:
                if tab[i][s] < 0:       # the row is 0 = ..., so negate it
                    tab[i] = [-x for x in tab[i]]
                d = _exchange(tab, basis, cols, i, s, d, n)
    keep = [i for i in range(m) if basis[i] < n]
    return [tab[i] for i in keep], [basis[i] for i in keep], cols, d


def _vertex(rows, basis, d, n) -> Point:
    """The basic solution of a tableau: each ``row[-1]`` over ``d``."""
    x = [0] * n
    for row, bi in zip(rows, basis):
        x[bi] = row[-1]
    return tuple(x), d


def simplex_maximize(a_eq: Sequence[Sequence[int]], b_eq: Sequence[int],
                     objective: Sequence[int], start=None, *, above=None):
    """Maximize c.x subject to A x = b, x >= 0, exactly, all integers.

    Returns ("infeasible", None, None), ("unbounded", None, None), or
    ("optimal", (value, den), (nums, den)): the optimum value / den and
    a vertex x = nums / den reaching it.  Phase 2 starts from ``start``,
    the tableau ``(rows, basis, cols, d)`` that ``_phase_one`` returned
    for the same system, or from a phase 1 run here when it is None; the
    start is left as it was.  Bland's rule on both phases guarantees
    termination.  With an integer bound ``above``, phase 2 stops at the
    first basis whose value exceeds it and returns ("above", (value,
    den), (nums, den)) for that vertex, which need not be optimal; an
    unbounded column met first is still "unbounded".
    """
    n = len(objective)
    if start is None:
        start = _phase_one(a_eq, b_eq, n)
        if start is None:
            return "infeasible", None, None
    rows, basis, cols, d = start
    basis, cols = list(basis), list(cols)
    # Phase 2: minimize -objective over the shared denominator d.
    zrow = [-d * objective[j] for j in cols] + [0]
    for row, bi in zip(rows, basis):
        c = objective[bi]
        if c:
            zrow = [z + c * t for z, t in zip(zrow, row)]
    tab = [*rows, zrow]
    d = _pivot_to_optimum(tab, basis, cols, d, n, above)
    if d is None:
        return "unbounded", None, None
    nums, den = x = _vertex(tab, basis, d, n)
    value = sum(map(int.__mul__, objective, nums))
    status = "optimal" if above is None or value <= above * den else "above"
    return status, (value, den), x


def _pivot_to_optimum(tab, basis, cols, d, n, above=None):
    """Pivot with Bland's rule until the z-row (last row) is nonnegative:
    the smallest variable label with a negative slot enters; returns the
    denominator, or None when the objective is unbounded.  The z-row's
    rhs is d times the objective value at the current basis, so with an
    integer bound ``above`` the pivoting also stops, before any further
    pivot, once that rhs exceeds ``above * d``."""
    m = len(tab) - 1
    while True:
        if above is not None and tab[m][-1] > above * d:
            return d
        labels = [j for j, z in zip(cols, tab[m]) if z < 0]
        if not labels:
            return d
        s = cols.index(min(labels))
        candidates = [i for i in range(m) if tab[i][s] > 0]
        if not candidates:
            return None
        row = candidates[0]
        for i in candidates[1:]:
            # b_i / a_i < b_row / a_row, cross-multiplied; ties to the smaller basic index
            lhs, rhs = tab[i][-1] * tab[row][s], tab[row][-1] * tab[i][s]
            if lhs < rhs or lhs == rhs and basis[i] < basis[row]:
                row = i
        d = _exchange(tab, basis, cols, row, s, d, n)


def _forced_zeros(a_eq: Sequence[Sequence[int]], b_eq: Sequence[int]) -> set[int]:
    """Columns that are 0 at every nonnegative solution by the zero-forcing
    rule, applied until nothing changes: a row with rhs 0 whose live
    (not yet forced) coefficients all have one sign forces those columns
    to 0.  A 0 or 1 CPT entry gives such a row, and so does a pinning
    row of a zero-mass initial assignment."""
    forced: set[int] = set()
    pending = [row for row, x in zip(a_eq, b_eq) if not x]
    while True:
        rest = []
        for row in pending:
            live = [v for j, v in enumerate(row) if j not in forced] if forced else row
            if min(live, default=0) >= 0 or max(live) <= 0:
                forced.update(j for j, v in enumerate(row) if v)
            else:
                rest.append(row)
        if len(rest) == len(pending):
            return forced
        pending = rest


def classify_polytope(system: LinearSystem) -> PolytopeClass:
    """Classify {x : A x = b, x >= 0} as empty, a single point, or infinite.

    A presolve first drops the columns ``_forced_zeros`` finds: the set
    is the face x_F = 0, so it keeps its kind, and a vertex of the
    reduced system with zeros put back at F is a vertex of the set.
    Every row left with no column goes too, and the set is empty when
    such a row's rhs is not 0.

    One phase 1 then proves the set empty or reaches a vertex v, read
    off its basis.  The columns of A on the support of a vertex are
    linearly independent, so no other feasible point has its support
    inside supp(v): the set is {v} iff the sum of the coordinates off
    supp(v) has maximum 0, which phase 2 decides, started from v's
    basis.  That sum is 0 at v, so phase 2 stops at the first basis
    where it is positive, or at an unbounded column: the set is then
    infinite.  The witness is v.
    """
    n = system.num_cols
    forced = _forced_zeros(system.matrix, system.rhs)
    live = [j for j in range(n) if j not in forced]
    a_eq, b_eq = [], []
    for row, x in zip(system.matrix, system.rhs):
        row = [row[j] for j in live]
        if any(row):
            a_eq.append(row)
            b_eq.append(x)
        elif x:
            return PolytopeClass("empty")
    start = _phase_one(a_eq, b_eq, len(live))
    if start is None:
        return PolytopeClass("empty")
    rows, basis, _, d = start
    nums, den = _vertex(rows, basis, d, len(live))
    off = tuple(0 if x else 1 for x in nums)
    status, _, _ = simplex_maximize(a_eq, b_eq, off, start, above=0)
    kind = "point" if status == "optimal" else "infinite"
    x = [0] * n
    for j, v in zip(live, nums):
        x[j] = v
    return PolytopeClass(kind, (tuple(x), den))


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
