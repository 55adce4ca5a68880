"""Exact linear algebra: unique solves, simplex, polytope classification."""

import hashlib
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (fractions, matrix_chain, random_cyclic_gbn, solve_rational,
                      two_cycle)
from cyclebn import linalg
from cyclebn.constraints import build_cpt_system, build_wcpt_system
from cyclebn.linalg import (LinearSystem, _forced_zeros, _phase_one,
                            classify_polytope, null_space_left,
                            simplex_maximize, solve_affine)
from cyclebn.model import scaled
from cyclebn.oracle import (classify_by_vertices, fraction_rref, is_solution,
                            stationary_by_state_reduction)

F = Fraction


def test_solve_affine_unique():
    sys = LinearSystem(((1, 1), (1, -1)), (1, 0))
    x = solve_affine([[1, 1, 1], [1, -1, 0]], 2)
    assert x == ([1, 1], 2)
    assert is_solution(sys, fractions(x))


def test_solve_affine_underdetermined():
    # x0 + x1 = 1 has a line of solutions
    assert solve_affine([[1, 1, 1]], 2) is None


def test_solve_affine_inconsistent():
    assert solve_affine([[1, 1, 1], [1, 1, 2]], 2) is None


def test_solve_affine_no_rows():
    assert solve_affine([], 0) == ([], 1)


def test_solve_affine_normalizes_a_negative_last_pivot():
    # the last Bareiss pivot is -1 here, and -2 on the two-cycle's system
    assert solve_affine([[-1, 1]], 1) == ([-1], 1)
    nums, den = null_space_left([[0, 1], [1, 0]], [1, 1])
    assert den > 0 and min(nums) >= 0


@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_solve_affine_points_solve(entries, rhs):
    sys = LinearSystem((entries[:2], entries[2:]), rhs)
    x = solve_affine([[*row, r] for row, r in zip(sys.matrix, rhs)], 2)
    # a square system has exactly one solution iff its determinant is not 0
    a, b, c, d = entries
    assert (x is None) == (a * d == b * c)
    if x is not None:
        assert x[1] > 0
        assert is_solution(sys, fractions(x))


@pytest.mark.parametrize("matrix, rhs", [
    (((F(1, 2), 1),), (1,)), (((1, 1),), (F(1),)), (((True, 1),), (1,)),
    (((1, 1),), (False,)), (((1.0, 1),), (1,))])
def test_linear_system_takes_ints_only(matrix, rhs):
    # a Fraction would be floored by the integer kernel's ``//``
    with pytest.raises(TypeError):
        LinearSystem(matrix, rhs)


def test_simplex_optimal():
    # max x0 subject to x0 + x1 = 1, x >= 0
    status, value, x = simplex_maximize(((1, 1),), (1,), (1, 0))
    assert status == "optimal"
    assert value == (1, 1)
    assert fractions(x) == (1, 0)


def test_simplex_infeasible():
    status, _, _ = simplex_maximize(((1, 1), (1, 1)), (1, 2), (0, 0))
    assert status == "infeasible"


def test_simplex_unbounded():
    # max x0 - x1 subject to x0 - x1 = 0: both can grow without bound? No;
    # use a genuinely unbounded objective along the feasible ray.
    status, _, _ = simplex_maximize(((1, -1),), (0,), (1, 0))
    assert status == "unbounded"


def test_simplex_negative_rhs_normalized():
    status, value, x = simplex_maximize(((-1, -1),), (-1,), (0, 1))
    assert status == "optimal"
    assert value == (1, 1)


def test_classify_point():
    cls = classify_polytope(LinearSystem(((1, 1), (1, -1)), (1, 0)))
    assert cls.kind == "point"
    assert fractions(cls.witness) == (F(1, 2), F(1, 2))


def test_classify_infinite_segment():
    cls = classify_polytope(LinearSystem(((1, 1),), (1,)))
    assert cls.kind == "infinite"
    assert all(x >= 0 for x in fractions(cls.witness))
    assert sum(fractions(cls.witness)) == 1


def test_classify_empty_by_sign():
    # x0 + x1 = -1 has no nonnegative solutions.
    cls = classify_polytope(LinearSystem(((1, 1),), (-1,)))
    assert cls.kind == "empty"


def test_classify_point_despite_free_directions():
    # x0 - x1 = 0 and x0 + x1 = 0 leave only the origin in the cone.
    cls = classify_polytope(LinearSystem(((1, -1),), (0,)))
    assert cls.kind == "infinite"   # the ray x0 = x1 >= 0
    cls2 = classify_polytope(LinearSystem(((1, 1),), (0,)))
    assert cls2.kind == "point"
    assert fractions(cls2.witness) == (0, 0)


def _random_system(rng: random.Random) -> LinearSystem:
    """Small integer system; half of them carry a normalization row, and
    b = 0, redundant rows, rays and degenerate vertices all occur."""
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    rhs = [rng.choice((0, rng.randint(-2, 2))) for _ in range(m)]
    if m > 1 and rng.random() < 0.25:
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        rhs[-1] = rhs[0] + rhs[1]
    if rng.random() < 0.5:
        rows[-1], rhs[-1] = [1] * n, 1
    return LinearSystem(tuple(map(tuple, rows)), tuple(rhs))


def test_classify_matches_vertex_enumeration():
    rng = random.Random(4)
    systems = [_random_system(rng) for _ in range(400)]
    for g in [two_cycle(0, 1, 1, 0), two_cycle(0, 1, 0, 1),
              two_cycle("3/4", "1/2", "3/4", "1/2")] + \
            [random_cyclic_gbn(rng, max_vars=3) for _ in range(12)]:
        systems += [build_cpt_system(g), build_wcpt_system(g)]
    kinds = set()
    for system in systems:
        cls = classify_polytope(system)
        kind, vertices = classify_by_vertices(system)
        assert cls.kind == kind
        kinds.add(kind)
        if kind != "empty":
            assert fractions(cls.witness) in vertices
            assert is_solution(system, fractions(cls.witness))
        if kind == "point":
            assert vertices == {fractions(cls.witness)}
    assert kinds == {"empty", "point", "infinite"}


def _int_rows(p):
    """Each row of ``p`` as integers over the lcm of its denominators."""
    dens = [math.lcm(*(x.denominator for x in row)) for row in p]
    return ([[x.numerator * (d // x.denominator) for x in row]
             for row, d in zip(p, dens)], dens)


def test_null_space_left_identity():
    # every distribution is stationary for the identity
    assert null_space_left([[1, 0], [0, 1]], [1, 1]) is None


def test_null_space_left_two_cycle():
    assert null_space_left([[0, 1], [1, 0]], [1, 1]) == ([1, 1], 2)


def test_null_space_left_absorbing():
    # rows (1, 0) and (1/2, 1/2)
    assert fractions(null_space_left([[1, 0], [1, 1]], [1, 2])) == (F(1), F(0))


# --- the integer kernel against the Fraction reference --------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _rational_system(rng: random.Random):
    """0-8 rows and columns with pairwise-coprime, mixed or no
    denominators, negative entries, zero columns, and dependent rows whose
    right-hand side is kept consistent or nudged off; or, two times in
    five, a square or tall system of full column rank with b = A x for a
    random x, one entry of b nudged off now and then."""
    dens = rng.choice((PRIMES, tuple(range(1, 13)), (1,)))

    def entry():
        return F(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < 0.7 else F(0)
    if rng.random() < 0.4:
        n = rng.randint(1, 8)
        rows = [[entry() for _ in range(n)] for _ in range(rng.randint(n, 8))]
        for i in range(n):
            # a strictly dominant diagonal makes the first n rows independent
            rows[i][i] = rng.choice((1, -1)) * (sum(map(abs, rows[i])) + 1)
        rng.shuffle(rows)
        cols = rng.sample(range(n), n)
        matrix = tuple(tuple(row[j] for j in cols) for row in rows)
        x = [entry() for _ in range(n)]
        rhs = [sum(a * xi for a, xi in zip(row, x)) for row in matrix]
        if rng.random() < 0.2:
            rhs[rng.randrange(len(rhs))] += F(1, rng.choice(dens))
        return matrix, tuple(rhs)
    m, n = rng.randint(0, 8), rng.randint(0, 8)
    rows = [[entry() for _ in range(n)] + [entry()] for _ in range(m)]
    for j in range(n):
        if rng.random() < 0.15:
            for row in rows:
                row[j] = F(0)
    for k in range(2, m):
        if rng.random() < 0.3:
            s, t = entry(), entry()
            rows[k] = [s * x + t * y for x, y in zip(rows[0], rows[1])]
            if rng.random() < 0.5:
                rows[k][-1] += F(1, rng.choice(dens))
    return tuple(tuple(row[:-1]) for row in rows), tuple(row[-1] for row in rows)


def _row_scaled(matrix, rhs):
    """A rational system with each row, its rhs included, times the lcm of
    its denominators: integers, and the same feasible set."""
    rows = [scaled([*row, x])[0] for row, x in zip(matrix, rhs)]
    return tuple(tuple(r[:-1]) for r in rows), tuple(r[-1] for r in rows)


def test_solve_affine_matches_fraction_rref():
    """None exactly when the reference shows rank < n or an inconsistent
    row; otherwise the reference's solution."""
    rng = random.Random(11)
    inconsistent = deficient = unique = 0
    for _ in range(400):
        matrix, rhs = _rational_system(rng)
        n = len(matrix[0]) if matrix else 0
        _, b0, pivots0 = fraction_rref(matrix, rhs)
        rank = len(pivots0)
        inconsistent += any(b0[rank:])
        deficient += rank < min(len(matrix), n)
        x = solve_rational(matrix, rhs)
        if rank < n or any(b0[rank:]):
            assert x is None
        else:
            unique += 1
            assert x == tuple(b0[:n])
    assert inconsistent > 20 and deficient > 50 and unique >= 100


# --- stationary vectors against state reduction ---------------------------

def _stochastic(weights):
    return tuple(tuple(F(w, sum(row)) for w in row) for row in weights)


def _irreducible_weights(rng: random.Random, n: int, smooth: bool):
    """Smooth rows, or 0/1-heavy rows around a random Hamiltonian cycle."""
    if smooth:
        return [[rng.randint(1, 8) for _ in range(n)] for _ in range(n)]
    order = rng.sample(range(n), n)
    weights = [[0] * n for _ in range(n)]
    for k, u in enumerate(order):
        weights[u][order[(k + 1) % n]] = 1
        if rng.random() < 0.3:
            weights[u][rng.randrange(n)] += rng.randint(1, 3)
    return weights


def test_null_space_left_matches_state_reduction():
    rng = random.Random(12)
    for n in list(range(1, 21)) * 2:
        p = _stochastic(_irreducible_weights(rng, n, rng.random() < 0.5))
        assert fractions(null_space_left(*_int_rows(p))) == \
            stationary_by_state_reduction(p)


def test_null_space_left_with_row_denominators_matches_state_reduction():
    # rows over their least denominators, and over random multiples of them
    rng = random.Random(14)
    wide = 0
    for n in list(range(2, 17)) * 2:
        p = _stochastic(_irreducible_weights(rng, n, rng.random() < 0.5))
        want = stationary_by_state_reduction(p)
        rows, dens = _int_rows(p)
        wide += max(dens) > 1
        assert fractions(null_space_left(rows, dens)) == want
        k = [rng.randint(2, 9) for _ in range(n)]
        assert fractions(null_space_left(
            [[x * m for x in row] for row, m in zip(rows, k)],
            [d * m for d, m in zip(dens, k)])) == want
    assert wide > 20


def test_bscc_lrfs_match_state_reduction():
    rng = random.Random(13)
    for _ in range(30):
        n_cut = rng.randint(2, 4)
        n = 1 << n_cut
        states = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
        classes = [states[i:j] for i, j in zip([0] + cuts, cuts)]
        transient = states[cuts[-1]:]
        weights = [[0] * n for _ in range(n)]
        for cls in classes:
            local = _irreducible_weights(rng, len(cls), rng.random() < 0.5)
            for a, u in enumerate(cls):
                for b, v in enumerate(cls):
                    weights[u][v] = local[a][b]
        for u in transient:
            weights[u][rng.choice(states[:cuts[-1]])] = rng.randint(1, 4)
            for v in rng.sample(range(n), rng.randint(0, n)):
                weights[u][v] += rng.randint(0, 3)
        chain = matrix_chain(tuple("ABCD"[:n_cut]), _stochastic(weights))
        assert sorted(map(sorted, chain.bsccs)) == sorted(map(sorted, classes))
        for comp, lrf in zip(chain.bsccs, chain.bscc_lrfs):
            nodes = sorted(comp)
            pi = stationary_by_state_reduction(
                [[chain.matrix[u][v] for v in nodes] for u in nodes])
            expect = dict(zip(nodes, pi))
            assert lrf.probs == tuple(expect.get(s, F(0)) for s in range(n))


# --- Bland's pivot sequence, pinned ----------------------------------------

#: Each pin test takes well under a second; a rule that cycles never ends.
PIN_BUDGET_S = 30

#: sha256 of the classifications and LP optima below, recorded with the
#: simplex on the integer rows of the systems as built, each CPT row times
#: its CPT's denominator.
WITNESS_DIGEST = "4806e25afe5afe7b08d3566695e06be1e26d46be4ceae465fa5ab622e70c8856"


def _text(xs):
    return "none" if xs is None else ",".join(map(str, xs))


@pytest.fixture
def pivot_budget():
    """Fail the test by name, not by hanging, when it runs past
    ``PIN_BUDGET_S``: a pivot rule that loses Bland's termination cycles
    forever.  Without ``SIGALRM`` (Windows) the test runs unguarded."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"over the {PIN_BUDGET_S} s budget: does the pivot rule cycle?")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(PIN_BUDGET_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_simplex_witnesses_are_pinned(pivot_budget):
    """Infinite families have many feasible points: the witness and the
    optimum picked are the ones Bland's rule reaches, and only the same
    pivot sequence reproduces them."""
    rng = random.Random(40)
    digest = hashlib.sha256()
    for _ in range(40):
        g = random_cyclic_gbn(rng, max_vars=4)
        for system in (build_cpt_system(g), build_wcpt_system(g)):
            cls = classify_polytope(system)
            objective = tuple((5 * j) % 7 - 3 for j in range(system.num_cols))
            status, value, x = simplex_maximize(system.matrix, system.rhs, objective)
            value = None if value is None else F(*value)
            digest.update(f"{cls.kind} {_text(fractions(cls.witness))} | "
                          f"{status} {value} {_text(fractions(x))}\n".encode())
    assert digest.hexdigest() == WITNESS_DIGEST


#: sha256 of the classifications below, recorded, as ``WITNESS_DIGEST``,
#: with the simplex on the integer rows of the systems as built, and with
#: the zero-forcing presolve: the simplex runs on the columns it leaves.
LARGE_WITNESS_DIGEST = "078a02d7c3c5b5cc3737d4c1e30caf585c1e578995132effac3c316c803829ad"


def test_classify_witnesses_on_larger_systems_are_pinned(pivot_budget):
    """The cpt and wcpt systems of 5- and 6-node networks (up to 64
    columns; 0/1, halves or eighths as CPT entries, so every kind
    occurs): the witness is the vertex Bland's rule reaches in phase 1."""
    rng = random.Random(2)
    digest = hashlib.sha256()
    networks = 0
    while networks < 28:
        g = random_cyclic_gbn(rng, max_vars=6, denom=rng.choice((1, 2, 8)))
        if len(g.nodes) < 5:
            continue
        networks += 1
        for system in (build_cpt_system(g), build_wcpt_system(g)):
            cls = classify_polytope(system)
            digest.update(f"{cls.kind} {_text(fractions(cls.witness))}\n".encode())
    assert digest.hexdigest() == LARGE_WITNESS_DIGEST


# --- one phase 1, phase 2 started from its tableau ------------------------

def test_warm_started_simplex_matches_cold():
    rng = random.Random(14)
    statuses = set()
    for k in range(400):
        if k % 2:
            system = _random_system(rng)
            a, b = system.matrix, system.rhs
        else:
            a, b = _row_scaled(*_rational_system(rng))
        n = len(a[0]) if a else rng.randint(0, 3)
        # the objective times its lcm: the same pivots, a multiple of the optimum
        c = scaled(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))[0]
        cold = simplex_maximize(a, b, c)
        statuses.add(cold[0])
        start = _phase_one(a, b, n)
        if start is None:
            assert cold[0] == "infeasible"
            continue
        assert simplex_maximize(a, b, c, start) == cold
        assert simplex_maximize(a, b, c, start) == cold    # start is reusable
    assert statuses == {"infeasible", "unbounded", "optimal"}


def test_phase_two_stops_once_its_value_passes_the_bound():
    # Simplex values never fall, so with a bound the pivots are those of
    # the full run until the value first exceeds it; that basis comes
    # back as "above", never as "optimal".
    rng = random.Random(16)
    statuses = set()
    for k in range(400):
        if k % 2:
            system = _random_system(rng)
            a, b = system.matrix, system.rhs
        else:
            a, b = _row_scaled(*_rational_system(rng))
        n = len(a[0]) if a else rng.randint(0, 3)
        c = [rng.randint(-3, 3) for _ in range(n)]
        start = _phase_one(a, b, n)
        if start is None:
            continue
        full = simplex_maximize(a, b, c, start)
        bound = rng.randint(-1, 2)
        status, value, x = stopped = simplex_maximize(a, b, c, start, above=bound)
        statuses.add(status)
        if full[0] == "optimal" and full[1][0] <= bound * full[1][1]:
            assert stopped == full
        elif status == "unbounded":
            assert full[0] == "unbounded"
        else:
            assert status == "above"
            assert value[0] > bound * value[1]
            assert full[0] == "unbounded" or value[0] * full[1][1] <= full[1][0] * value[1]
            assert is_solution(LinearSystem(a, b), fractions(x))
            assert sum(map(int.__mul__, c, x[0])) == value[0] and x[1] == value[1]
    assert statuses == {"optimal", "above", "unbounded"}


def test_classify_stops_phase_two_on_the_first_positive_value(monkeypatch):
    # x0 + 2 x1 + x2 = 2 from the vertex x0 = 2: x1 enters first and
    # moves mass off the support, which decides "infinite"; the optimum
    # of x1 + x2 needs x2 to enter as well.
    pivots = []
    real = linalg._exchange

    def counted(*args):
        pivots.append(args)
        return real(*args)
    monkeypatch.setattr(linalg, "_exchange", counted)
    a, b, off = ((1, 2, 1),), (2,), (0, 1, 1)
    start = _phase_one(a, b, 3)
    pivots.clear()
    assert simplex_maximize(a, b, off, start) == ("optimal", (2, 1), ((0, 0, 2), 1))
    assert len(pivots) == 2
    pivots.clear()
    assert simplex_maximize(a, b, off, start, above=0) == ("above", (2, 2), ((0, 2, 0), 2))
    assert len(pivots) == 1
    pivots.clear()
    assert classify_polytope(LinearSystem(a, b)) == \
        linalg.PolytopeClass("infinite", ((2, 0, 0), 1))
    assert len(pivots) == 2     # one in phase 1, one in phase 2


def test_classify_runs_phase_one_once(monkeypatch):
    calls = {"_phase_one": 0, "simplex_maximize": 0}

    def counted(name):
        real = getattr(linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(linalg, name, wrapper)
    counted("_phase_one")
    counted("simplex_maximize")
    rng = random.Random(15)
    presolved = 0
    for _ in range(60):
        before = dict(calls)
        kind = classify_polytope(_random_system(rng)).kind
        runs = calls["_phase_one"] - before["_phase_one"]
        # at most once, and exactly once unless the presolve proved it empty
        assert runs == 1 or runs == 0 and kind == "empty"
        presolved += not runs
        # phase 2 runs through simplex_maximize on every nonempty set
        assert calls["simplex_maximize"] == \
            before["simplex_maximize"] + (kind != "empty")
    assert presolved


#: Systems that take phase 1's drive-out and row-drop paths.  An
#: artificial still basic (at zero) when phase 1 ends is pivoted out on an
#: original column, its row negated first when that entry is negative (the
#: rows 0 = -x0 - x1 ...), or its row, which no original column can
#: replace, is dropped.  Negative right-hand sides are negated up front.
DEGENERATE = [
    (((1, 1), (2, 2)), (1, 2)),                         # repeated row
    (((1, 1), (0, 0)), (1, 0)),                         # all-zero row
    (((0, 0), (1, 1)), (0, 1)),                         # all-zero row first
    (((0, 0),), (1,)),                                  # 0 = 1
    (((-1, -1),), (0,)),                                # drive-out
    (((-1, -1, 0), (1, 1, 1)), (0, 1)),                 # drive-out, then a vertex
    (((-1, -2, 0), (0, 1, 1), (-1, -1, 1)), (0, 1, 1)), # drive-out, dependent rows
    (((-1, -1, 1), (1, -1, 0)), (-1, 0)),               # negative rhs
    (((-1, -1, 0), (-2, -2, 0)), (-1, -2)),             # negative rhs, repeated
    (((1, -1, 0), (-1, 1, 0), (1, 1, 1)), (0, 0, 1)),   # two rows summing to 0
]


def test_drive_out_and_row_drop_keep_a_basis_of_original_columns():
    for matrix, rhs in DEGENERATE:
        system = LinearSystem(matrix, rhs)
        n = system.num_cols
        kind, vertices = classify_by_vertices(system)
        start = _phase_one(system.matrix, system.rhs, n)
        assert (start is None) == (kind == "empty")
        if start is not None:
            rows, basis, cols, _ = start
            assert all(b < n for b in basis)
            # disjoint original columns: each one is basic or holds a slot
            assert sorted(basis + cols) == list(range(n))
            assert len(rows) == len(fraction_rref(system.matrix, system.rhs)[2])
        cls = classify_polytope(system)
        assert cls.kind == kind
        if kind != "empty":
            assert fractions(cls.witness) in vertices


# --- the zero-forcing presolve ---------------------------------------------

def _forcing_system(rng: random.Random) -> LinearSystem:
    """0-8 columns with a forcing chain: the first row, rhs 0, has one
    sign on the chain's first columns, and each later chain row one sign
    on its new columns but any signs on columns forced before it.  Random
    rows follow, some only over the chain's columns with rhs not 0 (empty
    once the chain is forced), and a normalization row half the time.
    The chain covers every column one time in four, and the rows come
    shuffled, so a row often forces only after a row listed below it."""
    n = rng.randint(0, 8)
    order = rng.sample(range(n), n)
    chain = order if rng.random() < 0.25 else order[:rng.randint(0, n)]
    rows, rhs = [], []
    done = 0
    while done < len(chain):
        new = chain[done:done + rng.randint(1, 3)]
        sign = rng.choice((1, -1))
        row = [0] * n
        for j in new:
            row[j] = sign * rng.randint(1, 3)
        for j in chain[:done]:
            row[j] = rng.choice((0, rng.randint(-3, 3)))
        rows.append(row)
        rhs.append(0)
        done += len(new)
    for _ in range(rng.randint(0, 3)):
        span = chain if chain and rng.random() < 0.4 else range(n)
        row = [0] * n
        for j in span:
            row[j] = rng.randint(-2, 2)
        rows.append(row)
        rhs.append(rng.choice((0, rng.randint(-2, 2))))
    if rng.random() < 0.5:
        rows.append([1] * n)
        rhs.append(1)
    order = rng.sample(range(len(rows)), len(rows))
    return LinearSystem([rows[i] for i in order], [rhs[i] for i in order])


def _one_signed(row, live) -> bool:
    """Do the nonzero entries of ``row`` at the columns ``live`` exist
    and all have one sign?"""
    return len({row[j] > 0 for j in live if row[j]}) == 1


def test_presolve_matches_vertex_enumeration():
    """The presolve keeps the kind and lifts the witness to a vertex; its
    forced set is closed (no row with rhs 0 forces more) and sound (each
    forced column has maximum 0 over the set, by ``simplex_maximize``,
    which runs no presolve)."""
    rng = random.Random(16)
    seen = dict.fromkeys(("chain", "all forced", "row lost", "no columns"), 0)
    for _ in range(200):
        system = _forcing_system(rng)
        n, a, b = system.num_cols, system.matrix, system.rhs
        forced = _forced_zeros(a, b)
        live = [j for j in range(n) if j not in forced]
        assert not any(_one_signed(row, live) for row, x in zip(a, b) if not x)
        for j in forced:
            unit = [int(k == j) for k in range(n)]
            status, value, _ = simplex_maximize(a, b, unit)
            assert status == "infeasible" or status == "optimal" and value[0] == 0
        direct = {j for row, x in zip(a, b) if not x and _one_signed(row, range(n))
                  for j in range(n) if row[j]}
        seen["chain"] += forced != direct
        seen["all forced"] += n > 0 and not live
        seen["row lost"] += any(x and not any(row[j] for j in live)
                                for row, x in zip(a, b))
        seen["no columns"] += n == 0
        cls = classify_polytope(system)
        kind, vertices = classify_by_vertices(system)
        assert cls.kind == kind
        if kind != "empty":
            assert fractions(cls.witness) in vertices
    assert min(seen.values()) >= 20, seen


def test_all_zero_rows_keep_the_class_or_empty_it():
    """An all-zero row with rhs 0 holds at every point, so inserting such
    rows keeps the kind and the witness; one with rhs not 0 holds at
    none, so the set is empty."""
    rng = random.Random(17)
    for _ in range(200):
        system = rng.choice((_random_system, _forcing_system))(rng)
        rows, rhs = list(system.matrix), list(system.rhs)
        zero = (0,) * system.num_cols
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(rows))
            rows.insert(i, zero)
            rhs.insert(i, 0)
        assert classify_polytope(LinearSystem(rows, rhs)) == classify_polytope(system)
        i = rng.randint(0, len(rows))
        rows.insert(i, zero)
        rhs.insert(i, rng.choice((-2, -1, 1, 2)))
        assert classify_polytope(LinearSystem(rows, rhs)).kind == "empty"
