"""Exact linear algebra: row reduction, simplex, polytope classification."""

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from conftest import random_cyclic_gbn, two_cycle
from cyclebn.constraints import build_cpt_system, build_wcpt_system
from cyclebn.linalg import (LinearSystem, classify_polytope, null_space_left,
                            rref, simplex_maximize, solve_affine)
from cyclebn.oracle import classify_by_vertices

F = Fraction


def test_rref_identity_like():
    a, b, pivots = rref(((F(2), F(0)), (F(0), F(4))), (F(2), F(8)))
    assert a == [[1, 0], [0, 1]]
    assert b == [1, 2]
    assert pivots == [0, 1]


def test_solve_affine_unique():
    sys = LinearSystem(((F(1), F(1)), (F(1), F(-1))), (F(1), F(0)))
    space = solve_affine(sys)
    assert not space.basis
    assert space.particular == (F(1, 2), F(1, 2))
    assert sys.is_solution(space.particular)


def test_solve_affine_underdetermined():
    space = solve_affine(LinearSystem(((F(1), F(1)),), (F(1),)))
    assert len(space.basis) == 1
    p = space.point((F(1, 3),))
    assert sum(p) == 1


def test_solve_affine_inconsistent():
    space = solve_affine(LinearSystem(((F(1), F(1)), (F(1), F(1))),
                                      (F(1), F(2))))
    assert space.is_empty


def test_solve_affine_no_rows():
    space = solve_affine(LinearSystem((), ()))
    assert space.particular == ()


@given(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_solve_affine_points_solve(entries, rhs):
    sys = LinearSystem((tuple(map(F, entries[:3])), tuple(map(F, entries[3:]))),
                       tuple(map(F, rhs)))
    space = solve_affine(sys)
    if not space.is_empty:
        assert all(r == 0 for r in sys.residuals(space.particular))
        for d in space.basis:
            shifted = tuple(p + x for p, x in zip(space.particular, d))
            assert all(r == 0 for r in sys.residuals(shifted))


def test_simplex_optimal():
    # max x0 subject to x0 + x1 = 1, x >= 0
    status, value, x = simplex_maximize(((F(1), F(1)),), (F(1),),
                                        (F(1), F(0)))
    assert status == "optimal"
    assert value == 1
    assert x == (1, 0)


def test_simplex_infeasible():
    status, _, _ = simplex_maximize(((F(1), F(1)), (F(1), F(1))),
                                    (F(1), F(2)), (F(0), F(0)))
    assert status == "infeasible"


def test_simplex_unbounded():
    # max x0 - x1 subject to x0 - x1 = 0: both can grow without bound? No;
    # use a genuinely unbounded objective along the feasible ray.
    status, _, _ = simplex_maximize(((F(1), F(-1)),), (F(0),),
                                    (F(1), F(0)))
    assert status == "unbounded"


def test_simplex_negative_rhs_normalized():
    status, value, x = simplex_maximize(((F(-1), F(-1)),), (F(-1),),
                                        (F(0), F(1)))
    assert status == "optimal"
    assert value == 1


def test_classify_point():
    cls = classify_polytope(LinearSystem(((F(1), F(1)), (F(1), F(-1))),
                                         (F(1), F(0))))
    assert cls.kind == "point"
    assert cls.witness == (F(1, 2), F(1, 2))


def test_classify_infinite_segment():
    cls = classify_polytope(LinearSystem(((F(1), F(1)),), (F(1),)))
    assert cls.kind == "infinite"
    assert all(x >= 0 for x in cls.witness)
    assert sum(cls.witness) == 1


def test_classify_empty_by_sign():
    # x0 + x1 = -1 has no nonnegative solutions.
    cls = classify_polytope(LinearSystem(((F(1), F(1)),), (F(-1),)))
    assert cls.kind == "empty"


def test_classify_point_despite_free_directions():
    # x0 - x1 = 0 and x0 + x1 = 0 leave only the origin in the cone.
    cls = classify_polytope(LinearSystem(((F(1), F(-1)),), (F(0),)))
    assert cls.kind == "infinite"   # the ray x0 = x1 >= 0
    cls2 = classify_polytope(LinearSystem(((F(1), F(1)),), (F(0),)))
    assert cls2.kind == "point"
    assert cls2.witness == (0, 0)


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
            assert cls.witness in vertices
            assert system.is_solution(cls.witness)
        if kind == "point":
            assert vertices == {cls.witness}
    assert kinds == {"empty", "point", "infinite"}


def test_null_space_left_identity():
    space = null_space_left(((F(1), F(0)), (F(0), F(1))))
    # every distribution is stationary for the identity
    assert len(space.basis) == 1


def test_null_space_left_two_cycle():
    space = null_space_left(((F(0), F(1)), (F(1), F(0))))
    assert not space.basis
    assert space.particular == (F(1, 2), F(1, 2))


def test_null_space_left_absorbing():
    p = ((F(1), F(0)), (F(1, 2), F(1, 2)))
    space = null_space_left(p)
    assert not space.basis
    assert space.particular == (F(1), F(0))
