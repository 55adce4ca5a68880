"""Consistency constraint systems and their solution families."""

import random
from fractions import Fraction

import pytest

from conftest import random_acyclic_gbn, two_cycle
from cyclebn.chain import cutset_mc
from cyclebn.constraints import (build_cpt_system, build_wcpt_system,
                                 check_consistency, cpt_i_via_cutsets,
                                 is_strongly_consistent, solve_family)
from cyclebn.families import EMPTY, INFINITE, UNIQUE, UNSUPPORTED
from cyclebn.inference import chain_rule_dist, to_digraph
from cyclebn.model import Cpt, JointDistribution, make_gbn
from cyclebn.oracle import (IndependenceTriple, check_cpt_i_member, close,
                            closed_cut_triples, enumerate_dsep_triples,
                            is_solution)

F = Fraction


def test_cpt_system_shape_and_first_row():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    sys = build_cpt_system(g)
    # four conditional rows plus normalization; no initial nodes to pin
    assert len(sys.matrix) == 5
    assert sys.matrix[0] == (F(3, 4), F(0), F(-1, 4), F(0))
    assert sys.matrix[-1] == (F(1), F(1), F(1), F(1))
    assert sys.rhs == (0, 0, 0, 0, 1)


def test_cpt_family_unique():
    fam = solve_family(two_cycle("3/4", "1/2", "3/4", "1/2"), "cpt")
    assert fam.status == UNIQUE
    assert fam.unique_distribution.probs == (F(1, 10), F(3, 10), F(3, 10), F(3, 10))


def test_cpt_family_empty():
    fam = solve_family(two_cycle(0, 1, 1, 0), "cpt")
    assert fam.status == EMPTY
    assert not fam.distributions


def test_cpt_family_infinite():
    fam = solve_family(two_cycle(0, 1, 0, 1), "cpt")
    assert fam.status == INFINITE
    w = fam.distributions[0]
    assert w.prob({"X": True, "Y": False}) == 0
    assert w.prob({"X": False, "Y": True}) == 0


def test_unknown_family_kind():
    with pytest.raises(ValueError):
        solve_family(two_cycle("1/2", "1/2", "1/2", "1/2"), "bogus")


def test_wcpt_contains_cpt_solution():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    mu = solve_family(g, "cpt").unique_distribution
    wsys = build_wcpt_system(g)
    assert is_solution(wsys, mu.probs)


def test_wcpt_system_shape():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    sys = build_wcpt_system(g)
    assert len(sys.matrix) == 3    # one marginal row per node + normalization


def test_acyclic_cpt_solution_is_chain_rule():
    g = make_gbn(["X", "Y"], [("X", "Y")],
                 [Cpt("Y", ("X",), (F(1, 2), F(3, 4)))],
                 JointDistribution(("X",), (F(1, 4), F(3, 4))))
    fam = solve_family(g, "cpt")
    assert fam.status == UNIQUE
    assert fam.unique_distribution == chain_rule_dist(g)


def test_iota_rows_pin_initial_marginal():
    iota = JointDistribution(("A", "B"), (F(1, 2), F(0), F(0), F(1, 2)))
    g = make_gbn(["A", "B", "C"], [("A", "C"), ("B", "C")],
                 [Cpt("C", ("A", "B"), (F(1, 2),) * 4)], iota)
    fam = solve_family(g, "cpt")
    assert fam.status == UNIQUE
    assert fam.unique_distribution.restrict(("A", "B")) == iota


def test_check_consistency_strong_and_weak():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    mu = solve_family(g, "cpt").unique_distribution
    assert check_consistency(mu, g, "X", "strong")
    assert check_consistency(mu, g, "X", "weak")
    uniform = JointDistribution.uniform(("X", "Y"))
    assert not check_consistency(uniform, g, "X", "strong")


def test_check_consistency_bad_arguments():
    g = make_gbn(["X", "Y"], [("X", "Y")],
                 [Cpt("Y", ("X",), (F(1, 2), F(1, 2)))],
                 JointDistribution(("X",), (F(1), F(0))))
    mu = chain_rule_dist(g)
    with pytest.raises(ValueError):
        check_consistency(mu, g, "X")     # initial node
    with pytest.raises(ValueError):
        check_consistency(mu, g, "Y", "bogus")


def test_weak_but_not_strong():
    # marginals line up, but correlation breaks the conditional of X
    g = two_cycle("3/4", "1/4", "3/4", "1/4")
    mu = JointDistribution(("X", "Y"), (F(3, 8), F(1, 8), F(1, 8), F(3, 8)))
    assert check_consistency(mu, g, "X", "weak")
    assert not check_consistency(mu, g, "X", "strong")


def test_is_strongly_consistent():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    mu = solve_family(g, "cpt").unique_distribution
    assert is_strongly_consistent(mu, g)
    assert not is_strongly_consistent(JointDistribution.uniform(("X", "Y")), g)


def test_cpt_i_member_acyclic():
    # correlated iota needs the closed graph's separations
    rng = random.Random(5)
    for _ in range(10):
        g = random_acyclic_gbn(rng, max_vars=4)
        mu = chain_rule_dist(g)
        triples = enumerate_dsep_triples(close(to_digraph(g)))
        assert check_cpt_i_member(mu, g, triples)


def test_cpt_i_member_rejects_non_singleton():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    mu = solve_family(g, "cpt").unique_distribution
    bad = IndependenceTriple({"X", "Y"}, set(), set())
    with pytest.raises(ValueError):
        check_cpt_i_member(mu, g, [bad])


def test_cpt_i_via_cutsets_agreeing():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    fam = cpt_i_via_cutsets(g, [("X",), ("Y",)])
    assert fam.status == UNIQUE
    assert fam.unique_distribution == solve_family(g, "cpt").unique_distribution


def test_cpt_i_via_cutsets_coverage_precondition():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    with pytest.raises(ValueError):
        cpt_i_via_cutsets(g, [("X",), ("X", "Y")])


def test_cpt_i_via_cutsets_unsupported_on_multi_bscc():
    # X and Y copy each other: the chain for {X} keeps each state, so it
    # has two bottom components and infinitely many stationary vectors
    g = two_cycle(0, 1, 0, 1)
    assert len(cutset_mc(g, ("X",)).bsccs) == 2
    fam = cpt_i_via_cutsets(g, [("X",), ("Y",)])
    assert fam.status == UNSUPPORTED
    assert not fam.distributions


def test_closed_cut_triples_bounded():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    triples = closed_cut_triples(g, ("X",))
    for t in triples:
        assert len(t.x) == 1 and len(t.y) == 1
