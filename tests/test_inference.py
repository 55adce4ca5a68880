"""Chain-rule semantics for acyclic networks and independence checking."""

import random
from fractions import Fraction

import pytest

from conftest import fractions_made_by, make_gbn, random_acyclic_gbn, two_cycle
from cyclebn.chain import cutset_mc
from cyclebn.graph import DiGraph
from cyclebn.inference import CyclicGraphError, chain_rule_dist, to_digraph
from cyclebn.model import CapacityError, Cpt, Gbn, JointDistribution, dirac
from cyclebn.oracle import (IndependenceTriple, check_independence, close,
                            dsep_implies_indep_check, enumerate_dsep_triples)

F = Fraction


def simple_edge_gbn():
    return make_gbn(["X", "Y"], [("X", "Y")],
                    [Cpt("Y", ("X",), (F(1, 2), F(3, 4)))],
                    JointDistribution(("X",), (F(1, 4), F(3, 4))))


def test_chain_rule_simple_edge():
    mu = chain_rule_dist(simple_edge_gbn())
    assert mu.variables == ("X", "Y")
    assert mu.probs == (F(1, 8), F(1, 8), F(3, 16), F(9, 16))


def test_chain_rule_requires_acyclic():
    with pytest.raises(CyclicGraphError):
        chain_rule_dist(two_cycle("1/2", "1/2", "1/2", "1/2"))


def test_chain_rule_requires_valid():
    g = make_gbn(["X", "Y"], [("X", "Y")],
                 [Cpt("Y", ("X",), (F(1, 2), F(1, 2)))],
                 JointDistribution(("Y",), (F(1), F(0))))
    with pytest.raises(ValueError):
        chain_rule_dist(g)


def test_chain_rule_correlated_initial():
    # iota over two initial nodes is taken jointly, not as a product
    iota = JointDistribution(("A", "B"), (F(1, 2), F(0), F(0), F(1, 2)))
    g = make_gbn(["A", "B", "C"], [("A", "C"), ("B", "C")],
                 [Cpt("C", ("A", "B"), (F(0), F(1), F(1), F(0)))], iota)
    mu = chain_rule_dist(g)
    assert mu.restrict(("A", "B")) == iota
    assert mu.restrict(("C",)).probs == (1, 0)


def test_chain_rule_matches_the_compiled_route_on_larger_networks():
    # 8-12 nodes, a correlated iota and CPT entries mostly 0 or 1: the
    # integer product equals the elimination over the empty cutset, and
    # builds no Fraction on the way, with none cached in the tables either
    rng = random.Random(36)
    seen = set()
    for i in range(10):
        g = random_acyclic_gbn(rng, max_vars=12, min_vars=8, denom=(2, 6)[i % 2])
        g = Gbn(g.nodes, g.edges,
                {x: Cpt._of_table(x, c.parents, c.nums, c.den) for x, c in g.cpts.items()},
                JointDistribution._of_table(g.iota.variables, g.iota.nums, g.iota.den))
        made = []
        assert fractions_made_by(lambda: made.append(chain_rule_dist(g))) == 0
        assert made[0] == cutset_mc(g, ()).extend([JointDistribution.uniform(())])[0]
        seen.update(["wide iota"] * (len(g.iota.variables) > 1),
                    ["zeros"] * (0 in made[0].nums), ["12 nodes"] * (len(g.nodes) == 12))
    assert seen == {"wide iota", "zeros", "12 nodes"}


def test_check_independence_product():
    a = JointDistribution(("X",), (F(1, 4), F(3, 4)))
    b = JointDistribution(("Y",), (F(1, 2), F(1, 2)))
    mu = a.product(b)
    t = IndependenceTriple({"X"}, {"Y"}, set())
    assert check_independence(mu, t)


def test_check_independence_dependent():
    mu = chain_rule_dist(simple_edge_gbn())
    assert not check_independence(mu, IndependenceTriple({"X"}, {"Y"}, set()))


def test_check_independence_zero_mass_conditioning():
    # conditioning set with zero mass never falsifies the product form
    mu = dirac({"X": True, "Y": True, "Z": True})
    t = IndependenceTriple({"X"}, {"Y"}, {"Z"})
    assert check_independence(mu, t)


def test_check_independence_unknown_variable():
    mu = JointDistribution.uniform(("X", "Y"))
    with pytest.raises(ValueError):
        check_independence(mu, IndependenceTriple({"X"}, {"Q"}, set()))


def test_triple_disjointness():
    with pytest.raises(ValueError):
        IndependenceTriple({"X"}, {"X"}, set())


def test_enumerate_dsep_triples_collider():
    g = DiGraph(("X", "Y", "Z"), frozenset({("X", "Y"), ("Z", "Y")}))
    triples = enumerate_dsep_triples(g)
    assert IndependenceTriple({"X"}, {"Z"}, set()) in triples
    assert IndependenceTriple({"X"}, {"Z"}, {"Y"}) not in triples


def test_enumerate_dsep_triples_capacity():
    names = tuple(f"V{i}" for i in range(9))
    with pytest.raises(CapacityError):
        enumerate_dsep_triples(DiGraph(names, frozenset()))


def test_dsep_implies_indep_simple():
    assert dsep_implies_indep_check(simple_edge_gbn())


def test_dsep_implies_indep_requires_acyclic():
    with pytest.raises(CyclicGraphError):
        dsep_implies_indep_check(two_cycle("1/2", "1/2", "1/2", "1/2"))


def test_dsep_implies_indep_random():
    rng = random.Random(11)
    for _ in range(20):
        g = random_acyclic_gbn(rng, max_vars=4)
        assert dsep_implies_indep_check(g)


def test_closure_needed_for_correlated_initial():
    # Without Close, the correlated iota of test_chain_rule_correlated_initial
    # would violate the raw-graph separation of A and B.
    iota = JointDistribution(("A", "B"), (F(1, 2), F(0), F(0), F(1, 2)))
    g = make_gbn(["A", "B", "C"], [("A", "C"), ("B", "C")],
                 [Cpt("C", ("A", "B"), (F(0), F(1), F(1), F(0)))], iota)
    dg = to_digraph(g)
    mu = chain_rule_dist(g)
    raw = IndependenceTriple({"A"}, {"B"}, set())
    from cyclebn.graph import d_separated
    assert d_separated(dg, {"A"}, {"B"}, set())
    assert not check_independence(mu, raw)
    assert not d_separated(close(dg), {"A"}, {"B"}, set())
