"""Dissection, unfolding, cutset Markov chains, and the limit semantics."""

import random
from fractions import Fraction

import pytest

from conftest import (rand_entry, rand_joint, random_cyclic_gbn,
                      random_cutset, two_cycle)
from cyclebn.chain import (CutsetChain, NotACutsetError, _forward_eliminate,
                           cutset_mc, dissect, extend, is_smooth, lim,
                           lim_avg, long_run_frequency, mcs, next_dist,
                           reach_probs, stationary_set)
from cyclebn.families import INFINITE, UNIQUE
from cyclebn.graph import DiGraph, is_acyclic
from cyclebn.inference import chain_rule_dist
from cyclebn.model import (Cpt, InternalError, JointDistribution,
                           assignment_from_index, dirac, make_gbn)

F = Fraction

EX52 = ("1/4", "1", "1/2", "0")       # single aperiodic BSCC
PERIODIC = (1, 0, 0, 1)               # 4-cycle of Dirac states


def test_dissect_structure():
    g = two_cycle(*EX52)
    gamma = JointDistribution.uniform(("X", "Y"))
    d = dissect(g, ("X", "Y"), gamma)
    assert set(d.nodes) == {"X", "Y", "X'", "Y'"}
    assert d.edges == frozenset({("X", "Y'"), ("Y", "X'")})
    assert is_acyclic(DiGraph(d.nodes, d.edges))
    assert d.iota == gamma
    assert d.cpts["X'"].rows == g.cpts["X"].rows
    assert d.is_valid()


def test_dissect_rejects_non_cutset():
    # {X} misses the cycle Y -> Z -> Y
    g3 = make_gbn(["X", "Y", "Z"],
                  [("X", "Z"), ("Y", "Z"), ("Z", "Y"), ("Y", "X")],
                  [Cpt("X", ("Y",), (F(1, 2), F(1, 2))),
                   Cpt("Y", ("Z",), (F(1, 2), F(1, 2))),
                   Cpt("Z", ("X", "Y"), (F(1, 2),) * 4)])
    with pytest.raises(NotACutsetError):
        dissect(g3, ("X",), JointDistribution.uniform(("X",)))


def test_dissect_rejects_initial_nodes_in_cutset():
    g = make_gbn(["A", "X", "Y"], [("A", "X"), ("X", "Y"), ("Y", "X")],
                 [Cpt("X", ("A", "Y"), (F(1, 2),) * 4),
                  Cpt("Y", ("X",), (F(1, 2),) * 2)],
                 JointDistribution(("A",), (F(1, 2), F(1, 2))))
    with pytest.raises(NotACutsetError):
        dissect(g, ("A", "X"), JointDistribution.uniform(("A", "X")))


def test_dissect_gamma_domain_check():
    g = two_cycle(*EX52)
    with pytest.raises(ValueError):
        dissect(g, ("X", "Y"), JointDistribution.uniform(("X",)))


def test_dissect_empty_cutset_identity():
    g = make_gbn(["X", "Y"], [("X", "Y")],
                 [Cpt("Y", ("X",), (F(1, 2), F(3, 4)))],
                 JointDistribution(("X",), (F(1, 4), F(3, 4))))
    assert dissect(g, (), JointDistribution((), (F(1),))) is g
    assert next_dist(g, (), JointDistribution((), (F(1),))) == chain_rule_dist(g)
    assert extend(g, (), JointDistribution((), (F(1),))) == chain_rule_dist(g)


def test_next_dist_from_dirac():
    g = two_cycle(*EX52)
    out = next_dist(g, ("X", "Y"), dirac({"X": False, "Y": False}))
    assert out.restrict(("X", "Y")).probs == (F(3, 8), F(3, 8), F(1, 8), F(1, 8))


def test_cutset_mc_matrix():
    mc = cutset_mc(two_cycle(*EX52), ("X", "Y"))
    assert mc.matrix == (
        (F(3, 8), F(3, 8), F(1, 8), F(1, 8)),
        (F(0), F(0), F(1, 2), F(1, 2)),
        (F(3, 4), F(0), F(1, 4), F(0)),
        (F(0), F(0), F(1), F(0)))
    assert mc.num_states == 4
    assert mc.state_assignment(2) == {"X": True, "Y": False}


def test_cutset_mc_capacity():
    names = [f"V{i:02d}" for i in range(17)]
    edges = [(names[i], names[(i + 1) % 17]) for i in range(17)]
    cpts = [Cpt(v, (names[(i - 1) % 17],), (F(1, 2), F(1, 2)))
            for i, v in enumerate(names)]
    g = make_gbn(names, edges, cpts)
    from cyclebn.model import CapacityError
    with pytest.raises(CapacityError):
        cutset_mc(g, tuple(names))


def test_chain_step_and_stationary():
    mc = cutset_mc(two_cycle(*EX52), ("X", "Y"))
    pi = (F(48, 121), F(18, 121), F(40, 121), F(15, 121))
    assert mc.step(pi) == pi
    assert mc.is_stationary(pi)
    assert not mc.is_stationary((F(1), F(0), F(0), F(0)))
    assert mc.bsccs == (frozenset({0, 1, 2, 3}),)
    assert mc.periods == (1,)
    assert mc.bscc_lrfs == (pi,)


def test_periodic_chain():
    mc = cutset_mc(two_cycle(*PERIODIC), ("X", "Y"))
    assert mc.bsccs == (frozenset({0, 1, 2, 3}),)
    assert mc.periods == (4,)
    assert mc.bscc_lrfs == ((F(1, 4),) * 4,)


def test_multi_bscc_reach_probs():
    # two reachable absorbing states, one unreachable, one transient start
    matrix = ((F(1), F(0), F(0), F(0)),
              (F(0), F(1), F(0), F(0)),
              (F(1, 3), F(2, 3), F(0), F(0)),
              (F(0), F(0), F(0), F(1)))
    mc = CutsetChain(("A", "B"), matrix)
    lam = reach_probs(mc, (F(0), F(0), F(1), F(0)))
    assert len(mc.bsccs) == 3
    assert sorted(lam) == [F(0), F(1, 3), F(2, 3)]
    by_comp = dict(zip(mc.bsccs, lam))
    assert by_comp[frozenset({0})] == F(1, 3)
    assert by_comp[frozenset({1})] == F(2, 3)
    assert by_comp[frozenset({3})] == F(0)


def test_long_run_frequency_weighted():
    matrix = ((F(1), F(0), F(0), F(0)),
              (F(0), F(1), F(0), F(0)),
              (F(1, 3), F(2, 3), F(0), F(0)),
              (F(0), F(0), F(0), F(1)))
    mc = CutsetChain(("A", "B"), matrix)
    lrf = long_run_frequency(mc, (F(0), F(0), F(1), F(0)))
    assert lrf == (F(1, 3), F(2, 3), F(0), F(0))


def test_stationary_set_unique_vs_infinite():
    fam = stationary_set(cutset_mc(two_cycle(*EX52), ("X", "Y")))
    assert fam.status == UNIQUE
    two_absorbing = CutsetChain(
        ("A", "B"),
        ((F(1), F(0), F(0), F(0)),
         (F(0), F(1), F(0), F(0)),
         (F(1, 2), F(1, 2), F(0), F(0)),
         (F(0), F(0), F(0), F(1))))
    fam2 = stationary_set(two_absorbing)
    assert fam2.status == INFINITE
    assert len(fam2.distributions) == 3


def test_semantics_cardinality():
    assert len(cutset_mc(two_cycle(*EX52), ("X", "Y")).bsccs) == 1
    assert len(cutset_mc(two_cycle(1, 0, 1, 0), ("X", "Y")).bsccs) > 1


def test_mcs_matches_stationary_extension():
    g = two_cycle(*EX52)
    out = mcs(g, ("X", "Y"), JointDistribution.uniform(("X", "Y")))
    assert out.probs == (F(48, 121), F(18, 121), F(40, 121), F(15, 121))
    # with C = all nodes, Extend is the identity on the cutset marginal
    assert out.restrict(("X", "Y")) == out


def test_mcs_gamma0_domain_check():
    g = two_cycle(*EX52)
    with pytest.raises(ValueError):
        mcs(g, ("X", "Y"), JointDistribution.uniform(("X",)))
    with pytest.raises(ValueError):
        lim(g, ("X", "Y"), JointDistribution.uniform(("X",)))


def test_lim_aperiodic_defined():
    g = two_cycle(*EX52)
    status = lim(g, ("X", "Y"), dirac({"X": False, "Y": False}))
    assert status.defined
    assert status.distribution.probs == (F(48, 121), F(18, 121),
                                         F(40, 121), F(15, 121))


def test_lim_periodic_undefined():
    g = two_cycle(*PERIODIC)
    status = lim(g, ("X", "Y"), dirac({"X": True, "Y": True}))
    assert not status.defined
    assert status.offending_periods == (4,)


def test_lim_periodic_stationary_defined():
    g = two_cycle(*PERIODIC)
    status = lim(g, ("X", "Y"), JointDistribution.uniform(("X", "Y")))
    assert status.defined
    assert status.distribution.probs == (F(1, 4),) * 4


def test_lim_avg_equals_mcs():
    rng = random.Random(3)
    for _ in range(10):
        g = random_cyclic_gbn(rng, max_vars=3)
        cut = random_cutset(rng, g)
        gamma0 = JointDistribution.uniform(cut)
        assert lim_avg(g, cut, gamma0) == mcs(g, cut, gamma0)


def test_is_smooth():
    assert is_smooth(two_cycle("1/2", "1/3", "2/3", "1/4"))
    assert not is_smooth(two_cycle(*EX52))
    g = make_gbn(["X", "Y"], [("X", "Y")],
                 [Cpt("Y", ("X",), (F(1, 2), F(1, 2)))],
                 JointDistribution(("X",), (F(1), F(0))))
    assert not is_smooth(g)


def _assert_compiled_matches_oracle(g, cut, gamma):
    """Compiled chain rows and extend equal the dense unfolding exactly."""
    mc = cutset_mc(g, cut)
    for b, row in enumerate(mc.matrix):
        start = dirac(assignment_from_index(b, cut))
        assert row == next_dist(g, cut, start).restrict(cut).probs
    assert extend(g, cut, gamma) == \
        chain_rule_dist(dissect(g, cut, gamma)).restrict(g.nodes)


def test_compiled_chain_matches_unfolding_on_random_networks():
    rng = random.Random(41)
    correlated = deterministic = 0
    sizes = set()
    for _ in range(60):
        # denominator 2 makes about a third of the CPT entries 0 or 1
        g = random_cyclic_gbn(rng, max_vars=5, denom=rng.choice((2, 8)))
        cut = random_cutset(rng, g, max_size=3)
        gamma = rand_joint(rng, cut)
        correlated += len(g.iota.variables) >= 2
        deterministic += any(r in (0, 1) for c in g.cpts.values()
                             for r in c.rows)
        sizes.add(len(cut))
        _assert_compiled_matches_oracle(g, cut, gamma)
    assert correlated and deterministic and sizes == {1, 2, 3}


def test_compiled_chain_matches_unfolding_on_ring_with_chords():
    rng = random.Random(10)
    names = [f"R{i}" for i in range(10)]
    edges = {(names[i], names[(i + 1) % 10]) for i in range(10)}
    edges |= {("R0", "R3"), ("R2", "R6"), ("R4", "R8"), ("R6", "R2")}
    cpts = []
    for v in names:
        parents = tuple(sorted(u for u, w in edges if w == v))
        cpts.append(Cpt(v, parents, tuple(rand_entry(rng)
                                          for _ in range(1 << len(parents)))))
    g = make_gbn(names, edges, cpts)
    cut = ("R0", "R2")
    _assert_compiled_matches_oracle(g, cut, rand_joint(rng, cut))


def test_invariant_failures_raise_internal_error():
    # elimination needs a topological order of the dissected graph
    g = make_gbn(["X", "Y", "Z"],
                 [("X", "Z"), ("Y", "Z"), ("Z", "Y"), ("Y", "X")],
                 [Cpt("X", ("Y",), (F(1, 2), F(1, 2))),
                  Cpt("Y", ("Z",), (F(1, 2), F(1, 2))),
                  Cpt("Z", ("X", "Y"), (F(1, 2),) * 4)])
    with pytest.raises(InternalError):
        _forward_eliminate(g, ("X",), True, [{0: F(1)}])
    # a substochastic matrix has no stationary vector
    leaky = CutsetChain(("A",), ((F(1, 2), F(0)), (F(0), F(1, 2))))
    with pytest.raises(InternalError):
        leaky.bscc_lrfs
    assert not issubclass(InternalError, AssertionError)
