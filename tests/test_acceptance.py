"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
"criterion N ...: PASS/FAIL" line.  All comparisons are exact rational
arithmetic unless a tolerance is stated inline.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from conftest import (rand_joint, random_acyclic_gbn, random_cyclic_gbn,
                      random_cutset, solve_rational, space_from_rref, two_cycle)
from cyclebn.chain import cutset_mc, lim, long_run_frequency, mcs, next_dist
from cyclebn.constraints import (build_cpt_system, check_consistency,
                                 cpt_i_via_cutsets, is_strongly_consistent,
                                 solve_family)
from cyclebn.families import EMPTY, INFINITE, UNIQUE
from cyclebn.graph import DiGraph, d_separated, enumerate_cutsets
from cyclebn.inference import chain_rule_dist, to_digraph
from cyclebn.model import JointDistribution, dirac
from cyclebn.oracle import (check_cpt_i_member, close, dsep_by_paths,
                            dsep_implies_indep_check, enumerate_dsep_triples,
                            fraction_rref, is_solution, iterate_next,
                            power_iteration, total_variation)

F = Fraction


@contextmanager
def report(name):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


def test_criterion_1_consistency_trichotomy():
    with report("criterion 1 (consistency family trichotomy)"):
        fam = solve_family(two_cycle(0, 1, 1, 0), "cpt")
        assert fam.status == EMPTY

        fam = solve_family(two_cycle(0, 1, 0, 1), "cpt")
        assert fam.status == INFINITE
        w = fam.distributions[0]
        assert w.variables == ("X", "Y")
        assert w.nums[1] == w.nums[2] == 0      # X != Y
        assert w.nums[3] == w.den - w.nums[0]
        # the whole solution space keeps those two coordinates at zero
        system = build_cpt_system(two_cycle(0, 1, 0, 1))
        particular, basis = space_from_rref(
            *fraction_rref(system.matrix, system.rhs), system.num_cols)
        assert particular[1] == particular[2] == 0
        for d in basis:
            assert d[1] == d[2] == 0
            assert d[0] + d[3] == 0

        fam = solve_family(two_cycle("3/4", "1/2", "3/4", "1/2"), "cpt")
        assert fam.status == UNIQUE
        assert fam.distributions[0].probs == \
            (F(1, 10), F(3, 10), F(3, 10), F(3, 10))


def test_criterion_2_transition_matrix():
    with report("criterion 2 (cutset chain transition matrix)"):
        mc = cutset_mc(two_cycle("1/4", "1", "1/2", "0"), ("X", "Y"))
        assert mc.matrix == (
            (F(3, 8), F(3, 8), F(1, 8), F(1, 8)),
            (F(0), F(0), F(1, 2), F(1, 2)),
            (F(3, 4), F(0), F(1, 4), F(0)),
            (F(0), F(0), F(1), F(0)))


def test_criterion_3_stationary_distribution():
    with report("criterion 3 (unique stationary distribution)"):
        g = two_cycle("1/4", "1", "1/2", "0")
        mc = cutset_mc(g, ("X", "Y"))
        assert len(mc.bsccs) == 1
        pi = mc.bscc_lrfs[0].probs
        assert mc.step(pi) == pi
        expected = {"00": F(48, 121), "01": F(18, 121),
                    "10": F(40, 121), "11": F(15, 121)}
        assert {format(i, "02b"): p for i, p in enumerate(pi)} == expected
        assert sorted(pi) == sorted(
            [F(48, 121), F(18, 121), F(40, 121), F(15, 121)])
        rng = random.Random(31)
        probes = [JointDistribution.uniform(("X", "Y"))] + \
            [dirac({"X": bool(i & 2), "Y": bool(i & 1)}) for i in range(4)] + \
            [rand_joint(rng, ("X", "Y")) for _ in range(3)]
        for gamma0 in probes:
            assert mcs(mc, gamma0).probs == pi


def test_criterion_4_periodicity():
    with report("criterion 4 (period-4 chain and the limit semantics)"):
        g = two_cycle(1, 0, 0, 1)
        mc = cutset_mc(g, ("X", "Y"))
        assert mc.bsccs == (frozenset({0, 1, 2, 3}),)
        assert mc.periods == (4,)
        # deterministic cycle: each row is a unit vector
        assert all(row.count(F(1)) == 1 and row.count(F(0)) == 3
                   for row in mc.matrix)
        rng = random.Random(7)
        for _ in range(5):
            gamma0 = rand_joint(rng, ("X", "Y"))
            trace = iterate_next(g, ("X", "Y"), gamma0, 4)
            assert trace.steps[4] == trace.steps[0] == gamma0.probs
        status = lim(mc, dirac({"X": True, "Y": True}))
        assert not status.defined and status.offending_periods == (4,)
        status = lim(mc, JointDistribution.uniform(("X", "Y")))
        assert status.defined
        assert status.distribution.probs == (F(1, 4),) * 4
        for _ in range(10):
            gamma0 = rand_joint(rng, ("X", "Y"))
            assert mcs(mc, gamma0).probs == (F(1, 4),) * 4


def test_criterion_5_acyclic_conservativity():
    with report("criterion 5 (acyclic networks recover the standard semantics)"):
        rng = random.Random(501)
        affine_unique = 0
        for _ in range(200):
            g = random_acyclic_gbn(rng, max_vars=6)
            mu = chain_rule_dist(g)
            system = build_cpt_system(g)
            assert is_solution(system, mu.probs)
            x = solve_rational(system.matrix, system.rhs)
            if x is not None:
                # consistency constraints already pin a unique distribution
                affine_unique += 1
                assert x == mu.probs
            assert mcs(cutset_mc(g, ()), JointDistribution((), (F(1),))) == mu
            triples = enumerate_dsep_triples(close(to_digraph(g)))
            assert check_cpt_i_member(mu, g, triples)
        assert affine_unique > 0


def test_criterion_6_smooth_networks():
    with report("criterion 6 (smooth networks: complete chain, unique limit)"):
        rng = random.Random(601)
        for _ in range(100):
            g = random_cyclic_gbn(rng, max_vars=4, smooth=True)
            cut = random_cutset(rng, g, max_size=3)
            mc = cutset_mc(g, cut)
            assert all(p > 0 for row in mc.matrix for p in row)
            assert len(mc.bsccs) == 1
            assert mc.periods == (1,)
            m = mcs(mc, JointDistribution.uniform(cut))
            for _ in range(5):
                gamma0 = rand_joint(rng, cut)
                status = lim(mc, gamma0)
                assert status.defined
                assert status.distribution == mcs(mc, gamma0) == m


def test_criterion_7_stationarity_and_power_iteration():
    with report("criterion 7 (stationary fixed points; Cesaro iteration "
                "within 1/100)"):
        rng = random.Random(701)
        for _ in range(100):
            g = random_cyclic_gbn(rng, max_vars=4, denom=4)
            while True:
                try:
                    cut = random_cutset(rng, g, max_size=2)
                    break
                except IndexError:   # no small cutset avoids the initial nodes
                    g = random_cyclic_gbn(rng, max_vars=4, denom=4)
            mc = cutset_mc(g, cut)
            for extreme in mc.bscc_lrfs:
                stepped = next_dist(g, cut, extreme).restrict(cut)
                assert stepped.probs == extreme.probs
            start = rand_joint(rng, cut)
            gamma0 = start.probs
            target = long_run_frequency(mc, start).probs
            approx = power_iteration(mc, gamma0, 10000)
            assert total_variation(approx, target) <= F(1, 100)


def test_criterion_8_consistency_split():
    with report("criterion 8 (strong consistency off the cutset, weak on it)"):
        rng = random.Random(801)
        intersections = 0
        for _ in range(100):
            g = random_cyclic_gbn(rng, max_vars=4)
            cut = random_cutset(rng, g)
            mu = mcs(cutset_mc(g, cut), rand_joint(rng, cut))
            non_initial = set(g.nodes) - g.initial_nodes
            for x in sorted(non_initial - set(cut)):
                assert check_consistency(mu, g, x, "strong")
            for x in cut:
                assert check_consistency(mu, g, x, "weak")
            # agreeing singleton cutset families force full consistency
            dg = to_digraph(g)
            family = [tuple(sorted(c)) for c in enumerate_cutsets(dg)
                      if not g.initial_nodes.intersection(c)]
            covered = all(any(x not in set(c) for c in family)
                          for x in g.nodes)
            if not covered:
                continue
            fam = cpt_i_via_cutsets(g, family)
            if fam.status == UNIQUE:
                intersections += 1
                assert is_strongly_consistent(fam.distributions[0], g)
        assert intersections > 0


def test_criterion_9_dsep_oracle_equivalence():
    with report("criterion 9 (d-separation agrees with path enumeration)"):
        rng = random.Random(901)
        for _ in range(1000):
            n = rng.randint(2, 7)
            nodes = tuple("ABCDEFG"[:n])
            edges = frozenset((u, v) for u in nodes for v in nodes
                              if u != v and rng.random() < 0.25)
            g = DiGraph(nodes, edges)
            for _ in range(3):
                pool = list(nodes)
                rng.shuffle(pool)
                x, y = pool[0], pool[1]
                zs = {v for v in pool[2:] if rng.random() < 0.5}
                assert d_separated(g, {x}, {y}, zs) == \
                    dsep_by_paths(g, {x}, {y}, zs)
        cycle = DiGraph(("W", "X", "Y", "Z"),
                        frozenset({("W", "X"), ("X", "Y"),
                                   ("Y", "Z"), ("Z", "W")}))
        separated = set()
        for x, y in combinations(cycle.nodes, 2):
            rest = [v for v in cycle.nodes if v not in (x, y)]
            for k in range(len(rest) + 1):
                for z in combinations(rest, k):
                    if d_separated(cycle, {x}, {y}, z):
                        separated.add((x, y, frozenset(z)))
                    assert d_separated(cycle, {x}, {y}, z) == \
                        dsep_by_paths(cycle, {x}, {y}, z)
        assert separated == {("W", "Y", frozenset({"X", "Z"})),
                             ("X", "Z", frozenset({"W", "Y"}))}


def test_criterion_10_dsep_implies_independence():
    with report("criterion 10 (closed-graph separations hold as "
                "independencies)"):
        rng = random.Random(1001)
        for _ in range(200):
            g = random_acyclic_gbn(rng, max_vars=6)
            assert dsep_implies_indep_check(g)
