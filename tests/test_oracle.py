"""Brute-force oracles against the analytic implementations."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import matrix_chain, two_cycle
from cyclebn import oracle
from cyclebn.chain import cutset_mc, long_run_frequency
from cyclebn.graph import DiGraph, d_separated
from cyclebn.linalg import LinearSystem
from cyclebn.model import CapacityError, JointDistribution, dirac
from cyclebn.oracle import (classify_by_vertices, dsep_by_paths, iterate_next,
                            power_iteration, total_variation)

F = Fraction

EX52 = ("1/4", "1", "1/2", "0")


def test_iterate_next_matches_matrix_powers():
    g = two_cycle(*EX52)
    mc = cutset_mc(g, ("X", "Y"))
    gamma0 = JointDistribution.uniform(("X", "Y"))
    trace = iterate_next(g, ("X", "Y"), gamma0, 6)
    vec = gamma0.probs
    for step in trace.steps:
        assert step == vec
        vec = mc.step(vec)


def test_iterate_next_cesaro_running_average():
    g = two_cycle(*EX52)
    trace = iterate_next(g, ("X", "Y"), dirac({"X": False, "Y": False}), 4)
    for k in range(len(trace.steps)):
        manual = tuple(sum(col) / (k + 1)
                       for col in zip(*trace.steps[:k + 1]))
        assert trace.cesaro[k] == manual


def test_iterate_next_needs_steps():
    g = two_cycle(*EX52)
    with pytest.raises(ValueError):
        iterate_next(g, ("X", "Y"), JointDistribution.uniform(("X", "Y")), 0)


def test_iterate_next_refuses_steps_over_the_dense_cap(monkeypatch):
    # two nodes and a two-node cutset: 2**4 assignments per step, so a
    # cap of 2**6 allows four steps
    monkeypatch.setattr(oracle, "MAX_DENSE_VARS", 6)
    g = two_cycle(*EX52)
    gamma0 = JointDistribution.uniform(("X", "Y"))
    assert len(iterate_next(g, ("X", "Y"), gamma0, 4).steps) == 5
    for steps in (5, 10 ** 20):
        with pytest.raises(CapacityError):
            iterate_next(g, ("X", "Y"), gamma0, steps)


def test_iterate_next_refuses_a_trace_over_the_bit_budget(monkeypatch):
    # X <-> Y cut at X from the uniform start: the CPT, iota and gamma0
    # denominators 4, 4, 1 and 2 have 3 + 3 + 1 + 2 = 9 bits, so n steps
    # over 2 cutset states are estimated at n**2 * 9 * 2 bits
    monkeypatch.setattr(oracle, "MAX_TRACE_BITS", 10 * 10 * 9 * 2)
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    gamma0 = JointDistribution.uniform(("X",))
    assert len(iterate_next(g, ("X",), gamma0, 10).steps) == 11
    with pytest.raises(CapacityError, match="about 2178 bits"):
        iterate_next(g, ("X",), gamma0, 11)


def test_dsep_by_paths_four_cycle():
    g = DiGraph(("W", "X", "Y", "Z"),
                frozenset({("W", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "W")}))
    assert dsep_by_paths(g, {"W"}, {"Y"}, {"X", "Z"})
    assert not dsep_by_paths(g, {"W"}, {"Y"}, {"X"})


def test_dsep_by_paths_observed_collider():
    g = DiGraph(("X", "Y", "Z"), frozenset({("X", "Y"), ("Z", "Y")}))
    assert dsep_by_paths(g, {"X"}, {"Z"}, set())
    assert not dsep_by_paths(g, {"X"}, {"Z"}, {"Y"})


def test_dsep_by_paths_capacity():
    names = tuple(f"V{i}" for i in range(8))
    with pytest.raises(CapacityError):
        dsep_by_paths(DiGraph(names, frozenset()), {"V0"}, {"V1"}, set())


def test_classify_by_vertices_capacity():
    with pytest.raises(CapacityError):
        classify_by_vertices(LinearSystem(((1,) * 9,), (1,)))


def test_dsep_oracle_agreement_random():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 5)
        nodes = tuple("ABCDE"[:n])
        edges = frozenset((u, v) for u in nodes for v in nodes
                          if u != v and rng.random() < 0.3)
        g = DiGraph(nodes, edges)
        for x, y in combinations(nodes, 2):
            rest = [v for v in nodes if v not in (x, y)]
            for k in range(len(rest) + 1):
                for z in combinations(rest, k):
                    assert d_separated(g, {x}, {y}, z) == \
                        dsep_by_paths(g, {x}, {y}, z)


def test_power_iteration_identity():
    mc = matrix_chain(("A", "B"),
                      tuple(tuple(F(int(i == j)) for j in range(4))
                            for i in range(4)))
    gamma0 = (F(1, 2), F(1, 4), F(1, 8), F(1, 8))
    for steps in (1, 7, 100):
        assert power_iteration(mc, gamma0, steps) == gamma0


def test_power_iteration_matches_direct_sum():
    mc = cutset_mc(two_cycle(*EX52), ("X", "Y"))
    gamma0 = (F(1), F(0), F(0), F(0))
    for steps in (1, 2, 3, 5, 8):
        vecs = [gamma0]
        for _ in range(steps):
            vecs.append(mc.step(vecs[-1]))
        manual = tuple(sum(col) / (steps + 1) for col in zip(*vecs))
        assert power_iteration(mc, gamma0, steps) == manual


def test_power_iteration_converges_to_lrf():
    mc = cutset_mc(two_cycle(*EX52), ("X", "Y"))
    start = JointDistribution.uniform(("X", "Y"))
    gamma0 = start.probs
    target = long_run_frequency(mc, start).probs
    dists = [total_variation(power_iteration(mc, gamma0, n), target)
             for n in (100, 1000, 10000)]
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < F(1, 1000)


def test_power_iteration_period_four():
    # Cesàro averages of a 4-cycle stay within 1/N of uniform.
    perm = ((F(0), F(1), F(0), F(0)),
            (F(0), F(0), F(1), F(0)),
            (F(0), F(0), F(0), F(1)),
            (F(1), F(0), F(0), F(0)))
    mc = matrix_chain(("A", "B"), perm)
    gamma0 = (F(1), F(0), F(0), F(0))
    for n in (10, 101, 1000):
        avg = power_iteration(mc, gamma0, n)
        assert total_variation(avg, (F(1, 4),) * 4) <= F(1, n)


def test_total_variation():
    assert total_variation((F(1), F(0)), (F(0), F(1))) == 1
    assert total_variation((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))) == 0
