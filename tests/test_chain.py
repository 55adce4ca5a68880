"""Dissection, unfolding, cutset Markov chains, and the limit semantics."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (dense_cyclic_gbn, make_gbn, matrix_chain, rand_entry,
                      rand_joint, random_cyclic_gbn, random_cutset,
                      random_looped_gbn, two_cycle)
from cyclebn.chain import (CutsetChain, NotACutsetError, _forward_eliminate,
                           cutset_mc, dissect, is_smooth, lim,
                           long_run_frequency, mcs, next_dist, reach_probs)
from cyclebn.graph import DiGraph, is_acyclic, is_cutset
from cyclebn.inference import chain_rule_dist
from cyclebn.model import (CapacityError, Cpt, InternalError, JointDistribution,
                           assignment_from_index, dirac, scaled)
from cyclebn.oracle import (fraction_rref, iterate_next,
                            stationary_by_state_reduction)

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
    assert not d.validate()


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
    assert cutset_mc(g, ()).extend([JointDistribution((), (F(1),))])[0] == \
        chain_rule_dist(g)


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
    assert assignment_from_index(2, mc.cutset) == {"X": True, "Y": False}


def test_invalid_network_built_in_code_is_refused():
    # parse_document refuses such a network; built in code, it reaches
    # the library entry points, which check it once themselves
    bad = Cpt("X", ("Y",), (F(3, 2), F(1, 2)))
    cyclic = make_gbn(["X", "Y"], [("X", "Y"), ("Y", "X")],
                      [bad, Cpt("Y", ("X",), (F(1, 2), F(1, 2)))])
    acyclic = make_gbn(["X", "Y"], [("Y", "X")], [bad],
                       JointDistribution.uniform(("Y",)))
    calls = [lambda: cutset_mc(cyclic, ("X",)),
             lambda: cutset_mc(cyclic, ("X",)).extend(
                 [JointDistribution.uniform(("X",))])[0],
             lambda: cutset_mc(acyclic, ()).extend(
                 [JointDistribution((), (F(1),))])[0],
             lambda: chain_rule_dist(acyclic)]
    for call in calls:
        with pytest.raises(ValueError, match=r"invalid network: \[Violation\("
                                             r"kind='OutOfRange', node='X'"):
            call()


def test_cutset_mc_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate variable names"):
        cutset_mc(two_cycle(*EX52), ("X", "X"))


def test_cutset_mc_capacity():
    names = [f"V{i:02d}" for i in range(17)]
    edges = [(names[i], names[(i + 1) % 17]) for i in range(17)]
    cpts = [Cpt(v, (names[(i - 1) % 17],), (F(1, 2), F(1, 2)))
            for i, v in enumerate(names)]
    g = make_gbn(names, edges, cpts)
    with pytest.raises(CapacityError, match="^cutset size capped at 16$"):
        cutset_mc(g, tuple(names))


def test_chain_step_and_stationary():
    mc = cutset_mc(two_cycle(*EX52), ("X", "Y"))
    pi = (F(48, 121), F(18, 121), F(40, 121), F(15, 121))
    assert mc.step(pi) == pi
    assert mc.step((F(1), F(0), F(0), F(0))) != (F(1), F(0), F(0), F(0))
    assert mc.bsccs == (frozenset({0, 1, 2, 3}),)
    assert mc.periods == (1,)
    assert mc.bscc_lrfs == (JointDistribution(("X", "Y"), pi),)


def test_periodic_chain():
    mc = cutset_mc(two_cycle(*PERIODIC), ("X", "Y"))
    assert mc.bsccs == (frozenset({0, 1, 2, 3}),)
    assert mc.periods == (4,)
    assert mc.bscc_lrfs == (JointDistribution(("X", "Y"), (F(1, 4),) * 4),)


def test_multi_bscc_reach_probs():
    # two reachable absorbing states, one unreachable, one transient start
    matrix = ((F(1), F(0), F(0), F(0)),
              (F(0), F(1), F(0), F(0)),
              (F(1, 3), F(2, 3), F(0), F(0)),
              (F(0), F(0), F(0), F(1)))
    mc = matrix_chain(("A", "B"), matrix)
    masses, den = reach_probs(mc, JointDistribution(("A", "B"), (0, 0, 1, 0)))
    lam = [F(m, den) for m in masses]
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
    mc = matrix_chain(("A", "B"), matrix)
    lrf = long_run_frequency(mc, JointDistribution(("A", "B"), (F(0), F(0), F(1), F(0))))
    assert lrf.probs == (F(1, 3), F(2, 3), F(0), F(0))


def test_stationary_set_unique_vs_infinite():
    assert len(cutset_mc(two_cycle(*EX52), ("X", "Y")).bsccs) == 1
    two_absorbing = matrix_chain(
        ("A", "B"),
        ((F(1), F(0), F(0), F(0)),
         (F(0), F(1), F(0), F(0)),
         (F(1, 2), F(1, 2), F(0), F(0)),
         (F(0), F(0), F(0), F(1))))
    assert len(two_absorbing.bsccs) == 3
    assert len(two_absorbing.bscc_lrfs) == 3


def test_semantics_cardinality():
    assert len(cutset_mc(two_cycle(*EX52), ("X", "Y")).bsccs) == 1
    assert len(cutset_mc(two_cycle(1, 0, 1, 0), ("X", "Y")).bsccs) > 1


def test_mcs_matches_stationary_extension():
    g = two_cycle(*EX52)
    out = mcs(cutset_mc(g, ("X", "Y")), JointDistribution.uniform(("X", "Y")))
    assert out.probs == (F(48, 121), F(18, 121), F(40, 121), F(15, 121))
    # with C = all nodes, Extend is the identity on the cutset marginal
    assert out.restrict(("X", "Y")) == out


def test_chain_extends_every_start_in_one_call_in_order():
    """Extending a list of starts through the chain gives what extending
    one start at a time gives, in the order given."""
    rng = random.Random(23)
    multi = 0
    for _ in range(120):
        # 0/1 tables make chains with several bottom components common
        g = random_cyclic_gbn(rng, max_vars=4, denom=1)
        cut = random_cutset(rng, g, max_size=3)
        mc = cutset_mc(g, cut)
        starts = [*mc.bscc_lrfs, rand_joint(rng, cut)]
        assert list(mc.extend(starts)) == [cutset_mc(g, cut).extend([s])[0]
                                           for s in starts]
        multi += len(mc.bsccs) > 1
    assert multi >= 10


def test_cutset_mc_is_the_only_constructor():
    with pytest.raises(TypeError):
        CutsetChain(("X",), ((F(1, 2), F(1, 2)), (F(1), F(0))))


def test_mcs_gamma0_domain_check():
    """A start over a subset or a superset of the cutset is not read as
    a table over the cutset by any route that takes one."""
    g, cut = two_cycle(*EX52), ("X", "Y")
    mc = cutset_mc(g, cut)
    for wrong in (JointDistribution.uniform(("X",)),
                  JointDistribution.uniform(("X", "Y", "Z"))):
        for call in (lambda: mc.extend([mc.bscc_lrfs[0], wrong]),
                     lambda: reach_probs(mc, wrong),
                     lambda: long_run_frequency(mc, wrong),
                     lambda: mcs(mc, wrong), lambda: lim(mc, wrong)):
            with pytest.raises(ValueError, match=r"cutset is \['X', 'Y'\]"):
                call()


def test_lim_aperiodic_defined():
    g = two_cycle(*EX52)
    status = lim(cutset_mc(g, ("X", "Y")), dirac({"X": False, "Y": False}))
    assert status.defined
    assert status.distribution.probs == (F(48, 121), F(18, 121),
                                         F(40, 121), F(15, 121))


def test_lim_periodic_undefined():
    g = two_cycle(*PERIODIC)
    status = lim(cutset_mc(g, ("X", "Y")), dirac({"X": True, "Y": True}))
    assert not status.defined
    assert status.offending_periods == (4,)


def test_lim_periodic_stationary_defined():
    g = two_cycle(*PERIODIC)
    status = lim(cutset_mc(g, ("X", "Y")), JointDistribution.uniform(("X", "Y")))
    assert status.defined
    assert status.distribution.probs == (F(1, 4),) * 4


def lim_counterexample():
    """X keeps its value; given X=F, Y flips (a period-2 BSCC), given
    X=T, Y is a fair coin.  The start puts 1/4 on each state of the
    periodic BSCC and all of X=T on Y=F."""
    g = make_gbn(
        ["X", "Y"], [("X", "X"), ("Y", "X"), ("X", "Y"), ("Y", "Y")],
        [Cpt("X", ("X", "Y"), (F(0), F(0), F(1), F(1))),
         Cpt("Y", ("X", "Y"), (F(1), F(0), F(1, 2), F(1, 2)))])
    gamma0 = JointDistribution(("X", "Y"), (F(1, 4), F(1, 4), F(1, 2), F(0)))
    return g, ("X", "Y"), gamma0


def test_unfolding_converges_from_periodic_stationary_mass():
    g, cut, gamma0 = lim_counterexample()
    trace = iterate_next(g, cut, gamma0, 6)
    assert trace.steps[0] != (F(1, 4),) * 4
    assert all(step == (F(1, 4),) * 4 for step in trace.steps[1:])


@pytest.mark.xfail(strict=True, reason=(
    "lim tests a sufficient condition for convergence (stationary start, "
    "or every reached BSCC aperiodic), not a necessary one"))
def test_lim_defined_whenever_unfolding_converges():
    g, cut, gamma0 = lim_counterexample()
    mc = cutset_mc(g, cut)
    status = lim(mc, gamma0)
    assert status.defined
    assert status.distribution == mcs(mc, gamma0)


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
    assert mc.extend([gamma])[0] == \
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


def test_cutset_mc_rows_are_integers_over_least_denominators():
    rng = random.Random(47)
    wide = 0
    for _ in range(40):
        g = random_cyclic_gbn(rng, max_vars=4, denom=rng.choice((2, 6, 8)))
        cut = random_cutset(rng, g, max_size=3)
        mc = cutset_mc(g, cut)
        assert all(math.gcd(den, *row) == 1 for row, den in zip(mc.rows, mc.dens))
        for b, row in enumerate(mc.matrix):
            trace = iterate_next(g, cut, dirac(assignment_from_index(b, cut)), 1)
            assert row == trace.steps[1]
        # Fraction rows give the same integer form
        assert [scaled(row) for row in mc.matrix] == list(zip(mc.rows, mc.dens))
        wide += max(mc.dens) > 1
    assert wide > 30


def test_bscc_lrfs_of_a_smooth_64_state_chain_match_state_reduction():
    # 64 states, beyond the chains of the other tests: the stationary
    # vector's denominators run to a few hundred bits.
    g = dense_cyclic_gbn(random.Random(64), 6)
    mc = cutset_mc(g, g.nodes)
    assert mc.num_states == 64 and len(mc.bsccs) == 1
    assert mc.bscc_lrfs == (
        JointDistribution(mc.cutset, stationary_by_state_reduction(mc.matrix)),)


COPRIME = (2, 3, 5, 7, 8, 10**6 + 3)


def _coprime_joint(rng, variables):
    """Random joint whose entries share one odd denominator, zeros allowed."""
    total = rng.choice((3, 5, 7, 9, 10**6 + 3))
    cuts = sorted(rng.randint(0, total) for _ in range((1 << len(variables)) - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return JointDistribution(tuple(variables),
                             tuple(F(w, total) for w in weights))


def test_compiled_chain_matches_unfolding_on_coprime_denominators():
    # Rows of one CPT with coprime denominators catch a kernel that scales
    # by anything but their lcm; the elimination's own mass check cannot.
    g = two_cycle("1/3", "1/4", "2/5", "5/7")
    _assert_compiled_matches_oracle(g, ("X",), _coprime_joint(random.Random(1), ("X",)))
    rng = random.Random(43)
    correlated = mixed = 0
    for _ in range(40):
        shape = random_cyclic_gbn(rng, max_vars=4)
        initial = rng.choice(((), ("I",), ("I", "J")))
        edges = shape.edges | {(i, rng.choice(shape.nodes)) for i in initial}
        cpts = []
        for x in shape.nodes:
            parents = tuple(sorted(u for u, v in edges if v == x))
            if parents:
                cpts.append(Cpt(x, parents, tuple(
                    rng.choice((F(0), F(1), rand_entry(rng, rng.choice(COPRIME))))
                    for _ in range(1 << len(parents)))))
        roots = sorted(set(shape.nodes + initial) - {c.owner for c in cpts})
        g = make_gbn(shape.nodes + initial, edges, cpts,
                     _coprime_joint(rng, roots))
        cut = random_cutset(rng, g, max_size=3)
        correlated += len(g.iota.variables) >= 2
        mixed += any(len({r.denominator for r in c.rows} - {1}) >= 2
                     for c in cpts)
        _assert_compiled_matches_oracle(g, cut, _coprime_joint(rng, cut))
    assert correlated and mixed


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
    # an elimination keeps its tables' mass: a start of mass 1/2 is caught
    mc = cutset_mc(two_cycle(*EX52), ("X",))
    primed_x = 1 << len(mc.network.nodes)
    with pytest.raises(InternalError, match="mass is 1/2"):
        _forward_eliminate(mc, primed_x, [({0: 1}, 2)])
    # a substochastic matrix has no stationary vector
    leaky = matrix_chain(("A",), ((F(1, 2), F(0)), (F(0), F(1, 2))))
    with pytest.raises(InternalError):
        leaky.bscc_lrfs
    assert not issubclass(InternalError, AssertionError)


# --- literal definitions for the chain analysis ------------------------------

def _reaches(matrix):
    """reach[u][v]: v is reachable from u in zero or more steps."""
    n = len(matrix)
    reach = [[u == v or matrix[u][v] != 0 for v in range(n)] for u in range(n)]
    for k in range(n):
        for u in range(n):
            if reach[u][k]:
                reach[u] = [a or b for a, b in zip(reach[u], reach[k])]
    return reach


def _closed_sccs(matrix):
    """The strongly connected components that no edge leaves, by smallest
    state."""
    reach = _reaches(matrix)
    n = len(matrix)
    comps = {frozenset(v for v in range(n) if reach[u][v] and reach[v][u])
             for u in range(n)}
    closed = [c for c in comps
              if all(reach[u][v] <= (v in c) for u in c for v in range(n))]
    return sorted(closed, key=min)


def _period(matrix, comp):
    """gcd of the lengths t <= |comp| of closed walks inside ``comp``,
    from boolean matrix powers."""
    nodes = sorted(comp)
    adj = [[matrix[u][v] != 0 for v in nodes] for u in nodes]
    power, period = adj, 0
    for t in range(1, len(nodes) + 1):
        if any(power[i][i] for i in range(len(nodes))):
            period = math.gcd(period, t)
        power = [[any(row[k] and adj[k][j] for k in range(len(nodes)))
                  for j in range(len(nodes))] for row in power]
    return period


def _absorption(matrix, comps, gamma0):
    """Per component, gamma0 times the hitting probabilities that solve
    (I - P_TT) h = P_(T -> C) 1 by Fraction row reduction."""
    recurrent = set().union(*comps)
    transient = [s for s in range(len(matrix)) if s not in recurrent]
    a = [[F(s == t) - matrix[s][t] for t in transient] for s in transient]
    out = []
    for comp in comps:
        b = [sum(matrix[s][c] for c in comp) for s in transient]
        _, x, pivots = fraction_rref(a, b)
        assert pivots == list(range(len(transient)))
        hit = dict(zip(transient, x))
        out.append(sum(gamma0[s] * (1 if s in comp else hit.get(s, 0))
                       for s in range(len(matrix))))
    return out


def _random_chain(rng):
    """Random sparse chain on 1-12 states: closed classes whose cyclic
    classes (1-4 of them) are visited in turn around one spanning cycle,
    transient states each with an edge to a lower state, and the states
    relabelled at random.  Returned with that number of states, n, and
    padded to a chain over a cutset by states n, n+1, ... that step to
    state 0 and that no state steps to."""
    succ = []
    while not succ or (len(succ) <= 4 and rng.random() < 0.6):
        d = rng.randint(1, 4)
        size = d * rng.randint(1, 2) if d > 1 else rng.randint(1, 3)
        first = len(succ)
        for j in range(size):
            nxt = {first + (j + 1) % size}
            nxt |= {first + t for t in range((j + 1) % d, size, d)
                    if rng.random() < 0.4}
            succ.append(nxt)
    for s in range(len(succ), rng.randint(len(succ), 12)):
        succ.append({rng.randrange(s)} |
                    {t for t in range(s + 1) if rng.random() < 0.25})
    n = len(succ)
    perm = list(range(n))
    rng.shuffle(perm)
    matrix = [[F(0)] * n for _ in range(n)]
    for s, nxt in enumerate(succ):
        weights = {t: rng.randint(1, 4) for t in nxt}
        for t, w in weights.items():
            matrix[perm[s]][perm[t]] = F(w, sum(weights.values()))
    k = (n - 1).bit_length()
    matrix = [row + [F(0)] * ((1 << k) - n) for row in matrix]
    matrix += [[F(int(t == 0)) for t in range(1 << k)] for _ in range((1 << k) - n)]
    return matrix_chain(tuple("ABCD"[:k]), matrix), n


def _random_start(rng, n):
    weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(n)]
    weights[rng.randrange(n)] += 1
    return tuple(F(w, sum(weights)) for w in weights)


def test_chain_analysis_matches_literal_definitions():
    rng = random.Random(2024)
    periods, multi, transient = set(), 0, 0
    for i in range(150):
        mc, n = _random_chain(rng) if i else (matrix_chain((), ((F(1),),)), 1)
        comps = _closed_sccs(mc.matrix)
        assert list(mc.bsccs) == comps
        assert list(mc.periods) == [_period(mc.matrix, c) for c in comps]
        gamma0 = _random_start(rng, n) + (F(0),) * (mc.num_states - n)
        start = JointDistribution(mc.cutset, gamma0)
        masses, den = reach_probs(mc, start)
        assert [F(m, den) for m in masses] == _absorption(mc.matrix, comps, gamma0)
        lrf = long_run_frequency(mc, start)
        assert (lrf == start) == (mc.step(gamma0) == gamma0)
        lam = [F(rng.randint(0, 3)) for _ in comps]
        lam[0] += 1
        mix = tuple(sum(w * v.probs[s] for w, v in zip(lam, mc.bscc_lrfs)) / sum(lam)
                    for s in range(mc.num_states))
        stationary = JointDistribution(mc.cutset, mix)
        assert mc.step(mix) == mix and long_run_frequency(mc, stationary) == stationary
        periods |= set(mc.periods)
        multi += len(comps) > 1
        transient += n > len(set().union(*comps))
    assert {1, 2, 3, 4} <= periods and multi > 20 and transient > 20


def test_compiled_cutset_test_agrees_with_is_cutset():
    """``cutset_mc`` reads the cutset test off its extension plan: it
    raises ``NotACutsetError`` exactly when ``graph.is_cutset`` is False,
    on networks with self-loops and initial nodes, every subset of the
    non-initial nodes taken as the cut."""
    rng = random.Random(331)
    pairs = refused = looped = initial = 0
    for _ in range(300):
        g = random_looped_gbn(rng)
        dg = DiGraph(g.nodes, g.edges)
        looped += any(u == v for u, v in g.edges)
        initial += bool(g.initial_nodes)
        free = sorted(set(g.nodes) - g.initial_nodes)
        for size in range(len(free) + 1):
            for cut in itertools.combinations(free, size):
                pairs += 1
                if is_cutset(dg, cut):
                    assert cutset_mc(g, cut).cutset == cut
                    continue
                refused += 1
                with pytest.raises(NotACutsetError, match=r"is not a cutset$"):
                    cutset_mc(g, cut)
    assert pairs > 2000 and refused > 1000 and looped > 100 and initial > 100


def test_cutset_errors_name_what_is_wrong():
    g = make_gbn(["A", "X", "Y"], [("A", "X"), ("X", "Y"), ("Y", "X")],
                 [Cpt("X", ("A", "Y"), (F(1, 2),) * 4),
                  Cpt("Y", ("X",), (F(1, 2),) * 2)],
                 JointDistribution(("A",), (F(1, 2), F(1, 2))))
    cases = [(("X", "X"), ValueError, r"^duplicate variable names: \('X', 'X'\)$"),
             (("Q",), ValueError, "^cutset contains unknown nodes$"),
             (("A", "X"), NotACutsetError,
              r"^cutset must not contain initial nodes: \['A'\]$"),
             ((), NotACutsetError, r"^\[\] is not a cutset$")]
    for cut, error, message in cases:
        for call in (lambda: cutset_mc(g, cut),
                     lambda: dissect(g, cut, JointDistribution.uniform(tuple(sorted(cut))))):
            with pytest.raises(error, match=message):
                call()
