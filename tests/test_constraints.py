"""Consistency constraint systems and their solution families."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import make_gbn, random_acyclic_gbn, random_cyclic_gbn, two_cycle
from cyclebn.chain import cutset_mc
from cyclebn.constraints import (build_cpt_system, build_wcpt_system,
                                 check_consistency, cpt_i_via_cutsets,
                                 is_strongly_consistent, solve_family)
from cyclebn.families import EMPTY, INFINITE, UNIQUE, SemanticsFamily
from cyclebn.graph import enumerate_cutsets
from cyclebn.inference import chain_rule_dist, to_digraph
from cyclebn.linalg import LinearSystem
from cyclebn.model import Cpt, JointDistribution, scaled
from cyclebn.oracle import (IndependenceTriple, check_cpt_i_member,
                            classify_by_vertices, close, closed_cut_triples,
                            enumerate_dsep_triples, is_solution)

F = Fraction


def unique_cpt(g):
    """The one distribution of the strong-consistency family of ``g``."""
    fam = solve_family(g, "cpt")
    assert fam.status == UNIQUE
    return fam.distributions[0]


def test_cpt_system_shape_and_first_row():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    sys = build_cpt_system(g)
    # four conditional rows plus the one pin row, which without initial
    # nodes is normalization
    assert len(sys.matrix) == 5
    # Pr(X=T | Y=F) mu(FF) - mu(TF) = 0, times the denominator 4
    assert sys.matrix[0] == (3, 0, -1, 0)
    assert sys.matrix[-1] == (1, 1, 1, 1)
    assert sys.rhs == (0, 0, 0, 0, 1)


def test_cpt_family_unique():
    fam = solve_family(two_cycle("3/4", "1/2", "3/4", "1/2"), "cpt")
    assert fam.status == UNIQUE
    assert fam.distributions[0].probs == (F(1, 10), F(3, 10), F(3, 10), F(3, 10))


def test_cpt_family_empty():
    fam = solve_family(two_cycle(0, 1, 1, 0), "cpt")
    assert fam.status == EMPTY
    assert not fam.distributions


def test_cpt_family_infinite():
    fam = solve_family(two_cycle(0, 1, 0, 1), "cpt")
    assert fam.status == INFINITE
    w = fam.distributions[0]
    assert w.variables == ("X", "Y")
    assert w.nums[1] == w.nums[2] == 0          # X != Y


def test_unknown_family_kind():
    with pytest.raises(ValueError):
        solve_family(two_cycle("1/2", "1/2", "1/2", "1/2"), "bogus")


def test_wcpt_contains_cpt_solution():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    mu = unique_cpt(g)
    wsys = build_wcpt_system(g)
    assert is_solution(wsys, mu.probs)


def test_wcpt_system_shape():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    sys = build_wcpt_system(g)
    assert len(sys.matrix) == 3    # one marginal row per node + the pin row


def test_acyclic_cpt_solution_is_chain_rule():
    g = make_gbn(["X", "Y"], [("X", "Y")],
                 [Cpt("Y", ("X",), (F(1, 2), F(3, 4)))],
                 JointDistribution(("X",), (F(1, 4), F(3, 4))))
    fam = solve_family(g, "cpt")
    assert fam.status == UNIQUE
    assert fam.distributions[0] == chain_rule_dist(g)


def test_iota_rows_pin_initial_marginal():
    iota = JointDistribution(("A", "B"), (F(1, 2), F(0), F(0), F(1, 2)))
    g = make_gbn(["A", "B", "C"], [("A", "C"), ("B", "C")],
                 [Cpt("C", ("A", "B"), (F(1, 2),) * 4)], iota)
    fam = solve_family(g, "cpt")
    assert fam.status == UNIQUE
    assert fam.distributions[0].restrict(("A", "B")) == iota


def test_check_consistency_strong_and_weak():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    mu = unique_cpt(g)
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
    mu = unique_cpt(g)
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
    mu = unique_cpt(g)
    bad = IndependenceTriple({"X", "Y"}, set(), set())
    with pytest.raises(ValueError):
        check_cpt_i_member(mu, g, [bad])


def test_cpt_i_via_cutsets_agreeing():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    fam = cpt_i_via_cutsets(g, [("X",), ("Y",)])
    assert fam.status == UNIQUE
    assert fam.distributions[0] == unique_cpt(g)


def test_cpt_i_via_cutsets_coverage_precondition():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    with pytest.raises(ValueError):
        cpt_i_via_cutsets(g, [("X",), ("X", "Y")])


def test_cpt_i_via_cutsets_infinite_on_multi_bscc():
    # X and Y copy each other: the chain for {X} keeps each state, so it
    # has two bottom components, and so does the chain for {Y}; both
    # semantics are the mixtures of the all-false and all-true points
    g = two_cycle(0, 1, 0, 1)
    assert len(cutset_mc(g, ("X",)).bsccs) == 2
    fam = cpt_i_via_cutsets(g, [("X",), ("Y",)])
    assert fam.status == INFINITE
    [mu] = fam.distributions
    assert mu.probs[1] == mu.probs[2] == 0
    triples = closed_cut_triples(g, ("X",)) + closed_cut_triples(g, ("Y",))
    assert check_cpt_i_member(mu, g, triples)


def _cpti_corpus(seed: int, count: int):
    """Random cyclic networks with their minimal cutsets that hold no
    initial node, where those leave every node uncovered by one."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_cyclic_gbn(rng, max_vars=5, denom=2)
        cuts = [c for c in enumerate_cutsets(to_digraph(g), minimal_only=True)
                if not set(c) & g.initial_nodes]
        if all(any(x not in c for c in cuts) for x in g.nodes):
            yield g, cuts


def _weight_system(g, vecs) -> LinearSystem:
    """The cpti polytope in mixture weights, one column per extended
    vector of each cutset: every cutset's weights sum to 1, and each
    cutset's mixture equals the previous one's at every assignment, each
    row times the lcm of its denominators."""
    cols = [k for k, vs in enumerate(vecs) for _ in vs]
    flat = [v.probs for vs in vecs for v in vs]
    rows = [[1 if i == k else 0 for i in cols] for k in range(len(vecs))]
    rows += [scaled(p[a] if i == k else -p[a] if i == k - 1 else 0
                    for i, p in zip(cols, flat))[0]
             for k in range(1, len(vecs)) for a in range(1 << len(g.nodes))]
    return LinearSystem(rows, [1] * len(vecs) + [0] * (len(rows) - len(vecs)))


def test_cpt_i_lp_matches_old_rule_membership_and_vertices():
    seen = Counter()
    for g, cuts in _cpti_corpus(5, 300):
        fam = cpt_i_via_cutsets(g, cuts)
        seen[fam.status] += 1
        vecs = []
        for cut in cuts:
            chain = cutset_mc(g, cut)
            vecs.append([chain.extend([d])[0] for d in chain.bscc_lrfs])
        triples = [t for cut in cuts for t in closed_cut_triples(g, cut)]

        def member(weights):
            mu = [sum(w * v.probs[a] for w, v in zip(weights, vecs[0]))
                  for a in range(1 << len(g.nodes))]
            return check_cpt_i_member(JointDistribution(g.nodes, mu), g, triples)

        if fam.status != EMPTY:
            assert check_cpt_i_member(fam.distributions[0], g, triples)
        width = sum(map(len, vecs))
        if width == len(vecs):
            # the rule before the LP: one point if all chains agree
            first = vecs[0][0]
            if all(vs[0] == first for vs in vecs):
                want = SemanticsFamily("cpti", UNIQUE, (first,),
                                       f"intersection of {len(cuts)} cutset chains")
            else:
                want = SemanticsFamily("cpti", EMPTY, notes="cutset semantics disagree")
            assert fam == want
        elif width <= 8:
            # some chain has several bottom components: the vertex oracle
            kind, vertices = classify_by_vertices(_weight_system(g, vecs))
            assert {"empty": EMPTY, "point": UNIQUE}.get(kind, INFINITE) == fam.status
            seen["vertex-checked"] += 1
            if kind == "infinite":
                for v in vertices:
                    assert member(v)
                v1, v2 = sorted(vertices)[:2]
                assert member([(x + y) / 2 for x, y in zip(v1, v2)])
    # the draw holds every status and reaches the vertex oracle
    assert min(seen[s] for s in (EMPTY, UNIQUE, INFINITE, "vertex-checked")) > 0, seen


def test_closed_cut_triples_bounded():
    g = two_cycle("3/4", "1/2", "3/4", "1/2")
    triples = closed_cut_triples(g, ("X",))
    for t in triples:
        assert len(t.x) == 1 and len(t.y) == 1
