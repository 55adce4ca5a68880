"""The semantics checked against each other.  The consistency families
come from the LP and the chain semantics from the chain, which share no
code; the paper's definitions order them: cpti within cpt within wcpt,
and every extended bottom-component vector of the chain at the cutset
of every non-initial node within wcpt."""

import random
from collections import Counter

import pytest

from conftest import random_cyclic_gbn
from cyclebn import constraints
from cyclebn.chain import cutset_mc
from cyclebn.constraints import (check_consistency, cpt_i_via_cutsets,
                                 is_strongly_consistent, solve_family)
from cyclebn.families import EMPTY, INFINITE, UNIQUE
from cyclebn.graph import DiGraph, enumerate_cutsets
from cyclebn.linalg import PolytopeClass
from cyclebn.model import InternalError


def _weakly_consistent(mu, g) -> bool:
    return mu.restrict(sorted(g.initial_nodes)) == g.iota and all(
        check_consistency(mu, g, x, "weak")
        for x in set(g.nodes) - g.initial_nodes)


def test_semantics_are_ordered_as_defined():
    rng = random.Random(1717)
    seen = Counter()
    for _ in range(300):
        # 6-node cpt families take up to a tenth of a second, 7-node ones
        # seconds; 0/1 tables and denominator 2 make every status common
        g = random_cyclic_gbn(rng, max_vars=6, denom=rng.choice((1, 2, 8)))
        wcpt = solve_family(g, "wcpt")
        cpt = solve_family(g, "cpt")
        assert wcpt.status != EMPTY
        assert all(_weakly_consistent(mu, g) for mu in cpt.distributions)
        if wcpt.status == UNIQUE:
            assert cpt.status == EMPTY or cpt.distributions == wcpt.distributions
        seen["cpt " + cpt.status] += 1
        seen["wcpt " + UNIQUE] += wcpt.status == UNIQUE
        if len(g.nodes) <= 5:
            # the full-cutset chain has at most 32 states
            chain = cutset_mc(g, sorted(set(g.nodes) - g.initial_nodes))
            assert all(_weakly_consistent(mu, g)
                       for mu in chain.extend(chain.bscc_lrfs))
            seen["chain"] += 1
        cuts = [c for c in enumerate_cutsets(DiGraph(g.nodes, g.edges), minimal_only=True)
                if not set(c) & g.initial_nodes]
        if not cuts or any(all(x in c for c in cuts) for x in g.nodes):
            continue
        cpti = cpt_i_via_cutsets(g, cuts)
        assert all(is_strongly_consistent(mu, g) for mu in cpti.distributions)
        if cpt.status == EMPTY:
            assert cpti.status == EMPTY
        if cpt.status == UNIQUE:
            assert cpti.status == EMPTY or cpti.distributions == cpt.distributions
        seen["cpti " + cpti.status] += 1
    every = [f"{kind} {status}" for kind in ("cpt", "cpti")
             for status in (EMPTY, UNIQUE, INFINITE)] + ["wcpt " + UNIQUE, "chain"]
    assert min(seen[key] for key in every) >= 10, seen


def test_an_empty_weak_family_is_an_internal_error(monkeypatch):
    # a wrong "empty" from the LP is refused, not reported
    monkeypatch.setattr(constraints, "classify_polytope",
                        lambda system: PolytopeClass("empty"))
    g = random_cyclic_gbn(random.Random(5))
    assert solve_family(g, "cpt").status == EMPTY
    with pytest.raises(InternalError, match="never empty"):
        solve_family(g, "wcpt")
