"""Linear constraint systems for CPT consistency, and the
independence-extended semantics computed through cutset intersections."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import graph as graphmod
from .chain import _extend, cutset_mc
from .families import (EMPTY, INFINITE, UNIQUE, UNSUPPORTED, SemanticsFamily)
from .inference import IndependenceTriple, check_independence, to_digraph
from .linalg import LinearSystem, classify_polytope
from .model import (Gbn, JointDistribution, all_assignments,
                    assignment_from_index)

ZERO = Fraction(0)
ONE = Fraction(1)


def _agrees(b: dict, c: dict) -> bool:
    return all(b[v] == val for v, val in c.items())


def _iota_rows(g: Gbn, n: int) -> tuple[list, list]:
    """Equations pinning the restriction to the initial nodes to iota,
    one per initial assignment (zero-probability ones included).  For a
    network without initial nodes this would duplicate the normalization
    row and is skipped."""
    init = tuple(sorted(g.initial_nodes))
    rows, rhs = [], []
    if not init:
        return rows, rhs
    for idx in range(1 << len(init)):
        d = assignment_from_index(idx, init)
        row = [ONE if _agrees(b, d) else ZERO for b in all_assignments(g.nodes)]
        rows.append(row)
        rhs.append(g.iota.probs[idx])
    return rows, rhs


def build_cpt_system(g: Gbn) -> LinearSystem:
    """Strong-consistency system: for each non-initial node X and parent
    assignment c, the row Pr(X=T|c) * mu(c) - mu(X=T, c) = 0, followed by
    the normalization row and the initial-distribution pinning rows."""
    cols = list(all_assignments(g.nodes))
    rows, rhs = [], []
    for x in sorted(set(g.nodes) - g.initial_nodes):
        cpt = g.cpts[x]
        for pidx in range(1 << len(cpt.parents)):
            c = assignment_from_index(pidx, cpt.parents)
            pr = cpt.rows[pidx]
            row = []
            for b in cols:
                if not _agrees(b, c):
                    row.append(ZERO)
                else:
                    row.append(pr - ONE if b[x] else pr)
            rows.append(row)
            rhs.append(ZERO)
    rows.append([ONE] * len(cols))
    rhs.append(ONE)
    irows, irhs = _iota_rows(g, len(cols))
    return LinearSystem(tuple(rows + irows), tuple(rhs + irhs))


def build_wcpt_system(g: Gbn) -> LinearSystem:
    """Weak-consistency system: one marginal equation per non-initial
    node, plus normalization and initial-distribution pinning."""
    cols = list(all_assignments(g.nodes))
    rows, rhs = [], []
    for x in sorted(set(g.nodes) - g.initial_nodes):
        cpt = g.cpts[x]
        row = []
        for b in cols:
            pr = cpt.prob_true(b)
            row.append(pr - ONE if b[x] else pr)
        rows.append(row)
        rhs.append(ZERO)
    rows.append([ONE] * len(cols))
    rhs.append(ONE)
    irows, irhs = _iota_rows(g, len(cols))
    return LinearSystem(tuple(rows + irows), tuple(rhs + irhs))


def solve_family(g: Gbn, kind: str) -> SemanticsFamily:
    """Classify the strong ("cpt") or weak ("wcpt") consistency family."""
    if kind == "cpt":
        system = build_cpt_system(g)
    elif kind == "wcpt":
        system = build_wcpt_system(g)
    else:
        raise ValueError(f"unknown family kind: {kind}")
    poly = classify_polytope(system)
    if poly.kind == "empty":
        return SemanticsFamily(kind, EMPTY)
    dist = JointDistribution(g.nodes, poly.witness)
    status = UNIQUE if poly.kind == "point" else INFINITE
    return SemanticsFamily(kind, status, (dist,))


def check_consistency(mu: JointDistribution, g: Gbn, x: str,
                      mode: str = "strong") -> bool:
    """Does ``mu`` agree with the CPT of ``x``?  Strong: conditioned on
    every parent assignment; weak: only the marginal of x."""
    if x in g.initial_nodes or x not in g.nodes:
        raise ValueError(f"{x} is not a non-initial node")
    cpt = g.cpts[x]
    if mode == "strong":
        for pidx in range(1 << len(cpt.parents)):
            c = assignment_from_index(pidx, cpt.parents)
            lhs = mu.partial_prob({x: True, **c})
            if lhs != mu.partial_prob(c) * cpt.rows[pidx]:
                return False
        return True
    if mode == "weak":
        total = ZERO
        for pidx in range(1 << len(cpt.parents)):
            c = assignment_from_index(pidx, cpt.parents)
            total += mu.partial_prob(c) * cpt.rows[pidx]
        return mu.partial_prob({x: True}) == total
    raise ValueError(f"unknown mode: {mode}")


def is_strongly_consistent(mu: JointDistribution, g: Gbn) -> bool:
    """Strong consistency at every non-initial node plus iota pinning."""
    init = g.initial_nodes
    if mu.restrict(init).probs != g.iota.probs:
        return False
    return all(check_consistency(mu, g, x, "strong")
               for x in set(g.nodes) - init)


def check_cpt_i_member(mu: JointDistribution, g: Gbn,
                       independencies: Iterable[IndependenceTriple]) -> bool:
    """Membership in the independence-extended consistency family.

    Requires strong consistency everywhere, the pinned initial
    distribution, and each independence constraint in division-free
    product form: mu(b) * mu(b_W) == mu(b_{X union W}) * mu(b_{U union W})
    for every assignment b over X, U and W.
    """
    if not is_strongly_consistent(mu, g):
        return False
    for t in independencies:
        if len(t.x) != 1:
            raise ValueError("constraints expect singleton left-hand sets")
        if not check_independence(mu, t):
            return False
    return True


def cpt_i_via_cutsets(g: Gbn, cutsets: Sequence[Iterable[str]]) -> SemanticsFamily:
    """Intersection of the chain semantics over a family of cutsets.

    The cutsets must leave every node uncovered by at least one of them;
    the intersection then equals the independence-extended consistency
    family.  Only the all-singleton case is computed; when some chain
    admits infinitely many stationary distributions the result is a
    semialgebraic set with no algorithm here, reported as unsupported.
    """
    cutsets = [tuple(sorted(c)) for c in cutsets]
    uncovered_ok = all(any(x not in set(c) for c in cutsets) for x in g.nodes)
    if not uncovered_ok:
        raise ValueError("some node belongs to every cutset in the family")
    singletons = []
    for cut in cutsets:
        chain = cutset_mc(g, cut)
        if len(chain.bsccs) != 1:
            return SemanticsFamily(
                "cpti", UNSUPPORTED,
                notes=f"chain for cutset {list(cut)} has "
                      f"{len(chain.bsccs)} bottom components")
        # With one bottom component the chain semantics is the same for
        # every start: the extension of its stationary vector.
        singletons.append(_extend(g, chain.cutset, chain.bscc_lrfs[0]))
    first = singletons[0]
    if any(d.probs != first.probs for d in singletons[1:]):
        return SemanticsFamily("cpti", EMPTY,
                               notes="cutset semantics disagree")
    return SemanticsFamily("cpti", UNIQUE, (first,),
                           notes=f"intersection of {len(cutsets)} cutset chains")


def closed_cut_triples(g: Gbn, cut) -> list[IndependenceTriple]:
    """Bounded independence triples of the closed cut-restricted graph."""
    from .inference import enumerate_dsep_triples
    dg = graphmod.cut_restrict(to_digraph(g), cut)
    return enumerate_dsep_triples(graphmod.close(dg))
