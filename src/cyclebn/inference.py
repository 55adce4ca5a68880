"""The standard semantics of an acyclic network by the chain rule, one
assignment at a time: the definition behind ``CutsetChain.extend`` on the
empty cutset and behind ``chain.next_dist``.  Independence checks over
d-separation triples live in ``oracle``."""

from __future__ import annotations

from . import graph as graphmod
from .model import (Gbn, InternalError, JointDistribution, all_assignments,
                    sums_to_one)


class CyclicGraphError(Exception):
    """The standard semantics is undefined for cyclic networks."""


def to_digraph(g: Gbn) -> graphmod.DiGraph:
    return graphmod.DiGraph(g.nodes, g.edges)


def chain_rule_dist(g: Gbn) -> JointDistribution:
    """Full joint distribution of an acyclic network via the chain rule."""
    if not graphmod.is_acyclic(to_digraph(g)):
        raise CyclicGraphError("chain rule requires an acyclic graph")
    g._require_valid()
    init = g.initial_nodes
    non_initial = sorted(set(g.nodes) - init)
    probs = []
    for b in all_assignments(g.nodes):
        p = g.iota.prob({v: b[v] for v in g.iota.variables})
        for x in non_initial:
            if p == 0:
                break
            p *= g.cpts[x].prob(b[x], b)
        probs.append(p)
    if not sums_to_one(probs):
        raise InternalError(f"chain rule mass is {sum(probs)}, not 1")
    return JointDistribution(g.nodes, tuple(probs))
