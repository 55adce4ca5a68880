"""The standard semantics of an acyclic network by the chain rule, in
integer tables: the definition behind ``CutsetChain.extend`` on the empty
cutset and behind ``chain.next_dist``.  Independence checks live in ``oracle``."""

from __future__ import annotations

from . import graph as graphmod
from .model import (Gbn, InternalError, JointDistribution, rational_text,
                    sub_indices)


class CyclicGraphError(Exception):
    """The standard semantics is undefined for cyclic networks."""


def to_digraph(g: Gbn) -> graphmod.DiGraph:
    return graphmod.DiGraph(g.nodes, g.edges)


def chain_rule_dist(g: Gbn) -> JointDistribution:
    """Full joint distribution of an acyclic network via the chain rule:
    iota's numerators spread over the nodes' assignments, times one CPT
    factor per non-initial node, over the product of the denominators."""
    if not graphmod.is_acyclic(to_digraph(g)):
        raise CyclicGraphError("chain rule requires an acyclic graph")
    g._require_valid()
    nodes, iota, den = g.nodes, g.iota.nums, g.iota.den
    probs = [iota[k] for k in sub_indices(nodes, g.iota.variables)]
    for x in sorted(set(nodes) - g.initial_nodes):
        cpt = g.cpts[x]
        row, d = cpt.nums, cpt.den
        probs = [p * (row[k] if t else d - row[k]) for p, k, t in
                 zip(probs, sub_indices(nodes, cpt.parents), sub_indices(nodes, (x,)))]
        den *= d
    mass = sum(probs)
    if mass != den:
        raise InternalError(f"chain rule mass is {rational_text(mass, den)}, not 1")
    return JointDistribution._of_table(nodes, probs, den)
