"""Standard semantics for acyclic networks and independence checking."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from . import graph as graphmod
from .model import (CapacityError, Gbn, InternalError, JointDistribution,
                    all_assignments, sub_indices, sums_to_one)

#: Exhaustive triple enumeration is capped at this many variables.
MAX_ENUM_VARS = 8


class CyclicGraphError(Exception):
    """The standard semantics is undefined for cyclic networks."""


@dataclass(frozen=True)
class IndependenceTriple:
    """(X independent of Y given Z) for pairwise disjoint variable sets."""

    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        object.__setattr__(self, "z", frozenset(self.z))
        if self.x & self.y or self.x & self.z or self.y & self.z:
            raise ValueError("independence triple sets must be pairwise disjoint")


def to_digraph(g: Gbn) -> graphmod.DiGraph:
    return graphmod.DiGraph(g.nodes, g.edges)


def chain_rule_dist(g: Gbn) -> JointDistribution:
    """Full joint distribution of an acyclic network via the chain rule."""
    dg = to_digraph(g)
    if not graphmod.is_acyclic(dg):
        raise CyclicGraphError("chain rule requires an acyclic graph")
    violations = g.validate()
    if violations:
        raise ValueError(f"invalid network: {violations}")
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


def check_independence(mu: JointDistribution, t: IndependenceTriple) -> bool:
    """Exact conditional independence of a triple under ``mu``.

    Checked in the division-free product form
    mu(a,b,c) * mu(c) == mu(a,c) * mu(b,c), which is equivalent to the
    conditional formulation with the zero-mass escape applied per
    assignment.
    """
    joint = mu.restrict(t.x | t.y | t.z)
    vs = joint.variables
    xz = joint.restrict(t.x | t.z)
    yz = joint.restrict(t.y | t.z)
    z = joint.restrict(t.z)
    return all(p * z.probs[k] == xz.probs[i] * yz.probs[j]
               for p, i, j, k in zip(joint.probs, sub_indices(vs, xz.variables),
                                     sub_indices(vs, yz.variables),
                                     sub_indices(vs, z.variables)))


def enumerate_dsep_triples(dg: graphmod.DiGraph) -> list[IndependenceTriple]:
    """Singleton-pair d-separation triples with every conditioning set.

    The bounded enumeration used throughout: x and y range over single
    nodes, z over all subsets of the remaining nodes.
    """
    if len(dg.nodes) > MAX_ENUM_VARS:
        raise CapacityError(
            f"triple enumeration capped at {MAX_ENUM_VARS} variables")
    triples = []
    for x, y in combinations(dg.nodes, 2):
        rest = [v for v in dg.nodes if v not in (x, y)]
        for z in chain.from_iterable(combinations(rest, k)
                                     for k in range(len(rest) + 1)):
            if graphmod.d_separated(dg, {x}, {y}, z):
                triples.append(IndependenceTriple(frozenset({x}),
                                                  frozenset({y}),
                                                  frozenset(z)))
    return triples


def dsep_implies_indep_check(g: Gbn) -> bool:
    """Executable form of: graph separations of the closed graph hold as
    independencies of the chain-rule distribution."""
    dg = to_digraph(g)
    if not graphmod.is_acyclic(dg):
        raise CyclicGraphError("check requires an acyclic graph")
    mu = chain_rule_dist(g)
    closed = graphmod.close(dg)
    return all(check_independence(mu, t) for t in enumerate_dsep_triples(closed))
