"""Directed-graph analysis: SCCs, cutsets, closure, cut-restriction, d-separation."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .model import CapacityError

#: Subset enumeration for cutsets is capped at this many nodes.
MAX_CUTSET_NODES = 20


@dataclass(frozen=True)
class DiGraph:
    """Finite directed graph; self-loops are allowed (cycles of length 1)."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", frozenset(self.edges))
        node_set = set(self.nodes)
        for (u, v) in self.edges:
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u}, {v}) references unknown node")

    def successors(self, node: str) -> frozenset[str]:
        return frozenset(v for (u, v) in self.edges if u == node)

    def predecessors(self, node: str) -> frozenset[str]:
        return frozenset(u for (u, v) in self.edges if v == node)

    @property
    def initial_nodes(self) -> frozenset[str]:
        return frozenset(self.nodes) - {v for (_, v) in self.edges}

    def post_star(self, node: str) -> frozenset[str]:
        """Nodes reachable from ``node`` via at least one edge."""
        seen: set[str] = set()
        stack = list(self.successors(node))
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self.successors(v) - seen)
        return frozenset(seen)


@dataclass(frozen=True)
class SccDecomposition:
    """SCCs in condensation (topological) order, with bottom SCCs flagged."""

    components: tuple[frozenset[str], ...]
    bottom: tuple[bool, ...]

    @property
    def bottom_components(self) -> tuple[frozenset[str], ...]:
        return tuple(c for c, b in zip(self.components, self.bottom) if b)


def scc_decompose(g: DiGraph) -> SccDecomposition:
    """Tarjan's algorithm (iterative); emits components in reverse
    topological discovery order, then reverses to condensation order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[frozenset[str]] = []
    counter = [0]
    succ = {v: sorted(g.successors(v)) for v in g.nodes}

    for root in g.nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
    components.reverse()   # Tarjan yields reverse topological order
    bottom = []
    for comp in components:
        leaves = any(v not in comp for u in comp for v in g.successors(u))
        bottom.append(not leaves)
    return SccDecomposition(tuple(components), tuple(bottom))


def is_acyclic(g: DiGraph) -> bool:
    dec = scc_decompose(g)
    if any(len(c) > 1 for c in dec.components):
        return False
    return all((v, v) not in g.edges for v in g.nodes)


def is_cutset(g: DiGraph, cut: Iterable[str]) -> bool:
    """True iff removing the cut nodes leaves an acyclic graph."""
    cut = set(cut)
    if not cut <= set(g.nodes):
        raise ValueError("cutset contains unknown nodes")
    rest = tuple(v for v in g.nodes if v not in cut)
    sub = DiGraph(rest, frozenset((u, v) for (u, v) in g.edges
                                  if u not in cut and v not in cut))
    return is_acyclic(sub)


def enumerate_cutsets(g: DiGraph, minimal_only: bool = False) -> list[frozenset[str]]:
    """All cutsets (or all inclusion-minimal cutsets), by size then name."""
    if len(g.nodes) > MAX_CUTSET_NODES:
        raise CapacityError(
            f"cutset enumeration capped at {MAX_CUTSET_NODES} nodes")
    result: list[frozenset[str]] = []
    for size in range(len(g.nodes) + 1):
        for combo in combinations(g.nodes, size):
            cand = frozenset(combo)
            if not is_cutset(g, cand):
                continue
            if minimal_only and any(prev < cand for prev in result):
                continue
            result.append(cand)
    return sorted(result, key=lambda c: (len(c), tuple(sorted(c))))


def close(g: DiGraph) -> DiGraph:
    """Add both edges between every pair of distinct initial nodes."""
    init = sorted(g.initial_nodes)
    extra = {(a, b) for a in init for b in init if a != b}
    return DiGraph(g.nodes, g.edges | extra)


def cut_restrict(g: DiGraph, cut: Iterable[str]) -> DiGraph:
    """G[C]: drop every edge targeting a cut node; the cut becomes initial."""
    cut = set(cut)
    if not is_cutset(g, cut):
        raise ValueError(f"{sorted(cut)} is not a cutset")
    return DiGraph(g.nodes, frozenset((u, v) for (u, v) in g.edges if v not in cut))


def d_separated(g: DiGraph, xs: Iterable[str], ys: Iterable[str],
                zs: Iterable[str]) -> bool:
    """d-separation of node sets, valid also on cyclic graphs.

    Computed by reachability over (node, arrival-direction) states; a
    collider is passable iff the collider node or one of its descendants
    is observed (checked against precomputed descendant sets).  Self-loop
    edges are never part of a simple path and are ignored.
    """
    xs, ys, zs = frozenset(xs), frozenset(ys), frozenset(zs)
    unknown = (xs | ys | zs) - set(g.nodes)
    if unknown:
        raise ValueError(f"unknown nodes: {sorted(unknown)}")
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("query sets must be pairwise disjoint")
    observed = zs
    collider_open = {v: v in observed or bool(g.post_star(v) & observed)
                     for v in g.nodes}
    children = {v: sorted(g.successors(v) - {v}) for v in g.nodes}
    parents = {v: sorted(g.predecessors(v) - {v}) for v in g.nodes}

    # States: (node, 'down') arrived via an incoming edge,
    #         (node, 'up') arrived via an outgoing edge traversed backwards.
    start = [(w, "down") for x in xs for w in children[x]] \
        + [(w, "up") for x in xs for w in parents[x]]
    seen = set(start)
    stack = list(start)
    while stack:
        v, direction = stack.pop()
        if v in ys:
            return False
        nxt = []
        if direction == "down":
            if v not in observed:
                nxt += [(w, "down") for w in children[v]]       # chain
            if collider_open[v]:
                nxt += [(w, "up") for w in parents[v]]          # collider
        else:
            if v not in observed:
                nxt += [(w, "down") for w in children[v]]       # fork
                nxt += [(w, "up") for w in parents[v]]          # chain
        for state in nxt:
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return True
