"""Directed-graph analysis: SCCs (Tarjan, on integer successor lists),
acyclicity (Kahn), cutsets and d-separation.  Closure, cut-restriction and
the simple-path d-separation reference live in ``oracle``."""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from functools import cached_property
from itertools import chain, compress, repeat
from operator import add

from .model import CapacityError, _Value

#: Subset enumeration for cutsets is capped at this many nodes.
MAX_CUTSET_NODES = 20

#: Binary digits to one byte each, zero for "0": flags for ``compress``.
_FLAGS = bytes.maketrans(b"01", b"\0\1")


class DiGraph(_Value):
    """Finite directed graph; self-loops are allowed (cycles of length 1).
    A node name is any hashable value that sorts against the others, such
    as a network variable (str) or a cutset-chain state (int)."""

    _fields = ("nodes", "edges")

    def __init__(self, nodes: Iterable[Hashable],
                 edges: Iterable[tuple[Hashable, Hashable]]) -> None:
        nodes, edges = tuple(sorted(nodes)), frozenset(edges)
        node_set = set(nodes)
        for (u, v) in edges:
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
        vars(self).update(nodes=nodes, edges=edges)

    @cached_property
    def _adjacency(self) -> tuple[dict[Hashable, frozenset], dict[Hashable, frozenset]]:
        """Successor and predecessor sets of every node, built once."""
        succ: dict[Hashable, set[Hashable]] = {v: set() for v in self.nodes}
        pred: dict[Hashable, set[Hashable]] = {v: set() for v in self.nodes}
        for (u, v) in self.edges:
            succ[u].add(v)
            pred[v].add(u)
        return ({v: frozenset(s) for v, s in succ.items()},
                {v: frozenset(s) for v, s in pred.items()})

    def successors(self, node: Hashable) -> frozenset[Hashable]:
        return self._adjacency[0].get(node, frozenset())

    def predecessors(self, node: Hashable) -> frozenset[Hashable]:
        return self._adjacency[1].get(node, frozenset())


def strong_components(succ: Sequence[Sequence[int]]
                      ) -> tuple[list[list[int]], list[bool]]:
    """Tarjan's algorithm, iterative, on nodes 0..n-1 with successor lists
    ``succ``: the components in condensation (topological) order, and
    for each whether it is bottom, that is, no edge leaves it.

    Roots and successors are taken in list order.  A node with an index
    but no component yet is on the stack, and an edge to such a node
    stays inside the component.  An edge leaves it exactly when its
    target's component is complete by the time the edge is done with."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp_of = [-1] * n
    exits = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    bottom: list[bool] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp_of[w] >= 0:
                    exits[v] = True
                elif index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp, leaves = [], False
                    while True:
                        w = stack.pop()
                        comp_of[w] = len(comps)
                        comp.append(w)
                        leaves = leaves or exits[w]
                        if w == v:
                            break
                    comps.append(comp)
                    bottom.append(not leaves)
                if work:
                    u = work[-1][0]
                    if comp_of[v] >= 0:
                        exits[u] = True
                    elif low[v] < low[u]:
                        low[u] = low[v]
    comps.reverse()
    bottom.reverse()
    return comps, bottom


def is_acyclic(g: DiGraph) -> bool:
    """Kahn's test, as :func:`is_cutset` with an empty cut."""
    return is_cutset(g, ())


def is_cutset(g: DiGraph, cut: Iterable[Hashable]) -> bool:
    """True iff removing the cut nodes leaves an acyclic graph.  Kahn's
    test on the rest, read off ``g``: every node outside the cut is
    removed by repeatedly removing nodes with no in-edge left from
    outside it, a self-loop counting as one."""
    cut = set(cut)
    if not cut <= set(g.nodes):
        raise ValueError("cutset contains unknown nodes")
    indegree = {v: len(g.predecessors(v) - cut) for v in g.nodes if v not in cut}
    ready = [v for v, k in indegree.items() if not k]
    for v in ready:                     # grows as nodes are removed
        for w in g.successors(v) - cut:
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    return len(ready) == len(indegree)


def _containing(bits: int, n: int) -> int:
    """One bit per subset of n nodes: bit C is set iff C includes ``bits``.
    Built by doubling, one node bit at a time."""
    table = 1
    for p in range(n):
        table = table << (1 << p) if bits >> p & 1 else table | table << (1 << p)
    return table


def enumerate_cutsets(g: DiGraph, minimal_only: bool = False) -> list[tuple[str, ...]]:
    """All cutsets (or all inclusion-minimal cutsets), by size then name,
    each a tuple of its node names in sorted order.

    One integer holds a bit per node subset C, the i-th sorted node on
    bit n-1-i, set iff C is a cutset, that is, its complement R is
    acyclic.  Every nonempty acyclic R has a sink, a node with no
    out-edge into R, so the cutsets are the closure of the full set
    under dropping a node v whose successors all lie in the cutset (a
    self-looped v is never dropped).  Each pass over the nodes does
    ``table |= (table & mask_v) >> bit_v`` for the mask of the subsets
    holding v and its successors; after pass j every cutset of n - j or
    more nodes is present, so at most n + 1 passes fill the table.  C is
    a minimal cutset iff no C less one node is a cutset.

    With the first name on the highest bit, name order within a size is
    descending mask order, the order of the table's binary text.  That
    text is read one high half of C at a time: ``compress`` picks the
    kept low halves from a table of their name tuples, each is joined to
    the high half's tuple, and a stable sort by size finishes the
    listing, with no Python-level loop per subset or per name.
    ``oracle.cutsets_by_subsets`` is the per-subset reference.
    """
    n = len(g.nodes)
    if n > MAX_CUTSET_NODES:
        raise CapacityError(
            f"cutset enumeration capped at {MAX_CUTSET_NODES} nodes")
    bit = {v: 1 << (n - 1 - i) for i, v in enumerate(g.nodes)}
    succ = dict.fromkeys(bit.values(), 0)   # node bit -> bits of its successors
    for (u, v) in g.edges:
        succ[bit[u]] |= bit[v]
    steps = [(_containing(b | s, n), b) for b, s in succ.items() if not s & b]
    full = (1 << n) - 1
    table, last = 1 << full, 0
    while table != last:
        last = table
        for mask, b in steps:
            table |= (table & mask) >> b
    if minimal_only:
        # drop C when C less some node b of C is a cutset
        shrinks = 0
        for b in succ:
            shrinks |= (table << b) & _containing(b, n)
        table &= ~shrinks
    # the binary text of the table holds the bit of C at place full - C
    low = n // 2
    high_names = _name_tuples(g.nodes[:n - low])[::-1]
    low_names = _name_tuples(g.nodes[n - low:])[::-1]
    flags = format(table, f"0{full + 1}b").encode().translate(_FLAGS)
    step = len(low_names)
    return sorted(chain.from_iterable(
        map(add, repeat(high), compress(low_names, flags[i:i + step]))
        for i, high in zip(range(0, full + 1, step), high_names)), key=len)


def _name_tuples(names: Sequence[str]) -> list[tuple[str, ...]]:
    """The names on the set bits of every index, the last name on bit 0."""
    tuples = [()]
    for v in reversed(names):
        tuples += [(v,) + t for t in tuples]
    return tuples


def d_separated(g: DiGraph, xs: Iterable[str], ys: Iterable[str],
                zs: Iterable[str]) -> bool:
    """d-separation of node sets, valid also on cyclic graphs.

    Computed by reachability over (node, arrival-direction) states, as
    Bayes-ball: a collider is passable iff the collider node or one of
    its descendants is observed.  Only observed nodes bounce the ball
    back up; a collider with an observed descendant needs no test of its
    own, because the ball goes on down through unobserved nodes to the
    nearest observed descendant, bounces there, and comes back up to the
    collider.
    """
    xs, ys, zs = frozenset(xs), frozenset(ys), frozenset(zs)
    unknown = (xs | ys | zs) - set(g.nodes)
    if unknown:
        raise ValueError(f"unknown nodes: {sorted(unknown)}")
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("query sets must be pairwise disjoint")
    # States: (node, 'down') arrived via an incoming edge,
    #         (node, 'up') arrived via an outgoing edge traversed backwards.
    start = [(w, "down") for x in xs for w in g.successors(x)] \
        + [(w, "up") for x in xs for w in g.predecessors(x)]
    seen = set(start)
    stack = list(start)
    while stack:
        v, direction = stack.pop()
        if v in ys:
            return False
        nxt = []
        if direction == "down":
            if v in zs:
                nxt += [(w, "up") for w in g.predecessors(v)]  # collider
            else:
                nxt += [(w, "down") for w in g.successors(v)]  # chain
        elif v not in zs:
            nxt += [(w, "down") for w in g.successors(v)]  # fork
            nxt += [(w, "up") for w in g.predecessors(v)]  # chain
        for state in nxt:
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return True
