"""Graph analysis: SCCs, acyclicity, cutsets, closure, cut-restriction,
d-separation."""

import itertools
import random

import pytest

from conftest import three_cycle_graph
from cyclebn import graph
from cyclebn.graph import (DiGraph, d_separated, enumerate_cutsets,
                           is_acyclic, is_cutset, strong_components)
from cyclebn.model import CapacityError
from cyclebn.oracle import close, cut_restrict, cutsets_by_subsets, dsep_by_paths


def chain_graph():
    return DiGraph(("X", "Y", "Z"), frozenset({("X", "Y"), ("Y", "Z")}))


def collider_graph():
    return DiGraph(("X", "Y", "Z"), frozenset({("X", "Y"), ("Z", "Y")}))


def test_scc_two_cycle():
    comps, bottom = strong_components([[1], [0]])
    assert [sorted(c) for c in comps] == [[0, 1]]
    assert bottom == [True]


def test_scc_condensation_order():
    # 0 -> 1 <-> 2
    comps, bottom = strong_components([[1], [2], [1]])
    assert [sorted(c) for c in comps] == [[0], [1, 2]]
    assert bottom == [False, True]


def test_scc_multiple_bottoms():
    comps, bottom = strong_components([[1, 2], [], []])
    assert sorted(c for c, b in zip(comps, bottom) if b) == [[1], [2]]


def _mutual_reachability(succ):
    """Components and bottom components by their definitions: u and v
    share a component iff each reaches the other, and a component is
    bottom iff nothing outside it is reachable from it."""
    n = len(succ)
    reach = []
    for u in range(n):
        seen, stack = {u}, [u]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    comps = {frozenset(v for v in reach[u] if u in reach[v]) for u in range(n)}
    bottom = {c for c in comps if all(reach[u] <= c for u in c)}
    return comps, bottom


def test_strong_components_match_mutual_reachability():
    rng = random.Random(72)
    shapes = {"loop": 0, "isolated": 0, "sinks": 0}
    acyclic_graphs = 0
    for _ in range(300):
        n = rng.randint(1, 40)
        p = rng.choice((0.02, 0.05, 0.1, 0.3))
        succ = [[] for _ in range(n)]
        for u in range(n):
            if rng.random() < 0.15:      # an isolated node
                continue
            succ[u] = sorted({v for v in range(n)
                              if v != u and rng.random() < p
                              or v == u and rng.random() < 0.2})
            rng.shuffle(succ[u])
        comps, bottom = strong_components(succ)
        want, want_bottom = _mutual_reachability(succ)
        assert sorted(map(sorted, comps)) == sorted(map(sorted, want))
        assert {frozenset(c) for c, b in zip(comps, bottom) if b} == want_bottom
        # condensation order: no edge runs to an earlier component
        rank = {v: i for i, c in enumerate(comps) for v in c}
        assert all(rank[u] <= rank[v] for u in range(n) for v in succ[u])
        shapes["loop"] += any(u in succ[u] for u in range(n))
        shapes["isolated"] += any(not succ[u] and all(u not in s for s in succ)
                                  for u in range(n))
        shapes["sinks"] += len(want_bottom) > 2
        # acyclic: every component a single node without a self-loop
        acyclic = all(len(c) == 1 for c in want) and \
            not any(u in succ[u] for u in range(n))
        g = DiGraph(tuple(range(n)),
                    frozenset((u, v) for u in range(n) for v in succ[u]))
        assert is_acyclic(g) == acyclic
        acyclic_graphs += acyclic
    assert min(shapes.values()) > 50, shapes
    assert acyclic_graphs > 20


def test_is_acyclic():
    assert is_acyclic(chain_graph())
    assert not is_acyclic(three_cycle_graph())
    assert not is_acyclic(DiGraph(("X",), frozenset({("X", "X")})))


def test_is_cutset():
    g = three_cycle_graph()
    assert is_cutset(g, {"Y"})
    assert is_cutset(g, {"Z"})
    assert not is_cutset(g, {"X"})
    assert is_cutset(chain_graph(), set())
    with pytest.raises(ValueError):
        is_cutset(g, {"Q"})


def test_enumerate_cutsets_strongly_connected():
    cuts = enumerate_cutsets(three_cycle_graph())
    assert cuts == [("Y",), ("Z",), ("X", "Y"), ("X", "Z"), ("Y", "Z"),
                    ("X", "Y", "Z")]


def test_enumerate_cutsets_minimal():
    cuts = enumerate_cutsets(three_cycle_graph(), minimal_only=True)
    assert cuts == [("Y",), ("Z",)]


def test_enumerate_cutsets_acyclic_includes_empty():
    cuts = enumerate_cutsets(chain_graph(), minimal_only=True)
    assert cuts == [()]


def _random_digraph(rng: random.Random, n: int) -> DiGraph:
    """Random digraph on n shuffled names: dense or sparse, with or
    without self-loops, and acyclic one time in four."""
    nodes = [f"N{i:02d}" for i in range(n)]
    rng.shuffle(nodes)
    p = rng.choice((0.05, 0.15, 0.3, 0.6))
    acyclic = rng.random() < 0.25
    loops = 0 if acyclic else rng.choice((0, 0.1))
    edges = {(u, v) for i, u in enumerate(nodes) for j, v in enumerate(nodes)
             if (i < j or not acyclic and i > j) and rng.random() < p
             or i == j and rng.random() < loops}
    return DiGraph(tuple(nodes), frozenset(edges))


def _assert_cutsets_match_oracle(g: DiGraph):
    for minimal in (False, True):
        expected = [tuple(sorted(c)) for c in cutsets_by_subsets(g, minimal)]
        assert enumerate_cutsets(g, minimal) == expected, (g, minimal)


def test_enumerate_cutsets_matches_subset_oracle():
    rng = random.Random(8)
    sizes = [rng.randint(0, 9) for _ in range(150)] + [10, 11, 12, 12]
    for n in sizes:
        g = _random_digraph(rng, n)
        _assert_cutsets_match_oracle(g)
        if is_acyclic(g):
            assert enumerate_cutsets(g, True) == [()]


def _backward_digraph(rng: random.Random, n: int) -> DiGraph:
    """Random digraph whose edges mostly run from later names to earlier
    ones, so that one pass over the nodes in name order leaves cutsets
    out of the table."""
    names = [f"V{i}" for i in range(n)]
    edges = {(u, v) for i, u in enumerate(names) for v in names[:i]
             if rng.random() < 0.4}
    edges |= {(u, v) for i, u in enumerate(names) for v in names[i + 1:]
              if rng.random() < 0.05}
    return DiGraph(tuple(names), frozenset(edges))


def test_enumerate_cutsets_against_name_order():
    names = [f"V{i}" for i in range(10)]
    path = set(zip(names[1:], names))           # V9 -> V8 -> ... -> V0
    _assert_cutsets_match_oracle(DiGraph(tuple(names), frozenset(path)))
    _assert_cutsets_match_oracle(
        DiGraph(tuple(names), frozenset(path | {("V0", "V9")})))
    rng = random.Random(17)
    for n in (4, 6, 8, 9, 10, 11):
        _assert_cutsets_match_oracle(_backward_digraph(rng, n))


def test_enumerate_cutsets_self_loop_everywhere():
    names = tuple(f"N{i}" for i in range(7))
    for extra in (frozenset(), frozenset(zip(names, names[1:]))):
        g = DiGraph(names, frozenset((v, v) for v in names) | extra)
        _assert_cutsets_match_oracle(g)
        assert enumerate_cutsets(g) == [names]


def test_enumerate_cutsets_complete_digraph():
    names = tuple(f"K{i}" for i in range(8))
    g = DiGraph(names, frozenset(itertools.permutations(names, 2)))
    _assert_cutsets_match_oracle(g)
    assert enumerate_cutsets(g, True) == list(itertools.combinations(names, 7))


def test_enumerate_cutsets_structure_sized_graph():
    # a sparse cyclic digraph of the size the benchmark lists: each node
    # after the first has one or two parents, and a few extra edges
    rng = random.Random(11)
    names = [f"V{i:02d}" for i in range(14)]
    while True:
        edges = {(u, v) for v in names[1:]
                 for u in rng.sample(names, rng.randint(1, 2)) if u != v}
        edges |= {tuple(rng.sample(names, 2)) for _ in range(rng.randint(2, 4))}
        g = DiGraph(tuple(names), frozenset(edges))
        if not is_acyclic(g):
            break
    _assert_cutsets_match_oracle(g)


def test_enumerate_cutsets_capacity_before_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("subset table built")
    monkeypatch.setattr(graph, "_containing", no_table)
    names = [f"V{i:02d}" for i in range(graph.MAX_CUTSET_NODES + 1)]
    g = DiGraph(tuple(names), frozenset(zip(names, names[1:] + names[:1])))
    with pytest.raises(CapacityError):
        enumerate_cutsets(g)


def test_close_links_initial_nodes():
    g = collider_graph()
    closed = close(g)
    assert ("X", "Z") in closed.edges and ("Z", "X") in closed.edges
    assert close(closed).edges == closed.edges


def test_close_no_initial_nodes():
    g = DiGraph(("X", "Y"), frozenset({("X", "Y"), ("Y", "X")}))
    assert close(g).edges == g.edges


def test_cut_restrict():
    g = three_cycle_graph()
    r = cut_restrict(g, {"Z"})
    assert r.edges == frozenset({("Z", "Y"), ("Y", "X")})
    assert is_acyclic(r)
    assert not any(v == "Z" for _, v in r.edges)
    with pytest.raises(ValueError):
        cut_restrict(g, {"X"})


def test_cut_restrict_empty_on_acyclic():
    g = chain_graph()
    assert cut_restrict(g, set()).edges == g.edges


def test_dsep_chain():
    g = chain_graph()
    assert not d_separated(g, {"X"}, {"Z"}, set())
    assert d_separated(g, {"X"}, {"Z"}, {"Y"})


def test_dsep_fork():
    g = DiGraph(("X", "Y", "Z"), frozenset({("Y", "X"), ("Y", "Z")}))
    assert not d_separated(g, {"X"}, {"Z"}, set())
    assert d_separated(g, {"X"}, {"Z"}, {"Y"})


def test_dsep_collider():
    g = collider_graph()
    assert d_separated(g, {"X"}, {"Z"}, set())
    assert not d_separated(g, {"X"}, {"Z"}, {"Y"})


def test_dsep_collider_descendant():
    g = DiGraph(("W", "X", "Y", "Z"),
                frozenset({("X", "Y"), ("Z", "Y"), ("Y", "W")}))
    # observing a descendant of the collider node opens the path
    assert not d_separated(g, {"X"}, {"Z"}, {"W"})


def test_dsep_four_cycle():
    g = DiGraph(("W", "X", "Y", "Z"),
                frozenset({("W", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "W")}))
    assert d_separated(g, {"W"}, {"Y"}, {"X", "Z"})
    assert d_separated(g, {"X"}, {"Z"}, {"W", "Y"})
    assert not d_separated(g, {"W"}, {"Y"}, {"X"})
    assert not d_separated(g, {"W"}, {"Y"}, set())


def test_dsep_two_cycle_collider_effect():
    # In X <-> Y <- Z, the cycle makes Y a descendant of itself.
    g = DiGraph(("X", "Y", "Z"),
                frozenset({("X", "Y"), ("Y", "X"), ("Z", "Y")}))
    assert not d_separated(g, {"X"}, {"Z"}, {"Y"})


def test_dsep_disjointness_required():
    g = chain_graph()
    with pytest.raises(ValueError):
        d_separated(g, {"X"}, {"X"}, set())


def test_dsep_set_arguments():
    g = DiGraph(("A", "B", "C", "D"),
                frozenset({("A", "B"), ("C", "D")}))
    assert d_separated(g, {"A", "B"}, {"C", "D"}, set())


def test_dsep_ignores_self_loops():
    g = DiGraph(("X", "Y", "Z"),
                frozenset({("X", "Y"), ("Y", "Z"), ("Y", "Y")}))
    assert d_separated(g, {"X"}, {"Z"}, {"Y"})


def test_dsep_matches_paths_with_self_loops():
    """Random 5-7-node digraphs, each with self-loops on a random set of
    nodes, against the path oracle; the loops sit on x, y, observed and
    unobserved nodes in turn."""
    rng = random.Random(73)
    roles = dict.fromkeys(("x", "y", "observed", "unobserved"), 0)
    for _ in range(400):
        n = rng.randint(5, 7)
        nodes = [f"V{i}" for i in range(n)]
        p = rng.choice((0.15, 0.3, 0.5))
        loops = set(rng.sample(nodes, rng.randint(1, n)))
        edges = {(u, v) for u in nodes for v in nodes
                 if u != v and rng.random() < p} | {(v, v) for v in loops}
        g = DiGraph(tuple(nodes), frozenset(edges))
        x, y, *rest = rng.sample(nodes, n)
        zs = set(rng.sample(rest, rng.randint(0, len(rest))))
        assert d_separated(g, {x}, {y}, zs) == dsep_by_paths(g, {x}, {y}, zs)
        roles["x"] += x in loops
        roles["y"] += y in loops
        roles["observed"] += bool(loops & zs)
        roles["unobserved"] += bool(loops & set(rest) - zs)
    assert min(roles.values()) > 100, roles


def _digraphs_up_to_isomorphism(n: int):
    """One digraph per isomorphism class on n nodes, self-loops included:
    edge (u, v) is bit u*n + v of a mask, and each mask's orbit under the
    node permutations is marked off as it is met."""
    nodes = "ABCD"[:n]
    pairs = [(u, v) for u in range(n) for v in range(n)]
    images = [[1 << (p[u] * n + p[v]) for u, v in pairs]
              for p in itertools.permutations(range(n))]
    seen = bytearray(1 << (n * n))
    for mask in range(1 << (n * n)):
        if seen[mask]:
            continue
        bits = [k for k in range(n * n) if mask >> k & 1]
        for image in images:
            seen[sum(image[k] for k in bits)] = 1
        yield DiGraph(tuple(nodes), frozenset(
            (nodes[pairs[k][0]], nodes[pairs[k][1]]) for k in bits))


def _dsep_queries(nodes):
    """Every (X, Y, Z) with X and Y nonempty and the three disjoint, with
    the (x, y) pairs between X and Y."""
    for roles in itertools.product(range(4), repeat=len(nodes)):
        xs, ys, zs = (frozenset(v for v, r in zip(nodes, roles) if r == k)
                      for k in range(3))
        if xs and ys:
            yield xs, ys, zs, [(min(p), max(p), zs)
                               for p in itertools.product(xs, ys)]


def test_dsep_matches_paths_on_every_small_digraph():
    """Every query on every digraph of at most 4 nodes, self-loops
    included.  Relabelling the nodes maps queries onto queries, so one
    graph per isomorphism class covers all of them; X and Y are
    d-separated iff every pair from them is, and d-separation of a pair
    is symmetric, so the path oracle is asked about each unordered pair
    once."""
    graphs = queries = 0
    for n in range(1, 5):
        batch = list(_dsep_queries("ABCD"[:n]))
        singles = {q for *_, pairs in batch for q in pairs}
        for g in _digraphs_up_to_isomorphism(n):
            graphs += 1
            paths = {(x, y, z): dsep_by_paths(g, {x}, {y}, z)
                     for x, y, z in singles}
            for xs, ys, zs, pairs in batch:
                assert d_separated(g, xs, ys, zs) == all(paths[q] for q in pairs)
            queries += len(batch)
    assert graphs == 2 + 10 + 104 + 3044
    assert queries == 2 * 10 + 18 * 104 + 110 * 3044
