"""Shared builders and seeded random generators for the test suite."""

from __future__ import annotations

import json
import random
from collections.abc import Iterable
from fractions import Fraction

from cyclebn.chain import CutsetChain
from cyclebn.cli import _bit_keys
from cyclebn.graph import DiGraph, enumerate_cutsets, is_acyclic
from cyclebn.linalg import solve_affine
from cyclebn.model import Cpt, Gbn, JointDistribution, scaled

NAMES = tuple("ABCDEFGHIJKL")


def fractions_made_by(fn) -> int:
    """How many ``Fraction`` objects ``fn()`` constructs."""
    made = []
    original = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        fn()
    finally:
        Fraction.__new__ = original
    return len(made)


def make_gbn(nodes: Iterable[str],
             edges: Iterable[tuple[str, str]],
             cpts: Iterable[Cpt],
             iota: JointDistribution | None = None) -> Gbn:
    """A network from a CPT list; ``iota`` defaults to the empty-set
    distribution."""
    if iota is None:
        iota = JointDistribution((), (1,))
    return Gbn(tuple(nodes), frozenset(edges), {c.owner: c for c in cpts}, iota)


def serialize_document(g: Gbn) -> str:
    """Inverse of ``cli.parse_document`` up to JSON formatting."""
    doc = {
        "variables": list(g.nodes),
        "edges": sorted([u, v] for (u, v) in g.edges),
        "cpts": {
            x: {"parents": list(cpt.parents),
                "rows": {key: str(r)
                         for key, r in zip(_bit_keys(cpt.parents), cpt.rows)}}
            for x, cpt in sorted(g.cpts.items())
        },
        "iota": {key: str(p)
                 for key, p in zip(_bit_keys(g.iota.variables), g.iota.probs)},
    }
    return json.dumps(doc, indent=2)


def fractions(point):
    """The ``Fraction``s of a point ``(nums, den)``, or None."""
    return None if point is None else tuple(Fraction(p, point[1]) for p in point[0])


def solve_rational(matrix, rhs):
    """The unique solution of rational ``A x = b`` as ``Fraction``s, or
    None: ``solve_affine`` on ``[A | b]`` with each row scaled to
    integers by the lcm of its denominators, which keeps the solutions."""
    n = len(matrix[0]) if matrix else 0
    return fractions(solve_affine([scaled([*row, x])[0]
                                   for row, x in zip(matrix, rhs)], n))


def matrix_chain(cutset: Iterable[str], matrix) -> CutsetChain:
    """A hand-made chain over the sorted ``cutset`` with the ``Fraction``
    rows ``matrix``, one per cutset assignment, for tests of the chain
    analyses, which read only the rows.  It has no network, so it cannot
    extend; ``cutset_mc`` builds every chain of the package."""
    chain = CutsetChain.__new__(CutsetChain)
    chain.cutset = tuple(sorted(cutset))
    chain.rows, chain.dens = zip(*map(scaled, matrix))
    return chain


def two_cycle(s1, s2, t1, t2) -> Gbn:
    """X <-> Y with Pr(X=T|Y=F)=s1, Pr(X=T|Y=T)=s2, Pr(Y=T|X=F)=t1,
    Pr(Y=T|X=T)=t2."""
    return make_gbn(
        ["X", "Y"], [("X", "Y"), ("Y", "X")],
        [Cpt("X", ("Y",), (Fraction(s1), Fraction(s2))),
         Cpt("Y", ("X",), (Fraction(t1), Fraction(t2)))])


def three_cycle_graph() -> DiGraph:
    """Strongly connected 3-node graph whose only singleton cutsets are
    {Y} and {Z}."""
    return DiGraph(("X", "Y", "Z"),
                   frozenset({("X", "Z"), ("Y", "Z"), ("Z", "Y"), ("Y", "X")}))


def rand_entry(rng: random.Random, denom: int = 8,
               smooth: bool = False) -> Fraction:
    if smooth:
        return Fraction(rng.randint(1, denom - 1), denom)
    return Fraction(rng.randint(0, denom), denom)


def rand_joint(rng: random.Random, variables,
               smooth: bool = False) -> JointDistribution:
    """Random (generally correlated) joint distribution."""
    vs = tuple(sorted(variables))
    n = 1 << len(vs)
    low = 1 if smooth or n == 1 else 0
    weights = [rng.randint(low, 8) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return JointDistribution(vs, tuple(Fraction(w, total) for w in weights))


def _attach_tables(rng: random.Random, nodes, edges, smooth: bool,
                   denom: int) -> Gbn:
    g = DiGraph(tuple(nodes), frozenset(edges))
    cpts, initial = [], []
    for x in g.nodes:
        parents = tuple(sorted(g.predecessors(x)))
        if not parents:
            initial.append(x)
            continue
        rows = tuple(rand_entry(rng, denom, smooth)
                     for _ in range(1 << len(parents)))
        cpts.append(Cpt(x, parents, rows))
    iota = rand_joint(rng, initial, smooth)
    return make_gbn(g.nodes, g.edges, cpts, iota)


def random_acyclic_gbn(rng: random.Random, max_vars: int = 6,
                       smooth: bool = False, denom: int = 8,
                       min_vars: int = 1) -> Gbn:
    """Random acyclic network with a correlated initial distribution."""
    n = rng.randint(min_vars, max_vars)
    nodes = list(NAMES[:n])
    order = nodes[:]
    rng.shuffle(order)
    edges = {(order[i], order[j])
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4}
    return _attach_tables(rng, nodes, edges, smooth, denom)


def random_cyclic_gbn(rng: random.Random, max_vars: int = 4,
                      smooth: bool = False, denom: int = 8,
                      edge_prob: float = 0.5) -> Gbn:
    """Random network containing at least one directed cycle."""
    n = rng.randint(2, max_vars)
    nodes = list(NAMES[:n])
    while True:
        edges = {(u, v) for u in nodes for v in nodes
                 if u != v and rng.random() < edge_prob}
        if not is_acyclic(DiGraph(tuple(nodes), frozenset(edges))):
            return _attach_tables(rng, nodes, edges, smooth, denom)


def random_looped_gbn(rng: random.Random, max_vars: int = 5,
                      edge_prob: float = 0.3) -> Gbn:
    """Random network whose edges, self-loops included, are each drawn
    with probability ``edge_prob``; the nodes left without a parent are
    initial.  It may be acyclic."""
    nodes = list(NAMES[:rng.randint(1, max_vars)])
    edges = {(u, v) for u in nodes for v in nodes if rng.random() < edge_prob}
    return _attach_tables(rng, nodes, edges, False, 2)


def dense_cyclic_gbn(rng: random.Random, n: int) -> Gbn:
    """Dense smooth n-node network in which every node has a parent, so
    that all n nodes form a cutset and the cutset chain has 2**n states."""
    nodes = list(NAMES[:n])
    while True:
        edges = {(u, v) for u in nodes for v in nodes
                 if u != v and rng.random() < 0.6}
        if all(any(w == v for _, w in edges) for v in nodes):
            return _attach_tables(rng, nodes, edges, True, 8)


def random_cutset(rng: random.Random, g: Gbn,
                  max_size: int | None = None) -> tuple[str, ...]:
    """Random cutset avoiding the initial nodes (required by dissection)."""
    dg = DiGraph(g.nodes, g.edges)
    options = [c for c in enumerate_cutsets(dg)
               if not g.initial_nodes.intersection(c)
               and (max_size is None or len(c) <= max_size)]
    return tuple(sorted(rng.choice(options)))


def space_from_rref(a, b, pivots, n):
    """The affine solution space (particular, basis) read off a reduced
    row echelon form; (None, ()) when the system is inconsistent."""
    if any(b[len(pivots):]):
        return None, ()
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = b[i]
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        d = [Fraction(0)] * n
        d[f] = Fraction(1)
        for i, c in enumerate(pivots):
            d[c] = -a[i][f]
        basis.append(tuple(d))
    return tuple(particular), tuple(basis)
