"""Seeded network-document generators and the four workload corpora.

Everything here is self-contained: documents are built as JSON text
without importing ``cyclebn``, so neither program changes nor test-suite
edits can shift the inputs.  The same seed always gives byte-identical
documents and query lists.

A workload has a fixed *pool* of items, each built from its own string
seed ``"<workload>:<stratum>:<index>"``.  The exact expected answers of
every pool item are recorded in ``answers.json``.  A run's ``--seed``
picks a stratified sample of the pool and interleaves the strata, so
every seed has the same mix of sizes and commands (which keeps the
latency percentiles steady) but different networks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# --- document text ---------------------------------------------------------


def fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _bits(index: int, width: int) -> str:
    return format(index, f"0{width}b") if width else ""


def document(nodes, edges, rows: dict, iota: list) -> str:
    """JSON network document.  ``rows[x]`` lists Pr(x=T | parents) in
    canonical order over the sorted parents; ``iota`` covers the sorted
    initial nodes in canonical order."""
    nodes = sorted(nodes)
    edges = sorted(set(edges))
    parents = {x: sorted(u for (u, v) in edges if v == x) for x in nodes}
    init = [x for x in nodes if not parents[x]]
    doc = {
        "variables": nodes,
        "edges": [list(e) for e in edges],
        "cpts": {x: {"parents": parents[x],
                     "rows": {_bits(i, len(parents[x])): fmt(r)
                              for i, r in enumerate(rows[x])}}
                 for x in nodes if parents[x]},
        "iota": {_bits(i, len(init)): fmt(p) for i, p in enumerate(iota)},
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def _is_acyclic(nodes, edges) -> bool:
    succ = {v: [] for v in nodes}
    indeg = {v: 0 for v in nodes}
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    ready = [v for v in nodes if indeg[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen == len(nodes)


# --- random tables (same draws as the test-suite generators) ---------------

def rand_entry(rng: random.Random, denom: int = 8, smooth: bool = False) -> Fraction:
    if smooth:
        return Fraction(rng.randint(1, denom - 1), denom)
    return Fraction(rng.randint(0, denom), denom)


def rand_joint(rng: random.Random, n_vars: int, smooth: bool = False) -> list:
    """Random, generally correlated, joint distribution over n_vars."""
    n = 1 << n_vars
    low = 1 if smooth or n == 1 else 0
    weights = [rng.randint(low, 8) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def near_deterministic_entry(rng: random.Random) -> Fraction:
    """Mostly 0 or 1, sometimes a proper fraction: gives transient
    states, several bottom components and periodic components."""
    if rng.random() < 0.9:
        return Fraction(rng.randint(0, 1))
    return Fraction(rng.randint(1, 3), 4)


def rows_for(nodes, edges, entry) -> tuple[dict, int]:
    """CPT rows drawn from ``entry()`` and the number of initial nodes."""
    parents = {x: sorted(u for (u, v) in edges if v == x) for x in nodes}
    rows = {x: [entry() for _ in range(1 << len(parents[x]))]
            for x in sorted(nodes) if parents[x]}
    return rows, sum(1 for x in nodes if not parents[x])


def names(n: int, prefix: str = "") -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" if prefix else "ABCDEFGHIJKLMN"[i]
            for i in range(n)]


# --- paper examples --------------------------------------------------------

def two_cycle(s1, s2, t1, t2) -> str:
    """X <-> Y with Pr(X=T|Y)=(s1, s2), Pr(Y=T|X)=(t1, t2)."""
    f = [Fraction(v) for v in (s1, s2, t1, t2)]
    return document(["X", "Y"], [("X", "Y"), ("Y", "X")],
                    {"X": f[:2], "Y": f[2:]}, [Fraction(1)])


# --- workload items --------------------------------------------------------

def _sem(kind, *extra):
    return ("--format", "machine", "semantics", "{doc}", "--kind", kind) + extra


def families_item(rng: random.Random, n: int, kind: str) -> tuple:
    """Random cyclic network on n nodes, up to two initial nodes under a
    correlated iota, smooth or 0/1-mixed CPTs; one consistency query."""
    nodes = names(n)
    smooth = rng.random() < 0.5
    init = set(rng.sample(nodes, rng.randint(0, min(2, n - 2))))
    while True:
        edges = {(u, v) for u in nodes for v in nodes
                 if u != v and v not in init and rng.random() < 0.5}
        # every non-initial node needs a parent, and there must be a cycle
        if all(any(e[1] == v for e in edges) for v in nodes if v not in init) \
                and not _is_acyclic(nodes, edges):
            break
    rows, n_init = rows_for(nodes, edges, lambda: rand_entry(rng, 8, smooth))
    doc = document(nodes, edges, rows, rand_joint(rng, n_init, smooth))
    return doc, (_sem(kind),)


def ring_item(rng: random.Random, n: int, commands: str) -> tuple:
    """Directed ring N0 -> N1 -> ... -> N(n-1) -> N0 plus forward chords,
    smooth CPTs.  Every cycle uses the back edge, so {N0} is a cutset."""
    nodes = names(n, "N")
    edges = {(nodes[i], nodes[(i + 1) % n]) for i in range(n)}
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(n - 2)
        edges.add((nodes[i], nodes[rng.randrange(i + 2, n)]))
    rows, _ = rows_for(nodes, edges, lambda: rand_entry(rng, 8, True))
    doc = document(nodes, edges, rows, [Fraction(1)])
    cut = ("--cutset", nodes[0])
    g0 = ("--gamma0", rng.choice(("uniform", "dirac:0", "dirac:1")))
    queries = [("--format", "machine", "chain", "{doc}") + cut]
    if commands == "all":
        queries += [("--format", "machine", "classify", "{doc}") + cut,
                    _sem("mc", *cut), _sem("lim", *cut, *g0),
                    _sem("limavg", *cut, *g0)]
    return doc, tuple(queries)


def wide_item(rng: random.Random, n: int, smooth: bool) -> tuple:
    """Dense network with no initial node; the default cutset is every
    node, so the chain has 2**n states."""
    nodes = names(n)
    while True:
        edges = {(u, v) for u in nodes for v in nodes
                 if u != v and rng.random() < 0.6}
        if all(any(e[1] == v for e in edges) for v in nodes):
            break
    entry = (lambda: rand_entry(rng, 8, True)) if smooth \
        else (lambda: near_deterministic_entry(rng))
    rows, _ = rows_for(nodes, edges, entry)
    doc = document(nodes, edges, rows, [Fraction(1)])
    g0 = "uniform" if rng.random() < 0.5 else \
        "dirac:" + _bits(rng.randrange(1 << n), n)
    return doc, (("--format", "machine", "classify", "{doc}"),
                 _sem("mc"), _sem("lim", "--gamma0", g0))


DSEP_PER_DOC = 8


def structure_item(rng: random.Random, n: int) -> tuple:
    """Sparse cyclic digraph with small CPTs; graph queries only: one
    validate, several dsep, and both cutset enumerations."""
    nodes = names(n, "V")
    while True:
        edges = set()
        for v in nodes[1:]:
            for u in rng.sample(nodes, rng.randint(1, 2)):
                if u != v:
                    edges.add((u, v))
        for _ in range(rng.randint(2, 4)):
            edges.add(tuple(rng.sample(nodes, 2)))
        if not _is_acyclic(nodes, edges):
            break
    rows, n_init = rows_for(nodes, edges, lambda: rand_entry(rng, 8, False))
    doc = document(nodes, edges, rows, rand_joint(rng, n_init))
    queries = [("--format", "machine", "validate", "{doc}")]
    for _ in range(DSEP_PER_DOC):
        picked = rng.sample(nodes, 2 + rng.randint(0, 3))
        queries.append(("--format", "machine", "dsep", "{doc}",
                        "--x", picked[0], "--y", picked[1],
                        "--given", ",".join(picked[2:])))
    cutsets = ("--format", "machine", "cutsets", "{doc}")
    queries += [cutsets + ("--minimal",), cutsets]
    return doc, tuple(queries)


# --- pools and corpora -----------------------------------------------------

@dataclass(frozen=True)
class Item:
    """One network document and the queries asked about it.  Each query
    is the CLI argument list with ``{doc}`` standing for the file."""

    key: str
    doc: str
    queries: tuple[tuple[str, ...], ...]


#: Per workload: stratum -> (builder, builder arguments, items per run,
#: pool factor).  The counts fix each run's mix.  They are sized so that
#: one pass over a run's queries takes about 20 s at the seed commit on a
#: 2-vCPU machine, holds at least 100 queries, and puts the median and the
#: 90th percentile inside a stratum rather than on the edge between two.
#: The pool of a stratum holds (pool factor) times its per-run count.  A
#: few strata use their whole pool in every run (the seed only orders
#: them): the 4- and 5-node wcpt families, where some LPs take ten times
#: the median and drawing them or not swung queries_per_s by 15% between
#: seeds, and the 13- and 14-node cutset enumerations, which take most of
#: a structure run's time and set its peak memory.
STRATA = {
    "families": {
        "n3-cpt": (families_item, (3, "cpt"), 56, 3),
        "n4-cpt": (families_item, (4, "cpt"), 56, 3),
        "n3-wcpt": (families_item, (3, "wcpt"), 120, 3),
        "n4-wcpt": (families_item, (4, "wcpt"), 80, 1),
        "n5-wcpt": (families_item, (5, "wcpt"), 4, 1),
    },
    "rings": {
        "n6": (ring_item, (6, "all"), 7, 3),
        "n7": (ring_item, (7, "all"), 7, 3),
        "n8": (ring_item, (8, "all"), 5, 3),
        "n9": (ring_item, (9, "all"), 4, 3),
        "n10": (ring_item, (10, "all"), 3, 3),
        "n11-chain": (ring_item, (11, "chain"), 4, 3),
        "n12-chain": (ring_item, (12, "chain"), 3, 3),
    },
    "wide-cuts": {
        "n4-smooth": (wide_item, (4, True), 18, 3),
        "n4-neardet": (wide_item, (4, False), 18, 3),
        "n5-smooth": (wide_item, (5, True), 1, 3),
        "n5-neardet": (wide_item, (5, False), 1, 3),
    },
    "structure": {
        f"n{n}": (structure_item, (n,), k, factor)
        for n, k, factor in ((8, 8, 3), (9, 8, 3), (10, 8, 3), (11, 6, 3),
                             (12, 6, 3), (13, 3, 1), (14, 3, 1))
    },
}

WORKLOADS = tuple(STRATA)


def paper_items(workload: str) -> list[Item]:
    """The paper's worked examples, present in every run of a workload."""
    both = (_sem("cpt"), _sem("wcpt"))
    chain = (("--format", "machine", "classify", "{doc}"), _sem("mc"),
             _sem("lim", "--gamma0", "dirac:11"), _sem("lim", "--gamma0", "uniform"))
    return {
        "families": [
            Item("paper:trichotomy-empty", two_cycle(0, 1, 1, 0), both),
            Item("paper:trichotomy-infinite", two_cycle(0, 1, 0, 1), both),
            Item("paper:trichotomy-unique",
                 two_cycle("3/4", "1/2", "3/4", "1/2"), both)],
        "wide-cuts": [
            Item("paper:stationary-121", two_cycle("1/4", "1", "1/2", "0"), chain),
            Item("paper:period-4", two_cycle(1, 0, 0, 1), chain)],
    }.get(workload, [])


def pool_item(workload: str, stratum: str, index: int) -> Item:
    builder, args, _, _ = STRATA[workload][stratum]
    key = f"{workload}:{stratum}:{index}"
    doc, queries = builder(random.Random(key), *args)
    return Item(key, doc, queries)


def pool(workload: str) -> list[Item]:
    """Every item whose answers are recorded for ``workload``."""
    items = paper_items(workload)
    for stratum, (_, _, k, factor) in STRATA[workload].items():
        items += [pool_item(workload, stratum, i) for i in range(k * factor)]
    return items


def corpus(workload: str, seed: int) -> list[Item]:
    """The items of one run: a seeded sample of each stratum of the pool,
    plus the paper examples, interleaved so that the strata are spread
    evenly through the run."""
    rng = random.Random(f"{workload}/run/{seed}")
    groups = [paper_items(workload)]
    for stratum, (_, _, k, factor) in STRATA[workload].items():
        picks = rng.sample(range(k * factor), k)
        groups.append([pool_item(workload, stratum, i) for i in picks])
    keyed = []
    for group in groups:
        offset = rng.random()
        keyed += [((j + offset) / len(group), rng.random(), item)
                  for j, item in enumerate(group)]
    keyed.sort(key=lambda t: t[:2])
    return [item for _, _, item in keyed]
