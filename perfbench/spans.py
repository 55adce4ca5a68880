"""Traced runs: spans recorded from outside the program.

``Tracer.install()`` wraps the public functions and methods of each
layer module in every ``cyclebn`` namespace that binds them, and
``restore()`` puts the original objects back.  A wrapper records a span
(name, start, end, parent, query id) and, for a few names, a work count
taken from the call's arguments or return value only.  Per-layer
metrics are computed from the spans of each query when it ends, and the
spans are then dropped, so memory stays bounded on long runs.

Leaf accessors called once per table cell or graph node (``prob``,
``canonical_index``, ``successors``, ...) are not wrapped: the wrapper
would cost more than they do.  Their time counts in the caller's self
time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from functools import cached_property
from time import perf_counter

import check

LAYERS = ("cli", "constraints", "linalg", "chain", "inference", "model", "graph")

SKIP = {
    "model.canonical_index", "model.assignment_from_index",
    "model.format_rational", "model.parse_rational",
    "model.JointDistribution.prob", "model.Cpt.prob", "model.Cpt.prob_true",
    "model.Gbn.predecessors", "model.Gbn.is_valid",
    "graph.DiGraph.successors", "graph.DiGraph.predecessors",
    "graph.DiGraph.post_star", "chain.CutsetChain.state_assignment",
}


def _n_cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


#: Work counts, from arguments and return values only.
COUNTS = {
    "linalg.simplex_maximize": lambda a, k, r: len(a[0]) * len(a[2]),
    "linalg.rref": lambda a, k, r: _n_cells(a[0]),
    "constraints.build_cpt_system": lambda a, k, r: _n_cells(r.matrix),
    "constraints.build_wcpt_system": lambda a, k, r: _n_cells(r.matrix),
    "chain.cutset_mc": lambda a, k, r: r.num_states,
    "inference.chain_rule_dist": lambda a, k, r: 1 << len(a[0].nodes),
    "graph.enumerate_cutsets": lambda a, k, r: len(r),
}


class Tracer:
    """Installs span-recording wrappers and turns spans into metrics."""

    def __init__(self):
        self.qid = None          # query id while a traced query runs
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.patches: list[tuple] = []   # (namespace, attribute, original)
        self.totals: dict[str, float] = defaultdict(float)
        self.queries = 0

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.qid is None:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.qid, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result
        return wrapper

    def targets(self):
        """(name, owner, attribute, original) for every traced callable."""
        for layer in LAYERS:
            mod = importlib.import_module(f"cyclebn.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    yield f"{layer}.{attr}", mod, attr, obj
                elif inspect.isclass(obj):
                    for mattr, member in vars(obj).items():
                        # __post_init__ is the validation of the value types
                        if mattr.startswith("_") and mattr != "__post_init__":
                            continue
                        if isinstance(member, (staticmethod, cached_property)) or \
                                inspect.isfunction(member):
                            yield f"{layer}.{obj.__name__}.{mattr}", obj, mattr, member

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items()
                      if n == "cyclebn" or n.startswith("cyclebn.")]
        for name, owner, attr, original in self.targets():
            if name in SKIP:
                continue
            if isinstance(original, staticmethod):
                new = staticmethod(self._wrap(name, original.__func__))
            elif isinstance(original, cached_property):
                new = cached_property(self._wrap(name, original.func))
                new.__set_name__(owner, attr)
            else:
                new = self._wrap(name, original)
            if inspect.isclass(owner):
                self.patches.append((owner, attr, original))
                setattr(owner, attr, new)
                continue
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is original:
                        self.patches.append((ns, bound, original))
                        setattr(ns, bound, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # --- per-query aggregation ---------------------------------------------

    def begin(self, qid) -> None:
        self.spans.clear()
        self.stack.clear()
        self.qid = qid

    def end(self, argv, out_bytes: int) -> None:
        """Fold the spans of the query that just ran into the totals."""
        self.qid = None
        t = self.totals
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, stop, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += stop - start
        analysis = [False] * len(spans)   # inside a chain-analysis span
        for i, (name, start, stop, parent, _, count) in enumerate(spans):
            dur = stop - start
            layer = name.split(".", 1)[0]
            t[f"{layer}.self_s"] += dur - child[i]
            t[f"n:{name}"] += 1
            t[f"s:{name}"] += dur
            t[f"self:{name}"] += dur - child[i]
            if count is not None:
                t[f"c:{name}"] += count
            pname = spans[parent][0] if parent >= 0 else ""
            t[f"n:{name}<{pname}"] += 1
            in_analysis = name in ANALYSIS
            outer = parent >= 0 and analysis[parent]
            analysis[i] = in_analysis or outer
            if in_analysis and not outer:
                t["chain.analysis_s"] += dur
        if check.command(argv) in CHAIN_COMMANDS:
            t["chain_queries"] += 1
        t["cli.out_bytes"] += out_bytes
        self.queries += 1
        spans.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: means per traced query unless noted."""
        t, q = self.totals, max(self.queries, 1)

        def per_q(key):
            return t.get(key, 0.0) / q

        def ratio(a, b):
            return a / b if b else 0.0

        rows = t.get("c:chain.cutset_mc", 0.0)
        chains = t.get("n:chain.cutset_mc", 0.0)
        m = {
            "linalg.simplex_s": (per_q("s:linalg.simplex_maximize"), "s"),
            "linalg.simplex_calls": (per_q("n:linalg.simplex_maximize"), "count"),
            "linalg.simplex_cells": (per_q("c:linalg.simplex_maximize"), "count"),
            "linalg.classify_self_s": (per_q("self:linalg.classify_polytope"), "s"),
            "linalg.rref_s": (per_q("s:linalg.rref"), "s"),
            "linalg.rref_calls": (per_q("n:linalg.rref"), "count"),
            "linalg.rref_cells": (per_q("c:linalg.rref"), "count"),
            "linalg.null_space_s": (per_q("s:linalg.null_space_left"), "s"),
            "constraints.build_s": (per_q("s:constraints.build_cpt_system")
                                    + per_q("s:constraints.build_wcpt_system"), "s"),
            "constraints.system_cells": (per_q("c:constraints.build_cpt_system")
                                         + per_q("c:constraints.build_wcpt_system"), "count"),
            "chain.cutset_mc_s": (per_q("s:chain.cutset_mc"), "s"),
            "chain.next_dist_s": (per_q("s:chain.next_dist"), "s"),
            "chain.dissect_s": (per_q("s:chain.dissect"), "s"),
            "chain.rows_built": (rows / q, "count"),
            "chain.states": (ratio(rows, chains), "count"),
            "chain.chains_built": (ratio(chains, t.get("chain_queries", 0.0)), "ratio"),
            "chain.analysis_s": (per_q("chain.analysis_s"), "s"),
            "chain.reach_s": (per_q("s:chain.reach_probs"), "s"),
            "chain.absorb_solves": (per_q("n:linalg.solve_affine<chain.reach_probs"), "count"),
            "chain.extend_s": (per_q("s:chain.extend"), "s"),
            "inference.chain_rule_s": (per_q("s:inference.chain_rule_dist"), "s"),
            "inference.chain_rule_calls": (per_q("n:inference.chain_rule_dist"), "count"),
            "inference.table_cells": (per_q("c:inference.chain_rule_dist"), "count"),
            "model.restrict_s": (per_q("s:model.JointDistribution.restrict"), "s"),
            "model.rename_s": (per_q("s:model.JointDistribution.rename"), "s"),
            "model.product_s": (per_q("s:model.JointDistribution.product"), "s"),
            "graph.enumerate_cutsets_s": (per_q("s:graph.enumerate_cutsets"), "s"),
            "graph.subsets_tested": (per_q("n:graph.is_cutset<graph.enumerate_cutsets"), "count"),
            "graph.cutsets_found": (per_q("c:graph.enumerate_cutsets"), "count"),
            "graph.cutset_yield": (ratio(t.get("c:graph.enumerate_cutsets", 0.0),
                                         t.get("n:graph.is_cutset<graph.enumerate_cutsets", 0.0)),
                                   "ratio"),
            "graph.dsep_s": (per_q("s:graph.d_separated"), "s"),
            "graph.scc_s": (per_q("s:graph.scc_decompose"), "s"),
            "graph.scc_calls": (ratio(t.get("n:graph.scc_decompose", 0.0), rows), "ratio"),
            "cli.parse_s": (per_q("s:cli.parse_document"), "s"),
            "cli.out_bytes": (per_q("cli.out_bytes"), "B"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (per_q(f"{layer}.self_s"), "s")
        # cli.self_s is argparse, dispatch and output: parsing is cli.parse_s
        m["cli.self_s"] = (per_q("cli.self_s") - per_q("self:cli.parse_document"), "s")
        return m


#: Commands that build a cutset chain.
CHAIN_COMMANDS = {"chain", "classify", "semantics-mc", "semantics-lim", "semantics-limavg"}

#: Chain analysis: the first use of these cached properties.
ANALYSIS = {"chain.CutsetChain.bsccs", "chain.CutsetChain.periods",
            "chain.CutsetChain.bscc_lrfs"}
