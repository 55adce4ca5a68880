"""Record the expected answers of every pool item into ``answers.json``.

Usage, from the root of a checkout::

    python3 perfbench/record.py [WORKLOAD ...]

Every query of every pool item (see ``gen.py``) runs once through
``cyclebn.cli.main``.  Before an answer is stored it is cross-checked
once, independently of the code path that produced it:

- mc, limavg and defined lim distributions, restricted to the cutset,
  against ``oracle.power_iteration`` of the cutset chain (and every
  extreme point of an infinite mc family for exact stationarity);
- ``chain`` matrices row by row against one step of
  ``oracle.iterate_next`` from each point mass;
- ``dsep`` verdicts against ``oracle.dsep_by_paths`` (its node cap is
  raised to the 14 nodes of the structure workload; the sparse graphs
  keep the path enumeration small);
- cutset lists against a brute-force enumeration in this file;
- witnesses of infinite ``cpt``/``wcpt`` families by membership, unique
  members by strong or weak consistency, and the paper's values.

The script prints the time per stratum and command, which is what the
per-run counts in ``gen.STRATA`` were sized from.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.abspath("src")]

import check  # noqa: E402
import gen  # noqa: E402
from cyclebn import cli, oracle  # noqa: E402
from cyclebn.chain import cutset_mc  # noqa: E402
from cyclebn.graph import DiGraph  # noqa: E402
from cyclebn.model import JointDistribution, dirac, assignment_from_index  # noqa: E402

#: The Cesaro average from gamma0 must come within POWER_TV (total
#: variation) of the answer.  Its error falls like 1/steps, slowly where
#: transient states are left with small probability, so the step count
#: grows fourfold up to a cap that keeps big-integer powers affordable.
POWER_STEPS = 1000
POWER_MAX_STEPS = {32: 1600}
POWER_MAX_STEPS_DEFAULT = 16000
POWER_TV = Fraction(1, 20)


class CrossCheckError(Exception):
    pass


def _gamma0(spec: str, cut) -> JointDistribution:
    if spec == "uniform":
        return JointDistribution.uniform(cut)
    bits = spec.split(":", 1)[1]
    return dirac({v: b == "1" for v, b in zip(sorted(cut), bits)})


def _cut_marginal(dist: dict, cut) -> tuple:
    mu = JointDistribution(tuple(dist["variables"]),
                           tuple(Fraction(p) for p in dist["probs"]))
    return mu.restrict(cut).probs


def _power_check(chain, gamma0, target, what):
    steps = POWER_STEPS
    cap = POWER_MAX_STEPS.get(chain.num_states, POWER_MAX_STEPS_DEFAULT)
    while True:
        cesaro = oracle.power_iteration(chain, gamma0.probs, steps)
        tv = oracle.total_variation(cesaro, target)
        if tv <= POWER_TV:
            return
        if steps * 4 > cap:
            raise CrossCheckError(
                f"{what}: power iteration is {float(tv):.3g} away after {steps} steps")
        steps *= 4


def _brute_cutsets(g, minimal: bool) -> list[list[str]]:
    found = []
    for size in range(len(g.nodes) + 1):
        for combo in itertools.combinations(sorted(g.nodes), size):
            rest = [v for v in g.nodes if v not in combo]
            edges = [(u, v) for (u, v) in g.edges if u in rest and v in rest]
            if any(u == v for u, v in edges) or not gen._is_acyclic(rest, edges):
                continue
            if minimal and any(set(c) < set(combo) for c in found):
                continue
            found.append(list(combo))
    return found


def cross_check(item, argv, out: dict) -> None:
    """Independent checks of one answer; raises CrossCheckError."""
    g = cli.parse_document(item.doc)
    cmd = check.command(argv)
    if cmd == "dsep":
        xs, ys = [check.arg(argv, "--x")], [check.arg(argv, "--y")]
        zs = [v for v in check.arg(argv, "--given").split(",") if v]
        if oracle.dsep_by_paths(DiGraph(g.nodes, g.edges), xs, ys, zs) != out["separated"]:
            raise CrossCheckError("dsep disagrees with dsep_by_paths")
    elif cmd == "cutsets":
        want = _brute_cutsets(g, out["minimal"])
        if sorted(map(sorted, out["cutsets"])) != sorted(want):
            raise CrossCheckError("cutsets differ from brute force")
    elif cmd == "chain":
        cut = tuple(out["cutset"])
        for i, row in enumerate(out["matrix"]):
            step = oracle.iterate_next(g, cut, dirac(assignment_from_index(i, cut)), 1)
            if [Fraction(p) for p in row] != list(step.steps[1]):
                raise CrossCheckError(f"chain row {i} differs from iterate_next")
    elif cmd in ("semantics-mc", "semantics-lim", "semantics-limavg"):
        cut = tuple(out["cutset"])
        chain = cutset_mc(g, cut)
        if cmd == "semantics-mc" and out["status"] == "infinite":
            for d in out["distributions"]:
                pi = _cut_marginal(d, cut)
                if chain.step(pi) != pi:
                    raise CrossCheckError("mc extreme point is not stationary")
            return
        if out["status"] == "undefined":
            if not out["offending_periods"] or min(out["offending_periods"]) < 2:
                raise CrossCheckError("undefined limit without a period > 1")
            return
        gamma0 = _gamma0(check.arg(argv, "--gamma0", "uniform"), cut)
        _power_check(chain, gamma0, _cut_marginal(out["distributions"][0], cut), cmd)
    elif cmd in ("semantics-cpt", "semantics-wcpt") and out["status"] == "unique":
        if not check.is_member(item.doc, out["kind"], out["distributions"][0]):
            raise CrossCheckError("unique distribution is not a member")


def call(argv) -> tuple[int, str, float]:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, buf.getvalue(), time.perf_counter() - start


def record(workload: str, path: str) -> dict:
    oracle.MAX_PATH_NODES = max(oracle.MAX_PATH_NODES, 14)
    entries, timing = {}, defaultdict(list)
    with open(path, "w", encoding="utf-8") as fh:
        for item in gen.pool(workload):
            fh.write(item.doc)
            fh.flush()
            answers = []
            for qi, q in enumerate(item.queries):
                argv = [path if a == "{doc}" else a for a in q]
                rc, text, elapsed = call(argv)
                if rc != 0:
                    raise CrossCheckError(f"{item.key} query {qi} exited with {rc}")
                stratum = item.key.rsplit(":", 1)[0]
                timing[(stratum, check.command(argv))].append(elapsed)
                expected, out, _ = check.digest(rc, argv, text)
                why = check.check(item, qi, rc, text, expected)
                if why:
                    raise CrossCheckError(f"{item.key} query {qi}: {why}")
                try:
                    cross_check(item, argv, out)
                except CrossCheckError as e:
                    raise CrossCheckError(f"{item.key} query {qi}: {e}") from None
                answers.append(expected)
            entries[item.key] = {"doc": check.doc_digest(item.doc), "answers": answers}
            fh.seek(0)
            fh.truncate()
    for (stratum, cmd), ts in sorted(timing.items()):
        print(f"{stratum:28s} {cmd:18s} n={len(ts):4d} median={statistics.median(ts) * 1e3:9.1f} ms"
              f" max={max(ts) * 1e3:9.1f} ms total={sum(ts):7.2f} s")
    return entries


def main(argv) -> int:
    workloads = argv or list(gen.WORKLOADS)
    answers_path = os.path.join(HERE, check.ANSWERS_FILE)
    try:
        with open(answers_path, encoding="utf-8") as fh:
            answers = json.load(fh)
    except FileNotFoundError:
        answers = {}
    os.makedirs(".perfbench", exist_ok=True)
    scratch = os.path.join(".perfbench", f"record-{os.getpid()}.json")
    try:
        for workload in workloads:
            answers[workload] = record(workload, scratch)
            with open(answers_path, "w", encoding="utf-8") as fh:
                json.dump(answers, fh, indent=0, sort_keys=True)
                fh.write("\n")
    finally:
        if os.path.exists(scratch):
            os.remove(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
