"""Benchmark of the cyclebn command line, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload families --seed 1 --seconds 20 --trace 0

The seed picks the run's network documents (see ``gen.py``); the
program sees only those documents.  A worker process (``worker.py``)
sends the queries through ``cyclebn.cli.main`` in a closed loop with one
client; every answer is then checked against ``answers.json`` outside
the timed region.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit code 0 means the run finished, not that every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 170
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
                "t = time.perf_counter(); import cyclebn.cli; "
                "print(time.perf_counter() - t)")


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import cyclebn.cli, with
    the bytecode cache written, as for an installed package."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True, env=env,
                             capture_output=True, text=True, timeout=60).stdout
        if i:                        # the first one writes the bytecode cache
            samples.append(float(out))
    return statistics.median(samples)


def load_answers(workload: str) -> dict:
    with open(os.path.join(HERE, check.ANSWERS_FILE), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def write_corpus(workdir: str, items) -> list[tuple[int, int]]:
    """Write the documents and the query list; return, per query, its
    (item index, query index within the item)."""
    where, argvs = [], []
    for i, item in enumerate(items):
        path = os.path.join(workdir, f"doc{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(item.doc)
        for qi, q in enumerate(item.queries):
            argvs.append([path if a == "{doc}" else a for a in q])
            where.append((i, qi))
    with open(os.path.join(workdir, "queries.json"), "w", encoding="utf-8") as fh:
        json.dump(argvs, fh)
    return where


def run_worker(workdir: str, seconds: int, trace: bool) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src"), HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workdir, str(seconds),
         "1" if trace else "0"],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cyclebn", "cli.py")):
        print("error: run from the root of a cyclebn checkout "
              "(src/cyclebn/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))   # the checker reads documents with it
    from worker import CAPPED

    setup_s = setup_seconds()
    items = gen.corpus(args.workload, args.seed)
    answers = load_answers(args.workload)
    stale = [it.key for it in items
             if answers.get(it.key, {}).get("doc") != check.doc_digest(it.doc)]
    if stale:
        print(f"error: no recorded answers for {stale[:3]}; run record.py",
              file=sys.stderr)
        return 2
    os.makedirs(".perfbench", exist_ok=True)
    workdir = tempfile.mkdtemp(dir=".perfbench")
    try:
        where = write_corpus(workdir, items)
        *records, final = run_worker(workdir, args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong, timed_out, verdicts, texts = [], 0, {}, {}
    latencies = []
    for r in records:
        item_i, qi = where[r["q"]]
        item = items[item_i]
        latencies.append(r["s"])
        if "out" in r:
            texts[(r["q"], r["digest"])] = r["out"]
        if r["error"] and r["error"].startswith(CAPPED):
            timed_out += 1
            continue
        if r["error"]:
            wrong.append((item.key, qi, r["error"]))
            continue
        key = (r["q"], r["digest"])
        if key not in verdicts:
            expected = answers[item.key]["answers"][qi]
            verdicts[key] = check.check(item, qi, r["rc"], texts[key], expected)
        if verdicts[key]:
            wrong.append((item.key, qi, verdicts[key]))
    attempted = len(records)
    failed = len(wrong) + timed_out
    for key, qi, why in wrong[:5]:
        print(f"wrong: {key} query {qi}: {why}")

    if args.trace:
        metrics = final["layers"]
    else:
        completed = attempted - failed
        metrics = {
            "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": percentile(latencies, 90) * 1e3, "unit": "ms"},
            "queries_per_s": {"value": completed / sum(latencies), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": final["peak_rss_mib"], "unit": "MiB"},
        }
    print(f"workload {args.workload} seed {args.seed}: {attempted} queries over "
          f"{len(items)} documents, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f}, {timed_out} over the cap)")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
