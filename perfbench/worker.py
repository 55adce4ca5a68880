"""Closed-loop client: one process, one query at a time, no threads.

Run by ``run.py`` as ``python3 perfbench/worker.py WORKDIR SECONDS TRACE``
with the program's ``src`` on ``PYTHONPATH``.  It cycles through the
queries in ``WORKDIR/queries.json``, calling ``cyclebn.cli.main(argv)``
in process with stdout and stderr captured.  Each query is timed from
the call into ``main`` to its return.  The loop runs whole passes over
the queries, so every run holds its workload's exact mix: it stops after
the pass that brings the elapsed time nearest to SECONDS, once at least
MIN_QUERIES have run.  Past HARD_STOP_S it stops even inside a pass.

Each result goes to stdout as one JSON line; an output's text is sent
only the first time that exact text is seen for that query.  The last
line holds the worker's peak RSS and, when TRACE is 1, the per-layer
metrics.  With TRACE 1 every query runs twice, untraced then traced,
and the two outputs must be identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time

import cyclebn.cli

from spans import Tracer

MIN_QUERIES = 100
CAP_S = 60          # per-query cap; a query over it fails and the run goes on
HARD_STOP_S = 120
CAPPED = "over the per-query cap"


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout()


def call(argv) -> tuple[int | None, str | None, str, float]:
    """(exit code, error, stdout, seconds) of one in-process CLI call.
    The error starts with CAPPED when the query went over the cap."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    signal.alarm(CAP_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cyclebn.cli.main(list(argv))
    except SystemExit as e:          # argparse rejects the arguments
        rc = e.code if isinstance(e.code, int) else 1
    except QueryTimeout:
        error = f"{CAPPED} ({CAP_S} s)"
    except Exception as e:           # any crash is a failed query, not a failed run
        error = f"{type(e).__name__}: {e}"
    finally:
        elapsed = time.perf_counter() - start
        signal.alarm(0)
    return rc, error, out.getvalue(), elapsed


def main(workdir: str, seconds: float, trace: bool) -> None:
    with open(f"{workdir}/queries.json", encoding="utf-8") as fh:
        queries = json.load(fh)
    emit = sys.stdout
    signal.signal(signal.SIGALRM, _alarm)
    tracer = Tracer() if trace else None
    call(queries[0])                  # warm-up, not counted
    if tracer:
        tracer.install()
    seen: set[tuple[int, str]] = set()   # (query index, output digest)
    untraced_s = traced_s = 0.0
    done = 0
    start = time.perf_counter()
    while True:
        qi = done % len(queries)
        if qi == 0 and done:
            spent = time.perf_counter() - start
            passes = done // len(queries)
            if done >= MIN_QUERIES and spent + spent / passes / 2 >= seconds:
                break
        if time.perf_counter() - start > HARD_STOP_S:
            break
        argv = queries[qi]
        rc, error, text, elapsed = call(argv)
        data = text.encode()
        record = {"q": qi, "rc": rc, "error": error, "s": elapsed, "bytes": len(data)}
        if tracer:
            untraced_s += elapsed
            tracer.begin(done)
            rc2, error2, text2, elapsed2 = call(argv)
            tracer.end(argv, record["bytes"])
            traced_s += elapsed2
            if (rc2, error2, text2) != (rc, error, text):
                record["error"] = record["error"] or "traced output differs"
        h = hashlib.sha256(data).hexdigest()
        record["digest"] = h
        if (qi, h) not in seen:
            seen.add((qi, h))
            record["out"] = text
        emit.write(json.dumps(record) + "\n")
        done += 1
    final = {"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.restore()
        layers = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        layers["trace.overhead"] = {"value": done / traced_s - done / untraced_s,
                                    "unit": "1/s"}
        final["layers"] = layers
    emit.write(json.dumps(final) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1")
