"""Self-tests of the benchmark.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402

import cyclebn  # noqa: E402
import cyclebn.cli  # noqa: E402


def _answers():
    with open(os.path.join(HERE, check.ANSWERS_FILE), encoding="utf-8") as fh:
        return json.load(fh)


def _run(item, qi, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(item.doc, encoding="utf-8")
    argv = [str(path) if a == "{doc}" else a for a in item.queries[qi]]
    rc, error, text, _ = worker.call(argv)
    assert error is None
    return rc, text


def _corpus_digest(workload, seed):
    h = hashlib.sha256()
    for item in gen.corpus(workload, seed):
        h.update(item.key.encode() + item.doc.encode() + repr(item.queries).encode())
    return h.hexdigest()


def test_generators_are_deterministic():
    for workload in gen.WORKLOADS:
        assert _corpus_digest(workload, 3) == _corpus_digest(workload, 3)
        assert _corpus_digest(workload, 3) != _corpus_digest(workload, 4)
    # byte-identical in a fresh interpreter with another hash seed
    code = ("import sys; sys.path.insert(0, %r); import test_perfbench as t; "
            "print(t._corpus_digest('structure', 3))" % HERE)
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join([HERE, os.path.join(os.path.dirname(HERE), "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == _corpus_digest("structure", 3)


def test_recorded_answers_cover_every_pool_item():
    answers = _answers()
    for workload in gen.WORKLOADS:
        for item in gen.pool(workload):
            entry = answers[workload][item.key]
            assert entry["doc"] == check.doc_digest(item.doc)
            assert len(entry["answers"]) == len(item.queries)


def _flip_first_rational(text):
    out = json.loads(text)
    probs = out["distributions"][0]["probs"]
    i = next(i for i, p in enumerate(probs) if p != "0")
    num, _, den = probs[i].partition("/")
    probs[i] = f"{int(num) + 1}/{den or 1}"
    return json.dumps(out)


def test_checker_rejects_one_flipped_rational(tmp_path):
    answers = _answers()
    cases = [("wide-cuts", gen.paper_items("wide-cuts")[0], 1),      # 48/121 ...
             ("families", gen.paper_items("families")[2], 0)]        # 1/10, 3/10 ...
    ring = gen.pool_item("rings", "n6", 0)
    cases.append(("rings", ring, 2))                                 # mc of a ring
    for workload, item, qi in cases:
        expected = answers[workload][item.key]["answers"][qi]
        rc, text = _run(item, qi, tmp_path)
        assert check.check(item, qi, rc, text, expected) is None
        assert check.check(item, qi, rc, _flip_first_rational(text), expected)
        assert check.check(item, qi, 1, "", expected)


def test_checker_tests_membership_of_witnesses(tmp_path):
    answers = _answers()
    item = gen.paper_items("families")[1]            # the infinite family
    expected = answers["families"][item.key]["answers"][0]
    rc, text = _run(item, 0, tmp_path)
    assert check.check(item, 0, rc, text, expected) is None
    out = json.loads(text)
    # another member: the point mass on X=Y=F is strongly consistent
    out["distributions"][0]["probs"] = ["1", "0", "0", "0"]
    assert check.check(item, 0, rc, json.dumps(out), expected) is None
    # X=F, Y=T contradicts Pr(Y=T | X=F) = 0
    out["distributions"][0]["probs"] = ["0", "1", "0", "0"]
    assert check.check(item, 0, rc, json.dumps(out), expected)


def _bindings():
    """Every attribute of every cyclebn namespace and layer class."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "cyclebn" or name.startswith("cyclebn."):
            for attr, value in vars(mod).items():
                found[(name, attr)] = value
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    for mattr, member in vars(value).items():
                        found[(name, attr, mattr)] = member
    return found


def _sample_queries(tmp_path):
    for workload in gen.WORKLOADS:
        items = gen.corpus(workload, 5)
        small = [it for it in items if it.key.startswith("paper")] + [
            gen.pool_item(workload, stratum, 0)
            for stratum in list(gen.STRATA[workload])[:1]]
        for n, item in enumerate(small):
            path = tmp_path / f"{workload}{n}.json"
            path.write_text(item.doc, encoding="utf-8")
            for q in item.queries[:4]:
                yield [str(path) if a == "{doc}" else a for a in q]


def test_traced_run_gives_identical_outputs_and_restores_every_name(tmp_path):
    before = _bindings()
    queries = list(_sample_queries(tmp_path))
    untraced = [worker.call(q)[:3] for q in queries]
    tracer = Tracer()
    tracer.install()
    try:
        assert cyclebn.constraints.classify_polytope is not before[
            ("cyclebn.constraints", "classify_polytope")]
        assert cyclebn.chain.chain_rule_dist is not before[("cyclebn.chain", "chain_rule_dist")]
        assert cyclebn.chain.null_space_left is not before[("cyclebn.chain", "null_space_left")]
        traced = []
        for i, q in enumerate(queries):
            tracer.begin(i)
            result = worker.call(q)[:3]
            tracer.end(q, len(result[2]))
            traced.append(result)
    finally:
        tracer.restore()
    assert traced == untraced
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    m = tracer.metrics()
    assert m["linalg.simplex_calls"][0] > 0
    assert m["chain.rows_built"][0] > 0
    assert m["graph.dsep_s"][0] > 0
    assert m["cli.parse_s"][0] > 0


def test_untraced_worker_installs_no_wrappers(tmp_path, monkeypatch):
    def no_tracer():
        raise AssertionError("untraced run built a tracer")
    monkeypatch.setattr(worker, "Tracer", no_tracer)
    before = _bindings()
    item = gen.paper_items("wide-cuts")[0]
    path = tmp_path / "doc.json"
    path.write_text(item.doc, encoding="utf-8")
    (tmp_path / "queries.json").write_text(json.dumps(
        [[str(path) if a == "{doc}" else a for a in q] for q in item.queries]))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        worker.main(str(tmp_path), 0, False)
    lines = buf.getvalue().splitlines()
    assert len(lines) == worker.MIN_QUERIES + 1
    assert "layers" not in json.loads(lines[-1])
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_query_over_the_cap_fails_and_the_worker_goes_on(monkeypatch):
    monkeypatch.setattr(worker, "CAP_S", 1)
    monkeypatch.setattr(cyclebn.cli, "main", lambda argv: time.sleep(3))
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        rc, error, _, elapsed = worker.call(["validate", "x.json"])
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert rc is None and error.startswith(worker.CAPPED)
    assert elapsed < 2.5
