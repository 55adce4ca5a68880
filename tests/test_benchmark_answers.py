"""The benchmark's recorded answers as a test: every pool query of each
workload, the paper's trichotomy included, run through the command line
and checked with the benchmark's own checker against
``perfbench/answers.json``.  An empty or unique answer must match its
digest; the witness of an infinite family may be any member, so it is
checked for membership instead.  The benchmark's modules are imported
from ``perfbench/`` and only read."""

import contextlib
import io
import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import pytest  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402

from cyclebn import cli  # noqa: E402

#: Queries per pool.  The families pool holds 780 random networks and
#: the 3 paper examples, which ask for both cpt and wcpt.
POOL_QUERIES = {"families": 786, "rings": 411, "wide-cuts": 350, "structure": 1254}


@pytest.mark.parametrize("workload", sorted(POOL_QUERIES))
def test_pool_answers_match_the_recorded_ones(tmp_path, workload):
    with open(os.path.join(PERFBENCH, check.ANSWERS_FILE), encoding="utf-8") as fh:
        answers = json.load(fh)[workload]
    wrong, queries, infinite = [], 0, 0
    for i, item in enumerate(gen.pool(workload)):
        # a new file per item: overwriting one can cost far more than writing it
        path = tmp_path / f"doc{i}.json"
        path.write_text(item.doc, encoding="utf-8")
        for qi, query in enumerate(item.queries):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main([str(path) if a == "{doc}" else a for a in query])
            text = out.getvalue()
            reason = check.check(item, qi, rc, text, answers[item.key]["answers"][qi])
            if reason:
                wrong.append(f"{item.key} query {qi}: {reason}")
            queries += 1
            infinite += rc == 0 and json.loads(text).get("status") == "infinite"
    assert not wrong, wrong
    assert queries == POOL_QUERIES[workload], queries
    if workload == "families":          # many families are infinite
        assert infinite > 400, infinite
