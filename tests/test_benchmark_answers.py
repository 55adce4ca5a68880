"""The benchmark's recorded answers as a test: every families query of
the pool, the paper's trichotomy included, run through the command line
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

import check  # noqa: E402
import gen  # noqa: E402

from cyclebn import cli  # noqa: E402


def test_families_pool_answers_match_the_recorded_ones(tmp_path):
    with open(os.path.join(PERFBENCH, check.ANSWERS_FILE), encoding="utf-8") as fh:
        answers = json.load(fh)["families"]
    path = tmp_path / "doc.json"
    wrong, queries, infinite = [], 0, 0
    for item in gen.pool("families"):
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
            infinite += rc == 0 and json.loads(text)["status"] == "infinite"
    assert not wrong, wrong
    # the pool holds 780 random networks and the 3 paper examples, which
    # ask for both cpt and wcpt; many families are infinite
    assert queries == 786 and infinite > 400, (queries, infinite)
