"""Metamorphic tests: the order in which a document lists its variables,
edges, tables and rows does not change any command's answer."""

import contextlib
import io
import json
import random

from conftest import random_cutset, random_cyclic_gbn, serialize_document
from cyclebn.cli import main

KINDS = ("bn", "cpt", "wcpt", "cpti", "mc", "lim", "limavg")


def _reversed_document(text: str) -> str:
    """The same network with every list and every key order reversed."""
    doc = json.loads(text)
    doc["variables"].reverse()
    doc["edges"].reverse()
    doc["cpts"] = {x: {"parents": cpt["parents"],
                       "rows": dict(reversed(cpt["rows"].items()))}
                   for x, cpt in reversed(doc["cpts"].items())}
    doc["iota"] = dict(reversed(doc["iota"].items()))
    return json.dumps(doc)


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _queries(rng: random.Random, g):
    """(command, options) of every command on ``g``, with random arguments."""
    nodes = list(g.nodes)
    x, y = rng.sample(nodes, 2)
    given = [v for v in nodes if v not in (x, y) and rng.random() < 0.5]
    cut = random_cutset(rng, g, max_size=3)
    start = rng.choice(("uniform", "dirac:" + "1" * len(cut)))
    cut = ",".join(cut)
    yield "validate", []
    yield "dsep", ["--x", x, "--y", y, "--given", ",".join(given)]
    yield "cutsets", ["--minimal"] if rng.random() < 0.5 else []
    yield "chain", ["--cutset", cut]
    yield "classify", ["--cutset", cut]
    for kind in KINDS:
        options = ["--kind", kind]
        if kind in ("mc", "lim", "limavg"):
            options += ["--cutset", cut, "--gamma0", start]
        yield "semantics", options


def test_reordered_document_gives_the_same_answers(tmp_path):
    rng = random.Random(9)
    answered = 0
    for i in range(30):
        g = random_cyclic_gbn(rng, max_vars=5)
        text = serialize_document(g)
        paths = [tmp_path / f"doc{i}.gbn", tmp_path / f"reordered{i}.gbn"]
        paths[0].write_text(text)
        paths[1].write_text(_reversed_document(text))
        fmt = ("pretty", "machine")[i % 2]
        for command, options in _queries(rng, g):
            runs = [_run(["--format", fmt, command, str(p), *options])
                    for p in paths]
            assert runs[0] == runs[1], (command, options)
            answered += runs[0][0] in (0, 3)
    assert answered > 300
