"""Command-line fuzzing: ``cli.main`` answers mutated documents and
argument vectors for every subcommand with one of its exit codes, never
with an escaped exception or a traceback, and writes machine output in
exactly the layout of ``json.dumps(..., indent=2)``."""

import contextlib
import copy
import io
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from cyclebn.cli import main

BASES = [
    {"variables": ["X", "Y"], "edges": [["X", "Y"], ["Y", "X"]],
     "cpts": {"X": {"parents": ["Y"], "rows": {"0": "1/4", "1": "1"}},
              "Y": {"parents": ["X"], "rows": {"0": "1/2", "1": "0"}}},
     "iota": {"": "1"}},
    {"variables": ["A", "X", "Y"], "edges": [["A", "X"], ["X", "Y"], ["Y", "X"]],
     "cpts": {"X": {"parents": ["A", "Y"],
                    "rows": {"00": "1", "01": "0", "10": "1/2", "11": "1/3"}},
              "Y": {"parents": ["X"], "rows": {"0": "0", "1": "1"}}},
     "iota": {"0": "1/3", "1": "2/3"}},
    {"variables": ["A", "B"], "edges": [["A", "B"]],
     "cpts": {"B": {"parents": ["A"], "rows": {"0": "0.25", "1": "1e-1"}}},
     "iota": {"0": "0", "1": "1"}},
]

NAMES = ["X", "Y", "A", "B", "Q", "", "X'", " X"]

RATIONALS = ["1/2", "1/0", "0", "1", "2", "-1/3", "0.25", "1e-3", "1e5",
             "abc", "", " 1/2 ", "nan", "inf", "1/-2", "3/", "/3", "0x1",
             "9" * 5000, "1e-999999", "1_0/3"]

LEAVES = (st.none() | st.booleans() | st.integers(-3, 3)
          | st.sampled_from(RATIONALS) | st.sampled_from(NAMES)
          | st.text(max_size=3))

VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES + ["0", "1", "00", "parents", "rows"]),
                      inner, max_size=3),
    max_leaves=6)


def _paths(tree, prefix=()):
    yield prefix
    items = tree.items() if isinstance(tree, dict) else \
        enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(data, doc):
    """One change at a random place: a value replaced, an entry deleted or
    an entry added."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if not path:
        return data.draw(VALUES) if op == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = data.draw(VALUES)
    elif op == "delete":
        del parent[key]
    elif isinstance(parent[key], dict):
        parent[key][data.draw(st.sampled_from(NAMES + ["0", "1", "extra"]))] = \
            data.draw(VALUES)
    elif isinstance(parent[key], list):
        parent[key].append(data.draw(VALUES))
    return doc


def _document(data) -> str:
    doc = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        doc = _mutate(data, doc)
    text = json.dumps(doc)
    damage = data.draw(st.sampled_from(["none"] * 8 + ["truncate", "nest"]))
    if damage == "truncate":
        text = text[:data.draw(st.integers(0, len(text)))]
    elif damage == "nest":
        text = "[" * 100_000 + text + "]" * 100_000
    return text


CUTSETS = st.sampled_from(["X", "Y", "X,Y", "A", ""]) \
    | st.lists(st.sampled_from(NAMES), max_size=3).map(",".join)
GAMMA0 = st.sampled_from(["uniform", "dirac:", "dirac:0", "dirac:01",
                          "dirac:11", "dirac:2", "GAMMA", "/nonexistent/g"])
STEPS = st.sampled_from(["-1", "0", "1", "3", "x", "100000000000000000000"])
KINDS = st.sampled_from(["bn", "cpt", "wcpt", "cpti", "mc", "lim", "limavg",
                         "bogus"])


def _argv(data):
    sub = data.draw(st.sampled_from(["validate", "dsep", "cutsets", "chain",
                                     "semantics", "classify", "oracle"]))
    draw = data.draw
    args = {
        "validate": lambda: ["DOC"],
        "dsep": lambda: ["DOC", "--x", draw(CUTSETS), "--y", draw(CUTSETS),
                         "--given", draw(CUTSETS)],
        "cutsets": lambda: ["DOC"] + draw(st.sampled_from([[], ["--minimal"]])),
        "chain": lambda: ["DOC", "--cutset", draw(CUTSETS)],
        "semantics": lambda: ["DOC", "--kind", draw(KINDS), "--cutset",
                              draw(CUTSETS | st.sampled_from([";", "X;Y", "X,Y;"])),
                              "--gamma0", draw(GAMMA0)],
        "classify": lambda: ["DOC", "--cutset", draw(CUTSETS)],
        "oracle": lambda: ["iterate", "DOC", "--cutset", draw(CUTSETS),
                           "--steps", draw(STEPS), "--gamma0", draw(GAMMA0)],
    }[sub]()
    fmt = draw(st.sampled_from([[], [], ["--format", "machine"],
                                ["--format", "machine"], ["--format", "xml"]]))
    extra = draw(st.sampled_from([[]] * 7 + [["--bogus"], ["DOC"], ["--cutset"]]))
    return fmt + [sub] + args + extra


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


#: Numbers the files of each example: overwriting a file can cost far
#: more than writing a new one.
_EXAMPLE = itertools.count()


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_cli_answers_every_input_without_a_traceback(workdir, data):
    n = next(_EXAMPLE)
    doc, gamma = workdir / f"doc{n}.gbn", workdir / f"gamma{n}.json"
    doc.write_text(_document(data))
    gamma.write_text(data.draw(st.sampled_from(
        ['{"0": "1/2", "1": "1/2"}', '{"00": "1", "01": "0", "10": "0", "11": "0"}',
         '["1"]', '{"0": "1"', '{"": "1"}', '{"0": "2", "1": "-1"}',
         "[" * 100_000])))
    argv = [str(doc) if a == "DOC" else str(gamma) if a == "GAMMA" else a
            for a in _argv(data)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:          # argparse rejects the arguments
            code = e.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if argv[:2] == ["--format", "machine"] and out.getvalue():
        # machine output is exactly the ``json.dumps(indent=2)`` layout
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2) + "\n"
