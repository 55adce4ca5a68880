"""The network document reader: every diagnostic it gives, and the
integer tables it builds."""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (fractions_made_by, make_gbn, random_cyclic_gbn,
                      serialize_document)
from cyclebn.cli import _pair, main, parse_document
from cyclebn.model import Cpt, JointDistribution, parse_rational
from test_model import PLAIN_EDGES

F = Fraction

FIG1 = {
    "variables": ["X", "Y"],
    "edges": [["X", "Y"], ["Y", "X"]],
    "cpts": {"X": {"parents": ["Y"], "rows": {"0": "3/4", "1": "1/2"}},
             "Y": {"parents": ["X"], "rows": {"0": "3/4", "1": "1/2"}}},
    "iota": {"": "1"},
}

CHAIN = {
    "variables": ["A", "B"],
    "edges": [["A", "B"]],
    "cpts": {"B": {"parents": ["A"], "rows": {"0": "1/3", "1": "2/3"}}},
    "iota": {"0": "1/4", "1": "3/4"},
}


def fig1(**changes) -> str:
    return json.dumps(dict(FIG1, **changes))


def chain(**changes) -> str:
    return json.dumps(dict(CHAIN, **changes))


def x_rows(rows, parents=("Y",)) -> str:
    """FIG1 with the CPT of X replaced."""
    return fig1(cpts={"X": {"parents": list(parents), "rows": rows},
                      "Y": FIG1["cpts"]["Y"]})


def _int_error(text: str) -> str:
    """The message of the ValueError that ``int(text)`` raises."""
    try:
        int(text)
    except ValueError as e:
        return str(e)
    raise AssertionError(f"int({text!r}) parses")


#: Cases whose text depends on Python's default cap of 4,300 digits on
#: int-string conversion.
CAPPED = {"digit-cap", "digit-cap-denominator", "huge-exponent"}
needs_digit_cap = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="Python without the default int-string digit cap")

#: One damaged document per branch of the reader and of validation, with
#: the exit code and stderr of ``cyclebn cutsets``.  IotaDomainMismatch
#: has no case: the reader builds iota over exactly the initial nodes.
DIAGNOSTICS = [
    ("not-json", "not json", 1,
     "ParseError []: not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("truncated", fig1()[:40], 1,
     "ParseError []: not valid JSON: Expecting ',' delimiter: line 1 column 41 (char 40)"),
    ("deep-nesting", "[" * 100_000, 1, "ParseError []: not valid JSON: nested too deeply"),
    ("document-list", "[]", 1, "ParseError []: document must be an object"),
    ("variables-string", fig1(variables="XY"), 1,
     "ParseError []: variables must be a list of strings"),
    ("variables-ints", fig1(variables=[1, 2]), 1,
     "ParseError []: variables must be a list of strings"),
    ("edges-object", fig1(edges={"X": "Y"}), 1,
     "ParseError []: each edge must be a [from, to] pair"),
    ("edge-triple", fig1(edges=[["X", "Y"], ["X", "Y", "X"]]), 1,
     "ParseError []: each edge must be a [from, to] pair"),
    ("edge-int", fig1(edges=[["X", 1], ["X", "Y", "X"]]), 1,
     "ParseError []: each edge must be a list of strings"),
    ("cpts-list", fig1(cpts=[["X", "Y"]]), 1, "ParseError []: cpts must be an object"),
    ("iota-list", fig1(iota=["1"]), 1, "ParseError []: iota must be an object"),
    ("cpt-string", fig1(cpts={"X": "3/4", "Y": FIG1["cpts"]["Y"]}), 1,
     "ParseError [X]: cpt of X must be an object"),
    ("parents-missing",
     fig1(cpts={"X": {"rows": {"0": "1", "1": "0"}}, "Y": FIG1["cpts"]["Y"]}), 1,
     "ParseError [X]: cpt of X: parents must be a list of strings"),
    ("rows-list", x_rows(["1", "0"]), 1, "ParseError [X]: cpt of X: rows must be an object"),
    ("width-variables", json.dumps({"variables": [f"V{i:02d}" for i in range(21)]}), 2,
     "capacity: 21 variables exceed the dense cap of 20"),
    ("width-parents", x_rows({}, [f"P{i:02d}" for i in range(21)]), 2,
     "capacity: 21 parents of X exceed the dense cap of 20"),
    ("key-bad-digit", x_rows({"0": "1", "2": "0"}), 1,
     "ParseError [X]: cpt of X: bad assignment key '2'"),
    ("key-bad-length", x_rows({"0": "1", "10": "0"}), 1,
     "ParseError [X]: cpt of X: bad assignment key '10'"),
    ("key-empty", x_rows({"": "1", "1": "0"}), 1,
     "ParseError [X]: cpt of X: bad assignment key ''"),
    ("key-missing", x_rows({"1": "0"}), 1, "ParseError [X]: cpt of X: missing keys ['0']"),
    ("key-extra", fig1(iota={"": "1", "0": "0"}), 1,
     "ParseError [iota]: iota: bad assignment key '0'"),
    ("rational-before-key", x_rows({"0": "abc", "x": "1"}), 1,
     "ParseError [X]: Invalid literal for Fraction: 'abc'"),
    ("rationals-in-document-order", x_rows({"1": "abc", "0": "1/0"}), 1,
     "ParseError [X]: Invalid literal for Fraction: 'abc'"),
    ("rational-int", x_rows({"0": 1, "1": "0"}), 1,
     "ParseError [X]: rational must be a string, got 1"),
    ("rational-null", x_rows({"0": "1", "1": None}), 1,
     "ParseError [X]: rational must be a string, got None"),
    ("rational-list", x_rows({"0": "1", "1": ["1"]}), 1,
     "ParseError [X]: rational must be a string, got ['1']"),
    ("zero-denominator", x_rows({"0": "1/0", "1": "0"}), 1,
     "ParseError [X]: zero denominator in '1/0'"),
    ("digit-cap", x_rows({"0": "9" * 5000, "1": "0"}), 1,
     "ParseError [X]: " + _int_error("9" * 5000)),
    ("digit-cap-denominator", x_rows({"0": "1", "1": "1/" + "9" * 5000}), 1,
     "ParseError [X]: " + _int_error("9" * 5000)),
    ("huge-exponent", x_rows({"0": "1e-99999", "1": "0"}), 1,
     "ParseError [X]: decimal exponent in '1e-99999' exceeds 4300 digits"),
    ("signed-denominator", x_rows({"0": "1/-2", "1": "0"}), 1,
     "ParseError [X]: Invalid literal for Fraction: '1/-2'"),
    ("spaced-slash", x_rows({"0": "1 / 2", "1": "0"}), 1,
     "ParseError [X]: Invalid literal for Fraction: '1 / 2'"),
    ("iota-not-normalized", chain(iota={"0": "1/2", "1": "2/5"}), 1,
     "NotNormalized [A]: iota sums to 9/10, not 1"),
    ("iota-out-of-range", chain(iota={"0": "2", "1": "-1"}), 1,
     "OutOfRange [A]: iota entry outside [0, 1]"),
    ("iota-bad-key", chain(iota={"0": "1", "": "0"}), 1,
     "ParseError [iota]: iota: bad assignment key ''"),
    ("iota-bad-rational", chain(iota={"0": "1/0", "1": "1"}), 1,
     "ParseError [iota]: zero denominator in '1/0'"),
    ("cpt-out-of-range", x_rows({"0": "3/2", "1": "-1/3"}), 1,
     "OutOfRange [X]: CPT row 0 entry 3/2\nerror: OutOfRange [X]: CPT row 1 entry -1/3"),
    ("cpt-over-one", x_rows({"0": "1/2", "1": "9/8"}), 1,
     "OutOfRange [X]: CPT row 1 entry 9/8"),
    ("missing-cpt", fig1(cpts={"Y": FIG1["cpts"]["Y"]}), 1,
     "MissingCptRow [X]: no CPT for non-initial node"),
    ("parent-mismatch", x_rows({"": "1/2"}, ()), 1,
     "ParentMismatch [X]: CPT parents () differ from predecessors ('Y',)"),
    ("unknown-edge-node", fig1(edges=[["X", "Y"], ["Y", "X"], ["Q", "X"]]), 1,
     "ParentMismatch [Q]: edge (Q, X) references unknown node\n"
     "error: ParentMismatch [X]: CPT parents ('Y',) differ from predecessors ('Q', 'Y')"),
    ("cpt-on-initial", chain(cpts={"A": {"parents": [], "rows": {"": "1/2"}},
                                   "B": CHAIN["cpts"]["B"]}), 1,
     "ParentMismatch [A]: CPT attached to an initial or unknown node"),
    ("duplicate-parents", x_rows({"00": "1", "01": "0", "10": "0", "11": "1"}, ("Y", "Y")),
     1, "ParseError [X]: duplicate variable names: ('Y', 'Y')"),
    ("duplicate-parents-after-rows", x_rows({"00": "1"}, ("Y", "Y")), 1,
     "ParseError [X]: cpt of X: missing keys ['01', '10', '11']"),
    ("several", fig1(cpts={"X": {"parents": ["Y"], "rows": {"0": "1/0", "1": "0"}},
                           "Y": {"parents": ["X"], "rows": {"0": "1"}},
                           "Z": "1"}, iota={"": "1/2"}), 1,
     "ParseError [X]: zero denominator in '1/0'\n"
     "error: ParseError [Y]: cpt of Y: missing keys ['1']\n"
     "error: ParseError [Z]: cpt of Z must be an object\n"
     "error: NotNormalized []: iota sums to 1/2, not 1"),
    ("valid-unicode-and-spaces", x_rows({"0": "٣/٤", "1": " 1/2 "}), 0, None),
    ("valid-decimals", x_rows({"0": "0.25", "1": "1e-1"}), 0, None),
    ("valid-signs", x_rows({"0": "+1/2", "1": "-0"}), 0, None),
]


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text, code, message", [
    pytest.param(*case, id=name, marks=needs_digit_cap if name in CAPPED else ())
    for name, *case in DIAGNOSTICS])
def test_every_parse_diagnostic_is_pinned(tmp_path, text, code, message):
    p = tmp_path / "doc.gbn"
    p.write_text(text, encoding="utf-8")
    got_code, _, err = _cli(["cutsets", str(p)])
    assert (got_code, err) == (code, f"error: {message}\n" if message else "")


DUPLICATES = dict(FIG1, variables=["X", "X", "Y"])
DUPLICATES_MESSAGE = "duplicate variable names: ('X', 'X', 'Y')"


@pytest.mark.parametrize("fmt", ["pretty", "machine"])
def test_duplicate_variable_names_are_reported_by_validate(tmp_path, fmt):
    p = tmp_path / "dup.gbn"
    p.write_text(json.dumps(DUPLICATES))
    code, out, err = _cli(["--format", fmt, "validate", str(p)])
    assert (code, err) == (1, "")
    if fmt == "machine":
        assert json.loads(out) == {
            "command": "validate", "valid": False,
            "violations": [{"kind": "ParseError", "node": "",
                            "message": DUPLICATES_MESSAGE}]}
    else:
        assert out == ("command: validate\nvalid: False\nviolations:\n"
                       "  kind: ParseError\n  node: \n"
                       f"  message: {DUPLICATES_MESSAGE}\n")
    assert _cli(["cutsets", str(p)]) == (
        1, "", f"error: ParseError []: {DUPLICATES_MESSAGE}\n")


def _pair_outcome(parse, text):
    try:
        p, q = parse(text)
    except ValueError as e:
        return "error", str(e)
    return F(p, q)


def _fraction_pair(text):
    r = parse_rational(text)
    return r.numerator, r.denominator


@pytest.mark.parametrize("text", PLAIN_EDGES, ids=range(len(PLAIN_EDGES)))
def test_integer_reading_matches_parse_rational(text):
    assert _pair_outcome(_pair, text) == _pair_outcome(_fraction_pair, text)


@given(st.text(alphabet="0123456789/ +-_.e٣\t", max_size=12))
def test_integer_reading_matches_parse_rational_on_any_text(text):
    assert _pair_outcome(_pair, text) == _pair_outcome(_fraction_pair, text)


def _spellings(q: Fraction) -> list[str]:
    """Texts that all read as ``q``, most of them not in lowest terms."""
    a, b = q.numerator, q.denominator
    out = [f"{a}/{b}", f"{2 * a}/{2 * b}", f"00{a}/{b}", f"{7 * a}/0{7 * b}",
           f" {a}/{b}", f"+{a}/{b}"]
    if a == 0:
        out += ["0", "0/5", "0.0", "-0"]
    if a == b:
        out += ["1", "8/8", "1.000", "10e-1"]
    m = next((m for m in range(6) if 10 ** m % b == 0), None)
    if m is not None and a < b:
        digits = a * 10 ** m // b
        out += [f"0.{digits:0{m}d}" if m else "0", f"{digits}e-{m}"]
    return out


def _respelled(g, rng: random.Random) -> str:
    doc = json.loads(serialize_document(g))
    for entry in doc["cpts"].values():
        entry["rows"] = {k: rng.choice(_spellings(F(t)))
                         for k, t in entry["rows"].items()}
    doc["iota"] = {k: rng.choice(_spellings(F(t))) for k, t in doc["iota"].items()}
    return json.dumps(doc)


def test_parsed_tables_equal_the_fraction_constructor():
    rng = random.Random(19)
    seen = set()
    for _ in range(60):
        g = random_cyclic_gbn(rng, max_vars=5, denom=rng.choice([2, 4, 8, 10, 12]))
        text = _respelled(g, rng)
        seen.update(t for e in json.loads(text)["cpts"].values()
                    for t in e["rows"].values())
        parsed = parse_document(text)
        assert parsed == g
        for x, cpt in parsed.cpts.items():
            assert cpt == Cpt(x, cpt.parents, g.cpts[x].rows)
            assert cpt.rows == g.cpts[x].rows
            assert hash(cpt) == hash(g.cpts[x])
    assert {"2/4", "0/5", "8/8", "0.25", "5e-1", "001/2"} <= seen


def test_non_canonical_spellings_give_the_reduced_table():
    text = x_rows({"0": "2/4", "1": "6/8"})
    cpt = parse_document(text).cpts["X"]
    assert (cpt.nums, cpt.den) == ((2, 3), 4)
    assert cpt == Cpt("X", ("Y",), (F(1, 2), F(3, 4)))
    for rows, table in [({"0": "007/8", "1": "0/5"}, ((7, 0), 8)),
                        ({"0": "8/8", "1": "0.0"}, ((1, 0), 1))]:
        cpt = parse_document(x_rows(rows)).cpts["X"]
        assert (cpt.nums, cpt.den) == table


def test_round_trip_over_random_cyclic_networks():
    rng = random.Random(7)
    for _ in range(80):
        g = random_cyclic_gbn(rng, max_vars=5, denom=rng.choice([3, 8, 1000]))
        assert parse_document(serialize_document(g)) == g


def test_a_plain_document_is_read_without_a_fraction():
    doc = {"variables": ["A", "X", "Y"],
           "edges": [["A", "X"], ["X", "Y"], ["Y", "X"]],
           "cpts": {"X": {"parents": ["A", "Y"],
                          "rows": {"00": "1", "01": "0", "10": "2/4", "11": "007/9"}},
                    "Y": {"parents": ["X"], "rows": {"0": "0/5", "1": "8/8"}}},
           "iota": {"0": "1/3", "1": "4/6"}}
    text = json.dumps(doc)
    parsed = []
    assert fractions_made_by(lambda: parsed.append(parse_document(text))) == 0
    [g] = parsed
    assert fractions_made_by(lambda: g.cpts["X"].rows) == 4
    assert g == make_gbn(g.nodes, g.edges, [
        Cpt("X", ("A", "Y"), (F(1), F(0), F(1, 2), F(7, 9))),
        Cpt("Y", ("X",), (F(0), F(1)))],
        JointDistribution(("A",), (F(1, 3), F(2, 3))))
