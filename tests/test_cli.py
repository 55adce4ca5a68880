"""Command-line interface: document parsing, subcommands, exit codes."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cyclebn
from conftest import serialize_document, two_cycle
from cyclebn import chain as chainmod
from cyclebn.chain import cutset_mc
from cyclebn.cli import (DocumentError, _bit_keys, _chain_out, _Cutsets,
                         _json_text, _load, _pretty, _Table, _vector_out,
                         main, parse_document)
from cyclebn.model import Gbn, JointDistribution, scaled
from cyclebn.oracle import check_cpt_i_member, closed_cut_triples

F = Fraction

FIG1 = """
{
  "variables": ["X", "Y"],
  "edges": [["X", "Y"], ["Y", "X"]],
  "cpts": {
    "X": {"parents": ["Y"], "rows": {"0": "3/4", "1": "1/2"}},
    "Y": {"parents": ["X"], "rows": {"0": "3/4", "1": "1/2"}}
  },
  "iota": {"": "1"}
}
"""

EX52 = """
{
  "variables": ["X", "Y"],
  "edges": [["X", "Y"], ["Y", "X"]],
  "cpts": {
    "X": {"parents": ["Y"], "rows": {"0": "1/4", "1": "1"}},
    "Y": {"parents": ["X"], "rows": {"0": "1/2", "1": "0"}}
  },
  "iota": {"": "1"}
}
"""


@pytest.fixture
def fig1_path(tmp_path):
    p = tmp_path / "fig1.gbn"
    p.write_text(FIG1)
    return str(p)


@pytest.fixture
def ex52_path(tmp_path):
    p = tmp_path / "ex52.gbn"
    p.write_text(EX52)
    return str(p)


def test_parse_document():
    g = parse_document(FIG1)
    assert g.nodes == ("X", "Y")
    assert g.cpts["X"].rows == (F(3, 4), F(1, 2))
    assert g.iota.variables == ()


def test_round_trip():
    g = parse_document(FIG1)
    assert parse_document(serialize_document(g)) == g


def test_round_trip_with_initial_nodes():
    doc = {
        "variables": ["A", "B"],
        "edges": [["A", "B"]],
        "cpts": {"B": {"parents": ["A"], "rows": {"0": "1/3", "1": "2/3"}}},
        "iota": {"0": "1/4", "1": "3/4"},
    }
    g = parse_document(json.dumps(doc))
    assert g.iota.probs == (F(1, 4), F(3, 4))
    assert parse_document(serialize_document(g)) == g


def test_parse_not_normalized():
    doc = {
        "variables": ["A", "B"],
        "edges": [["A", "B"]],
        "cpts": {"B": {"parents": ["A"], "rows": {"0": "1/2", "1": "1/2"}}},
        "iota": {"0": "1/2", "1": "2/5"},
    }
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(doc))
    assert any(v.kind == "NotNormalized" for v in info.value.violations)


def test_parse_missing_cpt_row():
    doc = {
        "variables": ["A", "B"],
        "edges": [["A", "B"]],
        "cpts": {"B": {"parents": ["A"], "rows": {"0": "1/2"}}},
        "iota": {"0": "1", "1": "0"},
    }
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))


def test_parse_bad_json():
    with pytest.raises(DocumentError):
        parse_document("not json")
    with pytest.raises(DocumentError, match="nested too deeply"):
        parse_document("[" * 100_000)


def test_validate_ok(fig1_path, capsys):
    assert main(["validate", fig1_path]) == 0
    assert "valid: True" in capsys.readouterr().out


def test_validate_bad_document(tmp_path, capsys):
    p = tmp_path / "bad.gbn"
    p.write_text('{"variables": ["A"], "edges": [], "cpts": {}, '
                 '"iota": {"0": "1/2", "1": "2/5"}}')
    assert main(["validate", str(p)]) == 1
    assert "NotNormalized" in capsys.readouterr().out


def test_missing_file_exit(capsys):
    assert main(["validate", "/nonexistent/x.gbn"]) == 1


def test_semantics_cpt_unique(fig1_path, capsys):
    assert main(["--format", "machine", "semantics", fig1_path,
                 "--kind", "cpt"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unique"
    assert doc["distributions"][0]["probs"] == ["1/10", "3/10", "3/10", "3/10"]
    assert doc["distributions"][0]["assignment_order"] == ["00", "01", "10", "11"]


def test_semantics_mc(ex52_path, capsys):
    assert main(["--format", "machine", "semantics", ex52_path,
                 "--kind", "mc", "--cutset", "X,Y",
                 "--gamma0", "uniform"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distributions"][0]["probs"] == \
        ["48/121", "18/121", "40/121", "15/121"]


def test_semantics_bn_on_cyclic(fig1_path, capsys):
    assert main(["--format", "machine", "semantics", fig1_path,
                 "--kind", "bn"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "empty"


def test_semantics_lim_undefined(tmp_path, capsys):
    doc = json.loads(FIG1)
    doc["cpts"]["X"]["rows"] = {"0": "1", "1": "0"}
    doc["cpts"]["Y"]["rows"] = {"0": "0", "1": "1"}
    p = tmp_path / "per.gbn"
    p.write_text(json.dumps(doc))
    assert main(["--format", "machine", "semantics", str(p), "--kind", "lim",
                 "--cutset", "X,Y", "--gamma0", "dirac:11"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "undefined"
    assert out["offending_periods"] == [4]


def test_semantics_cpti(fig1_path, capsys):
    assert main(["--format", "machine", "semantics", fig1_path,
                 "--kind", "cpti"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unique"
    assert doc["distributions"][0]["probs"] == ["1/10", "3/10", "3/10", "3/10"]


def test_semantics_cpti_infinite_on_multi_bscc(tmp_path, capsys):
    # X and Y copy each other: the chain for either cutset has two bottom
    # components, and the intersection is every mixture of 00 and 11
    g = two_cycle(0, 1, 0, 1)
    p = tmp_path / "copy.gbn"
    p.write_text(serialize_document(g))
    assert main(["--format", "machine", "semantics", str(p),
                 "--kind", "cpti"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "infinite"
    [dist] = out["distributions"]
    mu = JointDistribution(("X", "Y"), [F(x) for x in dist["probs"]])
    triples = closed_cut_triples(g, ("X",)) + closed_cut_triples(g, ("Y",))
    assert check_cpt_i_member(mu, g, triples)


def test_chain_command(ex52_path, capsys):
    assert main(["--format", "machine", "chain", ex52_path,
                 "--cutset", "X,Y"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"][0] == ["3/8", "3/8", "1/8", "1/8"]
    assert doc["periods"] == [1]
    assert doc["bsccs"] == [["00", "01", "10", "11"]]


def test_cutsets_command(fig1_path, capsys):
    assert main(["--format", "machine", "cutsets", fig1_path,
                 "--minimal"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cutsets"] == [["X"], ["Y"]]


def test_dsep_command(fig1_path, capsys):
    assert main(["--format", "machine", "dsep", fig1_path,
                 "--x", "X", "--y", "Y"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["separated"] is False


def test_classify_command(ex52_path, capsys):
    assert main(["--format", "machine", "classify", ex52_path,
                 "--cutset", "X,Y"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cardinality"] == "1"
    assert doc["lim_defined"] == "always"
    assert doc["smooth"] is False


def test_oracle_iterate_command(ex52_path, capsys):
    assert main(["--format", "machine", "oracle", "iterate", ex52_path,
                 "--cutset", "X,Y", "--steps", "2",
                 "--gamma0", "dirac:00"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"][0] == ["1", "0", "0", "0"]
    assert doc["steps"][1] == ["3/8", "3/8", "1/8", "1/8"]
    assert len(doc["cesaro"]) == 3


def test_oracle_iterate_refuses_steps_over_the_dense_cap(ex52_path):
    # Each step is a table over the nodes and the primed cutset, and the
    # trace keeps them all: a huge count is refused before the first.
    code, out, err = _fresh_run(["oracle", "iterate", ex52_path, "--cutset", "X,Y",
                                 "--steps", "100000000000000000000"])
    assert (code, out) == (2, "")
    assert err.startswith("error: capacity:") and err.count("\n") == 1
    assert _fresh_run(["oracle", "iterate", ex52_path, "--cutset", "X,Y",
                       "--steps", "2"])[0] == 0


def test_oracle_iterate_refuses_a_trace_over_the_bit_budget(fig1_path, capsys):
    # The dense cap allows 2**20 >> 3 = 131,072 steps here, but 1,000
    # steps would trace about 1,000**2 * 2 cutset states * 9 bits of CPT,
    # iota and gamma0 denominators: 18 million bits.
    assert main(["oracle", "iterate", fig1_path, "--cutset", "X",
                 "--steps", "1000"]) == 2
    assert capsys.readouterr().err == (
        "error: capacity: 1000 steps over 2 cutset states would trace about "
        "18000000 bits, over the budget of 16777216\n")


def test_gamma0_file(tmp_path, ex52_path, capsys):
    table = tmp_path / "gamma.json"
    table.write_text(json.dumps({"00": "1", "01": "0", "10": "0", "11": "0"}))
    assert main(["--format", "machine", "semantics", ex52_path,
                 "--kind", "limavg", "--cutset", "X,Y",
                 "--gamma0", str(table)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unique"


def test_bad_cutset_exit(ex52_path, capsys):
    doc = json.loads(EX52)
    assert main(["chain", ex52_path, "--cutset", "Q"]) == 1


def test_bad_gamma0_exit(tmp_path, ex52_path, capsys):
    assert main(["semantics", ex52_path, "--kind", "lim",
                 "--cutset", "X,Y", "--gamma0", "dirac:1"]) == 1
    table = tmp_path / "gamma.json"
    table.write_text('["1", "0", "0", "0"]')
    assert main(["semantics", ex52_path, "--kind", "lim",
                 "--cutset", "X,Y", "--gamma0", str(table)]) == 1


def test_zero_denominator_is_one_line_error(tmp_path):
    p = tmp_path / "zero.gbn"
    p.write_text(EX52.replace('"1/4"', '"1/0"'))
    src = os.path.dirname(os.path.dirname(cyclebn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["validate", str(p)], ["chain", str(p), "--cutset", "X,Y"]):
        proc = subprocess.run([sys.executable, "-m", "cyclebn.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "1/0" in proc.stderr


@pytest.mark.parametrize("literal", ["1e-99999", "1e-100000000"])
def test_huge_decimal_exponent_is_one_parse_error(tmp_path, literal):
    p = tmp_path / "exponent.gbn"
    p.write_text(EX52.replace('"1/4"', f'"{literal}"'))
    src = os.path.dirname(os.path.dirname(cyclebn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "cyclebn.cli", "validate", str(p)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stdout.splitlines() if "ParseError" in line] \
        == ["  kind: ParseError"]
    assert literal in proc.stdout


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python without the int-string digit cap")
def test_exact_answers_longer_than_the_digit_cap_print(tmp_path, capsys):
    q = "7" * 1500
    doc = {"variables": ["A", "B", "C"], "edges": [["A", "B"], ["B", "C"]],
           "cpts": {"B": {"parents": ["A"], "rows": {"0": f"1/{q}", "1": "1/2"}},
                    "C": {"parents": ["B"], "rows": {"0": f"1/{q}", "1": "1/3"}}},
           "iota": {"0": f"1/{q}", "1": f"{int(q) - 1}/{q}"}}
    p = tmp_path / "long.gbn"
    p.write_text(json.dumps(doc))
    limit = sys.get_int_max_str_digits()
    assert main(["--format", "machine", "semantics", str(p), "--kind", "bn"]) == 0
    assert sys.get_int_max_str_digits() == limit
    texts = json.loads(capsys.readouterr().out)["distributions"][0]["probs"]
    sys.set_int_max_str_digits(0)
    try:
        probs = [Fraction(t) for t in texts]
        longest = max(len(str(x.denominator)) for x in probs)
    finally:
        sys.set_int_max_str_digits(limit)
    assert longest > limit
    assert sum(probs) == 1


def _tables_as_text(value):
    if type(value) is _Table:
        return [str(Fraction(p, value.den)) for p in value.nums]
    if isinstance(value, dict):
        return {k: _tables_as_text(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_tables_as_text(v) for v in value]
    return value


STRINGS = (st.text(max_size=6)
           | st.text(alphabet=st.characters(max_codepoint=0x1f), max_size=4)
           | st.text(alphabet="aé中\U0001f600\"\\/\x7f ", max_size=6))
WRITER_SCALARS = (st.none() | st.booleans() | st.integers() | STRINGS
                  | st.lists(st.fractions(), min_size=1, max_size=4).map(
                      lambda qs: _Table(*scaled(qs)))
                  | st.integers(4301, 4400).map(lambda d: 10 ** d - 1)
                  | st.integers(4301, 4400).map(lambda d: 1 - 10 ** d))
WRITER_VALUES = st.recursive(
    WRITER_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=24)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python without the int-string digit cap")
@settings(deadline=None)
@given(WRITER_VALUES)
def test_machine_writer_matches_json_dumps_layout(value):
    # main lifts the digit cap around the output; do the same here
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert _json_text(value) == json.dumps(_tables_as_text(value), indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


@st.composite
def long_distributions(draw):
    """A distribution over 0-2 variables whose numerators and common
    denominator have up to 4,400 digits, given to the trusted
    constructor scaled by a common factor."""
    width = draw(st.integers(0, 2))
    n = 1 << width
    den = draw(st.integers(1, 10 ** 4400)
               | st.integers(4301, 4400).map(lambda d: 10 ** d - 1)
               | st.integers(1, 60))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=n - 1,
                                max_size=n - 1)))
    nums = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    k = draw(st.integers(1, 12))
    return JointDistribution._of_table(
        ("X", "Y")[:width], [k * p for p in nums], k * den)


def _pretty_text(value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _pretty(value, indent=0)
    return out.getvalue()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python without the int-string digit cap")
@settings(deadline=None)
@given(long_distributions())
def test_distributions_write_as_their_fractions(d):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        texts = [str(p) for p in d.probs]
        result = {"command": "semantics", "distributions": [_vector_out(d)]}
        as_text = {"command": "semantics", "distributions": [
            {"variables": list(d.variables),
             "assignment_order": _bit_keys(d.variables), "probs": texts}]}
        assert _json_text(result) == json.dumps(as_text, indent=2)
        pretty = _pretty_text(result)
        assert pretty == _pretty_text(as_text)
        assert "  probs: " + " ".join(texts) + "\n" in pretty
    finally:
        sys.set_int_max_str_digits(limit)


def test_chain_matrix_writes_as_its_fractions(ex52_path, fig1_path):
    for path, cut in ((ex52_path, ("X", "Y")), (fig1_path, ("X",)),
                      (fig1_path, ("X", "Y"))):
        mc = cutset_mc(_load(path), cut)
        texts = [[str(x) for x in row] for row in mc.matrix]
        assert any("/" in t for row in texts for t in row)
        out = _chain_out(mc)
        assert _json_text(out) == json.dumps(dict(out, matrix=texts), indent=2)
        assert _pretty_text(out) == _pretty_text(dict(out, matrix=texts))


@st.composite
def cutset_listings(draw):
    """Distinct names and rows of them: an empty first row or none, then
    nonempty rows, as few as one."""
    names = draw(st.lists(STRINGS, unique=True, max_size=5))
    rows = [()] if draw(st.booleans()) or not names else []
    if names:
        rows += draw(st.lists(
            st.lists(st.sampled_from(names), min_size=1, unique=True).map(tuple),
            min_size=not rows, max_size=5))
    return tuple(names), rows


@settings(deadline=None)
@given(cutset_listings(), st.booleans())
def test_cutset_listing_writes_as_its_tuples(listing, minimal):
    names, rows = listing
    result = {"command": "cutsets", "minimal": minimal,
              "cutsets": _Cutsets(rows, names)}
    plain = dict(result, cutsets=rows)
    assert _json_text(result) == json.dumps(plain, indent=2)
    assert _json_text([result]) == json.dumps([plain], indent=2)
    assert _pretty_text(result) == _pretty_text(plain)


def test_cutset_listing_edge_cases():
    for rows in ([()], [("a",)], [(), ("a\"b",)], [("\x01", "é")]):
        names = tuple({v for row in rows for v in row})
        result = {"cutsets": _Cutsets(rows, names)}
        assert _json_text(result) == json.dumps({"cutsets": rows}, indent=2)
        assert _pretty_text(result) == _pretty_text({"cutsets": rows})


def test_bit_keys_put_the_first_variable_leftmost():
    for n in range(7):
        assert _bit_keys("ABCDEFG"[:n]) == [
            format(i, f"0{n}b") if n else "" for i in range(1 << n)]
    assert _bit_keys(("P", "Q")) == ["00", "01", "10", "11"]


@pytest.mark.parametrize("value", [0.5, {1, 2}, frozenset(), b"x", 1j,
                                   [Fraction(1, 2), 0.5], {"a": (1, {2})}])
def test_machine_writer_refuses_unsupported_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


def _fig1_with(**changes):
    doc = json.loads(FIG1)
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc", [
    _fig1_with(variables="XY"),
    _fig1_with(variables=[1, 2]),
    _fig1_with(edges=[["X", "Y", "X"]]),
    _fig1_with(edges=[["X", 1]]),
    _fig1_with(edges={"X": "Y"}),
    _fig1_with(cpts=[["X", "Y"]]),
    _fig1_with(iota=["1"]),
    _fig1_with(cpts={"X": "3/4",
                     "Y": {"parents": ["X"], "rows": {"0": "1", "1": "0"}}}),
    _fig1_with(cpts={"X": {"parents": "Y", "rows": {"0": "1", "1": "0"}},
                     "Y": {"parents": ["X"], "rows": {"0": "1", "1": "0"}}}),
    _fig1_with(cpts={"X": {"parents": ["Y"], "rows": ["1", "0"]},
                     "Y": {"parents": ["X"], "rows": {"0": "1", "1": "0"}}}),
], ids=["variables-string", "variables-ints", "edge-triple", "edge-int",
        "edges-object", "cpts-list", "iota-list", "cpt-string",
        "parents-string", "rows-list"])
def test_document_types_are_strict(tmp_path, capsys, doc):
    p = tmp_path / "bad.gbn"
    p.write_text(json.dumps(doc))
    assert main(["chain", str(p), "--cutset", "X"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ParseError")


def test_closed_stdout_is_quiet(ex52_path):
    src = os.path.dirname(os.path.dirname(cyclebn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cyclebn.cli", "--format", "machine",
             "chain", ex52_path, "--cutset", "X,Y"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_dsep_unknown_node_exit(fig1_path, capsys):
    assert main(["dsep", fig1_path, "--x", "X", "--y", "Q"]) == 1
    assert "Q" in capsys.readouterr().err


CYCLE3 = json.dumps({
    "variables": ["A", "B", "C"],
    "edges": [["A", "B"], ["B", "C"], ["C", "A"]],
    "cpts": {x: {"parents": [p], "rows": {"0": "1/2", "1": "1/3"}}
             for x, p in (("A", "C"), ("B", "A"), ("C", "B"))},
    "iota": {"": "1"}})


def _fresh_run(argv, **env_changes):
    """(exit code, stdout, stderr) of the command in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cyclebn.__file__))
    env = dict(os.environ, PYTHONPATH=src, **env_changes)
    proc = subprocess.run([sys.executable, "-m", "cyclebn.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_cutsets_output_does_not_depend_on_hash_seed(tmp_path):
    p = tmp_path / "cycle3.gbn"
    p.write_text(CYCLE3)
    for fmt in ("pretty", "machine"):
        argv = ["--format", fmt, "cutsets", str(p)]
        runs = [_fresh_run(argv, PYTHONHASHSEED=seed) for seed in ("1", "3")]
        assert runs[0][0] == 0
        assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["cutsets"] == [
        ["A"], ["B"], ["C"], ["A", "B"], ["A", "C"], ["B", "C"], ["A", "B", "C"]]


UNKNOWN_EDGES = json.dumps({
    "variables": ["X", "Y"],
    "edges": [["X", "Y"], ["Y", "X"], ["X", "Q1"], ["X", "Q2"], ["Q3", "Y"],
              ["Q4", "X"]],
    "cpts": {"X": {"parents": ["Y"], "rows": {"0": "1/2", "1": "1/3"}},
             "Y": {"parents": ["X"], "rows": {"0": "1/2", "1": "1/3"}}},
    "iota": {"": "1"}})


def test_validate_output_does_not_depend_on_hash_seed(tmp_path):
    p = tmp_path / "unknown.gbn"
    p.write_text(UNKNOWN_EDGES)
    for fmt in ("pretty", "machine"):
        argv = ["--format", fmt, "validate", str(p)]
        runs = [_fresh_run(argv, PYTHONHASHSEED=seed) for seed in ("1", "2", "3")]
        assert runs[0][0] == 1
        assert runs[0] == runs[1] == runs[2]
    messages = [v["message"] for v in json.loads(runs[0][1])["violations"]]
    assert messages[:4] == [f"edge ({u}, {v}) references unknown node" for u, v in
                            (("Q3", "Y"), ("Q4", "X"), ("X", "Q1"), ("X", "Q2"))]


def test_reused_parser_answers_as_a_fresh_process(tmp_path, monkeypatch, capsys):
    # usage lines wrap at the terminal width: fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    p = tmp_path / "cycle3.gbn"
    p.write_text(CYCLE3)
    queries = [["cutsets"],
               ["--format", "machine", "dsep", str(p), "--x", "A", "--y", "B",
                "--given", "C"],
               ["--format", "machine", "cutsets", str(p), "--minimal"]]
    codes = []
    for argv in queries:
        try:
            codes.append(main(argv))
        except SystemExit as e:          # argparse rejects the arguments
            codes.append(e.code)
        out = capsys.readouterr()
        assert (codes[-1], out.out, out.err) == _fresh_run(argv, COLUMNS="80")
    assert codes == [2, 0, 0]


@pytest.mark.parametrize("command", ["chain", "classify"])
def test_duplicate_cutset_names_exit_1(ex52_path, capsys, command):
    assert main(["--format", "machine", command, ex52_path,
                 "--cutset", "X,X"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: duplicate variable names: ('X', 'X')\n"


def _isolated(n):
    return {"variables": [f"V{i:02d}" for i in range(n)], "edges": [],
            "cpts": {}}


@pytest.mark.parametrize("doc", [
    _isolated(64),
    _isolated(40),
    _isolated(21),
    {"variables": ["X"], "edges": [], "cpts": {"X": {
        "parents": [f"P{i:02d}" for i in range(64)], "rows": {}}}},
], ids=["64-isolated", "40-initial", "21-variables", "64-parents"])
def test_oversized_document_is_refused_before_allocation(tmp_path, doc):
    p = tmp_path / "big.gbn"
    p.write_text(json.dumps(doc))
    code, out, err = _fresh_run(["validate", str(p)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: capacity: ")
    assert "Traceback" not in err


def test_oversized_dirac_start_is_refused(ex52_path):
    names = ",".join(f"V{i:02d}" for i in range(64))
    code, _, err = _fresh_run(["semantics", ex52_path, "--kind", "lim",
                               "--cutset", names, "--gamma0", "dirac:" + "0" * 64])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: capacity: ")


def _ring(n):
    names = [f"R{i:02d}" for i in range(n)]
    return {"variables": names,
            "edges": [[names[i - 1], v] for i, v in enumerate(names)],
            "cpts": {v: {"parents": [names[i - 1]],
                         "rows": {"0": "1/3", "1": "3/4"}}
                     for i, v in enumerate(names)},
            "iota": {"": "1"}}


@pytest.mark.parametrize("gamma0", ["uniform", "/nonexistent/gamma.json"])
def test_oversized_cutset_is_refused_before_the_start_is_read(
        tmp_path, capsys, gamma0):
    doc = _ring(18)
    p = tmp_path / "ring18.gbn"
    p.write_text(json.dumps(doc))
    names = ",".join(doc["variables"])
    assert main(["chain", str(p), "--cutset", names]) == 2
    refusal = capsys.readouterr()
    for kind in ("lim", "limavg"):
        assert main(["semantics", str(p), "--kind", kind, "--cutset", names,
                     "--gamma0", gamma0]) == 2
        assert capsys.readouterr() == refusal


def test_mc_does_not_read_the_start(ex52_path, capsys):
    assert main(["--format", "machine", "semantics", ex52_path,
                 "--kind", "mc", "--cutset", "X,Y",
                 "--gamma0", "/nonexistent/gamma.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distributions"][0]["probs"] == \
        ["48/121", "18/121", "40/121", "15/121"]


def test_missing_keys_message_is_capped():
    doc = dict(_isolated(12), iota={"0" * 12: "1"})
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(doc))
    [violation] = info.value.violations
    assert violation.message.endswith("'000000001000'] and 4087 more")


@pytest.mark.parametrize("command, options", [
    ("chain", []),
    ("classify", []),
    ("semantics", ["--kind", "mc"]),
    ("semantics", ["--kind", "lim", "--gamma0", "dirac:10"]),
    ("semantics", ["--kind", "limavg", "--gamma0", "dirac:10"]),
    ("oracle iterate", ["--steps", "2", "--gamma0", "dirac:10"]),
], ids=["chain", "classify", "mc", "lim", "limavg", "oracle-iterate"])
def test_cutset_is_printed_sorted_whatever_its_order(ex52_path, capsys,
                                                     command, options):
    outs = []
    for cut in ("Y,X", "X,Y"):
        assert main(["--format", "machine", *command.split(), ex52_path,
                     "--cutset", cut, *options]) == 0
        outs.append(capsys.readouterr().out)
    assert json.loads(outs[0])["cutset"] == ["X", "Y"]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["semantics", "--kind", "mc"],
    ["semantics", "--kind", "lim"],
    ["semantics", "--kind", "limavg"],
    ["chain"],
    ["classify"],
], ids=["mc", "lim", "limavg", "chain", "classify"])
def test_chain_query_scans_the_network_once(ex52_path, capsys, monkeypatch,
                                            argv):
    scan = Gbn.__dict__["_violations"].func
    scanned = []

    def counted(g):
        scanned.append(g)
        return scan(g)

    prop = functools.cached_property(counted)
    prop.__set_name__(Gbn, "_violations")
    monkeypatch.setattr(Gbn, "_violations", prop)
    assert main([argv[0], ex52_path, *argv[1:], "--cutset", "X,Y"]) == 0
    assert len(scanned) == 1


# X and Y copy each other, so the chain at {X, Y} has three bottom
# components: {00}, {11} and {01, 10}.
SWAP = json.dumps({
    "variables": ["X", "Y"],
    "edges": [["X", "Y"], ["Y", "X"]],
    "cpts": {x: {"parents": [p], "rows": {"0": "0", "1": "1"}}
             for x, p in (("X", "Y"), ("Y", "X"))},
    "iota": {"": "1"}})


def _count_calls(monkeypatch, module, names, calls):
    """Wrap each function ``module.<name>`` so that a call appends
    ``(name, *ints)``, the integer arguments being a plan's targets."""
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls.append((_name, *(a for a in args if type(a) is int)))
            return _original(*args)
        monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("kind", ["mc", "lim", "limavg"])
def test_chain_semantics_extends_in_one_elimination(tmp_path, capsys, monkeypatch,
                                                    kind):
    p = tmp_path / "swap.gbn"
    p.write_text(SWAP)
    assert len(cutset_mc(_load(str(p)), ("X", "Y")).bsccs) == 3
    calls = []
    _count_calls(monkeypatch, chainmod,
                 ("cutset_mc", "_layout", "_build_plan", "_forward_eliminate"), calls)
    assert main(["--format", "machine", "semantics", str(p), "--kind", kind,
                 "--cutset", "X,Y"]) == 0
    # bits: X' 8, Y' 4, X 2, Y 1; one compile and one layout, the
    # extension plan (the cutset test), the rows, which build their plan,
    # and one extension
    rows, nodes = 0b1100, 0b0011
    assert calls == [("cutset_mc",), ("_layout",), ("_build_plan", nodes),
                     ("_forward_eliminate", rows), ("_build_plan", rows),
                     ("_forward_eliminate", nodes)]
    out = json.loads(capsys.readouterr().out)
    assert len(out["distributions"]) == (3 if kind == "mc" else 1)


def test_cpti_compiles_its_chains_without_a_digraph(ex52_path, monkeypatch):
    # the default cutsets, {X} and {Y}, come from one DiGraph; each chain
    # checks its cutset on its own extension plan
    built = []
    original = chainmod.graphmod.DiGraph.__init__

    def counted(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(chainmod.graphmod.DiGraph, "__init__", counted)
    calls = []
    _count_calls(monkeypatch, cyclebn.constraints, ("cutset_mc",), calls)
    assert main(["--format", "machine", "semantics", ex52_path,
                 "--kind", "cpti"]) == 0
    assert calls == [("cutset_mc",)] * 2 and len(built) == 1


@pytest.mark.parametrize("command", ["chain", "classify"])
def test_chain_commands_refuse_a_cycle_off_the_cut_that_no_row_reads(
        tmp_path, capsys, command):
    # X <-> Y is cut at X; the cycle Z <-> W hangs below it, so no node
    # of the row plan lies on it, and only the extension plan sees it
    doc = {"variables": ["W", "X", "Y", "Z"],
           "edges": [["X", "Y"], ["Y", "X"], ["X", "Z"], ["Z", "W"], ["W", "Z"]],
           "cpts": {"X": {"parents": ["Y"], "rows": {"0": "1/2", "1": "1/3"}},
                    "Y": {"parents": ["X"], "rows": {"0": "1/4", "1": "1"}},
                    "Z": {"parents": ["W", "X"],
                          "rows": {"00": "1/2", "01": "1", "10": "0", "11": "1/5"}},
                    "W": {"parents": ["Z"], "rows": {"0": "1/3", "1": "2/3"}}},
           "iota": {"": "1"}}
    p = tmp_path / "below.gbn"
    p.write_text(json.dumps(doc))
    assert main([command, str(p), "--cutset", "X"]) == 1
    assert capsys.readouterr().err == "error: ['X'] is not a cutset\n"
    assert main([command, str(p), "--cutset", "X,Z"]) == 0
