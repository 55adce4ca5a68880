"""Command-line interface: document parsing, subcommands, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import cyclebn
from cyclebn.cli import (DocumentError, main, parse_document,
                         serialize_document)

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
