"""Source checks over the package itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclebn"
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _trees():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in sources]


def test_no_assert_statements_in_package():
    # Invariants raise explicit errors: ``python -O`` strips asserts.
    found = [f"{name}:{node.lineno}"
             for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def test_no_floats_in_package():
    # Everything is exact: no float literal and no call to ``float``.
    found = [f"{name}:{node.lineno}"
             for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "float"]
    assert not found, f"floats in the package: {', '.join(found)}"


@pytest.mark.parametrize("module", ["linalg.py", "chain.py", "graph.py",
                                    "model.py", "cli.py", "constraints.py"])
def test_no_true_division(module):
    # ``int / int`` is a float: the integer kernel of linalg.py, the
    # integer chain rows of chain.py, the index arithmetic of graph.py,
    # the integer tables of model.py and cli.py and the answers that
    # constraints.py builds from LP integers divide with ``//`` and keep
    # rationals as integer numerators over a denominator.
    [tree] = [tree for name, tree in _trees() if name == module]
    found = [str(node.lineno) for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.Div)]
    assert not found, f"true division in {module} at lines {', '.join(found)}"


def test_stdlib_only_imports():
    # The package runs on the standard library alone; relative imports
    # name its own modules.
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno} {module}" for module in modules
                      if module.partition(".")[0] not in sys.stdlib_module_names]
    assert not found, f"imports outside the standard library: {', '.join(found)}"


#: The standard-library modules that the production modules (all but
#: ``oracle``) import at module level.  Every command-line call imports
#: ``cyclebn.cli`` and with it each of these, so a new one must be added
#: here by name.  ``fractions`` is not one: it loads ``decimal`` and
#: ``numbers`` too, and no command of the benchmark's workloads builds a
#: ``Fraction``, so the few places that do import it where they build one.
TOP_LEVEL_IMPORTS = {"__future__", "argparse", "collections.abc", "functools",
                     "itertools", "json", "json.encoder", "math", "operator",
                     "os", "re", "sys"}

#: What ``oracle`` may import at module level besides: it loads on first
#: use only, and computes in ``Fraction``s.
ORACLE_TOP_LEVEL_IMPORTS = {"fractions"}


def test_top_level_imports_are_pinned():
    production, oracle = {}, {}
    for name, tree in _trees():
        found = oracle if name == "oracle.py" else production
        for node in tree.body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                found.setdefault(module, []).append(name)
    new = sorted(f"{name}: {module}" for module, names in production.items()
                 if module not in TOP_LEVEL_IMPORTS for name in names)
    assert not new, f"new top-level imports: {new}"
    assert set(production) == TOP_LEVEL_IMPORTS, \
        f"gone: {sorted(TOP_LEVEL_IMPORTS - set(production))}"
    assert set(oracle) - TOP_LEVEL_IMPORTS == ORACLE_TOP_LEVEL_IMPORTS, \
        f"oracle.py imports {sorted(oracle)}"


def _imported_modules(node):
    """Dotted names an import statement may bind, relative ones without
    their leading dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
    return []


def test_no_unused_imports():
    # Every name an import binds in a module is read there; ``__init__``
    # re-exports what it imports, and ``__future__`` binds nothing.
    found = []
    for name, tree in _trees():
        if name == "__init__.py":
            continue
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{name}:{line} {alias}" for alias, line in bound.items()
                  if alias not in read]
    assert not found, f"unused imports: {', '.join(found)}"


def test_only_init_and_cli_import_oracle():
    # The brute-force references stay out of the compiled routes:
    # ``__init__`` re-exports them and ``cli`` runs ``oracle iterate``.
    found = [f"{name}:{node.lineno}"
             for name, tree in _trees()
             if name not in ("__init__.py", "cli.py")
             for node in ast.walk(tree)
             if any("oracle" in module.split(".")
                    for module in _imported_modules(node))]
    assert not found, f"oracle imported by: {', '.join(found)}"


def test_cli_import_loads_no_introspection_and_no_oracle():
    # Every command-line call pays for ``import cyclebn.cli``: the value
    # types need neither ``dataclasses`` (with ``inspect`` and ``ast``)
    # nor ``typing``, and the oracles load on first use.  ``-S`` keeps
    # site hooks from preloading any of them.
    code = ("import sys, cyclebn.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'typing', "
            "'cyclebn.oracle') if m in sys.modules)); "
            "from cyclebn import power_iteration; print(power_iteration.__module__)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\ncyclebn.oracle\n"


#: ``fractions`` and what it loads.  No command of the benchmark's
#: workloads builds a ``Fraction``, so a command-line call never pays for
#: them.
FRACTION_MODULES = ("_decimal", "decimal", "fractions", "numbers")

_FOOTPRINT = """\
import sys
import cyclebn.cli
print(sorted(m for m in {heavy!r} if m in sys.modules))
print(sorted(m for m in {needed!r} if m not in sys.modules))
import json, os
with open(sys.argv[1], encoding="utf-8") as fh:
    queries = json.load(fh)
with open(os.devnull, "w", encoding="utf-8") as sink:
    sys.stdout = sink
    codes = [cyclebn.cli.main(q) for q in queries]
    sys.stdout = sys.__stdout__
print(sorted(set(codes)))
print(sorted(m for m in {heavy!r} if m in sys.modules))
"""


def _command_shapes(tmp_path) -> list[list[str]]:
    """Argument lists of every command shape the benchmark's workloads
    run, on one document of each stratum and on the paper's examples,
    plus ``bn`` (acyclic and cyclic), ``cpti`` and ``lim``/``limavg`` from
    both kinds of start, each in both output formats."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import gen
    items = [item for w in gen.WORKLOADS for item in gen.paper_items(w)
             + [gen.pool_item(w, stratum, 0) for stratum in gen.STRATA[w]]]
    docs = [(item.doc, item.queries) for item in items]
    acyclic = json.dumps({"variables": ["A", "B"], "edges": [["A", "B"]],
                          "cpts": {"B": {"parents": ["A"],
                                         "rows": {"0": "1/3", "1": "3/4"}}},
                          "iota": {"0": "1/2", "1": "1/2"}})
    docs.append((acyclic, [("semantics", "{doc}", "--kind", "bn")]))
    shapes = [("semantics", "{doc}", "--kind", kind)
              for kind in ("bn", "cpt", "wcpt", "cpti", "mc")]
    shapes += [("semantics", "{doc}", "--kind", kind, "--gamma0", start)
               for kind in ("lim", "limavg") for start in ("uniform", "dirac:10")]
    shapes += [("chain", "{doc}", "--cutset", "X"), ("classify", "{doc}")]
    docs.append((gen.two_cycle("1/4", "1", "1/2", "0"), shapes))
    queries = []
    for i, (doc, shapes) in enumerate(docs):
        path = tmp_path / f"doc{i}.json"
        path.write_text(doc, encoding="utf-8")
        for shape in shapes:
            args = [str(path) if a == "{doc}" else a for a in shape]
            if args[0] == "--format":
                args = args[2:]
            queries += [["--format", "machine", *args], ["--format", "pretty", *args]]
    return queries


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_cli_commands_load_no_fractions(tmp_path, flags):
    # In a fresh interpreter ``import cyclebn.cli`` loads neither
    # ``fractions`` nor ``decimal``, yet everything a command needs:
    # ``argparse``, ``json`` and every package module but the oracles, so
    # no work moves into a first query.  Nor does running every command
    # shape of the benchmark's workloads load them.
    commands = _command_shapes(tmp_path)
    queries = tmp_path / "queries.json"
    queries.write_text(json.dumps(commands), encoding="utf-8")
    needed = ["argparse", "json", "cyclebn"] + sorted(
        f"cyclebn.{path.stem}" for path in PACKAGE.glob("*.py")
        if path.stem not in ("__init__", "oracle"))
    code = _FOOTPRINT.format(heavy=FRACTION_MODULES, needed=tuple(needed))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, *flags, "-c", code, str(queries)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["[]", "[]", "[0]", "[]"]
    assert len(commands) > 100


def _reads() -> tuple[set[str], set[str]]:
    """Names loaded and attribute names read in the package, ``__init__``
    aside, and in the benchmark under ``perfbench/``."""
    readers = [tree for name, tree in _trees() if name != "__init__.py"]
    readers += [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                for path in sorted(PERFBENCH.glob("*.py"))]
    names, attrs = set(), set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_every_module_function_has_a_caller_outside_tests():
    # Code that only the tests call belongs in the tests.  A function is
    # read by name (a load or an attribute) in the package, ``__init__``
    # aside, or in the benchmark under ``perfbench/``.  ``oracle`` holds
    # the brute-force references, which are read by the tests.
    read = set().union(*_reads())
    found = [f"{name[:-3]}.{node.name}" for name, tree in _trees()
             if name not in ("__init__.py", "oracle.py")
             for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name not in read]
    assert not found, f"functions only the tests call: {', '.join(found)}"


def test_every_method_has_a_caller_outside_tests():
    # The same rule for the methods and properties of the production
    # classes: each is read by attribute name in the package or the
    # benchmark.  Dunders are called by the language.
    _, attrs = _reads()
    found = [f"{name[:-3]}.{cls.name}.{node.name}" for name, tree in _trees()
             if name not in ("__init__.py", "oracle.py")
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body
             if isinstance(node, ast.FunctionDef)
             and not (node.name.startswith("__") and node.name.endswith("__"))
             and node.name not in attrs]
    assert not found, f"methods only the tests call: {', '.join(found)}"
