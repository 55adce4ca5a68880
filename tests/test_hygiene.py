"""Source checks over the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclebn"


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
    # constraints.py builds from LP integers divide with ``//`` and
    # build rationals with ``Fraction(num, den)``.
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


#: The standard-library modules that the package imports at module level.
#: Every command-line call imports ``cyclebn.cli`` and pays for each, so
#: a new one must be added here by name.
TOP_LEVEL_IMPORTS = {"__future__", "argparse", "collections.abc", "fractions",
                     "functools", "itertools", "json", "json.encoder", "math",
                     "operator", "os", "re", "sys"}


def test_top_level_imports_are_pinned():
    found = set()
    for name, tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.Import):
                found |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module)
    assert found == TOP_LEVEL_IMPORTS, (f"new: {sorted(found - TOP_LEVEL_IMPORTS)}, "
                                        f"gone: {sorted(TOP_LEVEL_IMPORTS - found)}")


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


def test_every_module_function_has_a_caller_outside_tests():
    # Code that only the tests call belongs in the tests.  A function is
    # read by name (a load or an attribute) in the package, ``__init__``
    # aside, or in the benchmark under ``perfbench/``.  ``oracle`` holds
    # the brute-force references, which are read by the tests.
    perfbench = PACKAGE.parents[1] / "perfbench"
    readers = [tree for name, tree in _trees() if name != "__init__.py"]
    readers += [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                for path in sorted(perfbench.glob("*.py"))]
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = [f"{name[:-3]}.{node.name}" for name, tree in _trees()
             if name not in ("__init__.py", "oracle.py")
             for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name not in read]
    assert not found, f"functions only the tests call: {', '.join(found)}"
