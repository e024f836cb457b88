"""Start-up: each command loads only the package modules it runs; the
closed-form commands import neither numpy, the thread pool, ``dataclasses``
nor ``inspect``, nor (in a bare interpreter) ``pathlib`` or ``typing``; no
command imports click; and the library modules import each other only at
module level, while the package root and ``cli`` load them on demand."""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import invoke

import rfpcompare
from rfpcompare import TESSELLATING_KINDS, LayoutKind, cli

# Imports the package and the CLI, runs one command in-process, and prints
# which of the modules it watches got loaded on the way, and which of the
# package's own.
CHILD = """
import json, sys
import rfpcompare, rfpcompare.cli
try:
    code = rfpcompare.cli.main(sys.argv[1:], standalone_mode=False)
except SystemExit as exc:
    code = exc.code
watched = ["numpy", "concurrent.futures", "click", "dataclasses", "inspect", "pathlib", "typing"]
package = sorted(name[len("rfpcompare."):] for name in sys.modules if name.startswith("rfpcompare."))
print(json.dumps({"code": code, "package": package, **{name: name in sys.modules for name in watched}}))
"""

COMPARE = ["compare", "--scenario", "S2", "--all-layouts"]
SWEEP = ["sweep", "--scenario", "S5", "--layout", "hexagonal",
         "--beta-start", "0.05", "--beta-end", "0.1", "--beta-step", "0.01"]
SIMULATE = ["simulate", "--layout", "hexagonal", "--resolution", "25"]

#: The package's modules besides its root, as ``sys.modules`` names them.
MODULES = sorted(path.stem for path in Path(rfpcompare.__file__).parent.glob("*.py")
                 if path.stem != "__init__")
#: What every scenario command loads: the CLI and the scenario's value types.
SCENARIO_MODULES = ["_record", "cli", "errors", "geometry", "propagation", "scenarios"]


def run_child(argv: list[str], cwd: Path, env: dict[str, str]) -> dict:
    """Run CHILD and return its report, after checking the command succeeded."""
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    assert report["code"] in (None, 0)
    return report


@pytest.mark.parametrize("args,loads_arrays", [
    (COMPARE, False),
    (SWEEP, False),
    (["--version"], False),
    # Positive control: the field simulator does load both, so the checks
    # above can fail.
    (SIMULATE, True),
], ids=["compare", "sweep", "version", "simulate"])
def test_numpy_is_imported_only_by_the_array_commands(tmp_path, child_env, args, loads_arrays):
    """numpy and ``concurrent.futures`` (the field kernel's thread pool) load
    only for the array commands; click loads for none. The closed-form
    commands load neither ``dataclasses`` nor the ``inspect`` it pulls in:
    the package's records are built without them."""
    report = run_child([sys.executable, "-c", CHILD, *args], tmp_path, child_env)
    assert report["numpy"] is loads_arrays
    assert report["concurrent.futures"] is loads_arrays
    assert report["click"] is False
    if not loads_arrays:
        assert report["dataclasses"] is False
        assert report["inspect"] is False


@pytest.mark.parametrize("args", [COMPARE, ["--version"]], ids=["compare", "version"])
def test_a_bare_interpreter_does_not_import_pathlib(tmp_path, child_env, args):
    """Without the site hooks (``-S``), which may load pathlib and typing
    themselves, the closed-form commands import neither: scenario files are
    read with ``open``, and annotations stay unevaluated strings."""
    report = run_child([sys.executable, "-S", "-c", CHILD, *args], tmp_path, child_env)
    assert report["pathlib"] is False
    assert report["typing"] is False


@pytest.mark.parametrize("args,loaded", [
    (["--version"], ["cli"]),
    (COMPARE, sorted(SCENARIO_MODULES + ["comparison"])),
    (SWEEP, sorted(SCENARIO_MODULES + ["comparison"])),
    (SIMULATE, sorted(SCENARIO_MODULES + ["gridsim"])),
    (["validate", "--samples", "1000"], [m for m in MODULES if m != "__main__"]),
], ids=["version", "compare", "sweep", "simulate", "validate"])
def test_each_command_loads_only_the_package_modules_it_runs(tmp_path, child_env, args, loaded):
    """Without cached bytecode a process compiles every module it imports, so
    ``--version`` loads no library module, ``compare`` and ``sweep`` neither the
    field simulator nor the self-check, ``simulate`` not the comparison, and
    only ``validate`` all nine."""
    report = run_child([sys.executable, "-c", CHILD, *args], tmp_path, child_env)
    assert report["package"] == loaded


def test_a_binding_set_before_the_first_command_is_kept(tmp_path, child_env):
    """The commands bind their library names on first use without replacing
    one already set, so a wrapper put in ``cli`` first is the one called."""
    script = """
import sys
from rfpcompare import cli, gridsim
calls = []
def counting(*args, **kwargs):
    calls.append(args)
    return gridsim.compute_field(*args, **kwargs)
cli.compute_field = counting
cli.main(sys.argv[1:])
print(len(calls))
"""
    proc = subprocess.run([sys.executable, "-c", script, *SIMULATE], cwd=tmp_path, env=child_env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "1"


def test_a_deleted_binding_stays_deleted(monkeypatch):
    """A library name is bound on its first lookup, but not again after it
    was deleted: the benchmark's negative control deletes one to show that a
    traced run names a missing function."""
    monkeypatch.delattr(cli, "compute_field")
    assert not hasattr(cli, "compute_field")


def test_layout_choices_are_the_layout_kinds():
    """The parser's layout choices are literals, so that it needs no library
    module; they are the values of ``LayoutKind``."""
    assert list(cli._TESSELLATING_CHOICE) == [k.value for k in TESSELLATING_KINDS]
    assert list(cli._LAYOUT_CHOICE) == [k.value for k in LayoutKind]
    assert "{highway,square,hexagonal,circle}" in invoke("simulate", "--help").stdout


def traced_targets() -> list[tuple[str, str, str]]:
    """``TARGETS`` of ``benchmarks/tracing.py``, read from its source: the
    (calling module, function name, span name) of each traced binding."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return list(ast.literal_eval(node.value))
    raise LookupError(f"{path} assigns no TARGETS")


# The benchmark's traced mode wraps these functions by rebinding them in the
# namespace that calls them. So the calling modules must import them at module
# level, not inside a command body, or the wrapper would be bypassed.
CALLER_BINDINGS = [(caller, name) for caller, name, _ in traced_targets()]


@pytest.mark.parametrize("caller,name", CALLER_BINDINGS,
                         ids=[f"{caller}.{name}" for caller, name in CALLER_BINDINGS])
def test_layer_functions_stay_bound_at_module_level(caller, name):
    """The caller's binding is the function its defining module holds."""
    fn = getattr(importlib.import_module(caller), name)
    assert fn.__module__.startswith("rfpcompare.")
    assert getattr(sys.modules[fn.__module__], name) is fn


#: The functions that may load a sibling module on demand, by file: the
#: package's name lookup and the CLI's loader.
ON_DEMAND_LOADERS = [("__init__.py", "__getattr__"), ("cli.py", "_load")]


def loads_a_sibling(node: ast.AST) -> bool:
    """Whether ``node`` imports a module of the package: a relative or an
    ``rfpcompare`` import, or a call of ``import_module`` or ``__import__``."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "rfpcompare"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "rfpcompare" for alias in node.names)
    if isinstance(node, ast.Call):
        callee = node.func
        return getattr(callee, "attr", getattr(callee, "id", None)) in ("import_module", "__import__")
    return False


def test_no_function_imports_a_sibling_module():
    """The library modules import each other at module level only, so a cycle
    between them fails at import time instead of hiding in a function body.
    Only the package's ``__getattr__`` and ``cli._load`` load modules on
    demand, so that a command imports only what it runs. Function-level
    imports stay for numpy, ``concurrent.futures`` and ``json``, which are not
    siblings."""
    loaders = set()
    for path in sorted(Path(rfpcompare.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(loads_a_sibling(node) for node in ast.walk(func)):
                    loaders.add((path.name, func.name))
    assert sorted(loaders) == ON_DEMAND_LOADERS


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(tmp_path, child_env, module):
    """Each module imports in a fresh interpreter with nothing loaded before
    it, so an import cycle between the library modules still fails here."""
    proc = subprocess.run([sys.executable, "-c", f"import rfpcompare.{module}"], cwd=tmp_path,
                          env=child_env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
