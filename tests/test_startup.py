"""Start-up: the closed-form commands import neither numpy, the thread pool,
``dataclasses`` nor ``inspect``, nor (in a bare interpreter) ``pathlib`` or
``typing``; no command imports click, and the package's modules import each
other only at module level."""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import rfpcompare

# Imports the package and the CLI, runs one command in-process, and prints
# which of the modules it watches got loaded on the way.
CHILD = """
import json, sys
import rfpcompare, rfpcompare.cli
try:
    code = rfpcompare.cli.main(sys.argv[1:], standalone_mode=False)
except SystemExit as exc:
    code = exc.code
watched = ["numpy", "concurrent.futures", "click", "dataclasses", "inspect", "pathlib", "typing"]
print(json.dumps({"code": code, **{name: name in sys.modules for name in watched}}))
"""

COMPARE = ["compare", "--scenario", "S2", "--all-layouts"]
SWEEP = ["sweep", "--scenario", "S5", "--layout", "hexagonal",
         "--beta-start", "0.05", "--beta-end", "0.1", "--beta-step", "0.01"]


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
    (["simulate", "--layout", "hexagonal", "--resolution", "25"], True),
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


def test_no_function_imports_a_sibling_module():
    """Sibling modules are imported at module level only, so a cycle between
    them would fail at import time instead of hiding in a function body.
    Function-level imports stay for numpy and ``concurrent.futures``, which
    the closed-form commands never load."""
    nested = []
    for path in sorted(Path(rfpcompare.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                           if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert nested == []
