"""Start-up: the closed-form commands import neither numpy, the thread pool,
``dataclasses`` nor ``inspect``, nor (in a bare interpreter) ``pathlib`` or
``typing``; no command imports click, and the package's modules import each
other only at module level."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import rfpcompare
import rfpcompare.cli
import rfpcompare.comparison
import rfpcompare.geometry
import rfpcompare.gridsim
import rfpcompare.scenarios
import rfpcompare.selfcheck

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


# The benchmark's traced mode wraps these functions by rebinding them in the
# namespace that calls them (module, name, defining module). So the calling
# modules must import them at module level, not inside a command body, or the
# wrapper would be bypassed.
CALLER_BINDINGS = [
    (rfpcompare.cli, "generate_sites", rfpcompare.gridsim),
    (rfpcompare.cli, "compute_field", rfpcompare.gridsim),
    (rfpcompare.cli, "verify_upper_bound", rfpcompare.gridsim),
    (rfpcompare.cli, "export_field_csv", rfpcompare.gridsim),
    (rfpcompare.cli, "evaluate_pair", rfpcompare.comparison),
    (rfpcompare.cli, "closed_form_delta", rfpcompare.comparison),
    (rfpcompare.cli, "parse_scenario_file", rfpcompare.scenarios),
    (rfpcompare.cli, "validate_scenario", rfpcompare.scenarios),
    (rfpcompare.cli, "sweep_beta", rfpcompare.comparison),
    (rfpcompare.cli, "run_validation", rfpcompare.selfcheck),
    (rfpcompare.selfcheck, "verify_closed_forms", rfpcompare.comparison),
    (rfpcompare.selfcheck, "estimate_alpha_monte_carlo", rfpcompare.geometry),
    (rfpcompare.selfcheck, "generate_sites", rfpcompare.gridsim),
    (rfpcompare.selfcheck, "compute_field", rfpcompare.gridsim),
    (rfpcompare.selfcheck, "verify_upper_bound", rfpcompare.gridsim),
    (rfpcompare.selfcheck, "empirical_alpha", rfpcompare.gridsim),
]


@pytest.mark.parametrize("caller,name,owner", CALLER_BINDINGS,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in CALLER_BINDINGS])
def test_layer_functions_stay_bound_at_module_level(caller, name, owner):
    assert getattr(caller, name) is getattr(owner, name)


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
