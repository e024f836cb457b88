"""Shared fixtures: CLI child processes that import this checkout's package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rfpcompare

# The directory that holds the imported `rfpcompare` package (`src/` in a
# checkout). A child started in another working directory cannot rely on a
# relative PYTHONPATH such as `src`, so it gets this absolute path first.
SRC_DIR = Path(rfpcompare.__file__).resolve().parents[1]


@pytest.fixture
def child_env() -> dict[str, str]:
    """The environment of a child process: SRC_DIR ahead of any inherited
    PYTHONPATH entries."""
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join([str(SRC_DIR), inherited] if inherited else [str(SRC_DIR)])
    return {**os.environ, "PYTHONPATH": pythonpath}


@pytest.fixture
def run_cli(tmp_path, child_env):
    """Run `python -m rfpcompare ARGS` as a separate process in `tmp_path`."""

    def run(args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "rfpcompare", *args],
            cwd=tmp_path, env=child_env, capture_output=True, timeout=300,
        )

    return run
