"""Shared fixtures: CLI child processes that import this checkout's package,
and a forced CPU count for the thread pools."""

from __future__ import annotations

import concurrent.futures
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


@pytest.fixture
def force_cpus(monkeypatch):
    """``force_cpus(n)`` makes the process see ``n`` usable CPUs and returns
    the worker counts of the thread pools created from then on."""

    def force(n: int) -> list[int]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)
        sizes = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        return sizes

    return force
