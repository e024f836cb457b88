"""Shared fixtures: the CLI run in-process or as a child process that imports
this checkout's package, and a forced CPU count for the thread pools."""

from __future__ import annotations

import concurrent.futures
import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import rfpcompare
from rfpcompare.cli import main

# The directory that holds the imported `rfpcompare` package (`src/` in a
# checkout). A child started in another working directory cannot rely on a
# relative PYTHONPATH such as `src`, so it gets this absolute path first.
SRC_DIR = Path(rfpcompare.__file__).resolve().parents[1]


@dataclass(frozen=True)
class Result:
    """One in-process CLI run: the exit code, each stream, and ``output``,
    both streams in the order they were written."""

    exit_code: int
    stdout: str
    stderr: str
    output: str

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode("utf-8")


class _Capture(io.StringIO):
    """A captured stream that also copies each write to the shared ``output``."""

    def __init__(self, output: io.StringIO) -> None:
        super().__init__()
        self.output = output

    def write(self, text: str) -> int:
        self.output.write(text)
        return super().write(text)


def invoke(*args: str) -> Result:
    """Run ``rfpcompare ARGS`` in this process through ``main``, with stdout and
    stderr captured; a ``SystemExit`` becomes the exit code."""
    output = io.StringIO()
    out, err = _Capture(output), _Capture(output)
    exit_code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            exit_code = exc.code or 0
    return Result(exit_code, out.getvalue(), err.getvalue(), output.getvalue())


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
