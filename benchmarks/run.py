"""rfpcompare benchmark: one workload, untraced (end-to-end) or traced (per layer).

Run from the root of a checkout:

    python3 benchmarks/run.py --workload wide-lattice --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the real CLI as child processes, one at a time (a closed
loop with one client), and reports the end-to-end metrics listed in
``BENCHMARK.json``. ``--trace 1`` runs the same operations in this process
through ``rfpcompare.cli.main`` with spans around each layer's public
functions, and reports the per-layer metrics. Both check every output
against the golden digests in ``benchmarks/golden.json``.

Standard output gets an ``{"env": ...}`` line and, last, the result object;
a readable summary goes to standard error. The program is always the one in
``src/`` of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import VALIDATE_CHECKS, VERSION_OP, WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"

#: Untraced runs time at least this many passes, so each reports a quartile.
MIN_PASSES = 3
#: Fresh ``--version`` processes timed before each pass for ``setup_s``, so its
#: samples span the whole run (after one warm-up at the start).
SETUP_REPS_PER_PASS = 2
#: Fresh ``import rfpcompare.cli`` and bare-interpreter pairs for ``startup.import_s``.
IMPORT_REPS = 5
#: Traced runs stop after this many traced passes even before ``--seconds``,
#: which bounds the spans held in memory on short workloads.
MAX_TRACED_PASSES = 20


class HarnessError(RuntimeError):
    """The benchmark cannot run here; it exits non-zero without a result."""


# -- Processes and outputs ------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict[str, str], stdout_path: Path) -> tuple[int, int]:
    """Run one child to completion; return its exit code and ``ru_maxrss`` in KiB."""
    with open(stdout_path, "wb") as fh:
        proc = subprocess.Popen(argv, cwd=OUT_DIR, env=env, stdout=fh)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def cli_argv(op: Op) -> list[str]:
    return [sys.executable, "-m", "rfpcompare", *op.args]


def stdout_digest(op: Op, data: bytes) -> str:
    if op.mc_exempt:
        data = b"".join(
            line for line in data.splitlines(keepends=True) if b"monte-carlo-alpha-" not in line
        )
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def output_record(op: Op, stdout: bytes) -> dict:
    """Digests of one operation's outputs, in the golden file's format."""
    return {
        "stdout": stdout_digest(op, stdout),
        "files": {name: file_digest(OUT_DIR / name) for name in op.out_files},
    }


def check_op(op: Op, code: int, stdout: bytes, golden: dict) -> str | None:
    """Compare one operation with its golden record; None when it is correct.

    The operation's output files are removed either way.
    """
    try:
        if code != 0:
            return f"{op.key}: exit code {code}"
        if op.mc_exempt and f"{VALIDATE_CHECKS}/{VALIDATE_CHECKS} checks passed".encode() not in stdout:
            return f"{op.key}: not all {VALIDATE_CHECKS} checks passed"
        expected = golden["ops"].get(op.key)
        if expected is None:
            return f"{op.key}: no golden record"
        missing = [n for n in op.out_files if not (OUT_DIR / n).is_file()]
        if missing:
            return f"{op.key}: output file(s) not written: {', '.join(missing)}"
        if output_record(op, stdout) != expected:
            return f"{op.key}: output differs from the golden digest"
        return None
    finally:
        for name in op.out_files:
            (OUT_DIR / name).unlink(missing_ok=True)


# -- Untraced: end-to-end metrics -----------------------------------------------

def ends_before(begin: float, seconds: float, pass_s: float) -> bool:
    """Whether another pass of about ``pass_s`` would end by ``begin + seconds``.

    A pass is started when at least half of it fits, so a run lasts about
    ``seconds`` on average instead of overrunning by up to a whole pass.
    """
    return time.perf_counter() - begin + pass_s / 2 < seconds


def lower_quartile(times: list[float]) -> float:
    """The first quartile of a run's timings.

    Other tenants of a shared machine only ever lengthen a pass, and their
    load comes in spells of tens of seconds, so the faster passes of a run
    track the program's own cost more steadily than the median does. A
    quartile, unlike the minimum, is not set by a single lucky pass.
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[0]


def run_untraced(workload: Workload, seconds: float, golden: dict,
                 min_passes: int = MIN_PASSES) -> dict:
    begin = time.perf_counter()
    env = child_env()
    attempted = failed = 0
    errors: list[str] = []

    def run_op(op: Op) -> tuple[float, int]:
        """Run and check one operation; return its wall time and ``ru_maxrss`` in KiB."""
        nonlocal attempted, failed
        stdout_path = OUT_DIR / f"{op.key}.stdout"
        t0 = time.perf_counter()
        code, maxrss_kib = spawn(cli_argv(op), env, stdout_path)
        wall = time.perf_counter() - t0
        error = check_op(op, code, stdout_path.read_bytes(), golden)
        attempted += 1
        if error:
            failed += 1
            errors.append(error)
        return wall, maxrss_kib

    run_op(VERSION_OP)  # warm-up, not timed
    walls, rss, setups = [], [], []
    while len(walls) < min_passes or ends_before(begin, seconds, statistics.median(walls)):
        setups += [run_op(VERSION_OP)[0] for _ in range(SETUP_REPS_PER_PASS)]
        timed = [run_op(op) for op in workload.ops]
        walls.append(sum(wall for wall, _ in timed))
        rss.append(max(maxrss_kib for _, maxrss_kib in timed) / 1024)
    wall_s = lower_quartile(walls)
    metrics = {
        "wall_s": wall_s,
        "work_per_s": workload.work / wall_s,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": lower_quartile(setups),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "errors": errors, "passes": len(walls), "extra": {}}


# -- Traced: per-layer metrics --------------------------------------------------

def measure_import(env: dict[str, str]) -> float:
    """Median of (fresh ``import rfpcompare.cli``) minus (bare interpreter)."""
    diffs = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rfpcompare.cli"], cwd=OUT_DIR,
                       env=env, check=True)
        t1 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=OUT_DIR, env=env, check=True)
        diffs.append((t1 - t0) - (time.perf_counter() - t1))
    return statistics.median(diffs)


def run_inprocess(cli_main, op: Op, tracer: tracing.Tracer | None) -> tuple[int, bytes]:
    buf = io.StringIO()
    span = tracer.span(tracing.COMMAND_SPAN) if tracer else contextlib.nullcontext()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            with span:
                cli_main(list(op.args), standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # one failed operation must not end the run
            print(f"{op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, buf.getvalue().encode("utf-8")


def run_traced(workload: Workload, seconds: float, golden: dict) -> dict:
    """Alternate untraced and traced in-process passes until ``seconds`` pass."""
    begin = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rfpcompare.cli

    resolved = tracing.resolve_targets()
    env = child_env()
    import_s = measure_import(env)
    tracer = tracing.Tracer()
    attempted = failed = 0
    errors: list[str] = []
    plain_walls, traced_walls, per_pass = [], [], []
    with contextlib.chdir(OUT_DIR):
        while not traced_walls or (
                len(traced_walls) < MAX_TRACED_PASSES
                and ends_before(begin, seconds,
                                statistics.median(plain_walls) + statistics.median(traced_walls))):
            for traced in (False, True):
                tracer.run = f"{workload.name}/pass{len(traced_walls)}"
                first_span = len(tracer.spans)
                t0 = time.perf_counter()
                with tracing.installed(tracer, resolved) if traced else contextlib.nullcontext():
                    outcomes = [
                        (op, *run_inprocess(rfpcompare.cli.main, op, tracer if traced else None))
                        for op in workload.ops
                    ]
                wall = time.perf_counter() - t0
                for op, code, stdout in outcomes:
                    error = check_op(op, code, stdout, golden)
                    attempted += 1
                    if error:
                        failed += 1
                        errors.append(error)
                if traced:
                    traced_walls.append(wall)
                    agg = tracing.aggregate(tracer.spans[first_span:])
                    per_pass.append(tracing.layer_metrics(agg))
                else:
                    plain_walls.append(wall)

    metrics, unstable = tracing.combine_passes(per_pass)
    metrics["startup.import_s"] = import_s
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    errors += [f"count {name} differs between passes" for name in unstable]
    expected = golden["counts"].get(workload.name, {})
    errors += [
        f"count {name} = {metrics[name]}, golden {value}"
        for name, value in expected.items() if metrics[name] != value
    ]
    tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors,
            "passes": len(traced_walls),
            "extra": {"spans": len(tracer.spans),
                      "traced_pass_s": statistics.median(traced_walls),
                      "untraced_pass_s": statistics.median(plain_walls)}}


# -- Reporting ------------------------------------------------------------------

def env_block(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {path.name}: {exc}") from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        if not (SRC / "rfpcompare" / "__init__.py").is_file():
            raise HarnessError(f"no program to measure: {SRC / 'rfpcompare'} is missing")
        spec = load_json(ROOT / "BENCHMARK.json")
        golden = load_json(GOLDEN_FILE)
        OUT_DIR.mkdir(exist_ok=True)
        env = env_block(args.seed)
        print(json.dumps({"env": env}), flush=True)
        workload = WORKLOADS[args.workload](args.seed)
        run = run_traced if args.trace else run_untraced
        result = run(workload, args.seconds, golden)
    except (HarnessError, tracing.MissingLayerFunction) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        print("benchmark error: measured metrics do not match BENCHMARK.json: "
              f"{sorted(set(units) ^ set(result['metrics']))}", file=sys.stderr)
        return 2
    metrics = {name: {"value": result["metrics"][name], "unit": units[name]} for name in units}

    log = sys.stderr
    print(f"workload {workload.name}: {len(workload.ops)} operation(s), "
          f"{workload.work} {workload.work_unit} per pass, {result['passes']} pass(es), "
          f"trace={args.trace}", file=log)
    for key, value in env.items():
        print(f"  env {key:<22} {value}", file=log)
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>16.6g} {m['unit']}", file=log)
    for key, value in result["extra"].items():
        print(f"  {key:<46} {value:>16.6g}", file=log)
    print(f"  {'failed_frac':<46} {result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']}/{result['attempted']} operations)", file=log)
    for error in result["errors"]:
        print(f"  FAILED {error}", file=log)

    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
