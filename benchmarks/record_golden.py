"""Record ``benchmarks/golden.json`` from the program in ``src/``.

    python3 benchmarks/record_golden.py

Runs every operation of every workload once as a child process (``validate``
once per Monte Carlo seed the workload can pick) and stores the sha256 of its
stdout and of each file it writes. Then runs one traced pass per workload and
stores its work counts, which every later traced run must repeat exactly.

Record only from a commit whose outputs are known good: the benchmark treats
these digests as the correct answers.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
from workloads import VALIDATE_SEEDS, VERSION_OP, WORKLOADS, validate_op, validate_seed


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    env = run.child_env()
    ops = {VERSION_OP.key: VERSION_OP}
    for make in WORKLOADS.values():
        ops.update((op.key, op) for op in make(0).ops)
    ops.update((op.key, op) for op in (validate_op(validate_seed(s)) for s in range(VALIDATE_SEEDS)))

    golden = {"ops": {}, "counts": {}}
    for key, op in sorted(ops.items()):
        stdout_path = run.OUT_DIR / f"{key}.stdout"
        code, _ = run.spawn(run.cli_argv(op), env, stdout_path)
        if code != 0:
            print(f"{key}: exit code {code}; nothing recorded", file=sys.stderr)
            return 1
        golden["ops"][key] = run.output_record(op, stdout_path.read_bytes())
        for name in op.out_files:
            (run.OUT_DIR / name).unlink()
        print(f"recorded {key}", file=sys.stderr)

    for name, make in WORKLOADS.items():
        result = run.run_traced(make(0), 0, golden)
        if result["errors"]:
            print(f"{name}: {result['errors']}", file=sys.stderr)
            return 1
        golden["counts"][name] = {k: result["metrics"][k] for k in tracing.EXACT_COUNTS}
        print(f"counted {name}", file=sys.stderr)

    run.GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
