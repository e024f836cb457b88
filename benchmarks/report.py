"""Run every workload, untraced and traced, and print every metric with its unit.

    python3 benchmarks/report.py [--seed N] [--seconds S]

Each run is a separate ``benchmarks/run.py`` process, exactly as a single
workload is run. Exits 1 if any run fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit code {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            failed_frac = result["failed"] / result["attempted"]
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"failed_frac={failed_frac:.6g} ({result['failed']}/{result['attempted']})")
            for name, m in result["metrics"].items():
                print(f"  {name:<46} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
