"""Negative controls: show that the benchmark's checks can fail.

    python3 benchmarks/controls.py

1. A corrupted golden digest must count the operation as failed
   (``failed / attempted > 0``).
2. A traced function that no longer exists (as after a rename) must fail the
   traced run with an error that names it, instead of reporting zeros.

Exits 0 when both controls fail as they should, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

import run
import tracing
from workloads import closed_forms, wide_lattice


def corrupted_golden_fails() -> bool:
    golden = run.load_json(run.GOLDEN_FILE)
    bad = copy.deepcopy(golden)
    record = bad["ops"]["compare-S2-csv"]["files"]
    record["compare-S2.csv"] = "0" * 64
    result = run.run_untraced(closed_forms(0), 0, bad, min_passes=1)
    frac = result["failed"] / result["attempted"]
    print(f"corrupted digest: failed_frac {frac:.4g} "
          f"({result['failed']}/{result['attempted']}): {result['errors']}")
    return frac > 0 and any("compare-S2-csv" in e for e in result["errors"])


def missing_function_fails() -> bool:
    sys.path.insert(0, str(run.SRC))
    import rfpcompare.cli

    golden = run.load_json(run.GOLDEN_FILE)
    original = rfpcompare.cli.compute_field
    del rfpcompare.cli.compute_field
    try:
        run.run_traced(wide_lattice(0), 0, golden)
    except tracing.MissingLayerFunction as exc:
        print(f"missing function: {exc}")
        return "rfpcompare.cli.compute_field" in str(exc)
    finally:
        rfpcompare.cli.compute_field = original
    print("missing function: the traced run did not fail")
    return False


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    outcomes = {"corrupted golden digest": corrupted_golden_fails(),
                "missing traced function": missing_function_fails()}
    for name, ok in outcomes.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
