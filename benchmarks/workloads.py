"""The benchmark's workloads: the CLI operations that one pass runs.

Every workload is a fixed list of ``rfpcompare`` command lines. The seed only
permutes the order of the operations and, for ``validate-mc``, picks the
Monte Carlo seed from a fixed set, so the work per pass never depends on the
seed and every operation's output has a recorded golden digest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SCENARIO_FILE = Path(__file__).resolve().parent / "scenario_b1.json"

#: ``validate-mc`` runs ``validate --seed VALIDATE_SEED_BASE + seed % VALIDATE_SEEDS``.
#: The propagation check's output depends on that seed, so the golden file
#: holds one digest per value.
VALIDATE_SEED_BASE = 58121
VALIDATE_SEEDS = 16
VALIDATE_SAMPLES = 10_000_000
VALIDATE_CHECKS = 26


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``key`` names the operation in the golden file. ``out_files`` are paths,
    relative to the working directory, that the command writes. With
    ``mc_exempt`` the Monte Carlo alpha lines of stdout are left out of the
    digest.
    """

    key: str
    args: tuple[str, ...]
    out_files: tuple[str, ...] = ()
    mc_exempt: bool = False


@dataclass(frozen=True)
class Workload:
    """The operations of one pass and the work they represent."""

    name: str
    ops: tuple[Op, ...]
    work: int
    work_unit: str


def _shuffled(ops: list[Op], seed: int) -> tuple[Op, ...]:
    random.Random(seed).shuffle(ops)
    return tuple(ops)


def _simulate(layout: str, rings: int, resolution: int) -> Op:
    out = f"field-{layout}-r{rings}-res{resolution}.csv"
    args = ("simulate", "--layout", layout, "--rings", str(rings),
            "--resolution", str(resolution), "--out", out)
    return Op(out.removesuffix(".csv"), args, (out,))


def wide_lattice(seed: int) -> Workload:
    ops = [_simulate(layout, 10, 2) for layout in ("highway", "square", "hexagonal")]
    return Workload("wide-lattice", _shuffled(ops, seed), 550 + 150_544 + 261_800, "pixels")


def validate_seed(seed: int) -> int:
    return VALIDATE_SEED_BASE + seed % VALIDATE_SEEDS


def validate_op(validate_seed_value: int) -> Op:
    args = ("validate", "--samples", str(VALIDATE_SAMPLES), "--seed", str(validate_seed_value))
    return Op(f"validate-seed{validate_seed_value}", args, mc_exempt=True)


def validate_mc(seed: int) -> Workload:
    op = validate_op(validate_seed(seed))
    return Workload("validate-mc", (op,), 4 * VALIDATE_SAMPLES, "samples")


def closed_forms(seed: int) -> Workload:
    ops = []
    for sid in ("S1", "S2", "S3", "S4", "S5"):
        base = ("compare", "--scenario", sid, "--all-layouts")
        ops.append(Op(f"compare-{sid}-table", base))
        out = f"compare-{sid}.csv"
        ops.append(Op(f"compare-{sid}-csv", base + ("--format", "csv", "--out", out), (out,)))
        ops.append(Op(f"compare-{sid}-json-db", base + ("--format", "json", "--db")))
    ops.append(Op("sweep-S5", ("sweep", "--scenario", "S5", "--layout", "hexagonal",
                               "--neighbors", "off", "--beta-start", "0.05",
                               "--beta-end", "0.1", "--beta-step", "0.01")))
    ops.append(Op("compare-file", ("compare", "--scenario", str(SCENARIO_FILE))))
    return Workload("closed-forms", _shuffled(ops, seed), len(ops), "commands")


WORKLOADS = {
    "wide-lattice": wide_lattice,
    "validate-mc": validate_mc,
    "closed-forms": closed_forms,
}

#: ``--version``: interpreter start, package import and the click group.
VERSION_OP = Op("version", ("--version",))
