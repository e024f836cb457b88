"""Golden fixtures: `compare` and `sweep` output bytes must not drift.

Each digest is the sha256 of the stdout of a group of invocations, run
in-process in a fixed order, each followed by a NUL byte. The `--out` groups
hash the written files instead, and require an empty stdout. The digests
were recorded from the per-command table/CSV/JSON renderers, before one
record emitter replaced them.

The `compare` matrix runs every built-in scenario and a JSON-file scenario
(not a built-in, so its closed-form columns are empty or `null`) across the
layout selection, `--neighbors` and `--db`, one group per scenario and
format. The `sweep` matrix runs S1, S2 and S5 on the square and hexagonal
layouts, with neighbors on and off, with and without `--db`.
"""

from __future__ import annotations

import hashlib
from itertools import product

import pytest
from click.testing import CliRunner

from rfpcompare.cli import main

FORMATS = ("table", "csv", "json")

# Not a built-in id, so `compare` has no closed form for it.
FILE_SCENARIO = """{
  "id": "F1",
  "description": "3x densification with a lower path-loss exponent and a band change",
  "deployment1": {"d_max_m": 600, "p_r_th": 1, "gamma": 3.2, "f_mhz": 800, "eta": 2, "c": 1},
  "deployment2": {"d_max_m": 200, "p_r_th": 0.5, "gamma": 2.4, "f_mhz": 2600, "eta": 2, "c": 1},
  "beta1": 0.1,
  "layouts": ["highway", "square", "hexagonal"],
  "modes": ["none", "adjacent"]
}
"""

LAYOUT_SELECTIONS = (
    (), ("--all-layouts",),
    ("--layout", "highway"), ("--layout", "square"), ("--layout", "hexagonal"),
)
NEIGHBOR_SELECTIONS = ((), ("--neighbors", "on"), ("--neighbors", "off"))
DB_SELECTIONS = ((), ("--db",))

# Beta1 grids that keep beta2 = beta1 * d_max(1) / d_max(2) <= 1.
SWEEP_GRIDS = {
    "S1": ("0.05", "0.45", "0.05"),
    "S2": ("0.02", "0.2", "0.02"),
    "S5": ("0.01", "0.1", "0.01"),
}

# (scenario, format) -> sha256 of the group's stdout.
COMPARE_GOLDEN = {
    ("S1", "table"): "839aa195028636d3124ea40474dc256396feb8dd66eac3e8db11a72e63fc2aa5",
    ("S1", "csv"): "3cc06468c50338d2b31c8b3442c84ab95df79b872c5411d07b08dc393345b56d",
    ("S1", "json"): "e37c8b11e63fb709a250bd57696dabcd76538150f83dc140920c4e8b4860a27a",
    ("S2", "table"): "a707d69ef20e9298eb2cea6489d7629b0b0bdcab2520fe665eb78a1e199ee4da",
    ("S2", "csv"): "46ab179747d73e13389ef4eec140916888f59df00afc5826202aa1291b6dd623",
    ("S2", "json"): "3805e0c7b5151690bf179d23b6218d2f19d08ffab2b81accde99bc7576f21ce7",
    ("S3", "table"): "dd188c67b0f9ecbbdbc1df6c0d2db567444a56f8628fadb5d7d852b4d4d6cc94",
    ("S3", "csv"): "49922ca90ed14135fe62e3f8d0e81e9ea4643ffb5b20311efb39a1995f60f68e",
    ("S3", "json"): "4b8cd2e404a392dbcd9d63769cc631b7bd0746b941159268eeef964717996d46",
    ("S4", "table"): "d1a6a4b375cdb587cb0c8ff39e55b7e840663126ed938df52101fa9979584f3c",
    ("S4", "csv"): "9338568d7c05da24d2286c6bc7c752535e72a9d05629ead77f244e767720c78f",
    ("S4", "json"): "22d1236a89e65e4ceff48fb4548bab57ffd44c09dc12cb1e74921d39e7274cf1",
    ("S5", "table"): "fa2ac6e2182bdeb82d6c29236ab6b1de53f1445b21230bf8471ad85e8ab6546b",
    ("S5", "csv"): "86bbd076d0a8268c8e84a739db7664578051e323ca68f95d819eda7dde7a8d6e",
    ("S5", "json"): "304dc747f6e19eb4719b56e6343f6a75d4275e14d6a21affd48afc9e27ce98a9",
    ("file", "table"): "a6446ce065def96d1e02e5d68cc75e84940ce0c3a5035daa0fbfcc016eb9ed7d",
    ("file", "csv"): "02fbaca9308606ab795725ba7dd5a40ecd74ae5f7141a76217611995c6f482ce",
    ("file", "json"): "b7db52b52768936a0d4022f9fdea8dbc1e384ba296ed96bea4deb1eed8c87b18",
}

SWEEP_GOLDEN = {
    ("S1", "table"): "721c8adcc7a4f036e9ab017b86c1cfe219bd7322c98eaf7706e9e302a811f7ef",
    ("S1", "csv"): "de07cb50837326b54cf291d9fda3cdba9de4acfb758a0eed31ca5eb73698a0cb",
    ("S1", "json"): "bfea97c6954e71e66a1ee657825a70d08c3574dce29818ea1367f8e2574921a6",
    ("S2", "table"): "6818e3c61854d409663415a42a3f6389fbfa556615368a1f0c5ddc6a5b47fd8e",
    ("S2", "csv"): "a1a54a24231162481b31e01fe5a5dc9af49d7ea6d2205a80606b1f9b7a8b61c8",
    ("S2", "json"): "6fa5bffa4d4ac85b4e447afbd3be1150ab677fff6b7b40a9856c4d49dc9770ed",
    ("S5", "table"): "f99a7dc2ab2ddf4857ad75e93669b593bdad10bcfd5ba06bb316aa72dca70c8a",
    ("S5", "csv"): "db0cc8b78fd4d82944c03a2ab77363de372d0ee9125027508110d80ed40e3554",
    ("S5", "json"): "3f248027d701d1104bd289cdac39c0c7643b43bdf324e0b89e3141eec331edf9",
}

# command -> sha256 of the files written with `--out`, one per format.
OUT_GOLDEN = {
    "compare": "2b40150e8911c2668149994873fa4275baff34e6bfe9a0444fc0f5798da3a808",
    "sweep": "a345fbe49de5b0725d9bb3e3a593d93839bb9f3eefb0f8ec88bf42c1f273181b",
}


def _invoke(args: list[str]) -> bytes:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, (args, result.output)
    return result.stdout_bytes


def _digest(chunks) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk + b"\0")
    return sha.hexdigest()


def _scenario_source(scenario: str, tmp_path) -> str:
    if scenario != "file":
        return scenario
    path = tmp_path / "f1.json"
    path.write_text(FILE_SCENARIO, encoding="utf-8")
    return str(path)


def compare_args(source: str, fmt: str) -> list[list[str]]:
    return [
        ["compare", "--scenario", source, *layouts, *neighbors, "--format", fmt, *db]
        for layouts, neighbors, db in product(LAYOUT_SELECTIONS, NEIGHBOR_SELECTIONS,
                                              DB_SELECTIONS)
    ]


def sweep_args(scenario: str, fmt: str) -> list[list[str]]:
    start, end, step = SWEEP_GRIDS[scenario]
    return [
        ["sweep", "--scenario", scenario, "--layout", layout, "--neighbors", neighbors,
         "--beta-start", start, "--beta-end", end, "--beta-step", step,
         "--format", fmt, *db]
        for layout, neighbors, db in product(("square", "hexagonal"), ("on", "off"),
                                             DB_SELECTIONS)
    ]


def out_args(command: str, fmt: str, out: str) -> list[str]:
    if command == "compare":
        return ["compare", "--scenario", "S5", "--all-layouts", "--format", fmt, "--db",
                "--out", out]
    return ["sweep", "--scenario", "S5", "--layout", "hexagonal", "--beta-start", "0.05",
            "--beta-end", "0.1", "--beta-step", "0.01", "--format", fmt, "--out", out]


@pytest.mark.parametrize("scenario,fmt", list(COMPARE_GOLDEN))
def test_compare_output_matches_golden_digest(scenario, fmt, tmp_path):
    source = _scenario_source(scenario, tmp_path)
    got = _digest(_invoke(args) for args in compare_args(source, fmt))
    assert got == COMPARE_GOLDEN[(scenario, fmt)]


@pytest.mark.parametrize("scenario,fmt", list(SWEEP_GOLDEN))
def test_sweep_output_matches_golden_digest(scenario, fmt):
    got = _digest(_invoke(args) for args in sweep_args(scenario, fmt))
    assert got == SWEEP_GOLDEN[(scenario, fmt)]


@pytest.mark.parametrize("command", list(OUT_GOLDEN))
def test_out_file_matches_golden_digest(command, tmp_path):
    files = []
    for fmt in FORMATS:
        out = tmp_path / f"{command}.{fmt}"
        assert _invoke(out_args(command, fmt, str(out))) == b""
        files.append(out.read_bytes())
    assert _digest(files) == OUT_GOLDEN[command]
