"""Golden fixtures: `simulate` stdout and CSV bytes must not drift.

The digests were recorded from the `hypot`-based field kernel, before the
squared-distance kernel replaced it, so any change in the printed 9-digit
values or in the summary shows up here. The cases cover every tessellating
layout at 2 and 10 rings, for S1 deployment 1 (gamma = 3, d_max = 500 m) and
S2 deployment 2 (gamma = 2.1, d_max = 100 m), each at a coarse d_max / 50
resolution.
"""

from __future__ import annotations

import hashlib

import pytest
from conftest import invoke

# (scenario, deployment, resolution in m) -> layout -> rings -> (stdout, csv) sha256.
GOLDEN = {
    ("S1", "1", "10"): {
        "highway": {
            2: (
                "cb94cfc9a29c8ddf4c2b8618cefc339decc0b4c72496154f353d2a6421235684",
                "d867f5c88b6831b7cd42211e40b4cf6f60c27b19d9bd1b767c0b5ebf8013ef67",
            ),
            10: (
                "d0580f37afba21aac51e03ed5376c8e8ed0107cf0ac054a10955f20e8d29d447",
                "f9da8555157ef22bd3b9bb2b275c765fc187442c21b0333235e6b28023014411",
            ),
        },
        "square": {
            2: (
                "7d7bd4a1d4b75cb0951cfc1d4a4490cfc42ddd04bf482010f12d4696130e233b",
                "b3ce00399be94d6837028ac0bd9b64e6fa560f259ae88eec6a8a1be2e8ce633e",
            ),
            10: (
                "374baa5713aceabb8c10a8f98f4d95422ed2cf7359df781997066a6d23074e19",
                "5d92645892086817b5cef11979eb77393a6087f0f5a4306e57405e4774df0a6a",
            ),
        },
        "hexagonal": {
            2: (
                "f4d642c39e75a8504d12ad6bb89133affbf12deb05cc4dcf07678bdcc4ccc39f",
                "5f0294a8807a78c31f79f6b225e9cdfc415142d9573a4d287c05326c541bc39d",
            ),
            10: (
                "9cdbe6f37c3d70a5b42312b88d7ed394cbe48de96d64549f4af801adf34ac03e",
                "667a5bdb51a90e1c64a86811bf20759c3b6bfe87e5450d2565b9efa9cc9fe070",
            ),
        },
    },
    ("S2", "2", "2"): {
        "highway": {
            2: (
                "3033f8bb58f300d13316e052667a7ad587abb51b9fe964bb72802c740e71fd5f",
                "a418b1112256646778ddf43ea8dd6fdcd9741855dbba83f5bae4026c93164b7e",
            ),
            10: (
                "180d1e1a8b9fc7295a7922a67f0f7d50c2637c190440cf6c85e460d4bb77bdf8",
                "baeff9cb223ae749d2a2aaf5922495d8bc04cd40c6e0da6741bcf51a17f07126",
            ),
        },
        "square": {
            2: (
                "43432b4113983a62e5f6618b1801a9c1ab192f35c4427740b0c7f46e6d74dfbf",
                "eeab83572d5b195fe9827aa45f53a659e142e116880ab9f406c9915fabc86505",
            ),
            10: (
                "d713ba7a5a8cf2294e3fdfc329b65a60f49b6fa69c05f9a43a9546900f4ebfca",
                "d7afa33b1de712109c5034f5835ac2fa69bb98b5240255e857de86ff52b0c5e0",
            ),
        },
        "hexagonal": {
            2: (
                "acdfa51ef799629092f73ddfa7c930278dd4a379f883f7ae2965b6db1372884d",
                "21610e23454b62d3711c32a4776c4190da0bb5c79654085ab86db2d28ac4f883",
            ),
            10: (
                "1c4035ac90adfdd46801b9aaffb53802acab9233ac6e7286f6a0cbb4b7eb4137",
                "0c9b515639a63ae4f8ff5984118ee6b3d1f1cd57a0afd06559bae3c91ffd7a13",
            ),
        },
    },
}

CASES = [
    (scenario, which, resolution, layout, rings)
    for (scenario, which, resolution), layouts in GOLDEN.items()
    for layout, by_rings in layouts.items()
    for rings in by_rings
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_simulate(scenario, which, resolution, layout, rings) -> tuple[str, str]:
    """Run `simulate` in the current directory; return the stdout and CSV digests."""
    result = invoke(
        "simulate", "--scenario", scenario, "--deployment", which,
        "--layout", layout, "--rings", str(rings), "--resolution", resolution,
        "--out", "field.csv",
    )
    assert result.exit_code == 0, result.output
    with open("field.csv", "rb") as fh:
        csv_bytes = fh.read()
    return _sha256(result.stdout_bytes), _sha256(csv_bytes)


@pytest.mark.parametrize("scenario,which,resolution,layout,rings", CASES)
def test_simulate_output_matches_golden_digest(
    scenario, which, resolution, layout, rings, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    got = run_simulate(scenario, which, resolution, layout, rings)
    assert got == GOLDEN[(scenario, which, resolution)][layout][rings]
