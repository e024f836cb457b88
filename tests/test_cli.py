"""Command-line interface: outputs, formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
import tracemalloc

import pytest
from conftest import invoke

import rfpcompare.gridsim as gridsim
from rfpcompare import (
    LayoutKind,
    builtin_scenario,
    cli,
    compute_field,
    generate_sites,
    run_validation,
)


def s1_document(**changes) -> str:
    """The built-in S1 as a JSON scenario document, with top-level fields changed."""
    doc = {"id": "S1", "description": "Light densification",
           "deployment1": {"d_max_m": 500, "p_r_th": 1, "gamma": 3, "f_mhz": 700},
           "deployment2": {"d_max_m": 250, "p_r_th": 1, "gamma": 3, "f_mhz": 700}}
    return json.dumps({**doc, **changes})


def table_cells(output: str) -> list[dict[str, str]]:
    """Parse the aligned-table output into row dicts."""
    lines = [line for line in output.strip().split("\n") if line]
    headers = lines[0].split()
    return [dict(zip(headers, line.split())) for line in lines[2:]]


# -- usage ---------------------------------------------------------------------


@pytest.mark.parametrize("columns", ["80", "20"])
def test_version_prints_name_and_version(monkeypatch, columns):
    """The same bytes on any terminal, also one too narrow for the line."""
    monkeypatch.setenv("COLUMNS", columns)
    result = invoke("--version")
    assert result.exit_code == 0
    assert result.stdout == "rfpcompare, version 0.1.0\n"


@pytest.mark.parametrize("args", [
    [],
    ["compare", "--scen", "S1"],
], ids=["no-command", "abbreviated-option"])
def test_usage_error_exits_2(args):
    """No subcommand, or an option given by a prefix of its name, is a usage
    error: exit 2, with the usage and an `error: ` line on stderr."""
    result = invoke(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert lines[0].startswith("usage: rfpcompare") and ": error: " in lines[-1], result.stderr


OPTIONS = {
    "compare": {"--scenario", "--layout", "--all-layouts", "--neighbors", "--beta",
                "--format", "--out", "--db"},
    "sweep": {"--scenario", "--layout", "--neighbors", "--beta-start", "--beta-end",
              "--beta-step", "--format", "--out", "--db"},
    "simulate": {"--scenario", "--deployment", "--layout", "--rings", "--resolution", "--out"},
    "validate": {"--seed", "--samples"},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_help_names_every_option(command):
    result = invoke(command, "--help")
    assert result.exit_code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", result.stdout)) == OPTIONS[command] | {"--help"}


# -- compare -------------------------------------------------------------------


def test_compare_s1_hexagonal_neighbors_off():
    result = invoke("compare", "--scenario", "S1", "--layout", "hexagonal",
                    "--neighbors", "off")
    assert result.exit_code == 0
    rows = table_cells(result.output)
    assert len(rows) == 1
    assert rows[0]["layout"] == "hexagonal" and rows[0]["mode"] == "none"
    assert float(rows[0]["delta_pr_fx"]) == 8.0
    assert float(rows[0]["closed_pr_fx"]) == 8.0


def test_compare_s4_highway_neighbors_on():
    result = invoke("compare", "--scenario", "S4", "--layout", "highway",
                    "--neighbors", "on")
    assert result.exit_code == 0
    rows = table_cells(result.output)
    assert float(rows[0]["delta_pr_avg"]) == 0.5


def test_compare_s2_all_layouts_highway_avg_is_largest():
    result = invoke("compare", "--scenario", "S2", "--all-layouts", "--neighbors", "on")
    assert result.exit_code == 0
    rows = table_cells(result.output)
    assert len(rows) == 3
    by_layout = {r["layout"]: float(r["delta_pr_avg"]) for r in rows}
    assert by_layout["highway"] > by_layout["square"] > by_layout["hexagonal"]


def test_compare_defaults_cover_all_layouts_and_modes():
    result = invoke("compare", "--scenario", "S1")
    assert result.exit_code == 0
    assert len(table_cells(result.output)) == 6


def test_compare_json_schema():
    result = invoke("compare", "--scenario", "S5", "--layout", "hexagonal",
                    "--neighbors", "off", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload) == 1
    obj = payload[0]
    assert set(obj) == {
        "scenario", "layout", "mode", "delta_pe", "delta_pr_avg", "delta_pr_fx",
        "closed_form", "relative_difference",
    }
    assert obj["scenario"] == "S5"
    assert obj["mode"] == "none"
    assert obj["delta_pr_fx"] == pytest.approx(933.032992, rel=1e-8)
    assert obj["closed_form"]["delta_pr_fx"] == pytest.approx(933.032992, rel=1e-8)
    assert obj["relative_difference"] <= 1e-12


def test_compare_formats_agree_to_table_precision():
    """Table, CSV, and JSON carry the same numbers at printed precision."""
    args = ("compare", "--scenario", "S2", "--layout", "hexagonal", "--neighbors", "on")
    as_table = table_cells(invoke(*args).output)[0]
    csv_lines = invoke(*args, "--format", "csv").output.strip().split("\n")
    as_csv = dict(zip(csv_lines[0].split(","), csv_lines[1].split(",")))
    as_json = json.loads(invoke(*args, "--format", "json").output)[0]
    for key in ("delta_pe", "delta_pr_avg", "delta_pr_fx"):
        reference = as_json[key]
        assert float(as_csv[key]) == pytest.approx(reference, rel=1e-8), key
        assert float(as_table[key]) == pytest.approx(reference, rel=5e-4), key


def test_compare_db_flag_adds_decibel_columns():
    result = invoke("compare", "--scenario", "S1", "--layout", "hexagonal",
                    "--neighbors", "off", "--db")
    rows = table_cells(result.output)
    assert float(rows[0]["delta_pr_fx_db"]) == pytest.approx(9.031, abs=1e-3)


def test_compare_scenario_file_matches_builtin(tmp_path):
    doc = tmp_path / "s1.json"
    doc.write_text(s1_document(), encoding="utf-8")
    from_file = invoke("compare", "--scenario", str(doc), "--format", "csv")
    from_builtin = invoke("compare", "--scenario", "S1", "--format", "csv")
    assert from_file.exit_code == 0
    assert from_file.output == from_builtin.output


#: The built-in S2 as a JSON scenario document.
S2_DOCUMENT = {"id": "S2",
               "deployment1": {"d_max_m": 500, "p_r_th": 1, "gamma": 3, "f_mhz": 700},
               "deployment2": {"d_max_m": 100, "p_r_th": 1, "gamma": 2.1, "f_mhz": 700}}


def test_compare_document_with_a_builtins_deployments_prints_its_closed_forms(tmp_path):
    (tmp_path / "s2.json").write_text(json.dumps(S2_DOCUMENT), encoding="utf-8")
    for fmt in ("table", "csv", "json"):
        from_file = invoke("compare", "--scenario", str(tmp_path / "s2.json"), "--format", fmt)
        assert from_file.exit_code == 0, from_file.stderr
        assert from_file.stdout == invoke("compare", "--scenario", "S2", "--format", fmt).stdout
    assert all(row["closed_form"] is not None for row in json.loads(from_file.stdout))


def test_compare_document_with_a_builtins_id_only_has_no_closed_forms(tmp_path):
    """Id S2 with deployment (2)'s threshold doubled: the closed-form cells are
    empty in the table and CSV, and null in JSON."""
    doc = {**S2_DOCUMENT, "deployment2": {**S2_DOCUMENT["deployment2"], "p_r_th": 2}}
    (tmp_path / "s2.json").write_text(json.dumps(doc), encoding="utf-8")
    args = ("compare", "--scenario", str(tmp_path / "s2.json"), "--layout", "hexagonal")
    table = invoke(*args)
    assert table.exit_code == 0, table.stderr
    rows = table_cells(table.stdout)
    assert len(rows) == 2 and all(set(row) == {"scenario", "layout", "mode", "delta_pe",
                                               "delta_pr_avg", "delta_pr_fx"} for row in rows)
    csv_lines = invoke(*args, "--format", "csv").stdout.splitlines()
    assert csv_lines[0].endswith(",closed_pe,closed_pr_avg,closed_pr_fx,max_rel_diff")
    assert all(line.endswith(",,,,") for line in csv_lines[1:]) and len(csv_lines) == 3
    for obj in json.loads(invoke(*args, "--format", "json").stdout):
        assert obj["closed_form"] is None and obj["relative_difference"] is None


def test_compare_reports_an_emitted_power_ratio_whose_factors_overflow(tmp_path):
    """(d_max(1)/d_max(2))**gamma1 * d_max(2)**(gamma1 - gamma2) is 1e400, but
    P_E(1)/P_E(2) = 1e100 is a float."""
    doc = {"id": "FE", "beta1": 1e-60,
           "deployment1": {"d_max_m": 1e150, "p_r_th": 1e-150, "gamma": 4, "f_mhz": 700},
           "deployment2": {"d_max_m": 1e100, "p_r_th": 1e150, "gamma": 2, "f_mhz": 700}}
    (tmp_path / "fe.json").write_text(json.dumps(doc), encoding="utf-8")
    result = invoke("compare", "--scenario", str(tmp_path / "fe.json"), "--layout", "hexagonal",
                    "--neighbors", "off", "--format", "json")
    assert result.exit_code == 0, result.stderr
    [obj] = strict_json(result.stdout)
    assert obj["delta_pe"] == pytest.approx(1e100, rel=1e-9)
    assert (obj["delta_pr_avg"], obj["delta_pr_fx"]) == (2.70528026e-300, 1e-80)


def test_compare_writes_output_file(tmp_path):
    out = tmp_path / "report.csv"
    result = invoke("compare", "--scenario", "S3", "--format", "csv", "--out", str(out))
    assert result.exit_code == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("scenario,layout,mode,delta_pe")
    assert "S3" in text


def test_compare_rejects_unknown_scenario():
    result = invoke("compare", "--scenario", "S9")
    assert result.exit_code == 2


def test_compare_rejects_conflicting_layout_flags():
    result = invoke("compare", "--scenario", "S1", "--layout", "hexagonal",
                    "--all-layouts")
    assert result.exit_code == 2


def test_compare_rejects_invalid_scenario_file(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text('{"id": "X"}', encoding="utf-8")
    result = invoke("compare", "--scenario", str(doc))
    assert result.exit_code == 2


@pytest.mark.parametrize("command", [
    ["compare"],
    ["sweep", "--layout", "hexagonal", "--beta-start", "0.05", "--beta-end", "0.1",
     "--beta-step", "0.01"],
    ["simulate", "--layout", "hexagonal"],
], ids=["compare", "sweep", "simulate"])
@pytest.mark.parametrize("source,message", [
    ("S9", "error: scenario 'S9' is neither a built-in id (S1, S2, S3, S4, S5) "
           "nor an existing file"),
    ("bad.json", "error: invalid scenario file 'bad.json': "),
    ("p_r_th.json", "error: invalid scenario file 'p_r_th.json': deployment1.p_r_th: "
                    "p_r_th must be finite, got inf"),
    ("eta.json", "error: invalid scenario file 'eta.json': deployment1.eta: "
                 "eta must be finite, got inf"),
], ids=["unknown-id", "invalid-file", "infinite-p_r_th", "infinite-eta-on-both"])
def test_bad_scenario_is_one_error_line(run_cli, tmp_path, command, source, message):
    """A bad scenario id or file is reported like every other invalid input:
    one `error: ` line and exit 2, not a usage message. JSON reads 1e400 as an
    infinite float: `compare` printed inf ratios for such a p_r_th, and finite
    ones for an infinite eta shared by both deployments, and exited 0."""
    (tmp_path / "bad.json").write_text('{"id": "X"}', encoding="utf-8")
    (tmp_path / "p_r_th.json").write_text(
        s1_document().replace('"p_r_th": 1,', '"p_r_th": 1e400,', 1), encoding="utf-8")
    (tmp_path / "eta.json").write_text(
        s1_document().replace('"f_mhz": 700', '"f_mhz": 700, "eta": 1e400'), encoding="utf-8")
    proc = run_cli([command[0], "--scenario", source, *command[1:]])
    assert proc.returncode == 2
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe{"),
], ids=["directory", "not-utf-8"])
def test_compare_rejects_unreadable_scenario_file(tmp_path, make):
    source = tmp_path / "scenario.json"
    make(source)
    result = invoke("compare", "--scenario", str(source))
    assert result.exit_code == 2, result.output
    assert "invalid scenario file" in result.stderr


def test_compare_rejects_beta_breaking_pair_invariant():
    result = invoke("compare", "--scenario", "S5", "--layout", "hexagonal",
                    "--neighbors", "off", "--beta", "0.2")
    assert result.exit_code == 2


def test_compare_rejects_empty_selection(tmp_path):
    doc = tmp_path / "empty.json"
    doc.write_text(s1_document(layouts=[]), encoding="utf-8")
    result = invoke("compare", "--scenario", str(doc))
    assert result.exit_code == 2


def test_compare_json_and_csv_outputs_are_reproducible():
    """Identical requests give byte-identical CSV and JSON renderings."""
    for fmt in ("csv", "json"):
        args = ("compare", "--scenario", "S2", "--all-layouts", "--format", fmt)
        assert invoke(*args).output == invoke(*args).output


# -- sweep ---------------------------------------------------------------------


def test_sweep_s5_series_endpoints():
    result = invoke("sweep", "--scenario", "S5", "--layout", "hexagonal",
                    "--neighbors", "off", "--beta-start", "0.05",
                    "--beta-end", "0.1", "--beta-step", "0.01", "--format", "csv")
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "beta1,delta_pr_fx"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 6
    assert values[0] == pytest.approx(933.033, abs=1e-3)
    assert values[-1] == pytest.approx(500.0, rel=1e-9)


def test_sweep_s1_is_constant():
    result = invoke("sweep", "--scenario", "S1", "--layout", "hexagonal",
                    "--beta-start", "0.05", "--beta-end", "0.1", "--beta-step", "0.01",
                    "--format", "csv")
    values = {line.split(",")[1] for line in result.output.strip().split("\n")[1:]}
    assert values == {"8"}


def test_sweep_json_rows():
    result = invoke("sweep", "--scenario", "S5", "--layout", "hexagonal",
                    "--beta-start", "0.05", "--beta-end", "0.1", "--beta-step", "0.05",
                    "--format", "json")
    payload = json.loads(result.output)
    assert [row["beta1"] for row in payload] == [0.05, 0.1]
    assert payload[0]["delta_pr_fx"] == pytest.approx(933.032992, rel=1e-8)


def test_sweep_rejects_zero_step():
    result = invoke("sweep", "--scenario", "S1", "--layout", "hexagonal",
                    "--beta-start", "0.05", "--beta-end", "0.1", "--beta-step", "0")
    assert result.exit_code == 2


def test_sweep_names_a_nan_step():
    result = invoke("sweep", "--scenario", "S5", "--layout", "hexagonal",
                    "--beta-start", "0.05", "--beta-end", "0.1", "--beta-step", "nan")
    assert result.exit_code == 2
    assert result.stderr == "error: beta_step must be finite, got nan\n"


def test_sweep_rejects_beta2_overflow():
    result = invoke("sweep", "--scenario", "S5", "--layout", "hexagonal",
                    "--beta-start", "0.05", "--beta-end", "0.11", "--beta-step", "0.01")
    assert result.exit_code == 2
    assert "beta2" in result.stderr


def test_sweep_names_a_received_power_overflow():
    """beta1 = 1e-200 at gamma 3 puts beta1**-gamma past a float: one
    `error: ` line naming the power, where a traceback and exit 1 were."""
    result = invoke("sweep", "--scenario", "S1", "--layout", "hexagonal",
                    "--beta-start", "1e-200", "--beta-end", "2e-200", "--beta-step", "1e-200")
    assert result.exit_code == 2
    assert result.stderr == ("error: deployment 1: received power: (d/d_max)**-gamma = "
                             "1e-200**-3 overflows a float\n")


@pytest.mark.parametrize("args", [
    ["compare", "--layout", "square", "--neighbors", "off", "--beta", "1e-60"],
    ["sweep", "--layout", "square", "--beta-start", "1e-60", "--beta-end", "1e-60",
     "--beta-step", "1e-60"],
], ids=["compare", "sweep"])
def test_received_power_overflow_names_the_second_deployment(tmp_path, args):
    """At beta1 = 1e-60 deployment (1) still fits a float, 1e-60**-3 = 1e180;
    deployment (2), at beta2 = 2e-60 and gamma 6, does not."""
    doc = tmp_path / "g6.json"
    doc.write_text(s1_document(deployment2={"d_max_m": 250, "p_r_th": 1, "gamma": 6,
                                            "f_mhz": 700}), encoding="utf-8")
    result = invoke(args[0], "--scenario", str(doc), *args[1:])
    assert result.exit_code == 2
    assert result.stderr == ("error: deployment 2: received power: (d/d_max)**-gamma = "
                             "2e-60**-6 overflows a float\n")
    assert result.stdout == ""


@pytest.mark.parametrize("step", ["1e-9", "5e-324"])
def test_sweep_refuses_grid_over_point_budget(step):
    result = invoke("sweep", "--scenario", "S5", "--layout", "hexagonal",
                    "--beta-start", "0.05", "--beta-end", "0.1", "--beta-step", step)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert "point budget MAX_SWEEP_POINTS = 100000" in result.stderr


@pytest.mark.parametrize("args", [
    ["compare", "--layout", "square"],
    ["sweep", "--layout", "square", "--beta-start", "0.1", "--beta-end", "0.2",
     "--beta-step", "0.1"],
    ["simulate", "--layout", "square", "--resolution", "50"],
], ids=["compare", "sweep", "simulate"])
def test_implausible_gamma_is_reported_once(run_cli, tmp_path, args):
    """`compare` and `sweep` report it through the scenario validator only;
    `simulate`, which does not validate, reports the constructor's warning in
    the same `warning: ` form, without a Python source location."""
    scenario = {
        "id": "G7",
        "deployment1": {"d_max_m": 500, "p_r_th": 1, "gamma": 7, "f_mhz": 700},
        "deployment2": {"d_max_m": 250, "p_r_th": 1, "gamma": 3, "f_mhz": 700},
    }
    (tmp_path / "g7.json").write_text(json.dumps(scenario), encoding="utf-8")
    proc = run_cli([args[0], "--scenario", "g7.json", *args[1:]])
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.decode().splitlines() if "gamma" in line]
    assert len(lines) == 1, proc.stderr
    if args[0] == "simulate":
        assert lines[0] == "warning: gamma = 7.0 is outside the plausible range [1.5, 6.5]"
    else:
        assert lines[0].startswith("warning: deployment1.gamma: gamma = 7.0 ")


@pytest.mark.parametrize("args,names", [
    (["compare"], "error: delta_emitted: d_max(2)**(gamma1 - gamma2) = 1e+99**4.4 "),
    (["simulate", "--layout", "square", "--resolution", "1e97"],
     "error: deployment 1: emitted power: d_max**gamma = 1e+100**6 "),
], ids=["compare", "simulate"])
def test_float_overflow_is_an_error_line(run_cli, tmp_path, args, names):
    """Schema-valid values whose powers overflow a float: d_max(1)^gamma(1)
    is 1e600. The command exits 2 with one `error: ` line, no traceback,
    which names the deployment and the power that overflowed."""
    scenario = {
        "id": "O",
        "deployment1": {"d_max_m": 1e100, "p_r_th": 1, "gamma": 6, "f_mhz": 700},
        "deployment2": {"d_max_m": 1e99, "p_r_th": 1, "gamma": 1.6, "f_mhz": 700},
    }
    (tmp_path / "o.json").write_text(json.dumps(scenario), encoding="utf-8")
    proc = run_cli([args[0], "--scenario", "o.json", *args[1:]])
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert lines[0].startswith(names) and lines[0].endswith(" overflows a float")
    assert proc.stdout == b""
    assert not (tmp_path / "field.csv").exists()


#: (1e-110)**3 underflows, so delta_pe computes as 0; delta_pr_fx = 8.944e-164
#: is a float.
TINY = {"id": "U", "deployment1": {"d_max_m": 1e-110, "p_r_th": 1, "gamma": 3, "f_mhz": 700},
        "deployment2": {"d_max_m": 1, "p_r_th": 1, "gamma": 1.5, "f_mhz": 700}}
#: p_r_th(1)/p_r_th(2) = 1e308: every ratio computes as infinity.
HUGE = {"id": "V", "deployment1": {"d_max_m": 1e60, "p_r_th": 1e300, "gamma": 6, "f_mhz": 700},
        "deployment2": {"d_max_m": 1e60, "p_r_th": 1e-8, "gamma": 1.5, "f_mhz": 700}}
SWEEP = ["--layout", "highway", "--beta-start", "0.05", "--beta-end", "0.1", "--beta-step", "0.05"]
RECORD_FORMATS = [[], ["--db"], ["--format", "csv"], ["--format", "csv", "--db"],
                  ["--format", "json"], ["--format", "json", "--db"]]


def strict_json(text: str):
    """``text`` parsed as JSON; NaN and Infinity, which JSON does not have, fail."""
    def refuse(token: str):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("extra", RECORD_FORMATS, ids=" ".join)
@pytest.mark.parametrize("doc,args,message", [
    (TINY, ["compare"], "delta_pe = P_E(1)/P_E(2) underflows to 0"),
    (HUGE, ["compare"], "delta_pe = P_E(1)/P_E(2) overflows a float"),
    (HUGE, ["sweep", *SWEEP], "delta_pr_fx = rfp_fixed(1)/rfp_fixed(2) overflows a float"),
], ids=["tiny-compare", "huge-compare", "huge-sweep"])
def test_a_ratio_outside_the_float_range_is_one_error_line(tmp_path, doc, args, message, extra):
    """Where 0, inf, JSON's invalid Infinity or a traceback from --db were."""
    (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    result = invoke(args[0], "--scenario", str(tmp_path / "doc.json"), *args[1:], *extra)
    assert (result.exit_code, result.stderr, result.stdout) == (2, f"error: {message}\n", "")


@pytest.mark.parametrize("args", [["compare"], ["sweep", *SWEEP]], ids=["compare", "sweep"])
@pytest.mark.parametrize("doc", [json.dumps(TINY), json.dumps(HUGE), s1_document()],
                         ids=["tiny", "huge", "S1"])
def test_json_output_is_strict_json_or_refused(tmp_path, doc, args):
    """No number that JSON cannot write reaches the output: it parses as strict
    JSON, or the command is refused with exit 2 and nothing on stdout."""
    (tmp_path / "doc.json").write_text(doc, encoding="utf-8")
    result = invoke(args[0], "--scenario", str(tmp_path / "doc.json"), *args[1:],
                    "--format", "json", "--db")
    if result.exit_code == 2:
        assert result.stdout == "" and result.stderr.startswith("error: "), result.stderr
    else:
        assert result.exit_code == 0, result.stderr
        assert strict_json(result.stdout)


def test_a_tiny_finite_ratio_is_reported(tmp_path):
    """TINY's delta_pr_fx, 8.944e-164, is a float: sweep reports it."""
    (tmp_path / "doc.json").write_text(json.dumps(TINY), encoding="utf-8")
    result = invoke("sweep", "--scenario", str(tmp_path / "doc.json"), *SWEEP,
                    "--format", "json", "--db")
    assert result.exit_code == 0, result.stderr
    assert [row["delta_pr_fx"] for row in strict_json(result.stdout)] == [
        8.94427191e-164, 3.16227766e-164]


def test_simulate_refuses_an_emitted_power_that_underflows(tmp_path):
    (tmp_path / "doc.json").write_text(json.dumps(TINY), encoding="utf-8")
    result = invoke("simulate", "--scenario", str(tmp_path / "doc.json"), "--layout", "highway",
                    "--out", str(tmp_path / "field.csv"))
    assert result.exit_code == 2
    assert result.stderr == ("error: deployment 1: emitted power: "
                             "p_r_th * d_max**gamma * f**eta * c underflows to 0\n")
    assert result.stdout == "" and not (tmp_path / "field.csv").exists()


# -- simulate ------------------------------------------------------------------


def test_simulate_hexagonal_summary_and_csv(tmp_path):
    out = tmp_path / "field.csv"
    result = invoke("simulate", "--layout", "hexagonal", "--rings", "2",
                    "--resolution", "5", "--out", str(out))
    assert result.exit_code == 0
    assert "upper-bound violations: 0" in result.output
    assert "empirical alpha: 0.60" in result.output
    text = out.read_text(encoding="utf-8")
    assert text.startswith("x_m,y_m,serving_site,distance_m,rfp_serving,rfp_total,excluded")
    assert len(text.strip().split("\n")) > 1000


def test_simulate_warns_where_the_bound_fails(tmp_path):
    """At gamma = 1.8 the neighbor sum outgrows the bound: 3972 pixels of a
    7-ring hexagonal lattice break it. One stderr warning names gamma and the
    rings; stdout and the CSV keep the bytes recorded before the warning
    existed, and the exit code stays 0."""
    scenario = {
        "id": "G18",
        "deployment1": {"d_max_m": 100, "p_r_th": 1, "gamma": 1.8, "f_mhz": 700},
        "deployment2": {"d_max_m": 100, "p_r_th": 1, "gamma": 2.1, "f_mhz": 700},
    }
    path, out = tmp_path / "g18.json", tmp_path / "field.csv"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    result = invoke("simulate", "--scenario", str(path), "--layout", "hexagonal",
                    "--rings", "7", "--resolution", "2", "--out", str(out))
    assert result.exit_code == 0
    assert result.stderr == ("warning: the neighbor upper bound fails at 3972 pixels "
                             "with gamma = 1.8 and 7 rings\n")
    assert result.stdout == (
        "layout: hexagonal  d_max: 100 m  rings: 7  resolution: 2 m\n"
        "sites: 169  pixels: 10450  excluded: 0\n"
        "empirical alpha: 0.608749905  (closed form 0.607986406)\n"
        "upper-bound violations: 3972\n"
        f"field written to: {out}\n"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "07d85e6b455d9fdd1bba7d62eba174f63eca59f64968bfb32e406174f74aa9cb")


def test_simulate_circle_exits_2(tmp_path):
    result = invoke("simulate", "--layout", "circle", "--out", str(tmp_path / "f.csv"))
    assert result.exit_code == 2


def test_simulate_write_failure_exits_1(tmp_path):
    result = invoke("simulate", "--layout", "highway", "--resolution", "10",
                    "--out", str(tmp_path / "missing_dir" / "f.csv"))
    assert result.exit_code == 1
    assert result.stderr.startswith("error: cannot write")
    assert result.stdout == ""


def test_simulate_writes_the_csv_band_by_band(tmp_path, monkeypatch):
    """``simulate`` writes the bytes of the whole-field export, one band at a
    time: the traced peak of the command stays below the field's arrays plus
    half the CSV's size. Bands of 2**11 pixels make one band a small share of
    the CSV on a grid small enough for tracemalloc."""
    monkeypatch.setattr(gridsim, "TILE_PIXELS", 2**11)
    dep = builtin_scenario("S1").dep1
    # Computed untraced: the reference export, the arrays' size, and numpy
    # imported before tracing starts.
    fld = compute_field(generate_sites(LayoutKind.HEXAGONAL, dep.d_max, 2), dep, 5.0)
    field_bytes = sum(getattr(fld, name).nbytes for name in (
        "xs", "ys", "serving_site", "serving_distance", "rfp_serving", "rfp_total", "excluded"))
    out = tmp_path / "field.csv"
    tracemalloc.start()
    try:
        result = invoke("simulate", "--layout", "hexagonal", "--rings", "2",
                        "--resolution", "5", "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert out.read_text(encoding="utf-8") == gridsim.export_field_csv(fld)
    assert peak < field_bytes + 0.5 * out.stat().st_size


@pytest.mark.parametrize("layout,resolution,pixels", [
    ("hexagonal", "5000", 0),
    ("highway", "2000", 0),
    ("square", "777", 1),  # the one pixel sits on the central site and is excluded
])
def test_simulate_refuses_grid_without_central_pixels(tmp_path, layout, resolution, pixels):
    """No pixel to average or check: exit 2 instead of a NaN alpha and a
    vacuous "0 violations", and no CSV is written."""
    out = tmp_path / "f.csv"
    result = invoke("simulate", "--layout", layout, "--resolution", resolution,
                    "--out", str(out))
    assert result.exit_code == 2
    assert f"no usable pixel in the central cell (pixels: {pixels}," in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("resolution", ["0.01", "1e-320"])
def test_simulate_refuses_grid_over_pixel_budget(tmp_path, resolution):
    out = tmp_path / "f.csv"
    result = invoke("simulate", "--layout", "hexagonal", "--resolution", resolution,
                    "--out", str(out))
    assert result.exit_code == 2
    assert "pixel budget MAX_FIELD_PIXELS = 4194304" in result.stderr
    assert not out.exists()


def test_simulate_refuses_sites_past_the_float_range(tmp_path):
    """A d_max whose tenth highway ring overflows is refused when the lattice
    is built, before the pixel budget."""
    doc, out = tmp_path / "huge.json", tmp_path / "f.csv"
    deployment = {"d_max_m": 1e307, "p_r_th": 1, "gamma": 3, "f_mhz": 700}
    doc.write_text(s1_document(deployment1=deployment, deployment2=deployment), encoding="utf-8")
    result = invoke("simulate", "--scenario", str(doc), "--layout", "highway", "--rings", "10",
                    "--out", str(out))
    assert result.exit_code == 2
    assert result.stderr == ("error: d_max 1e+307 m with 10 rings puts highway sites past "
                             "the largest float, 1.79769e+308 m\n")
    assert not out.exists()


def test_simulate_names_an_infinite_resolution(tmp_path):
    out = tmp_path / "f.csv"
    result = invoke("simulate", "--layout", "hexagonal", "--resolution", "inf",
                    "--out", str(out))
    assert result.exit_code == 2
    assert result.stderr == "error: resolution must be finite, got inf\n"
    assert not out.exists()


def test_simulate_pixel_on_a_site_is_silent_under_warnings_as_errors(tmp_path, child_env):
    """The pixel at (0, 0) sits on a site, so its power divides by zero. The
    field kernel ignores that in the worker threads too, as the caller asks."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "rfpcompare", "simulate", "--layout", "highway",
         "--rings", "2", "--resolution", "100"],
        cwd=tmp_path, env=child_env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert b"excluded: 1\n" in proc.stdout
    assert "\n0,0,0,0,,,1\n" in (tmp_path / "field.csv").read_text()


def test_simulate_has_no_seed_option(tmp_path):
    """The simulator is deterministic, so it takes no seed."""
    result = invoke("simulate", "--layout", "hexagonal", "--seed", "1",
                    "--out", str(tmp_path / "f.csv"))
    assert result.exit_code == 2
    assert "--seed" in result.stderr
    assert not (tmp_path / "f.csv").exists()


def test_simulate_second_deployment_uses_its_d_max(tmp_path):
    out = tmp_path / "field.csv"
    result = invoke("simulate", "--scenario", "S1", "--deployment", "2",
                    "--layout", "hexagonal", "--resolution", "2.5", "--out", str(out))
    assert result.exit_code == 0
    assert "d_max: 250 m" in result.output


# -- validate ------------------------------------------------------------------


def test_validate_passes_and_lists_families():
    result = invoke("validate", "--samples", "200000")
    assert result.exit_code == 0
    for family in ("closed-form", "geometry", "propagation", "simulation"):
        assert family in result.output
    assert "FAIL" not in result.output
    assert "monte-carlo-alpha-hexagonal" in result.output


# sha256 of the whole `validate --samples 200000 --seed S` stdout, recorded
# from the full-array Monte Carlo estimator. They pin the four
# `monte-carlo-alpha-*` lines, so any change to the draw stream, the accepted
# points or the printed statistics shows here.
VALIDATE_STDOUT_SHA256 = {
    7: "fd21077411cf86bb677812ce3d7b426ec6a406ef955de63253397a5fbbe0ec50",
    2024: "3728b5606f306bba7cfaf1beda63308be2804a6375fc5a58b6796922d1416796",
    58121: "cd6e46ff4c9ae77e23af85bc19251ed176679416021662959b0d50b51fa96cd2",
}


@pytest.mark.parametrize("seed", sorted(VALIDATE_STDOUT_SHA256))
def test_validate_stdout_matches_recorded_digest(seed):
    result = invoke("validate", "--samples", "200000", "--seed", str(seed))
    assert result.exit_code == 0, result.output
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == VALIDATE_STDOUT_SHA256[seed], result.stdout


@pytest.mark.parametrize("samples", ["999", "0", "-5"])
def test_validate_refuses_samples_below_minimum(samples):
    result = invoke("validate", "--samples", samples)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert ">= 1000" in result.stderr
    assert "Traceback" not in result.output


def test_validate_refuses_a_negative_seed():
    """numpy's own refusal, `expected non-negative integer`, named no option."""
    result = invoke("validate", "--seed", "-1", "--samples", "1000")
    assert result.exit_code == 2
    assert result.stderr == "error: seed must be >= 0, got -1\n"
    assert result.stdout == ""


def test_validate_names_monte_carlo_check_when_alpha_is_corrupted(monkeypatch):
    """Negative control: a corrupted alpha constant fails the MC check."""
    real = LayoutKind.alpha.fget

    def corrupted(kind):
        return 0.7 if kind is LayoutKind.HEXAGONAL else real(kind)

    monkeypatch.setattr(LayoutKind, "alpha", property(corrupted))
    result = invoke("validate", "--samples", "100000")
    assert result.exit_code == 1
    assert "[FAIL] geometry     monte-carlo-alpha-hexagonal" in result.output
    assert "monte-carlo-alpha-hexagonal" in result.stderr


def test_run_validation_alpha_reference_negative_control(monkeypatch):
    """A corrupted square alpha fails exactly the square's Monte Carlo check."""
    real = LayoutKind.alpha.fget

    def corrupted(kind):
        return 0.6 if kind is LayoutKind.SQUARE else real(kind)

    monkeypatch.setattr(LayoutKind, "alpha", property(corrupted))
    results = run_validation(mc_samples=100_000)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["monte-carlo-alpha-square"]


# -- exit codes ----------------------------------------------------------------


@pytest.mark.parametrize("name,args", [
    ("compute_field", ["simulate", "--layout", "hexagonal", "--resolution", "25"]),
    ("sweep_beta", ["sweep", "--scenario", "S5", "--layout", "hexagonal", "--beta-start", "0.05",
                    "--beta-end", "0.1", "--beta-step", "0.01"]),
    ("run_validation", ["validate", "--samples", "1000"]),
])
def test_a_value_error_that_is_no_refusal_is_not_a_usage_error(monkeypatch, tmp_path, name, args):
    """Only a refusal (an ``RfpError``) becomes an ``error: `` line and exit 2.
    Any other ``ValueError`` is a bug: it leaves ``main`` as it was raised, so
    the console script prints its traceback and exits 1."""
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, name, broken)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="^boom$"):
        cli.main(args)


# -- determinism ---------------------------------------------------------------


def test_validate_runs_are_byte_identical(run_cli):
    args = ["validate", "--samples", "200000", "--seed", "7"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout


def test_seeded_simulate_runs_are_byte_identical(run_cli, tmp_path):
    args = ["simulate", "--layout", "hexagonal", "--rings", "2",
            "--resolution", "25", "--out", "field.csv"]
    first = run_cli(args)
    assert first.returncode == 0, first.stderr
    csv_first = (tmp_path / "field.csv").read_bytes()
    second = run_cli(args)
    assert second.returncode == 0, second.stderr
    csv_second = (tmp_path / "field.csv").read_bytes()
    assert first.stdout == second.stdout
    assert csv_first == csv_second
