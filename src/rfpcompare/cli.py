"""Command-line frontend: comparison runs, beta sweeps, lattice simulation,
and the self-validation suite.

Exit codes: 0 success, 1 runtime or check failure, 2 usage/validation error.
Human-readable tables go to standard output, diagnostics to the error stream.
Ratios are linear; ``--db`` adds a 10*log10 rendering alongside.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from . import __version__
from .comparison import DeploymentPair, Metric, closed_form_delta, evaluate_pair
from .errors import RfpError
from .geometry import Layout, LayoutKind, TESSELLATING_KINDS
from .gridsim import compute_field, export_field_csv, generate_sites, verify_upper_bound
from .propagation import NeighborMode
from .scenarios import (
    Scenario,
    builtin_scenario,
    builtin_scenario_ids,
    parse_scenario_file,
    sweep_beta,
    validate_scenario,
)
from .selfcheck import DEFAULT_MC_SAMPLES, DEFAULT_SEED, run_validation

_FORMAT_CHOICE = click.Choice(["table", "csv", "json"])
_TESSELLATING_CHOICE = click.Choice([k.value for k in TESSELLATING_KINDS])
_ANY_LAYOUT_CHOICE = click.Choice([k.value for k in LayoutKind])
_NEIGHBOR_CHOICE = click.Choice(["on", "off"])


def _fmt9(value: float) -> str:
    return f"{value:.9g}"


def _fmt4(value: float) -> str:
    return f"{value:.4g}"


def _json_number(value: float) -> float:
    # Pin JSON numbers to the documented 9 significant digits.
    return float(f"{value:.9g}")


def _db(value: float) -> float:
    return 10.0 * math.log10(value)


def _load_scenario(source: str) -> Scenario:
    if source.upper() in builtin_scenario_ids():
        return builtin_scenario(source)
    path = Path(source)
    if path.exists():
        try:
            return parse_scenario_file(path.read_text(encoding="utf-8"))
        except RfpError as exc:
            raise click.UsageError(f"invalid scenario file {source!r}: {exc}")
    raise click.UsageError(
        f"scenario {source!r} is neither a built-in id "
        f"({', '.join(builtin_scenario_ids())}) nor an existing file"
    )


def _check_scenario(scenario: Scenario) -> None:
    """Report violations; warnings go to stderr, errors abort with code 2."""
    violations = validate_scenario(scenario)
    for v in violations:
        if v.severity == "warning":
            click.echo(f"warning: {v.path}: {v.message}", err=True)
    errors = [v for v in violations if v.severity == "error"]
    if errors:
        for v in errors:
            click.echo(f"error: {v.path}: {v.message}", err=True)
        sys.exit(2)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            click.echo(f"error: cannot write {out!r}: {exc}", err=True)
            sys.exit(1)


def _render_table(headers: list[str], rows: list[list[str]], n_text_cols: int) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt_row(cells: list[str]) -> str:
        parts = [
            cells[i].ljust(widths[i]) if i < n_text_cols else cells[i].rjust(widths[i])
            for i in range(len(cells))
        ]
        return "  ".join(parts).rstrip()

    lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(r) for r in rows)
    return "\n".join(lines) + "\n"


def _render_csv(headers: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(headers)]
    lines.extend(",".join(r) for r in rows)
    return "\n".join(lines) + "\n"


@click.group()
@click.version_option(version=__version__, prog_name="rfpcompare")
def main() -> None:
    """Compare the received RF power of paired cellular deployments.

    Quantifies, from closed forms validated against brute-force geometry and
    field simulation, how emitted power and received power at average or fixed
    distance change between two deployments on the same coverage layout.
    """


def _scenario_is_builtin(scenario: Scenario) -> bool:
    """Closed forms apply iff the deployment parameters match a built-in set."""
    if scenario.id not in builtin_scenario_ids():
        return False
    reference = builtin_scenario(scenario.id)
    return scenario.dep1 == reference.dep1 and scenario.dep2 == reference.dep2


@main.command()
@click.option("--scenario", "scenario_source", required=True,
              help="Built-in scenario id (S1..S5) or path to a JSON scenario file.")
@click.option("--layout", "layout_name", type=_TESSELLATING_CHOICE, default=None,
              help="Evaluate a single layout.")
@click.option("--all-layouts", is_flag=True, help="Evaluate highway, square, and hexagonal.")
@click.option("--neighbors", type=_NEIGHBOR_CHOICE, default=None,
              help="Neighbor contributions on or off (default: both, per scenario).")
@click.option("--beta", type=float, default=None, help="Override the scenario's beta1.")
@click.option("--format", "fmt", type=_FORMAT_CHOICE, default="table", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Write output to a file.")
@click.option("--db", "show_db", is_flag=True, help="Also render ratios in decibels.")
def compare(scenario_source, layout_name, all_layouts, neighbors, beta, fmt, out, show_db):
    """Evaluate the three deployment ratios for a scenario.

    Prints, per layout and neighbor mode, the emitted-power ratio and the
    received-power ratios at average and fixed distance, next to the
    per-scenario closed form and their relative difference.
    """
    if layout_name and all_layouts:
        raise click.UsageError("--layout and --all-layouts are mutually exclusive")
    scenario = _load_scenario(scenario_source)
    _check_scenario(scenario)

    if layout_name:
        layouts = (LayoutKind(layout_name),)
    elif all_layouts:
        layouts = TESSELLATING_KINDS
    else:
        layouts = scenario.layouts
    if neighbors is None:
        modes = scenario.modes
    else:
        modes = (NeighborMode.ADJACENT,) if neighbors == "on" else (NeighborMode.NONE,)
    beta1 = scenario.beta1 if beta is None else beta
    has_closed_form = _scenario_is_builtin(scenario)

    records = []
    try:
        for kind in layouts:
            layout = Layout(kind)
            for mode in modes:
                if mode is NeighborMode.ADJACENT and not layout.tessellates:
                    continue
                pair = DeploymentPair(scenario.dep1, scenario.dep2, layout, beta1, mode)
                result = evaluate_pair(pair, scenario_id=scenario.id)
                closed = None
                rel_diff = None
                if has_closed_form:
                    closed = {
                        m: closed_form_delta(scenario.id, m, layout, mode, beta1)
                        for m in Metric
                    }
                    rel_diff = max(
                        abs(closed[m] - result.get(m)) / abs(result.get(m))
                        for m in Metric
                    )
                records.append((kind, mode, result, closed, rel_diff))
    except RfpError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if not records:
        click.echo("error: nothing to evaluate (empty layout/mode selection)", err=True)
        sys.exit(2)

    headers = ["scenario", "layout", "mode", "delta_pe", "delta_pr_avg", "delta_pr_fx"]
    if show_db:
        headers += ["delta_pe_db", "delta_pr_avg_db", "delta_pr_fx_db"]
    headers += ["closed_pe", "closed_pr_avg", "closed_pr_fx", "max_rel_diff"]

    def row_cells(record, fmt_num) -> list[str]:
        kind, mode, result, closed, rel_diff = record
        cells = [scenario.id, kind.value, mode.value,
                 fmt_num(result.delta_pe), fmt_num(result.delta_pr_avg),
                 fmt_num(result.delta_pr_fx)]
        if show_db:
            cells += [fmt_num(_db(result.delta_pe)), fmt_num(_db(result.delta_pr_avg)),
                      fmt_num(_db(result.delta_pr_fx))]
        if closed is None:
            cells += ["", "", "", ""]
        else:
            cells += [fmt_num(closed[Metric.PE]), fmt_num(closed[Metric.PR_AVG]),
                      fmt_num(closed[Metric.PR_FX]), fmt_num(rel_diff)]
        return cells

    if fmt == "json":
        payload = []
        for kind, mode, result, closed, rel_diff in records:
            obj = {
                "scenario": scenario.id,
                "layout": kind.value,
                "mode": mode.value,
                "delta_pe": _json_number(result.delta_pe),
                "delta_pr_avg": _json_number(result.delta_pr_avg),
                "delta_pr_fx": _json_number(result.delta_pr_fx),
            }
            if show_db:
                obj["delta_pe_db"] = _json_number(_db(result.delta_pe))
                obj["delta_pr_avg_db"] = _json_number(_db(result.delta_pr_avg))
                obj["delta_pr_fx_db"] = _json_number(_db(result.delta_pr_fx))
            obj["closed_form"] = (
                None
                if closed is None
                else {
                    "delta_pe": _json_number(closed[Metric.PE]),
                    "delta_pr_avg": _json_number(closed[Metric.PR_AVG]),
                    "delta_pr_fx": _json_number(closed[Metric.PR_FX]),
                }
            )
            obj["relative_difference"] = None if rel_diff is None else _json_number(rel_diff)
            payload.append(obj)
        _emit(json.dumps(payload, indent=2) + "\n", out)
    elif fmt == "csv":
        _emit(_render_csv(headers, [row_cells(r, _fmt9) for r in records]), out)
    else:
        _emit(_render_table(headers, [row_cells(r, _fmt4) for r in records], 3), out)


@main.command()
@click.option("--scenario", "scenario_source", required=True)
@click.option("--layout", "layout_name", type=_TESSELLATING_CHOICE, required=True)
@click.option("--neighbors", type=_NEIGHBOR_CHOICE, default="off", show_default=True)
@click.option("--beta-start", type=float, required=True)
@click.option("--beta-end", type=float, required=True)
@click.option("--beta-step", type=float, required=True)
@click.option("--format", "fmt", type=_FORMAT_CHOICE, default="table", show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--db", "show_db", is_flag=True)
def sweep(scenario_source, layout_name, neighbors, beta_start, beta_end, beta_step,
          fmt, out, show_db):
    """Sweep beta1 and report the fixed-distance ratio along the grid."""
    scenario = _load_scenario(scenario_source)
    _check_scenario(scenario)
    kind = LayoutKind(layout_name)
    mode = NeighborMode.ADJACENT if neighbors == "on" else NeighborMode.NONE
    try:
        series = sweep_beta(scenario, kind, mode, beta_start, beta_end, beta_step)
    except (RfpError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    headers = ["beta1", "delta_pr_fx"] + (["delta_pr_fx_db"] if show_db else [])
    if fmt == "json":
        payload = []
        for b, value in series:
            obj = {
                "scenario": scenario.id,
                "layout": kind.value,
                "mode": mode.value,
                "beta1": _json_number(b),
                "delta_pr_fx": _json_number(value),
            }
            if show_db:
                obj["delta_pr_fx_db"] = _json_number(_db(value))
            payload.append(obj)
        _emit(json.dumps(payload, indent=2) + "\n", out)
    else:
        fmt_num = _fmt9 if fmt == "csv" else _fmt4
        rows = [
            [fmt_num(b), fmt_num(v)] + ([fmt_num(_db(v))] if show_db else [])
            for b, v in series
        ]
        text = _render_csv(headers, rows) if fmt == "csv" else _render_table(headers, rows, 0)
        _emit(text, out)


@main.command()
@click.option("--scenario", "scenario_source", default="S1", show_default=True,
              help="Scenario supplying the deployment parameters.")
@click.option("--deployment", "which", type=click.Choice(["1", "2"]), default="1",
              show_default=True, help="Which deployment of the pair to simulate.")
@click.option("--layout", "layout_name", type=_ANY_LAYOUT_CHOICE, required=True)
@click.option("--rings", type=int, default=2, show_default=True)
@click.option("--resolution", type=float, default=5.0, show_default=True,
              help="Pixel size in meters.")
@click.option("--out", type=click.Path(), default="field.csv", show_default=True,
              help="Path of the CSV field export.")
@click.option("--seed", type=int, default=None,
              help="Accepted for scripted uniformity; the simulator is deterministic.")
def simulate(scenario_source, which, layout_name, rings, resolution, out, seed):
    """Simulate the received-power field on an actual site lattice.

    Writes the per-pixel CSV and prints a summary: pixel counts, the empirical
    mean serving distance (as a fraction of d_max), and the number of
    neighbor-upper-bound violations (expected: zero for rings >= 2).
    """
    scenario = _load_scenario(scenario_source)
    dep = scenario.dep1 if which == "1" else scenario.dep2
    kind = LayoutKind(layout_name)
    try:
        lattice = generate_sites(kind, dep.d_max, rings)
        fld = compute_field(lattice, dep, resolution)
        violations = verify_upper_bound(fld, dep, Layout(kind))
    except (RfpError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    central = fld.central_cell
    if not central.any():
        # Nothing to average or to check: the summary would print NaN and a
        # vacuous "0 violations".
        click.echo(f"error: resolution {_fmt9(resolution)} m leaves no usable pixel in "
                   f"the central cell (pixels: {fld.n_pixels}, excluded: {fld.n_excluded})",
                   err=True)
        sys.exit(2)
    emp_alpha = float(fld.serving_distance[central].mean() / dep.d_max)
    _emit(export_field_csv(fld), out)

    click.echo(f"layout: {kind.value}  d_max: {_fmt9(dep.d_max)} m  "
               f"rings: {rings}  resolution: {_fmt9(resolution)} m")
    click.echo(f"sites: {len(lattice.sites)}  pixels: {fld.n_pixels}  "
               f"excluded: {fld.n_excluded}")
    click.echo(f"empirical alpha: {_fmt9(emp_alpha)}  "
               f"(closed form {_fmt9(Layout(kind).alpha)})")
    click.echo(f"upper-bound violations: {len(violations)}")
    click.echo(f"field written to: {out}")


@main.command()
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--samples", type=int, default=DEFAULT_MC_SAMPLES, show_default=True,
              help="Monte Carlo sample count for the alpha checks.")
def validate(seed, samples):
    """Run the self-validation suite and report per-check status."""
    try:
        results = run_validation(seed=seed, mc_samples=samples)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.family:<12} {r.name:<32} {r.detail}")
    failures = [r for r in results if not r.passed]
    click.echo(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        click.echo("failed checks: " + ", ".join(r.name for r in failures), err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
