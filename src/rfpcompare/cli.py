"""Command-line frontend: comparison runs, beta sweeps, lattice simulation,
and the self-validation suite.

Exit codes: 0 success, 1 runtime or check failure (an exception that is not a
refusal is a bug: a traceback), 2 usage error or refused input (an ``RfpError``).
Results go to standard output (or ``--out``), diagnostics to the error stream.
``compare`` and ``sweep`` render their records through one emitter: the table
shows numbers to 4 significant digits, CSV and JSON to 9. Ratios are linear;
``--db`` adds a ``*_db`` column (10*log10) after each ratio column. Closed-form
columns are empty in the table and CSV, and ``null`` in JSON, unless the
scenario's deployments are those of the built-in of its id.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
import warnings
from collections.abc import Iterable

from . import _EXPORTS, _MODULE_OF, DEFAULT_MC_SAMPLES, DEFAULT_SEED, __version__

#: What every scenario command needs: loading and checking a scenario.
_SCENARIO_MODULES = ("errors", "geometry", "propagation", "scenarios")
#: The modules ``_load`` has bound.
_loaded: set[str] = set()


def _load(*modules: str) -> None:
    """Import each module named, once, and bind its names of the package root's
    table here, where the benchmark's tracer and the tests replace them. A name
    bound already, such as a wrapper put in place before the first command, is
    kept."""
    for module in modules:
        if module not in _loaded:
            library = importlib.import_module(f".{module}", __package__)
            for name in _EXPORTS[module]:
                globals().setdefault(name, getattr(library, name))
            _loaded.add(module)


def __getattr__(name: str):
    """Bind a name of the package root's table on its first lookup from outside.

    A name whose module is loaded already was deleted on purpose, and stays
    missing.
    """
    module = _MODULE_OF.get(name)
    if module is None or module in _loaded:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


#: The layouts with a site lattice, and every layout (``LayoutKind``'s values).
_TESSELLATING_CHOICE = ("highway", "square", "hexagonal")
_LAYOUT_CHOICE = (*_TESSELLATING_CHOICE, "circle")
_NEIGHBOR_CHOICE = ["on", "off"]
#: Appended to the help of an option whose default the help shows.
_DEFAULT = " [default: %(default)s]"


def _db(value: float) -> float:
    return 10.0 * math.log10(value)


def _fail(message: str) -> NoReturn:
    """Report an invalid input as one ``error: `` line and exit 2."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load_scenario(source: str) -> Scenario:
    if source.upper() in builtin_scenario_ids():
        return builtin_scenario(source)
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                return parse_scenario_file(fh.read())
        except (RfpError, OSError, UnicodeDecodeError) as exc:
            _fail(f"invalid scenario file {source!r}: {exc}")
    _fail(f"scenario {source!r} is neither a built-in id "
          f"({', '.join(builtin_scenario_ids())}) nor an existing file")


def _load_checked_scenario(source: str) -> Scenario:
    """Load a scenario and report its violations: warnings go to stderr,
    errors abort with code 2.

    The constructors' own ``PlausibilityWarning`` is ignored while loading,
    because ``validate_scenario`` reports the same finding with its field path.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PlausibilityWarning)
        scenario = _load_scenario(source)
    violations = validate_scenario(scenario)
    for v in violations:
        if v.severity == "warning":
            print(f"warning: {v.path}: {v.message}", file=sys.stderr)
    errors = [v for v in violations if v.severity == "error"]
    if errors:
        for v in errors:
            print(f"error: {v.path}: {v.message}", file=sys.stderr)
        sys.exit(2)
    return scenario


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the text pieces in turn to stdout, or to the file ``out``.

    The file is opened once, before the first piece is made. A failed open or
    write exits 1; a write that fails part way leaves a partial file.
    """
    if out is None:
        for piece in pieces:
            sys.stdout.write(piece)
            del piece  # not held while the next piece is made
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            for piece in pieces:
                fh.write(piece)
                del piece
    except OSError as exc:
        print(f"error: cannot write {out!r}: {exc}", file=sys.stderr)
        sys.exit(1)


def _pin(value):
    """``value`` with every float, nested ones too, pinned to 9 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: _pin(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_pin(item) for item in value]
    return value


def _emit_records(fmt: str, out: str | None, headers: list[str], rows: list[list],
                  objects: list[dict]) -> None:
    """Write one record per row as an aligned table, CSV or JSON.

    The table shows numbers to 4 significant digits, with text columns
    left-aligned and number columns right-aligned; CSV shows them to 9. JSON
    writes ``objects`` instead of the rows, with numbers pinned to 9
    significant digits. ``None`` is an empty cell in the table and CSV, and
    ``null`` in JSON.
    """
    if fmt == "json":
        import json
        _emit([json.dumps(_pin(objects), indent=2) + "\n"], out)
        return
    digits = 9 if fmt == "csv" else 4
    lines = [headers] + [
        [v if isinstance(v, str) else "" if v is None else f"{v:.{digits}g}" for v in row]
        for row in rows
    ]
    if fmt == "csv":
        _emit(["".join(",".join(cells) + "\n" for cells in lines)], out)
        return
    columns = range(len(headers))
    widths = [max(len(cells[i]) for cells in lines) for i in columns]
    text_columns = [any(isinstance(row[i], str) for row in rows) for i in columns]
    lines.insert(1, ["-" * w for w in widths])
    aligned = (
        "  ".join(c.ljust(w) if text else c.rjust(w)
                  for c, w, text in zip(cells, widths, text_columns))
        for cells in lines
    )
    _emit(["".join(line.rstrip() + "\n" for line in aligned)], out)


def compare(scenario_source, layout_name, all_layouts, neighbors, beta, fmt, out, show_db):
    """Evaluate the three deployment ratios for a scenario.

    Prints, per layout and neighbor mode, the emitted-power ratio and the
    received-power ratios at average and fixed distance, next to the
    per-scenario closed form and their relative difference.
    """
    _load(*_SCENARIO_MODULES, "comparison")
    scenario = _load_checked_scenario(scenario_source)

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

    ratio_keys = [f"delta_{m.value}" for m in Metric]
    headers = ["scenario", "layout", "mode", *ratio_keys]
    if show_db:
        headers += [f"{key}_db" for key in ratio_keys]
    headers += [f"closed_{m.value}" for m in Metric] + ["max_rel_diff"]

    rows, objects = [], []
    for layout, mode in evaluable(layouts, modes):
        result, checks = cross_check(scenario, layout, mode, beta1)
        ratios = [result.get(m) for m in Metric]
        closed = [c.closed_form for c in checks]
        rel_diff = max((c.relative_error for c in checks), default=None)
        if show_db:
            ratios += [_db(r) for r in ratios]
        row = [scenario.id, layout.value, mode.value, *ratios]
        obj = dict(zip(headers, row))
        obj["closed_form"] = dict(zip(ratio_keys, closed)) if checks else None
        obj["relative_difference"] = rel_diff
        rows.append(row + (closed or [None] * 3) + [rel_diff])
        objects.append(obj)
    if not rows:
        _fail("nothing to evaluate (empty layout/mode selection)")
    _emit_records(fmt, out, headers, rows, objects)


def sweep(scenario_source, layout_name, neighbors, beta_start, beta_end, beta_step,
          fmt, out, show_db):
    """Sweep beta1 and report the fixed-distance ratio along the grid."""
    _load(*_SCENARIO_MODULES, "comparison")
    scenario = _load_checked_scenario(scenario_source)
    kind = LayoutKind(layout_name)
    mode = NeighborMode.ADJACENT if neighbors == "on" else NeighborMode.NONE
    series = sweep_beta(scenario, kind, mode, beta_start, beta_end, beta_step)

    headers = ["beta1", "delta_pr_fx"] + (["delta_pr_fx_db"] if show_db else [])
    rows = [[b, v] + ([_db(v)] if show_db else []) for b, v in series]
    objects = [{"scenario": scenario.id, "layout": kind.value, "mode": mode.value,
                **dict(zip(headers, row))} for row in rows]
    _emit_records(fmt, out, headers, rows, objects)


def simulate(scenario_source, which, layout_name, rings, resolution, out):
    """Simulate the received-power field on an actual site lattice.

    Writes the per-pixel CSV and prints a summary: pixel counts, the empirical
    alpha (mean serving distance over d_max of the pixels the central site
    serves, less those within half a resolution of it; validate checks the
    same quantity), and the number of neighbor-upper-bound violations. The
    bound charges each first-ring neighbor the power at zeta * d_max. Up to
    the 10-ring cap it held in every case measured with gamma >= 2. Below 2
    the power of the farther rings grows without limit: at gamma = 1.8 the
    hexagonal lattice breaks the bound from 6 rings on. Violations get a
    warning on stderr; the exit code stays 0.
    """
    _load(*_SCENARIO_MODULES, "gridsim")
    # Unvalidated: report the constructors' warnings without a source location.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PlausibilityWarning)
        scenario = _load_scenario(scenario_source)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    dep = scenario.dep1 if which == "1" else scenario.dep2
    kind = LayoutKind(layout_name)
    try:
        lattice = generate_sites(kind, dep.d_max, rings)
        fld = compute_field(lattice, dep, resolution)
        violations = len(verify_upper_bound(fld, dep, kind))
        # Refuses a grid without central pixels, where "0 violations" is vacuous.
        emp_alpha = central_alpha(fld.serving_site, fld.serving_distance, resolution, dep.d_max)
    except OverflowError as exc:
        _fail(str(in_deployment(which, exc)))

    # Band by band, so that the CSV text is never held whole.
    _emit((export_field_csv(band, header=i == 0) for i, band in enumerate(field_bands(fld))),
          out)

    print(f"layout: {kind.value}  d_max: {dep.d_max:.9g} m  "
          f"rings: {rings}  resolution: {resolution:.9g} m")
    print(f"sites: {len(lattice.sites)}  pixels: {fld.n_pixels}  excluded: {fld.n_excluded}")
    print(f"empirical alpha: {emp_alpha:.9g}  (closed form {kind.alpha:.9g})")
    print(f"upper-bound violations: {violations}")
    print(f"field written to: {out}")
    if violations:
        print(f"warning: the neighbor upper bound fails at {violations} pixels with "
              f"gamma = {dep.gamma:.9g} and {rings} rings", file=sys.stderr)


def validate(seed, samples):
    """Run the self-validation suite and report per-check status."""
    _load("selfcheck")
    results = run_validation(seed=seed, mc_samples=samples)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.family:<12} {r.name:<32} {r.detail}")
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        print("failed checks: " + ", ".join(r.name for r in failures), file=sys.stderr)
        sys.exit(1)


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run the command line ``argv`` (default: ``sys.argv[1:]``); any outcome but
    success raises ``SystemExit``. ``standalone_mode`` changes nothing: it is
    accepted because ``benchmarks/run.py`` runs commands in-process as
    ``main(args, standalone_mode=False)``, the call of the former click entry point."""
    # Text as written: a narrow terminal would otherwise wrap the --version line.
    parser = argparse.ArgumentParser(
        prog="rfpcompare", allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Compare the received RF power of paired cellular deployments.\n\n"
        "Quantifies, from closed forms validated against brute-force geometry and\n"
        "field simulation, how emitted power and received power at average or fixed\n"
        "distance change between two deployments on the same coverage layout.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    records = argparse.ArgumentParser(add_help=False)  # the options compare and sweep share
    records.add_argument("--scenario", dest="scenario_source", required=True,
                         help="Built-in scenario id (S1..S5) or path to a JSON scenario file.")
    records.add_argument("--format", dest="fmt", choices=["table", "csv", "json"],
                         default="table", help=_DEFAULT)
    records.add_argument("--out", help="Write output to a file.")
    records.add_argument("--db", dest="show_db", action="store_true",
                         help="Also render ratios in decibels.")

    def command(run, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        """The subcommand that calls ``run``, described by its docstring."""
        doc = run.__doc__ or ""
        sub = commands.add_parser(run.__name__, parents=parents, allow_abbrev=False,
                                  help=doc.partition("\n")[0], description=doc)
        sub.set_defaults(run=run)
        return sub

    sub = command(compare, records)
    layouts = sub.add_mutually_exclusive_group()
    layouts.add_argument("--layout", dest="layout_name", choices=_TESSELLATING_CHOICE,
                         help="Evaluate a single layout.")
    layouts.add_argument("--all-layouts", action="store_true",
                         help="Evaluate highway, square, and hexagonal.")
    sub.add_argument("--neighbors", choices=_NEIGHBOR_CHOICE,
                     help="Neighbor contributions on or off (default: both, per scenario).")
    sub.add_argument("--beta", type=float, help="Override the scenario's beta1.")

    sub = command(sweep, records)
    sub.add_argument("--layout", dest="layout_name", choices=_TESSELLATING_CHOICE, required=True)
    sub.add_argument("--neighbors", choices=_NEIGHBOR_CHOICE, default="off", help=_DEFAULT)
    for bound in ("--beta-start", "--beta-end", "--beta-step"):
        sub.add_argument(bound, type=float, required=True)

    sub = command(simulate)
    sub.add_argument("--scenario", dest="scenario_source", default="S1",
                     help="Scenario supplying the deployment parameters." + _DEFAULT)
    sub.add_argument("--deployment", dest="which", choices=["1", "2"], default="1",
                     help="Which deployment of the pair to simulate." + _DEFAULT)
    sub.add_argument("--layout", dest="layout_name", choices=_LAYOUT_CHOICE, required=True)
    sub.add_argument("--rings", type=int, default=2, help=_DEFAULT)
    sub.add_argument("--resolution", type=float, default=5.0,
                     help="Pixel size in meters." + _DEFAULT)
    sub.add_argument("--out", default="field.csv",
                     help="Path of the CSV field export." + _DEFAULT)

    sub = command(validate)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help=_DEFAULT)
    sub.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES,
                     help="Monte Carlo sample count for the alpha checks." + _DEFAULT)

    args = vars(parser.parse_args(argv))
    run = args.pop("run")
    _load("errors")  # after parsing: --version exits there, loading no library module
    try:
        run(**args)
    except (RfpError, OverflowError) as exc:
        _fail(str(exc))


if __name__ == "__main__":
    main()
