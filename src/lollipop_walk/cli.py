"""Command-line interface: run walks, check benchmark tables, audit operators.

Verbs:
  run           evolve one walk and write distribution/summary files
  tables        re-run the two long 25-node benchmarks and diff against the
                built-in reference values
  oracle-check  dense-operator unitarity and rule-vs-matrix agreement

This module parses, dispatches and formats; each limit lives with its data.
The topology types check sites and cycle sizes, the dense oracle its
truncation and size, and `_driver` the engine's size limit, at launch and in
the `check_walk` that `run` calls before it makes the output directory;
`run` and `oracle-check` report such a ValueError as exit code 1.  `run`
goes from the parsed arguments to the artifact files in one function.  It
and `tables` launch their walks through one `_launch`, and `REFERENCE_RUNS`
feeds both `compute_tables_report`, which returns
`{model: {time: SummaryRecord}}`, and `format_tables_report`, which diffs
those against the reference values.

Exit codes: 0 success, 1 validation error, 2 i/o error, 3 tolerance failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from . import _driver
from .classical import make_point_distribution, evolve_classical
from .observables import SummaryRecord, summarize
from .oracle import build_dense_unitary, compare_step, unitarity_defect
from .output import (
    render_cycle_svg,
    render_halfline_svg,
    write_distribution_csv,
    write_distribution_json,
    write_summary_csv,
    write_summary_json,
    write_svg,
)
from .quantum import make_basis_state, evolve_quantum
from .topology import Coin, CycleNode, HalfLineNode, LollipopTopology, Site

MODELS = ("quantum", "classical")
FORMATS = ("csv", "json", "svg")
# oracle-check's limits on the unitarity defect and the rule-vs-dense diff
DEFECT_LIMIT = 1e-10
MISMATCH_LIMIT = 1e-12


class ConfigError(ValueError):
    """Bad configuration or usage; maps to exit code 1."""


def parse_start(text: str) -> tuple[Site, Coin | None]:
    """Parse `cycle:<k>[:<L|R|D>]` or `half:<x>[:<U|D>]`."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"start must look like cycle:12:R or half:3:D, got {text!r}")
    region, index_text = parts[0], parts[1]
    try:
        index = int(index_text)
    except ValueError:
        raise ConfigError(f"start site index must be an integer, got {index_text!r}")
    coin = None
    if len(parts) == 3:
        try:
            coin = Coin(parts[2].upper())
        except ValueError:
            raise ConfigError(f"coin must be one of L, R, D, U, got {parts[2]!r}")
    node = {"cycle": CycleNode, "half": HalfLineNode}.get(region)
    if node is None:
        raise ConfigError(f"start region must be 'cycle' or 'half', got {region!r}")
    try:
        return node(index), coin
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _launch(model: str, topology: LollipopTopology, site: Site, coin: Coin | None):
    """Time-0 state of a `model` walk at (site, coin), and its evolve function."""
    # named at call time, so patches of this module's make_*/evolve_* apply
    if model == "quantum":
        return make_basis_state(topology, site, coin), evolve_quantum
    return make_point_distribution(topology, site), evolve_classical


# --- tables ----------------------------------------------------------------

BENCHMARK_TIMES = (20000, 50000, 100000)

# Reference values for the standard 25-node benchmark.
QUANTUM_CYCLE_TOTALS = (0.50587, 0.50012, 0.50000)
QUANTUM_SPIKE_SITES = (0, 24, 14)
QUANTUM_SPIKE_HEIGHTS = (0.09573, 0.05955, 0.06355)
CLASSICAL_CYCLE_TOTALS = (0.14055, 0.09011, 0.06403)
CLASSICAL_SPIKE_SITES = (0, 0, 0)
CLASSICAL_SPIKE_HEIGHTS = (0.00825, 0.00530, 0.00376)

TOTAL_TOLERANCE = {"quantum": 5e-3, "classical": 5e-4}
SPIKE_TOLERANCE = {"quantum": 2e-3, "classical": 1e-4}

# model, start, then the reference cycle totals, spike heights and sites
REFERENCE_RUNS = (
    ("quantum", "cycle:12:R", QUANTUM_CYCLE_TOTALS, QUANTUM_SPIKE_HEIGHTS,
     QUANTUM_SPIKE_SITES),
    ("classical", "cycle:12", CLASSICAL_CYCLE_TOTALS, CLASSICAL_SPIKE_HEIGHTS,
     CLASSICAL_SPIKE_SITES),
)


def compute_tables_report() -> dict[str, dict[int, SummaryRecord]]:
    """Run both 25-node benchmarks (about 10 seconds) and summarize them.

    Returns `{model: {time: SummaryRecord}}` at each of BENCHMARK_TIMES, the
    records `format_tables_report` diffs against the reference values.  A
    line on stderr announces each benchmark as it starts.
    """
    topology = LollipopTopology(25)
    records = {}
    steps = BENCHMARK_TIMES[-1]
    for model, start, *_ in REFERENCE_RUNS:
        state, evolve = _launch(model, topology, *parse_start(start))
        print(f"running {model} benchmark ({steps} steps)", file=sys.stderr)
        snaps = evolve(state, steps, BENCHMARK_TIMES)
        records[model] = {t: summarize(d) for t, d in snaps}
    return records


def format_tables_report(
    records: dict[str, dict[int, SummaryRecord]],
    tolerance_override: float | None = None,
) -> tuple[str, bool]:
    """Diff `{model: {time: SummaryRecord}}` against the reference values
    and render the table; ok=False if any deviation exceeds its tolerance
    or any spike site mismatches."""
    lines = []
    ok = True
    for model, start, totals, heights, sites in REFERENCE_RUNS:
        lines.append(
            f"{model} walk, 25-node cycle, launched at {start}, "
            f"{BENCHMARK_TIMES[-1]} steps"
        )
        lines.append(
            f"  {'quantity':<13}{'time':>8}  {'computed':>13}  {'reference':>10}"
            f"  {'|dev|':>9}  {'tol':>7}  status"
        )
        computed_sites = []
        for t, total_ref, height_ref in zip(BENCHMARK_TIMES, totals, heights):
            rec = records[model][t]
            computed_sites.append(rec.spike_site)
            for quantity, computed, reference, tol in (
                ("cycle_total", rec.cycle_total, total_ref, TOTAL_TOLERANCE[model]),
                ("spike_height", rec.spike_height, height_ref, SPIKE_TOLERANCE[model]),
            ):
                if tolerance_override is not None:
                    tol = tolerance_override
                deviation = abs(computed - reference)
                good = deviation <= tol
                ok = ok and good
                lines.append(
                    f"  {quantity:<13}{t:>8}  {computed:>13.8f}"
                    f"  {reference:>10.5f}  {deviation:>9.2e}"
                    f"  {tol:>7.0e}  {'ok' if good else 'FAIL'}"
                )
        good = computed_sites == list(sites)
        ok = ok and good
        lines.append(
            f"  spike sites   computed {computed_sites}"
            f"  reference {list(sites)}  {'ok' if good else 'FAIL'}"
        )
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines), ok


# --- argument parsing ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit code 1
        raise ConfigError(message)


def _comma_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        # argparse prints this error's text; for a ValueError it would print
        # "invalid _comma_ints value" instead
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lollipop-walk",
        description=(
            "Quantum and classical walks on an n-node cycle with a half-line "
            "attached at node 0."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evolve one walk and write output files")
    run_p.add_argument("--model", required=True, choices=MODELS)
    run_p.add_argument("--cycle-size", type=int, default=25)
    run_p.add_argument(
        "--start",
        required=True,
        help="launch state: cycle:<k>[:<L|R|D>] or half:<x>[:<U|D>]; "
        "quantum runs need the coin letter, classical runs omit it",
    )
    run_p.add_argument("--steps", type=int, required=True)
    run_p.add_argument(
        "--snapshots",
        type=_comma_ints,
        default=None,
        help="comma-separated snapshot times (default: the final step)",
    )
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument(
        "--format",
        default="csv,json",
        help=f"comma-separated subset of {','.join(FORMATS)}",
    )

    tables_p = sub.add_parser(
        "tables",
        help="re-run the two long benchmarks and diff against reference values "
        "(about 10 seconds)",
    )
    tables_p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override every numeric tolerance with one finite value >= 0",
    )

    oracle_p = sub.add_parser(
        "oracle-check", help="dense-operator unitarity and step-agreement audit"
    )
    oracle_p.add_argument("--cycle-size", type=int, default=5)
    oracle_p.add_argument("--x-max", type=int, default=10)
    oracle_p.add_argument("--steps", type=int, default=8)
    return parser


def _cmd_run(args) -> int:
    """Run one walk and write the requested artifact files.

    Every input is checked, and the launch state built, before the output
    directory is made.  Each snapshot's files are written as soon as it is
    taken, so only one snapshot distribution is alive at a time however many
    are asked for.  Stepping stops at the last snapshot time: later steps
    would write nothing.
    """
    site, coin = parse_start(args.start)
    snapshots = args.snapshots if args.snapshots is not None else [args.steps]
    formats = [f for f in args.format.split(",") if f != ""]
    try:
        if not snapshots:
            raise ValueError("snapshot times must name at least one time")
        if not formats or not set(formats) <= set(FORMATS):
            raise ValueError(f"formats must be a non-empty subset of {FORMATS}")
        if args.model == "classical" and coin is not None:
            raise ValueError("classical runs take no start coin")
        if args.model == "quantum" and coin is None:
            raise ValueError("quantum runs need a start coin (e.g. cycle:12:R)")
        topology = LollipopTopology(args.cycle_size)
        state, evolve = _launch(args.model, topology, site, coin)
        _driver.check_walk(state, args.steps, snapshots)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, writer, *inputs) -> None:
        path = outdir / name
        writer(path, *inputs)
        print(f"wrote {path}")

    records = []
    for t in snapshots:
        [(_, dist)] = evolve(state, t - state.time, [t - state.time])
        records.append(summarize(dist))
        if "csv" in formats:
            emit(f"distribution_t{t}.csv", write_distribution_csv, dist)
        if "json" in formats:
            emit(f"distribution_t{t}.json", write_distribution_json, dist)
        if "svg" in formats:
            emit(f"cycle_t{t}.svg", write_svg, render_cycle_svg(dist))
            emit(f"halfline_t{t}.svg", write_svg, render_halfline_svg(dist))
    if "csv" in formats:
        emit("summary.csv", write_summary_csv, records)
    if "json" in formats:
        emit("summary.json", write_summary_json, records)
    final = records[-1]
    print(
        f"final snapshot t={final.time}: cycle_total="
        f"{final.cycle_total:.6f}, spike at [{final.spike_site}] "
        f"height {final.spike_height:.6f}"
    )
    return 0


def _cmd_tables(args) -> int:
    if args.tolerance is not None and not 0.0 <= args.tolerance < math.inf:
        raise ConfigError(
            f"tolerance must be a finite number >= 0, got {args.tolerance}"
        )
    # -0.0 passes the check but would print as -0e+00 in every row
    tolerance = None if args.tolerance is None else abs(args.tolerance)
    text, ok = format_tables_report(compute_tables_report(), tolerance)
    print(text)
    return 0 if ok else 3


def _cmd_oracle_check(args) -> int:
    """Unitarity defect plus rule-vs-dense agreement on one instance."""
    n, x_max, steps = args.cycle_size, args.x_max, args.steps
    try:
        topology = LollipopTopology(n)
        defect = unitarity_defect(build_dense_unitary(topology, x_max))
        mismatch = compare_step(topology, x_max, steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ok = defect <= DEFECT_LIMIT and mismatch <= MISMATCH_LIMIT
    print(
        f"dense operator audit, n={n}, x_max={x_max}, steps={steps}\n"
        f"  unitarity defect:                  {defect:.3e}  "
        f"(limit {DEFECT_LIMIT:.0e})\n"
        f"  rule-vs-dense max amplitude diff:  {mismatch:.3e}  "
        f"(limit {MISMATCH_LIMIT:.0e})\n"
        f"overall: {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 3


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as -1,4 as an option unless it is one
    # number; `--snapshots=-1,4` reaches the range check like `--snapshots -1`
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--snapshots" and re.match(r"-\d", argv[i]):
            argv[i - 1 : i + 1] = ["=".join(argv[i - 1 : i + 1])]
    try:
        args = _build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if (exc.code or 0) == 0 else 1
    verb = {"run": _cmd_run, "tables": _cmd_tables, "oracle-check": _cmd_oracle_check}
    try:
        return verb[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
