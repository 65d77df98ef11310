"""Command-line interface: run walks, check benchmark tables, audit operators.

Verbs:
  run           evolve one walk and write distribution/summary files
  tables        re-run the two long 25-node benchmarks and diff against the
                built-in reference values
  oracle-check  dense-operator unitarity and rule-vs-matrix agreement

Exit codes: 0 success, 1 validation error, 2 i/o error, 3 tolerance failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
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
# Largest half-line buffer a run may need (launch offset + steps + 2 sites),
# and largest cycle.  At 64 B per site after doubling, quantum half-line
# buffers stay near 640 MB; a cycle this size takes 320 MB.
MAX_HALFLINE_SITES = 10**7
# Largest dense operator `oracle-check` builds (2n + 1 + 2 x_max basis
# states): each of its few dense matrices then takes 32 MiB.
MAX_ORACLE_DIMENSION = 2048


class ConfigError(ValueError):
    """Bad configuration or usage; maps to exit code 1."""


@dataclass
class RunConfig:
    model: str
    cycle_size: int
    start_site: Site
    start_coin: Coin | None
    total_steps: int
    snapshot_times: list[int]
    output_directory: Path
    formats: tuple[str, ...] = ("csv", "json")

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.cycle_size < 3:
            raise ConfigError(f"cycle size must be >= 3, got {self.cycle_size}")
        if self.cycle_size > MAX_HALFLINE_SITES:
            raise ConfigError(
                f"cycle size {self.cycle_size} exceeds the limit of "
                f"{MAX_HALFLINE_SITES} sites"
            )
        if self.total_steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.total_steps}")
        offset = self.start_site.index if isinstance(self.start_site, HalfLineNode) else 0
        if offset + self.total_steps + 2 > MAX_HALFLINE_SITES:
            raise ConfigError(
                f"launch offset {offset} + {self.total_steps} steps + 2 exceeds the "
                f"limit of {MAX_HALFLINE_SITES} half-line sites"
            )
        try:
            _driver.validate_snapshot_times(self.snapshot_times, self.total_steps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        unknown = [f for f in self.formats if f not in FORMATS]
        if unknown or not self.formats:
            raise ConfigError(f"formats must be a non-empty subset of {FORMATS}")
        topology = LollipopTopology(self.cycle_size)
        if isinstance(self.start_site, CycleNode):
            if self.start_site.index >= self.cycle_size:
                raise ConfigError(
                    f"cycle start {self.start_site.index} out of range for "
                    f"n={self.cycle_size}"
                )
        if self.model == "classical":
            if self.start_coin is not None:
                raise ConfigError("classical runs take no start coin")
        else:
            if self.start_coin is None:
                raise ConfigError("quantum runs need a start coin (e.g. cycle:12:R)")
            try:
                topology.check_state(self.start_site, self.start_coin)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


_COIN_LETTERS = {"L": Coin.LEFT, "R": Coin.RIGHT, "D": Coin.DOWN, "U": Coin.UP}


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
            coin = _COIN_LETTERS[parts[2].upper()]
        except KeyError:
            raise ConfigError(f"coin must be one of L, R, D, U, got {parts[2]!r}")
    if region == "cycle":
        if index < 0:
            raise ConfigError(f"cycle index must be >= 0, got {index}")
        return CycleNode(index), coin
    if region == "half":
        if index < 1:
            raise ConfigError(
                f"half-line site must be >= 1 (site 0 is cycle:0), got {index}"
            )
        return HalfLineNode(index), coin
    raise ConfigError(f"start region must be 'cycle' or 'half', got {region!r}")


def execute_run(config: RunConfig) -> tuple[list[SummaryRecord], list[Path]]:
    """Run one walk per `config` and write the requested artifact files.

    Each snapshot's files are written as soon as it is taken, so only one
    snapshot distribution is alive at a time however many are asked for.
    Stepping stops at the last snapshot time: later steps would write
    nothing.
    """
    config.validate()
    topology = LollipopTopology(config.cycle_size)
    if config.model == "quantum":
        state = make_basis_state(topology, config.start_site, config.start_coin)
        evolve = evolve_quantum
    else:
        state = make_point_distribution(topology, config.start_site)
        evolve = evolve_classical

    outdir = config.output_directory
    outdir.mkdir(parents=True, exist_ok=True)
    records = []
    written = []

    def emit(path: Path, writer, *args) -> None:
        writer(path, *args)
        written.append(path)

    for t in config.snapshot_times:
        [(_, dist)] = evolve(state, t - state.time, [t - state.time])
        records.append(summarize(dist))
        if "csv" in config.formats:
            emit(outdir / f"distribution_t{t}.csv", write_distribution_csv, dist)
        if "json" in config.formats:
            emit(outdir / f"distribution_t{t}.json", write_distribution_json, dist)
        if "svg" in config.formats:
            emit(outdir / f"cycle_t{t}.svg", write_svg, render_cycle_svg(dist))
            emit(outdir / f"halfline_t{t}.svg", write_svg, render_halfline_svg(dist))
    if "csv" in config.formats:
        emit(outdir / "summary.csv", write_summary_csv, records)
    if "json" in config.formats:
        emit(outdir / "summary.json", write_summary_json, records)
    return records, written


# --- tables ----------------------------------------------------------------

BENCHMARK_TIMES = (20000, 50000, 100000)
BENCHMARK_STEPS = 100000

# Reference values for the standard 25-node benchmark; the quantum walk is
# launched at cycle:12:R, the classical walk at cycle:12.
QUANTUM_CYCLE_TOTALS = (0.50587, 0.50012, 0.50000)
QUANTUM_SPIKE_SITES = (0, 24, 14)
QUANTUM_SPIKE_HEIGHTS = (0.09573, 0.05955, 0.06355)
CLASSICAL_CYCLE_TOTALS = (0.14055, 0.09011, 0.06403)
CLASSICAL_SPIKE_SITES = (0, 0, 0)
CLASSICAL_SPIKE_HEIGHTS = (0.00825, 0.00530, 0.00376)

TOTAL_TOLERANCE = {"quantum": 5e-3, "classical": 5e-4}
SPIKE_TOLERANCE = {"quantum": 2e-3, "classical": 1e-4}


@dataclass(frozen=True)
class ValueCheck:
    model: str
    quantity: str
    time: int
    computed: float
    reference: float
    tolerance: float

    def deviation(self) -> float:
        return abs(self.computed - self.reference)


@dataclass(frozen=True)
class SpikeSiteCheck:
    model: str
    time: int
    computed: int
    reference: int


@dataclass
class TablesReport:
    values: list[ValueCheck] = field(default_factory=list)
    spike_sites: list[SpikeSiteCheck] = field(default_factory=list)


def build_tables_report(
    quantum_records: dict[int, SummaryRecord],
    classical_records: dict[int, SummaryRecord],
) -> TablesReport:
    """Diff benchmark summary records against the reference values."""
    report = TablesReport()
    rows = (
        ("quantum", quantum_records, QUANTUM_CYCLE_TOTALS,
         QUANTUM_SPIKE_SITES, QUANTUM_SPIKE_HEIGHTS),
        ("classical", classical_records, CLASSICAL_CYCLE_TOTALS,
         CLASSICAL_SPIKE_SITES, CLASSICAL_SPIKE_HEIGHTS),
    )
    for model, records, totals, sites, heights in rows:
        for t, total_ref, site_ref, height_ref in zip(
            BENCHMARK_TIMES, totals, sites, heights
        ):
            rec = records[t]
            report.values.append(
                ValueCheck(model, "cycle_total", t, rec.cycle_total,
                           total_ref, TOTAL_TOLERANCE[model])
            )
            report.values.append(
                ValueCheck(model, "spike_height", t, rec.spike_height,
                           height_ref, SPIKE_TOLERANCE[model])
            )
            report.spike_sites.append(
                SpikeSiteCheck(model, t, rec.spike_site, site_ref)
            )
    return report


def compute_tables_report(progress=None) -> TablesReport:
    """Run both 25-node benchmarks (about 15 seconds) and diff them."""
    topology = LollipopTopology(25)
    if progress:
        progress(f"running quantum benchmark ({BENCHMARK_STEPS} steps)")
    state = make_basis_state(topology, CycleNode(12), Coin.RIGHT)
    q_snaps = evolve_quantum(state, BENCHMARK_STEPS, BENCHMARK_TIMES)
    if progress:
        progress(f"running classical benchmark ({BENCHMARK_STEPS} steps)")
    dist = make_point_distribution(topology, CycleNode(12))
    c_snaps = evolve_classical(dist, BENCHMARK_STEPS, BENCHMARK_TIMES)
    return build_tables_report(
        {t: summarize(d) for t, d in q_snaps},
        {t: summarize(d) for t, d in c_snaps},
    )


def format_tables_report(
    report: TablesReport, tolerance_override: float | None = None
) -> tuple[str, bool]:
    """Render the report; ok=False if any deviation exceeds its tolerance
    or any spike site mismatches."""
    lines = []
    ok = True
    for model in MODELS:
        start = "cycle:12:R" if model == "quantum" else "cycle:12"
        lines.append(
            f"{model} walk, 25-node cycle, launched at {start}, "
            f"{BENCHMARK_STEPS} steps"
        )
        lines.append(
            f"  {'quantity':<13}{'time':>8}  {'computed':>13}  {'reference':>10}"
            f"  {'|dev|':>9}  {'tol':>7}  status"
        )
        for check in report.values:
            if check.model != model:
                continue
            tol = tolerance_override if tolerance_override is not None else check.tolerance
            good = check.deviation() <= tol
            ok = ok and good
            lines.append(
                f"  {check.quantity:<13}{check.time:>8}  {check.computed:>13.8f}"
                f"  {check.reference:>10.5f}  {check.deviation():>9.2e}"
                f"  {tol:>7.0e}  {'ok' if good else 'FAIL'}"
            )
        sites = [c for c in report.spike_sites if c.model == model]
        good = all(c.computed == c.reference for c in sites)
        ok = ok and good
        lines.append(
            f"  spike sites   computed {[c.computed for c in sites]}"
            f"  reference {[c.reference for c in sites]}  "
            f"{'ok' if good else 'FAIL'}"
        )
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines), ok


# --- oracle-check ----------------------------------------------------------

DEFECT_LIMIT = 1e-10
MISMATCH_LIMIT = 1e-12


def oracle_check(n: int, x_max: int, steps: int) -> tuple[str, bool]:
    """Unitarity defect plus rule-vs-dense agreement on one instance."""
    if n < 3:
        raise ConfigError(f"cycle size must be >= 3, got {n}")
    if x_max < 2:
        raise ConfigError(f"x-max must be >= 2, got {x_max}")
    if steps < 0 or steps >= x_max - 1:
        raise ConfigError(
            f"steps must satisfy 0 <= steps < x_max - 1 so the support stays "
            f"inside the truncation, got steps={steps}, x_max={x_max}"
        )
    topology = LollipopTopology(n)
    dimension = topology.state_count(x_max)
    if dimension > MAX_ORACLE_DIMENSION:
        raise ConfigError(
            f"dense operator dimension 2n + 1 + 2 x_max = {dimension} exceeds "
            f"the limit of {MAX_ORACLE_DIMENSION}"
        )
    defect = unitarity_defect(build_dense_unitary(topology, x_max))
    mismatch = compare_step(topology, x_max, steps)
    ok = defect <= DEFECT_LIMIT and mismatch <= MISMATCH_LIMIT
    lines = [
        f"dense operator audit, n={n}, x_max={x_max}, steps={steps}",
        f"  unitarity defect (interior block): {defect:.3e}  "
        f"(limit {DEFECT_LIMIT:.0e})",
        f"  rule-vs-dense max amplitude diff:  {mismatch:.3e}  "
        f"(limit {MISMATCH_LIMIT:.0e})",
        f"overall: {'PASS' if ok else 'FAIL'}",
    ]
    return "\n".join(lines), ok


# --- argument parsing ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit code 1
        raise ConfigError(message)


def _comma_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}")


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
        "(about 15 seconds)",
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
    site, coin = parse_start(args.start)
    snapshots = args.snapshots if args.snapshots is not None else [args.steps]
    config = RunConfig(
        model=args.model,
        cycle_size=args.cycle_size,
        start_site=site,
        start_coin=coin,
        total_steps=args.steps,
        snapshot_times=snapshots,
        output_directory=Path(args.out),
        formats=tuple(f for f in args.format.split(",") if f != ""),
    )
    records, written = execute_run(config)
    for path in written:
        print(f"wrote {path}")
    final = records[-1] if records else None
    if final is not None:
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
    report = compute_tables_report(
        progress=lambda msg: print(msg, file=sys.stderr)
    )
    text, ok = format_tables_report(report, args.tolerance)
    print(text)
    return 0 if ok else 3


def _cmd_oracle_check(args) -> int:
    text, ok = oracle_check(args.cycle_size, args.x_max, args.steps)
    print(text)
    return 0 if ok else 3


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if (exc.code or 0) == 0 else 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "tables":
            return _cmd_tables(args)
        return _cmd_oracle_check(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
