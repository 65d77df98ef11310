"""The benchmark's workloads: inputs from a seed, the timed work, the checks.

Each workload is a closed loop in one process and one thread: `run` does one
repetition, and the next starts only after it and its checks have finished.
The seed picks which inputs are used, never how much work they take.  The
package is reached only through module attributes at call time
(`lw.evolve_quantum`, `cli.main`, ...), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import statistics
from pathlib import Path

import lollipop_walk as lw
from lollipop_walk import cli, output

CONSERVATION_TOL = 1e-10
REFERENCE_START = 12  # node of the reference launches: cycle:12:R and cycle:12
# the dense-oracle audit run through the `oracle-check` verb
ORACLE_X_MAX = 40
ORACLE_STEPS = 30


class Ops:
    """Correctness checks, one op each; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Untraced:
    """Stands in for the tracer in untraced repetitions."""

    def launch(self, scope: str, cycle_size: int) -> None:
        pass


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def oracle_check_argv(n: int, x_max: int = ORACLE_X_MAX, steps: int = ORACLE_STEPS):
    return ["oracle-check", "--cycle-size", str(n), "--x-max", str(x_max),
            "--steps", str(steps)]


def cycle_launches(topology) -> list[tuple]:
    """Every (site, coin) basis state on the cycle: 2n + 1 of them."""
    return [(lw.CycleNode(k), coin)
            for k in range(topology.cycle_size)
            for coin in topology.coins_at(lw.CycleNode(k))]


def sig10(x: float) -> str:
    return f"{x:.10g}"


def summary_files_agree(csv_path: Path, json_path: Path, scale: float = 1.0) -> bool:
    """summary.csv and summary.json carry the same numbers to 10 digits."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(json_path) as fh:
        records = json.load(fh)["summaries"]
    if len(rows) != len(records):
        return False
    for row, rec in zip(rows, records):
        for key, text in row.items():
            value = rec[key]
            if value is None:
                if text != "":
                    return False
            elif isinstance(value, int):
                if int(text) != value:
                    return False
            elif float(text) != float(sig10(value * scale)):
                return False
    return True


def distribution_files_agree(csv_path: Path, json_path: Path, scale: float = 1.0) -> bool:
    """A distribution's CSV rows and JSON arrays agree to 10 digits."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    with open(json_path) as fh:
        payload = json.load(fh)
    expected = [("cycle", k, p) for k, p in enumerate(payload["cycle"])]
    first = payload["halfline"]["first_site"]
    expected += [("halfline", first + i, p)
                 for i, p in enumerate(payload["halfline"]["probabilities"])]
    if len(rows) != len(expected):
        return False
    return all(
        region == er and int(site) == es and float(p) == float(sig10(ep * scale))
        for (region, site, p), (er, es, ep) in zip(rows, expected)
    )


def file_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def count_output(root: Path, tracer) -> None:
    files = [p for p in root.rglob("*") if p.is_file()]
    tracer.count("output.files", len(files))
    tracer.count("output.bytes", sum(p.stat().st_size for p in files))


def write_summary_artifacts(directory: Path, records, final_dist) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    output.write_summary_csv(directory / "summary.csv", records)
    output.write_summary_json(directory / "summary.json", records)
    output.write_svg(directory / f"cycle_t{final_dist.time}.svg",
                     output.render_cycle_svg(final_dist))


class PaperLong:
    """The reference `tables` launches on the 25-node cycle, cut to the
    first reference time."""

    name = "paper_long"
    cycle_size = 25
    steps = cli.BENCHMARK_TIMES[0]
    # one seeded spreading snapshot in each band, then the reference row
    bands = ((1000, 2000), (2000, 5000), (5000, 10000), (10000, steps))

    def __init__(self, seed: int, perturb: bool):
        rng = random.Random(seed)
        self.times = [rng.randrange(lo + 1, hi) for lo, hi in self.bands] + [self.steps]
        self.perturb = perturb

    def sizes(self) -> dict:
        return {"cycle_size": self.cycle_size, "steps_per_walk": self.steps,
                "walks": ["quantum cycle:12:R", "classical cycle:12"],
                "snapshot_times": self.times,
                "oracle_check": {"cycle_size": self.cycle_size,
                                 "x_max": ORACLE_X_MAX, "steps": ORACLE_STEPS}}

    def steps_per_rep(self) -> int:
        return 2 * self.steps

    def setup(self):
        topology = lw.LollipopTopology(self.cycle_size)
        return lw.make_basis_state(topology, lw.CycleNode(REFERENCE_START), lw.Coin.RIGHT)

    def run(self, workdir: Path, tracer) -> dict:
        topology = lw.LollipopTopology(self.cycle_size)
        tracer.launch("quantum", self.cycle_size)
        state = lw.make_basis_state(topology, lw.CycleNode(REFERENCE_START), lw.Coin.RIGHT)
        q_snaps = lw.evolve_quantum(state, self.steps, self.times)
        tracer.launch("classical", self.cycle_size)
        dist = lw.make_point_distribution(topology, lw.CycleNode(REFERENCE_START))
        c_snaps = lw.evolve_classical(dist, self.steps, self.times)
        records = {}
        for model, snaps in (("quantum", q_snaps), ("classical", c_snaps)):
            records[model] = [lw.summarize(d) for _, d in snaps]
            write_summary_artifacts(workdir / model, records[model], snaps[-1][1])
        tracer.launch("oracle", self.cycle_size)
        rc = run_cli(oracle_check_argv(self.cycle_size))
        return {"records": records, "conserved": {"quantum": state.norm(),
                                                  "classical": dist.total_mass()},
                "oracle_rc": rc}

    def check(self, out: dict, workdir: Path, ops: Ops, reference) -> None:
        shift = 2.0 if self.perturb else 0.0
        rows = (
            ("quantum", cli.QUANTUM_CYCLE_TOTALS, cli.QUANTUM_SPIKE_SITES,
             cli.QUANTUM_SPIKE_HEIGHTS),
            ("classical", cli.CLASSICAL_CYCLE_TOTALS, cli.CLASSICAL_SPIKE_SITES,
             cli.CLASSICAL_SPIKE_HEIGHTS),
        )
        for model, totals, sites, heights in rows:
            by_time = {r.time: r for r in out["records"][model]}
            total_tol = cli.TOTAL_TOLERANCE[model]
            spike_tol = cli.SPIKE_TOLERANCE[model]
            for i, t in enumerate(cli.BENCHMARK_TIMES):
                if t > self.steps:
                    continue
                rec = by_time[t]
                ops.check(abs(rec.cycle_total - (totals[i] + shift * total_tol)) <= total_tol,
                          f"{model} cycle_total at t={t}: {rec.cycle_total}")
                ops.check(rec.spike_site == sites[i] + int(shift),
                          f"{model} spike_site at t={t}: {rec.spike_site}")
                ops.check(abs(rec.spike_height - (heights[i] + shift * spike_tol)) <= spike_tol,
                          f"{model} spike_height at t={t}: {rec.spike_height}")
            for rec in out["records"][model]:
                ops.check(abs(rec.cycle_total + rec.halfline_total - 1.0) <= CONSERVATION_TOL,
                          f"{model} probability at t={rec.time} sums to "
                          f"{rec.cycle_total + rec.halfline_total}")
            ops.check(abs(out["conserved"][model] - 1.0) <= CONSERVATION_TOL,
                      f"{model} norm/mass {out['conserved'][model]}")
            d = workdir / model
            ops.check(summary_files_agree(d / "summary.csv", d / "summary.json"),
                      f"{model} summary CSV and JSON disagree")
            ops.check({p.name for p in d.iterdir()} ==
                      {"summary.csv", "summary.json", f"cycle_t{self.steps}.svg"},
                      f"{model} unexpected file set")
        ops.check(out["oracle_rc"] == 0, f"oracle-check n=25 exit {out['oracle_rc']}")


class SweepSmall:
    """Localization map: every cycle basis state and every cycle node of a
    seeded set of small cycles, time-averaged over the second half."""

    name = "sweep_small"
    size_range = range(3, 15)
    size_count = 4
    size_sum = 28  # fixes 2*28+4 quantum and 28 classical launches per repetition
    steps = 2000
    snapshot_times = list(range(steps // 2, steps + 1, 50))
    audit_x_max = 24
    audit_steps = 20

    def __init__(self, seed: int, perturb: bool):
        rng = random.Random(seed)
        while True:
            sizes = rng.sample(self.size_range, self.size_count)
            if sum(sizes) == self.size_sum:
                break
        self.cycle_sizes = sizes
        self.perturb = perturb

    def sizes(self) -> dict:
        return {"cycle_sizes": self.cycle_sizes,
                "quantum_launches": 2 * self.size_sum + self.size_count,
                "classical_launches": self.size_sum,
                "steps_per_walk": self.steps,
                "snapshot_times": f"{self.snapshot_times[0]}..{self.steps} every 50",
                "oracle": {"x_max": self.audit_x_max, "steps": self.audit_steps}}

    def steps_per_rep(self) -> int:
        return (3 * self.size_sum + self.size_count) * self.steps

    def setup(self):
        topology = lw.LollipopTopology(self.cycle_sizes[0])
        site, coin = cycle_launches(topology)[0]
        return lw.make_basis_state(topology, site, coin)

    def run(self, workdir: Path, tracer) -> dict:
        conserved = []
        audits = []
        localization = {}
        for n in self.cycle_sizes:
            topology = lw.LollipopTopology(n)
            means = {"quantum": [], "classical": []}
            for i, (site, coin) in enumerate(cycle_launches(topology)):
                tracer.launch("quantum", n)
                state = lw.make_basis_state(topology, site, coin)
                snaps = lw.evolve_quantum(state, self.steps, self.snapshot_times)
                records = [lw.summarize(d) for _, d in snaps]
                means["quantum"].append(statistics.fmean(r.cycle_total for r in records))
                conserved.append((f"quantum n={n} launch {i}", state.norm()))
                if i == 0:
                    write_summary_artifacts(workdir / f"n{n}", records, snaps[-1][1])
            for k in range(n):
                tracer.launch("classical", n)
                dist = lw.make_point_distribution(topology, lw.CycleNode(k))
                snaps = lw.evolve_classical(dist, self.steps, self.snapshot_times)
                means["classical"].append(
                    statistics.fmean(lw.summarize(d).cycle_total for _, d in snaps))
                conserved.append((f"classical n={n} node {k}", dist.total_mass()))
            localization[n] = {m: statistics.fmean(v) for m, v in means.items()}
            tracer.launch("oracle", n)
            op = lw.build_dense_unitary(topology, self.audit_x_max)
            audits.append((n, lw.unitarity_defect(op),
                           lw.compare_step(topology, self.audit_x_max, self.audit_steps)))
        tracer.launch("oracle", self.cycle_sizes[0])
        rc = run_cli(oracle_check_argv(self.cycle_sizes[0], self.audit_x_max,
                                       self.audit_steps))
        return {"conserved": conserved, "audits": audits, "oracle_rc": rc,
                "localization": localization}

    def check(self, out: dict, workdir: Path, ops: Ops, reference) -> None:
        expected = 1.0 + (1e3 * CONSERVATION_TOL if self.perturb else 0.0)
        for what, value in out["conserved"]:
            ops.check(abs(value - expected) <= CONSERVATION_TOL, f"{what}: {value}")
        for n, defect, mismatch in out["audits"]:
            ops.check(defect <= cli.DEFECT_LIMIT, f"n={n} unitarity defect {defect}")
            ops.check(mismatch <= cli.MISMATCH_LIMIT, f"n={n} rule-vs-dense {mismatch}")
        ops.check(out["oracle_rc"] == 0, f"oracle-check exit {out['oracle_rc']}")
        for n in self.cycle_sizes:
            d = workdir / f"n{n}"
            ops.check(summary_files_agree(d / "summary.csv", d / "summary.json"),
                      f"n={n} summary CSV and JSON disagree")


class RunArtifacts:
    """`lollipop-walk run` through cli.main, writing CSV, JSON and SVG for
    ~200 seeded snapshots of each model."""

    name = "run_artifacts"
    cycle_size = 25
    steps = 8000
    snapshots = 200
    sampled_snapshots = 4  # CSV/JSON agreement is checked on this many per model
    launches = (("quantum", "cycle:12:R"), ("classical", "cycle:12"))

    def __init__(self, seed: int, perturb: bool):
        rng = random.Random(seed)
        width = self.steps // self.snapshots
        # one time per stratum keeps the written volume nearly seed-independent
        self.times = [width * (i + 1) - rng.randrange(width)
                      for i in range(self.snapshots - 1)] + [self.steps]
        self.sample = sorted(rng.sample(self.times, self.sampled_snapshots))
        self.perturb = perturb

    def sizes(self) -> dict:
        return {"cycle_size": self.cycle_size, "steps_per_walk": self.steps,
                "walks": [f"{m} {s}" for m, s in self.launches],
                "snapshots_per_walk": len(self.times), "formats": "csv,json,svg",
                "oracle_check": {"cycle_size": self.cycle_size,
                                 "x_max": ORACLE_X_MAX, "steps": ORACLE_STEPS}}

    def steps_per_rep(self) -> int:
        return len(self.launches) * self.steps

    def setup(self):
        topology = lw.LollipopTopology(self.cycle_size)
        return lw.make_basis_state(topology, lw.CycleNode(REFERENCE_START), lw.Coin.RIGHT)

    def run(self, workdir: Path, tracer) -> dict:
        snapshot_arg = ",".join(map(str, self.times))
        codes = {}
        for model, start in self.launches:
            tracer.launch(model, self.cycle_size)
            codes[model] = run_cli([
                "run", "--model", model, "--cycle-size", str(self.cycle_size),
                "--start", start, "--steps", str(self.steps),
                "--snapshots", snapshot_arg, "--out", str(workdir / model),
                "--format", "csv,json,svg",
            ])
        tracer.launch("oracle", self.cycle_size)
        codes["oracle-check"] = run_cli(oracle_check_argv(self.cycle_size))
        return {"codes": codes}

    def expected_files(self) -> set[str]:
        names = {"summary.csv", "summary.json"}
        for t in self.times:
            names |= {f"distribution_t{t}.csv", f"distribution_t{t}.json",
                      f"cycle_t{t}.svg", f"halfline_t{t}.svg"}
        return names

    def check(self, out: dict, workdir: Path, ops: Ops, reference) -> None:
        """`reference` holds the first repetition's file digests."""
        for what, rc in out["codes"].items():
            ops.check(rc == 0, f"{what} exit code {rc}")
        scale = 1.0 + 1e-9 if self.perturb else 1.0
        digests = file_digests(workdir)
        for model, _ in self.launches:
            d = workdir / model
            ops.check({p.name for p in d.iterdir()} == self.expected_files(),
                      f"{model} unexpected file set")
            agree = summary_files_agree(d / "summary.csv", d / "summary.json", scale)
            for t in self.sample:
                agree = agree and distribution_files_agree(
                    d / f"distribution_t{t}.csv", d / f"distribution_t{t}.json", scale)
            ops.check(agree, f"{model} CSV and JSON disagree")
            if reference:
                mine = {k: v for k, v in digests.items() if k.startswith(model + "/")}
                theirs = {k: v for k, v in reference.items() if k.startswith(model + "/")}
                ops.check(mine == theirs, f"{model} artifacts differ between repetitions")
        if not reference:
            reference.update(digests)


WORKLOADS = {w.name: w for w in (PaperLong, SweepSmall, RunArtifacts)}
