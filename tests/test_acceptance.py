"""End-to-end acceptance checks.

Each test prints one [criterion N] PASS/FAIL line with the measured numbers;
run with `pytest tests/test_acceptance.py -v -s` to see them.  The long
benchmark fixtures come from conftest and are shared across the suite.
"""

from __future__ import annotations

import filecmp

from lollipop_walk import (
    LollipopTopology,
    build_dense_unitary,
    compare_step,
    summarize,
    unitarity_defect,
)
from lollipop_walk.cli import main

BENCH_TIMES = (20000, 50000, 100000)

# `lollipop-walk tables` stdout (without its final newline), recorded from the
# command itself; the diff table built from the shared fixtures must match it
# byte for byte.
TABLES_TEXT = """\
quantum walk, 25-node cycle, launched at cycle:12:R, 100000 steps
  quantity         time       computed   reference      |dev|      tol  status
  cycle_total     20000     0.50587266     0.50587   2.66e-06    5e-03  ok
  spike_height    20000     0.09573095     0.09573   9.54e-07    2e-03  ok
  cycle_total     50000     0.50012357     0.50012   3.57e-06    5e-03  ok
  spike_height    50000     0.05954877     0.05955   1.23e-06    2e-03  ok
  cycle_total    100000     0.50000020     0.50000   1.99e-07    5e-03  ok
  spike_height   100000     0.06355347     0.06355   3.47e-06    2e-03  ok
  spike sites   computed [0, 24, 14]  reference [0, 24, 14]  ok
classical walk, 25-node cycle, launched at cycle:12, 100000 steps
  quantity         time       computed   reference      |dev|      tol  status
  cycle_total     20000     0.14054577     0.14055   4.23e-06    5e-04  ok
  spike_height    20000     0.00824788     0.00825   2.12e-06    1e-04  ok
  cycle_total     50000     0.09011402     0.09011   4.02e-06    5e-04  ok
  spike_height    50000     0.00529568     0.00530   4.32e-06    1e-04  ok
  cycle_total    100000     0.06402544     0.06403   4.56e-06    5e-04  ok
  spike_height   100000     0.00376436     0.00376   4.36e-06    1e-04  ok
  spike sites   computed [0, 0, 0]  reference [0, 0, 0]  ok
overall: PASS"""


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_1_classical_benchmark_from_node_12(classical_cycle12):
    snaps, _ = classical_cycle12
    total_refs = (0.14055, 0.09011, 0.06403)
    height_refs = (0.00825, 0.00530, 0.00376)
    ok = True
    details = []
    for t, total_ref, height_ref in zip(BENCH_TIMES, total_refs, height_refs):
        rec = summarize(snaps[t])
        ok = ok and abs(rec.cycle_total - total_ref) <= 5e-4
        ok = ok and rec.spike_site == 0
        ok = ok and abs(rec.spike_height - height_ref) <= 1e-4
        details.append(f"t={t}: total {rec.cycle_total:.5f} vs {total_ref}, "
                       f"spike [{rec.spike_site}] {rec.spike_height:.5f} vs {height_ref}")
    _report(1, "classical cycle totals and junction spikes, start [12]",
            ok, "; ".join(details))


def test_criterion_2_classical_benchmark_from_junction(classical_junction):
    snaps, _ = classical_junction
    total_refs = (0.14003, 0.08998, 0.06398)
    ok = True
    details = []
    for t, total_ref in zip(BENCH_TIMES, total_refs):
        total = summarize(snaps[t]).cycle_total
        ok = ok and abs(total - total_ref) <= 5e-4
        details.append(f"t={t}: {total:.5f} vs {total_ref}")
    _report(2, "classical cycle totals, start [0]", ok, "; ".join(details))


def test_criterion_3_quantum_benchmark_from_node_12(quantum_cycle12):
    snaps, _ = quantum_cycle12
    total_refs = (0.50587, 0.50012, 0.50000)
    site_refs = (0, 24, 14)
    height_refs = (0.09573, 0.05955, 0.06355)
    ok = True
    details = []
    for t, total_ref, site_ref, height_ref in zip(
        BENCH_TIMES, total_refs, site_refs, height_refs
    ):
        rec = summarize(snaps[t])
        ok = ok and abs(rec.cycle_total - total_ref) <= 5e-3
        ok = ok and rec.spike_site == site_ref
        ok = ok and abs(rec.spike_height - height_ref) <= 2e-3
        details.append(f"t={t}: total {rec.cycle_total:.5f} vs {total_ref}, "
                       f"spike [{rec.spike_site}] {rec.spike_height:.5f} vs "
                       f"[{site_ref}] {height_ref}")
    _report(3, "quantum cycle totals and spikes, start |[12]R>",
            ok, "; ".join(details))


def test_criterion_4_quantum_junction_localization(quantum_junction_down):
    snaps, _ = quantum_junction_down
    ok = True
    details = []
    for t in BENCH_TIMES:
        p0 = float(snaps[t].cycle_probs[0])
        ok = ok and abs(p0 - 0.457) <= 5e-3
        details.append(f"t={t}: P[0]={p0:.5f}")
    _report(4, "persistent localization at the junction, start |0 Down>",
            ok, "; ".join(details) + " vs 0.457 +/- 5e-3")


def test_criterion_5_dense_operator_audit():
    worst = 0.0
    for n in (3, 5, 25):
        for x_max in (4, 10):
            defect = unitarity_defect(build_dense_unitary(LollipopTopology(n), x_max))
            worst = max(worst, defect)
    mismatch = compare_step(LollipopTopology(5), 60, 50)
    ok = worst < 1e-10 and mismatch <= 1e-12
    _report(5, "unitarity defects and 50-step rule-vs-dense agreement", ok,
            f"max defect {worst:.2e} < 1e-10, mismatch {mismatch:.2e} <= 1e-12")


def test_criterion_6_conservation(quantum_cycle12, classical_cycle12):
    _, q_state = quantum_cycle12
    _, c_dist = classical_cycle12
    norm_err = abs(q_state.norm() - 1.0)
    mass_err = abs(c_dist.total_mass() - 1.0)
    ok = norm_err < 1e-9 and mass_err < 1e-12
    _report(6, "norm and mass conservation over 100000 steps", ok,
            f"|norm-1|={norm_err:.2e} < 1e-9, |mass-1|={mass_err:.2e} < 1e-12")


def test_criterion_7_spreading_dichotomy(quantum_cycle12, classical_cycle12):
    q_snaps, _ = quantum_cycle12
    c_snaps, _ = classical_cycle12
    q5 = summarize(q_snaps[5000]).halfline_std
    q10 = summarize(q_snaps[10000]).halfline_std
    c5 = summarize(c_snaps[5000]).halfline_std
    c10 = summarize(c_snaps[10000]).halfline_std
    q_ratio = q10 / q5
    c_ratio = c10 / c5
    ok = 1.8 <= q_ratio <= 2.2 and 1.32 <= c_ratio <= 1.52
    _report(7, "ballistic vs diffusive half-line spread", ok,
            f"quantum std(10000)/std(5000)={q_ratio:.4f} in [1.8, 2.2], "
            f"classical {c_ratio:.4f} in [1.32, 1.52]")


def test_criterion_8_classical_diffusive_decay(classical_cycle12):
    snaps, _ = classical_cycle12
    ratio = summarize(snaps[50000]).cycle_total / summarize(snaps[20000]).cycle_total
    ok = abs(ratio - 0.6325) <= 0.03 * 0.6325
    _report(8, "cycle probability decays like one over sqrt of time", ok,
            f"P(50000)/P(20000)={ratio:.5f} vs 0.6325 +/- 3%")


def test_criterion_9_run_determinism(tmp_path):
    args = ["run", "--model", "quantum", "--start", "cycle:12:R",
            "--steps", "200", "--snapshots", "0,100,200"]
    dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    ok = not mismatch and not errors and len(match) == len(names)
    _report(9, "repeated runs are byte-identical", ok,
            f"{len(match)} files compared, {len(mismatch)} differ")


def test_benchmark_diff_table_passes(quantum_cycle12, classical_cycle12):
    # the `tables` verb's diff logic, fed from the shared fixtures
    from lollipop_walk.cli import format_tables_report

    q_snaps, _ = quantum_cycle12
    c_snaps, _ = classical_cycle12
    records = {
        "quantum": {t: summarize(q_snaps[t]) for t in BENCH_TIMES},
        "classical": {t: summarize(c_snaps[t]) for t in BENCH_TIMES},
    }
    text, ok = format_tables_report(records)
    print(text)
    assert ok
    assert text == TABLES_TEXT
