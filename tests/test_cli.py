import dataclasses
import hashlib
import json
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from lollipop_walk import (
    Coin, CycleNode, HalfLineNode, SummaryRecord, cli, observables, oracle,
)
from lollipop_walk._driver import TwoBufferWalk
from lollipop_walk.cli import (
    ConfigError,
    format_tables_report,
    main,
    parse_start,
)
from lollipop_walk.output import format_probability

from conftest import no_light_cone_blocks


def run_args(out, model="quantum", start="cycle:12:R", steps="4", **extra):
    args = [
        "run", "--model", model, "--start", start,
        "--steps", steps, "--out", str(out),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", value]
    return args


# --- start grammar ----------------------------------------------------------

def test_parse_start_forms():
    assert parse_start("cycle:12:R") == (CycleNode(12), Coin.RIGHT)
    assert parse_start("cycle:0:D") == (CycleNode(0), Coin.DOWN)
    assert parse_start("cycle:7") == (CycleNode(7), None)
    assert parse_start("half:3:U") == (HalfLineNode(3), Coin.UP)
    assert parse_start("half:9") == (HalfLineNode(9), None)
    assert parse_start("cycle:2:l") == (CycleNode(2), Coin.LEFT)  # case-blind


@pytest.mark.parametrize(
    "text",
    ["cycle", "cycle:two:R", "cycle:3:Q", "cycle:-1:R", "half:0:D",
     "ring:3:R", "cycle:3:R:extra", ""],
)
def test_parse_start_rejections(text, capsys, tmp_path):
    with pytest.raises(ConfigError):
        parse_start(text)
    out = tmp_path / "out"
    assert main(run_args(out, start=text)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# --- input checks -----------------------------------------------------------

GOOD_RUN = dict(model="quantum", start="cycle:12:R", steps="4", snapshots="0,4")


def assert_run_succeeds(tmp_path, capsys, **overrides):
    out = tmp_path / "out"
    assert main(run_args(out, **{**GOOD_RUN, **overrides})) == 0
    assert capsys.readouterr().err == ""
    assert (out / "summary.csv").exists()


def test_validate_accepts_good_config(tmp_path, capsys):
    assert_run_succeeds(tmp_path, capsys)


def test_classical_config_takes_no_coin(tmp_path, capsys):
    assert_run_succeeds(tmp_path, capsys, model="classical", start="cycle:12")


REJECTED_RUNS = [
    ({"model": "thermal"}, "argument --model: invalid choice: 'thermal'"),
    ({"cycle_size": "2"}, "cycle_size must be >= 3, got 2"),
    ({"steps": "-1"}, "total_steps must be >= 0 and an integer, got -1"),
    ({"snapshots": "4,0"}, "snapshot times must be strictly increasing: [4, 0]"),
    ({"snapshots": "0,9"}, "snapshot times must lie in [0, 4]: [0, 9]"),
    ({"snapshots": "0,0"}, "snapshot times must be strictly increasing: [0, 0]"),
    ({"format": "csv,pdf"}, "formats must be a non-empty subset of"),
    ({"format": ""}, "formats must be a non-empty subset of"),
    ({"start": "cycle:25:R"}, "cycle index 25 out of range for n=25"),
    ({"start": "cycle:12"}, "quantum runs need a start coin (e.g. cycle:12:R)"),
    ({"start": "cycle:12:U"}, "coin U not admitted at CycleNode(index=12)"),
    ({"start": "half:2:L"}, "coin L not admitted at HalfLineNode(index=2)"),
    ({"model": "classical", "start": "cycle:12:R"}, "classical runs take no start coin"),
    ({"model": "classical", "start": "cycle:25"}, "cycle index 25 out of range for n=25"),
    ({"snapshots": "-1,4"}, "snapshot times must lie in [0, 4]: [-1, 4]"),
]


@pytest.mark.parametrize(
    "overrides,message",
    REJECTED_RUNS,
    ids=[f"overrides{i}" for i in range(len(REJECTED_RUNS))],
)
def test_validate_rejections(tmp_path, capsys, overrides, message):
    out = tmp_path / "out"
    assert main(run_args(out, **{**GOOD_RUN, **overrides})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert not out.exists()


# --- run command ------------------------------------------------------------

def test_run_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "w"
    code = main(run_args(out, steps="4", snapshots="0,4", format="csv,json,svg"))
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "cycle_t0.svg", "cycle_t4.svg",
        "distribution_t0.csv", "distribution_t0.json",
        "distribution_t4.csv", "distribution_t4.json",
        "halfline_t0.svg", "halfline_t4.svg",
        "summary.csv", "summary.json",
    ]
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("wrote ")) == 10
    assert lines[-1].startswith("final snapshot t=4:")


def test_run_zero_steps_emits_initial_distribution(tmp_path):
    out = tmp_path / "w"
    assert main(run_args(out, steps="0")) == 0
    rows = (out / "distribution_t0.csv").read_text().splitlines()
    assert rows[0] == "region,site,probability"
    body = [r.split(",") for r in rows[1:]]
    assert ["cycle", "12", "1"] in body
    others = [r for r in body if r[:2] != ["cycle", "12"]]
    assert all(r[2] == "0" for r in others)
    assert len(body) == 25  # empty half-line prints no rows


def test_run_snapshots_default_to_final_step(tmp_path):
    out = tmp_path / "w"
    assert main(run_args(out, steps="6")) == 0
    assert (out / "distribution_t6.csv").exists()
    assert not (out / "distribution_t0.csv").exists()


def test_run_two_step_halfline_values(tmp_path):
    out = tmp_path / "w"
    assert main(run_args(out, start="half:12:D", steps="2")) == 0
    rows = (out / "distribution_t2.csv").read_text().splitlines()[1:]
    probs = {}
    for row in rows:
        region, site, p = row.split(",")
        if region == "halfline":
            probs[int(site)] = p
    assert max(probs) == 14  # cutoff: no rows past the light cone
    assert probs[10] == "0.25"
    assert probs[12] == "0.5"
    assert probs[14] == "0.25"
    assert probs[11] == "0"


def test_run_halfline_support_stays_within_steps(tmp_path):
    out = tmp_path / "w"
    assert main(run_args(out, start="cycle:0:D", steps="30")) == 0
    rows = (out / "distribution_t30.csv").read_text().splitlines()[1:]
    sites = [int(r.split(",")[1]) for r in rows if r.startswith("halfline,")]
    assert sites and max(sites) <= 30


def test_run_csv_probability_formatting(tmp_path):
    assert format_probability(1 / 3) == "0.3333333333"
    assert format_probability(0.25) == "0.25"
    assert format_probability(0.0) == "0"
    out = tmp_path / "w"
    assert main(run_args(out, model="classical", start="cycle:0", steps="2")) == 0
    rows = (out / "distribution_t2.csv").read_text().splitlines()[1:]
    by_key = {tuple(r.split(",")[:2]): r.split(",")[2] for r in rows}
    assert by_key[("halfline", "2")] == "0.1666666667"  # 1/3 * 1/2


def test_summary_empty_halfline_cells(tmp_path):
    out = tmp_path / "w"
    assert main(run_args(out, start="cycle:0:D", steps="3", snapshots="0,3")) == 0
    csv_rows = (out / "summary.csv").read_text().splitlines()
    assert csv_rows[0] == (
        "time,cycle_total,halfline_total,spike_site,spike_height,"
        "halfline_mean,halfline_std"
    )
    t0 = csv_rows[1].split(",")
    assert t0[0] == "0" and t0[5] == "" and t0[6] == ""
    t3 = csv_rows[2].split(",")
    assert t3[5] != "" and t3[6] != ""
    payload = json.loads((out / "summary.json").read_text())
    assert payload["summaries"][0]["halfline_mean"] is None
    assert payload["summaries"][0]["halfline_std"] is None
    assert payload["summaries"][1]["halfline_mean"] is not None


def test_distribution_json_layout(tmp_path):
    out = tmp_path / "w"
    assert main(run_args(out, start="half:2:D", steps="1")) == 0
    payload = json.loads((out / "distribution_t1.json").read_text())
    assert payload["time"] == 1
    assert payload["source"] == "quantum"
    assert len(payload["cycle"]) == 25
    assert payload["halfline"]["first_site"] == 1
    probs = payload["halfline"]["probabilities"]
    assert probs[0] == pytest.approx(0.5)  # site 1
    assert probs[2] == pytest.approx(0.5)  # site 3
    assert len(probs) == 3


def test_run_svg_is_wellformed_and_self_contained(tmp_path):
    out = tmp_path / "w"
    assert main(run_args(out, steps="4", format="svg")) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["cycle_t4.svg", "halfline_t4.svg"]
    for name in names:
        text = (out / name).read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert root.attrib["viewBox"] == "0 0 800 500"
        assert "href" not in text and "url(" not in text


def test_run_is_byte_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            run_args(out, steps="40", snapshots="0,17,40", format="csv,json,svg")
        )
        assert code == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_writes_each_snapshot_as_it_is_taken(tmp_path, monkeypatch):
    refs = []

    class TrackedDistribution(observables.PositionDistribution):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    live_at_write = []
    write_csv = cli.write_distribution_csv

    def counting_write(path, dist):
        live_at_write.append(sum(r() is not None for r in refs))
        write_csv(path, dist)

    steps = []
    advance = TwoBufferWalk.advance

    def counting_advance(state, count):
        steps.extend(range(state.time, state.time + count))
        advance(state, count)

    monkeypatch.setattr(observables, "PositionDistribution", TrackedDistribution)
    monkeypatch.setattr(cli, "write_distribution_csv", counting_write)
    monkeypatch.setattr(TwoBufferWalk, "advance", counting_advance)
    snapshots = ",".join(str(t) for t in range(0, 100, 2))
    out = tmp_path / "w"
    assert main(run_args(out, steps="150", snapshots=snapshots, format="csv")) == 0
    assert len(live_at_write) == 50
    assert max(live_at_write) <= 2
    assert steps == list(range(98))  # none past the last snapshot


# SHA-256 of the "<file name> <file SHA-256>" lines of every artifact of a
# run with --format csv,json,svg: 300-step runs (snapshots 0,1,97,300) and
# 6000-step runs (snapshots 0,1,100,999,3000,6000, half-line profiles a few
# thousand sites long).  The classical digests date from the complex-valued
# engine and the per-value writers.  The quantum ones were recorded again when
# the quantum rows began to carry a gain in place of the per-step sqrt(2)/2,
# which moved probabilities by at most 6.1e-14 per site.  All must match byte
# for byte; cycle:0:D drives the Grover junction from the first step.  The
# runs take no light-cone blocks, whose last bits come from numpy's FFT and
# sin/cos and so vary between numpy builds and CPUs: only the 6000-step
# quantum run would, and
# test_light_cone.py::test_long_run_artifacts_agree_with_chunked_steps checks
# it with its blocks against chunked stepping instead.
SHORT = ("300", "0,1,97,300")
LONG = ("6000", "0,1,100,999,3000,6000")
GOLDEN_RUNS = [
    ("quantum", "13", "cycle:0:D", SHORT,
     "eca85ced01f1ae237d4967cead986ee5b2dd998edd3b43a0fd2ac61d4e98469d"),
    ("quantum", "13", "half:3:U", SHORT,
     "8db0f6016faa48bb50d4a2a7c7f43de6a86fda53e83222574cd7d60209f38a79"),
    ("quantum", "25", "cycle:12:R", SHORT,
     "759be25996cbd857d67a6f130d486ddeada8ad2e4ed144fb208e2995f7e11aec"),
    ("classical", "13", "cycle:12", SHORT,
     "b82c9be59d9c7f6b54f34ca59bbef222e377e4eb07d05a80db900fab962cc75d"),
    ("classical", "13", "half:3", SHORT,
     "74e065aeb9d66371a86a345fe2a9cd0e193b64964eaf7097bd70577b26e2e0d1"),
    ("quantum", "25", "cycle:12:R", LONG,
     "5f587354ec54f6fba01f1263ca64ecbb62250f7feb0bc4f675ef261826de06bc"),
    ("classical", "25", "cycle:12", LONG,
     "06e2559141e27aee3f07ad1a302fd2c1e61d59334ab09d39413584f27764867a"),
]


@pytest.mark.parametrize(
    "model,cycle_size,start,length,digest",
    GOLDEN_RUNS,
    ids=["-".join((m, n, s, d)) for m, n, s, _, d in GOLDEN_RUNS],
)
def test_run_artifacts_match_golden_digests(
    tmp_path, monkeypatch, model, cycle_size, start, length, digest
):
    no_light_cone_blocks(monkeypatch)
    steps, snapshots = length
    out = tmp_path / "out"
    code = main(
        run_args(out, model=model, start=start, steps=steps, cycle_size=cycle_size,
                 snapshots=snapshots, format="csv,json,svg")
    )
    assert code == 0
    files = sorted(out.iterdir())
    assert len(files) == 4 * len(snapshots.split(",")) + 2
    manifest = "".join(
        f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in files
    )
    assert hashlib.sha256(manifest.encode()).hexdigest() == digest


# --- exit codes -------------------------------------------------------------

# the oracle's own wording for the oracle-check cases below
ORACLE_CHECK_ERRORS = {
    "oracle-check --cycle-size 5 --x-max 10 --steps 20":
        "error: support could reach the truncation edge: need launch offset + "
        "steps < x_max - 1, got 0 + 20 >= 9\n",
    "oracle-check --x-max 1":
        "error: x_max must be >= 2 for a testable truncation, got 1\n",
    "oracle-check --steps -1": "error: steps must be >= 0, got -1\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["walk"],
        ["run"],
        ["run", "--model", "quantum", "--start", "cycle:1:R", "--steps", "x",
         "--out", "o"],
        ["run", "--model", "warm", "--start", "cycle:1:R", "--steps", "1",
         "--out", "o"],
        ["run", "--model", "quantum", "--start", "cycle:1", "--steps", "1",
         "--out", "o"],
        ["run", "--model", "classical", "--start", "cycle:1:L", "--steps", "1",
         "--out", "o"],
        ["run", "--model", "quantum", "--start", "cycle:1:R", "--steps", "2",
         "--snapshots", "2,1", "--out", "o"],
        ["run", "--model", "quantum", "--start", "cycle:1:R", "--steps", "2",
         "--snapshots", "1,a", "--out", "o"],
        ["run", "--model", "quantum", "--start", "cycle:30:R", "--steps", "2",
         "--out", "o"],
        ["run", "--model", "quantum", "--start", "cycle:1:R", "--steps", "1",
         "--out", "o", "--format", "csv,docx"],
        ["oracle-check", "--cycle-size", "5", "--x-max", "10", "--steps", "20"],
        ["oracle-check", "--x-max", "1"],
        ["oracle-check", "--cycle-size", "2"],
        ["oracle-check", "--steps", "-1"],
    ],
)
def test_usage_errors_exit_1(argv, capsys, tmp_path):
    argv = [str(tmp_path / a) if a == "o" else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert ORACLE_CHECK_ERRORS.get(" ".join(argv), "error:") in err


def test_bad_snapshot_list_error_states_the_expected_form(capsys, tmp_path):
    out = tmp_path / "out"
    assert main(run_args(out, snapshots="1,x")) == 1
    err = capsys.readouterr().err
    assert "expected a comma-separated integer list, got '1,x'" in err
    assert "_comma_ints" not in err
    assert not out.exists()


@pytest.mark.parametrize("snapshots", ["", ","])
def test_empty_snapshot_list_exits_1_before_running(capsys, tmp_path, snapshots):
    out = tmp_path / "out"
    assert main(run_args(out, snapshots=snapshots)) == 1
    assert "error: snapshot times must name at least one time" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "start,steps",
    [("half:1000000000000:U", "0"), ("cycle:12:R", "100000000000"),
     ("half:9999999:U", "0"), ("cycle:12:R", "9999999")],
)
def test_oversized_halfline_run_exits_1_before_allocating(
    start, steps, capsys, tmp_path, refuse_allocation
):
    refuse_allocation(columns=100)  # a 25-node cycle launch's own buffer, no more
    out = tmp_path / "out"
    assert main(run_args(out, start=start, steps=steps)) == 1
    assert "half-line sites" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_cycle_run_exits_1_before_allocating(
    capsys, tmp_path, refuse_allocation
):
    refuse_allocation()
    out = tmp_path / "out"
    for cycle_size in ("1000000000000", "10000001"):
        argv = run_args(out, model="classical", start="cycle:1", steps="0",
                        cycle_size=cycle_size)
        assert main(argv) == 1
        assert "exceeds the limit" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [{"start": "half:9999998:U", "steps": "0"},
     {"start": "cycle:12:R", "steps": "9999998"},
     {"model": "classical", "start": "cycle:1", "cycle_size": "10000000"}],
)
def test_run_at_the_size_limit_reaches_the_allocation(
    overrides, tmp_path, refuse_allocation
):
    refuse_allocation(columns=100)
    with pytest.raises(AssertionError, match="allocating call reached"):
        main(run_args(tmp_path / "out", **{"steps": "0", **overrides}))


def refuse_to_allocate(*args):
    raise AssertionError("allocating call reached past the size limit")


@pytest.mark.parametrize(
    "cycle_size,x_max", [("5", "100000"), ("1000000000000", "10")]
)
def test_oversized_oracle_check_exits_1_before_allocating(
    monkeypatch, capsys, cycle_size, x_max
):
    # the size guard sits inside the oracle: the matrix fill and the engine
    # allocate, and listing a 10**12-node basis would not finish
    for name in ("_dense", "make_basis_state", "CycleNode"):
        monkeypatch.setattr(oracle, name, refuse_to_allocate)
    argv = ["oracle-check", "--cycle-size", cycle_size, "--x-max", x_max,
            "--steps", "8"]
    assert main(argv) == 1
    assert "dimension" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_unwritable_output_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied\n")
    code = main(run_args(blocker / "sub", steps="1"))
    assert code == 2
    assert "i/o error:" in capsys.readouterr().err


def test_oracle_check_defaults_pass(capsys):
    assert main(["oracle-check"]) == 0
    out = capsys.readouterr().out
    assert "n=5, x_max=10, steps=8" in out
    assert out.strip().endswith("overall: PASS")


def test_oracle_check_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "unitarity_defect", lambda op: 1.0)
    assert main(["oracle-check"]) == 3
    assert capsys.readouterr().out.strip().endswith("overall: FAIL")


# --- tables report ----------------------------------------------------------

def fake_records(totals, sites, heights, skew=0.0):
    records = {}
    for t, total, site, height in zip(cli.BENCHMARK_TIMES, totals, sites, heights):
        records[t] = SummaryRecord(
            time=t,
            cycle_total=total + skew,
            halfline_total=1.0 - total - skew,
            spike_site=site,
            spike_height=height + skew,
            halfline_mean=40.0,
            halfline_std=20.0,
        )
    return records


def fake_report(skew=0.0):
    return {
        "quantum": fake_records(cli.QUANTUM_CYCLE_TOTALS, cli.QUANTUM_SPIKE_SITES,
                                cli.QUANTUM_SPIKE_HEIGHTS, skew),
        "classical": fake_records(cli.CLASSICAL_CYCLE_TOTALS,
                                  cli.CLASSICAL_SPIKE_SITES,
                                  cli.CLASSICAL_SPIKE_HEIGHTS, skew),
    }


def test_format_tables_report_pass_and_fail():
    text, ok = format_tables_report(fake_report(skew=2e-5))
    assert ok
    assert text.endswith("overall: PASS")
    assert text.count("FAIL") == 0
    text, ok = format_tables_report(fake_report(skew=1e-2))
    assert not ok
    assert text.endswith("overall: FAIL")


def test_tolerance_override_applies_to_every_value():
    report = fake_report(skew=2e-5)  # within defaults, outside zero
    _, ok = format_tables_report(report, tolerance_override=0.0)
    assert not ok
    _, ok = format_tables_report(report, tolerance_override=1.0)
    assert ok


def test_spike_site_mismatch_fails_regardless_of_tolerance():
    report = fake_report()
    report["quantum"][20000] = dataclasses.replace(
        report["quantum"][20000], spike_site=5
    )
    text, ok = format_tables_report(report, tolerance_override=1.0)
    assert not ok
    assert "FAIL" in text


def test_failing_rows_render_byte_for_byte():
    report = fake_report()
    quantum, classical = report["quantum"], report["classical"]
    quantum[20000] = dataclasses.replace(quantum[20000], cycle_total=0.51587)
    classical[50000] = dataclasses.replace(classical[50000], spike_site=24)
    text, ok = format_tables_report(report)
    assert not ok
    lines = text.splitlines()
    assert len(lines) == 19
    assert lines[2] == (
        "  cycle_total     20000     0.51587000     0.50587   1.00e-02    5e-03  FAIL"
    )
    assert lines[8] == "  spike sites   computed [0, 24, 14]  reference [0, 24, 14]  ok"
    assert lines[17] == "  spike sites   computed [0, 24, 0]  reference [0, 0, 0]  FAIL"
    assert lines[18] == "overall: FAIL"


def test_tables_command_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "compute_tables_report", fake_report)
    assert main(["tables"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert main(["tables", "--tolerance", "0.5"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(
        cli, "compute_tables_report", lambda: fake_report(skew=2e-5)
    )
    assert main(["tables", "--tolerance", "0"]) == 3
    assert "overall: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_tables_rejects_bad_tolerance_before_running(monkeypatch, capsys, tolerance):
    def no_walk():
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(cli, "compute_tables_report", no_walk)
    assert main(["tables", "--tolerance", tolerance]) == 1
    assert capsys.readouterr().err.startswith("error: tolerance")


def test_tables_negative_zero_tolerance_prints_as_zero(monkeypatch, capsys):
    monkeypatch.setattr(cli, "compute_tables_report", fake_report)
    assert main(["tables", "--tolerance", "-0.0"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
            if ln.startswith(("  cycle_total", "  spike_height"))]
    assert len(rows) == 12
    assert all(row[-2] == "0e+00" for row in rows)


def short_benchmarks(monkeypatch):
    # short benchmark times keep the walks cheap; the shape is the same
    monkeypatch.setattr(cli, "BENCHMARK_TIMES", (2, 5, 10))


def test_tables_report_announces_each_benchmark_on_stderr(monkeypatch, capsys):
    short_benchmarks(monkeypatch)
    cli.compute_tables_report()
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "running quantum benchmark (10 steps)",
        "running classical benchmark (10 steps)",
    ]
    assert captured.out == ""


def test_tables_report_shape(monkeypatch):
    short_benchmarks(monkeypatch)
    records = cli.compute_tables_report()
    assert sorted(records) == ["classical", "quantum"]
    for by_time in records.values():
        assert sorted(by_time) == [2, 5, 10]
        assert all(isinstance(rec, SummaryRecord) for rec in by_time.values())
        assert [rec.time for rec in by_time.values()] == [2, 5, 10]
    text, _ = format_tables_report(fake_report())
    lines = text.splitlines()
    # 2 models x 3 times x 2 quantities, and one spike-site line per model
    assert sum(ln.startswith(("  cycle_total", "  spike_height")) for ln in lines) == 12
    assert sum(ln.startswith("  spike sites") for ln in lines) == 2
    assert "quantum walk, 25-node cycle" in text
    assert "classical walk, 25-node cycle" in text
