"""The repository benchmark: one workload per invocation, run from the root
of a checkout.

    python3 perfbench/run.py --workload paper_long --seed 1 --seconds 20 --trace 0

The workload runs in a fresh single-threaded process (perfbench/worker.py)
with `src` on PYTHONPATH; several more fresh processes time set-up alone.
With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (half the time untraced,
half traced, for the tracing overhead).  Both carry the correctness ops.
Full records, including the environment and the trace, go to
perfbench/.work/.  --perturb shifts the references the checks use, so a
sound benchmark must then report failures (see selftest.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6  # fresh processes that only time set-up, besides the workload's own
DEADLINE_S = 170  # the whole invocation ends well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from apiguard import check_directory  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("paper_long", "sweep_small", "run_artifacts"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--perturb", action="store_true")
    return p.parse_args(argv)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn_worker(args, root: Path, workdir: Path, deadline: float, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.perturb:
        cmd.append("--perturb")
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def cpu_record() -> dict:
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"cpu_model": model or platform.processor(), "caches": caches,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def environment(root: Path, worker: dict) -> dict:
    return {
        "commit": git_commit(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        **cpu_record(),
        "threads": {var: "1" for var in THREAD_VARS},
        "input_sizes": worker["sizes"],
        "cache_note": (
            "the walk arrays (at most a few MB) fit in the caches listed; "
            "any bytes-moved figure is computed from array sizes and no "
            "memory bandwidth is measured or claimed"
        ),
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "lollipop_walk" / "__init__.py").is_file():
        print("error: run from the root of a lollipop-walk checkout "
              "(src/lollipop_walk not found)", file=sys.stderr)
        return 2
    work = HERE / ".work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)

    guard = check_directory(HERE)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn_worker(args, root, workdir, deadline, True)["setup_s"])
        worker = spawn_worker(args, root, workdir, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(worker["setup_s"])

    expected_pkg = (root / "src" / "lollipop_walk" / "__init__.py").resolve()
    in_checkout = Path(worker["package_file"]).resolve() == expected_pkg
    attempted = worker["attempted"] + 2
    failed = worker["failed"] + (1 if guard else 0) + (0 if in_checkout else 1)
    failures = guard + worker["failures"]
    if not in_checkout:
        failures.append(f"imported {worker['package_file']}, not {expected_pkg}")

    walls = worker["walls"]
    if args.trace:
        layers = dict(worker["layers"])
        layers["trace.overhead_s"] = (statistics.median(worker["traced_walls"])
                                      - statistics.median(walls))
        metrics = {name: {"value": value, "unit": unit}
                   for name, unit, value in per_layer(layers)}
    else:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "steps_per_s": {"value": statistics.median(
                worker["steps_per_rep"] / w for w in walls), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }

    env = environment(root, worker)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "perturb": args.perturb, "environment": env,
        "repetitions": len(walls), "walls_s": walls,
        "wall_quartiles_s": quartiles(walls), "setup_samples_s": setups,
        "steps_per_rep": worker["steps_per_rep"], "failures": failures,
        "metrics": metrics,
    }
    for key in ("localization", "traced_walls", "spans"):
        if key in worker:
            record[key] = worker[key]
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    q1, q2, q3 = quartiles(walls)
    print(f"{args.workload}: {len(walls)} repetitions, wall_s median {q2:.4f} "
          f"quartiles [{q1:.4f}, {q3:.4f}] ({'traced run' if args.trace else 'untraced'})")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer(layers: dict):
    """(name, unit, value) in BENCHMARK.json's per_layer order."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    for entry in spec:
        yield entry["name"], entry["unit"], layers[entry["name"]]


if __name__ == "__main__":
    sys.exit(main())
