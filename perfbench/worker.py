"""One workload process: set up, repeat the workload, check every repetition.

Started by run.py in a fresh single-threaded interpreter with the
package's `src` directory on PYTHONPATH.  Prints one JSON object as its
last line of standard output.

    python3 perfbench/worker.py --workload paper_long --seed 1 --seconds 10 \
        --trace 0 --spawned-at <time.monotonic() of the parent> --workdir DIR

--setup-only stops once the first walk is ready and reports the time.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--perturb", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    return p.parse_args(argv)


def repeat(workload, budget_s, workdir, ops, reference, tracer=None):
    """Closed loop: repetitions back to back while another one of average
    length still fits in the budget (at least one).  Returns (wall, output)
    per repetition."""
    from workloads import Untraced, count_output

    walls = []
    start = time.perf_counter()
    while True:
        rep = len(walls)
        repdir = workdir / f"rep{rep}"
        repdir.mkdir(parents=True)
        if tracer is None:
            t0 = time.perf_counter()
            out = workload.run(repdir, Untraced())
            wall = time.perf_counter() - t0
        else:
            tracer.begin_rep(rep)
            t0 = time.perf_counter()
            with tracer.span("bench", "rep"):
                out = workload.run(repdir, tracer)
            wall = time.perf_counter() - t0
            count_output(repdir, tracer)
            metrics, gap = tracer.rep_metrics(rep, wall)
            ops.check(not tracer.stack and abs(gap) <= 0.01 * wall,
                      f"self times miss the traced wall by {gap:.6f} s of {wall:.6f} s")
            out["layer_metrics"] = metrics
        workload.check(out, repdir, ops, reference)
        walls.append((wall, out))
        shutil.rmtree(repdir)
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > budget_s:
            return walls


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy
    import lollipop_walk  # noqa: F401  (timed as part of set-up)
    from workloads import WORKLOADS, Ops

    workload = WORKLOADS[args.workload](args.seed, args.perturb)
    workload.setup()
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    workdir = Path(args.workdir)
    ops = Ops()
    reference: dict = {}
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = repeat(workload, budget, workdir / "untraced", ops, reference)
    result["walls"] = [w for w, _ in untraced]
    if "localization" in untraced[-1][1]:
        result["localization"] = untraced[-1][1]["localization"]
    if args.trace:
        from tracer import Tracer, median_metrics

        tracer = Tracer()
        tracer.instrument()
        try:
            traced = repeat(workload, budget, workdir / "traced", ops, reference, tracer)
        finally:
            tracer.uninstrument()
        result["traced_walls"] = [w for w, _ in traced]
        result["layers"] = median_metrics([out["layer_metrics"] for _, out in traced])
        result["spans"] = tracer.dump()
    result.update(
        steps_per_rep=workload.steps_per_rep(),
        sizes=workload.sizes(),
        numpy=numpy.__version__,
        package_file=lollipop_walk.__file__,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
