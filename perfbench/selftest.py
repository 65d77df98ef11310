"""Self-tests of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selftest.py

1. The public-API guard passes on the benchmark's own sources, and flags a
   snippet that imports a step alias, reads private state or calls a name
   outside the kept API.
2. Every workload, fed perturbed references (--perturb), reports failed
   ops and `correct: false`, so its checks are able to fail.

Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from apiguard import check_directory, violations  # noqa: E402

FORBIDDEN_SNIPPET = """\
from lollipop_walk import quantum_step
import lollipop_walk as lw
amplitudes = state._down
up = getattr(state, "_up")
lw.classical_step(dist)
lw.site_index(topology, 10, site)
"""


def main() -> int:
    ok = True

    found = check_directory(HERE)
    print(f"api guard on perfbench/*.py: {len(found)} violations")
    for line in found:
        print(f"  {line}")
    ok = ok and not found

    caught = violations(FORBIDDEN_SNIPPET)
    print(f"api guard on a forbidden snippet: {len(caught)} of 5 flagged")
    ok = ok and len(caught) == 5

    for workload in ("paper_long", "sweep_small", "run_artifacts"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0", "--perturb"],
            capture_output=True, text=True, timeout=170,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
        caught = proc.returncode == 0 and result.get("failed", 0) > 0 \
            and result.get("correct") is False
        print(f"perturbed {workload}: exit {proc.returncode}, "
              f"failed {result.get('failed')} of {result.get('attempted')} "
              f"-> {'caught' if caught else 'NOT caught'}")
        ok = ok and caught

    print("selftest: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
