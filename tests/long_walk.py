"""10**6 quantum steps from the middle node of an n-node cycle (Right
coin), ten times what the test suite steps: the regime where light-cone
blocks grow past every size the suite reaches and their strips recurse
several levels deep.  n is the first argument, 25 (cycle:12:R) by default;
on a cycle of more than `quantum._STRIP_MAP_MAX_CYCLE` nodes, such as 129,
the strips step without the strip map.

Checks that the norm stays within the nested bound `quantum` states, over
the blocks and strip products this walk took, that the tracemalloc peak
stays under the figure `_driver` documents at MAX_HALFLINE_SITES: 32 B
per buffer column and 48 B per FFT point of the largest block, with each
block's points taken from the engine's own size function, that some
block took a size of 3 * 2**j points, and that the symbol cache holds no
more entries and bytes than `quantum` bounds it by: L // 640 + 1 symbols
of 24 B per frequency for each size L up to `_SYMBOL_CACHE_POINTS`.  Runs
in about 10 s at n = 25 and 20 s at n = 129 (tracemalloc slows it down
about twofold), so it is not part of the suite:

    PYTHONPATH=src:tests python -W error tests/long_walk.py [n]
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import pytest

from lollipop_walk import (
    Coin, CycleNode, LollipopTopology, _driver, make_basis_state, quantum,
)
from test_light_cone import record_blocks

STEPS = 10**6


def symbol_cache_bound():
    """(entries, bytes) the symbol cache can reach: for each size L up to
    its limit, a K that is a multiple of the trim period and at most
    (L - 2) / (_BLOCK_SHARE + 2), or one strip map's K, each symbol one
    float64 and one complex128 value per frequency."""
    limit = quantum._SYMBOL_CACHE_POINTS
    sizes = {quantum._fft_points(need) for need in range(1, limit + 1)}
    per_size = {L: L // ((quantum._BLOCK_SHARE + 2) * _driver._TRIM_PERIOD) + 1
                for L in sizes}
    return (sum(per_size.values()),
            sum(count * 24 * (L // 2 + 1) for L, count in per_size.items()))


def main(cycle_size: int = 25) -> int:
    walk = make_basis_state(LollipopTopology(cycle_size), CycleNode(cycle_size // 2),
                            Coin.RIGHT)
    fft_points, cached_symbol = quantum._fft_points, quantum._cached_symbol
    points, cached = [], set()

    def recording_fft_points(need):
        points.append(fft_points(need))
        return points[-1]

    def recording_cached_symbol(steps, size):
        cached.add((steps, size))
        return cached_symbol(steps, size)

    cached_symbol.cache_clear()
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.MonkeyPatch.context() as patch:
        # its strips share buffers of 2**20 columns: scanning their tails
        # after every cut and strip found them zero but made the run six
        # times as long (84 s against 14 s at n = 25)
        budget = record_blocks(patch, check_tails=False)
        patch.setattr(quantum, "_fft_points", recording_fft_points)
        patch.setattr(quantum, "_cached_symbol", recording_cached_symbol)
        walk.advance(STEPS)
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    # against exact arithmetic, whose norm is 1, plus the norm's own
    # summation rounding
    bound = STEPS * 2.0**-52 + sum(budget) + walk._values.size * 2.0**-53
    drift = abs(walk.norm() - 1.0)
    limit = 32 * walk._values.shape[1] + 48 * max(points)
    threes = sum(p % 3 == 0 for p in points)
    entries = cached_symbol.cache_info().currsize
    kept = sum(array.nbytes for key in cached for array in cached_symbol(*key))
    entry_bound, byte_bound = symbol_cache_bound()
    print(f"n = {cycle_size}, {STEPS} steps in {seconds:.1f} s under tracemalloc: "
          f"{len(points)} blocks, strips {budget.depth} deep, "
          f"frontier {walk._frontier}, largest block {max(points)} FFT points, "
          f"{threes} blocks of 3 * 2**j points")
    print(f"|norm - 1| = {drift:.3e}, stated bound {bound:.3e}")
    print(f"tracemalloc peak {peak / 2**20:.1f} MB, documented limit {limit / 2**20:.1f} MB")
    print(f"symbol cache {entries} entries, {kept / 2**20:.2f} MB, "
          f"bound {entry_bound} entries, {byte_bound / 2**20:.2f} MB")
    passed = (drift <= bound and peak <= limit and budget.depth >= 3 and threes > 0
              and entries == len(cached) <= entry_bound and kept <= byte_bound)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
