"""Shared two-buffer engine and snapshot-collection loop for the two walks.

Both walks live on the same graph and share one storage scheme: a fixed
length-n cycle part and a half-line buffer that grows geometrically ahead
of the walker's light cone.  After t steps from a site at offset x the
support cannot pass half-line site x + t, so the finite buffer represents
the infinite half-line exactly, never approximately.
"""

from __future__ import annotations

import numpy as np

_MIN_EXTENT = 2


class TwoBufferWalk:
    """Real-valued walk state stepped by a stencil rule via back buffers.

    `_cycle` and `_ray` are tuples of float64 arrays, one per component
    (`_COMPONENTS` of each): cycle arrays have length n with index 0 the
    junction, ray arrays are indexed by half-line site.  A subclass gives
    the component count and `_rule(cycle, ray, new_cycle, new_ray, m)`,
    which writes the next state into the `new_*` arrays from the current
    ones, where m bounds the largest occupied half-line site; the ray
    arrays reach at least index m + 2.  Entries of `new_ray` past m + 1
    are zero already and are left alone.
    """

    def __init__(self, topology, extent: int = _MIN_EXTENT):
        extent = max(int(extent), _MIN_EXTENT)
        n = topology.cycle_size
        k = self._COMPONENTS
        self.topology = topology
        self.time = 0
        self._cycle = tuple(np.zeros(n) for _ in range(k))
        self._ray = tuple(np.zeros(extent + 1) for _ in range(k))
        self._cycle_back = tuple(np.zeros(n) for _ in range(k))
        self._ray_back = tuple(np.zeros(extent + 1) for _ in range(k))
        # upper bound on the largest occupied half-line site
        self._frontier = 0

    @property
    def extent(self) -> int:
        """Largest half-line site currently representable."""
        return len(self._ray[0]) - 1

    def copy(self):
        dup = type(self)(self.topology, self.extent)
        dup.time = self.time
        dup._frontier = self._frontier
        for mine, theirs in zip(self._cycle + self._ray, dup._cycle + dup._ray):
            theirs[:] = mine
        return dup

    def reserve(self, min_extent: int) -> None:
        """Grow the half-line buffers so that `extent >= min_extent`.

        Newly exposed sites hold exact zeros.  Growth is at least a doubling,
        so repeated stepping stays amortized O(1) per site update.
        """
        if min_extent <= self.extent:
            return
        new_extent = max(2 * self.extent, min_extent)
        grown = []
        for old in self._ray:
            fresh = np.zeros(new_extent + 1)
            fresh[: old.size] = old
            grown.append(fresh)
        self._ray = tuple(grown)
        self._ray_back = tuple(np.zeros(new_extent + 1) for _ in grown)

    def step(self) -> None:
        """Apply one walk step into the back buffers, then swap them in."""
        m = self._frontier
        if m + 2 > self.extent:
            self.reserve(m + 2)
        self._rule(self._cycle, self._ray, self._cycle_back, self._ray_back, m)
        self._cycle, self._cycle_back = self._cycle_back, self._cycle
        self._ray, self._ray_back = self._ray_back, self._ray
        self._frontier = m + 1
        self.time += 1


def validate_snapshot_times(snapshot_times, total_steps: int) -> list[int]:
    times = [int(t) for t in snapshot_times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"snapshot times must be strictly increasing: {times}")
    if times and (times[0] < 0 or times[-1] > total_steps):
        raise ValueError(
            f"snapshot times must lie in [0, {total_steps}]: {times}"
        )
    return times


def run_walk(state, total_steps, snapshot_times, observer, snapshot_fn):
    """Advance `state` by total_steps, collecting snapshots at the given times.

    `state` exposes step(); snapshot_fn turns it into a PositionDistribution.
    Returns [(time, distribution), ...] in time order.
    """
    if total_steps < 0:
        raise ValueError(f"total_steps must be >= 0, got {total_steps}")
    times = validate_snapshot_times(snapshot_times, total_steps)
    pending = iter(times)
    next_time = next(pending, None)
    collected = []

    def maybe_snapshot(t):
        nonlocal next_time
        if next_time == t:
            dist = snapshot_fn(state)
            if observer is not None:
                observer(dist)
            collected.append((t, dist))
            next_time = next(pending, None)

    maybe_snapshot(0)
    for t in range(1, total_steps + 1):
        state.step()
        maybe_snapshot(t)
    return collected
