"""Shared two-buffer engine and snapshot-collection loop for the two walks.

Both walks live on the same graph and share one storage scheme: a fixed
length-n cycle part and a half-line buffer that grows geometrically ahead
of the walker's frontier.  After t steps from a site at offset x the
support cannot pass half-line site x + t, so a buffer that long would hold
the infinite half-line exactly.

Far ahead of the walker the values fall below the smallest normal double
`tiny` (2.2e-308): classical masses underflow to exact zeros, while quantum
amplitudes settle into a band of subnormals that never decays, because
2**-1074 is a fixed point of multiplication by 1/sqrt(2).  Every
`_TRIM_PERIOD` steps the engine therefore moves its frontier back to the
last half-line site where some component is at least `tiny` and zeroes the
contiguous tail past it; interior values are never touched.  Each trimmed
site held less than `tiny` in each of its k components, so a trim discards
less than k * tiny**2 probability per site for the quantum walk (k = 2)
and less than tiny mass per site for the classical walk (k = 1).  The
step is linear and does not grow the 2-norm (quantum) or the 1-norm
(classical), so a later state is off from the untrimmed one by at most the
sum of the norms the trims discarded: far below anything a float64
observable resolves.

The engine classes are the only code that knows where a (site, coin) value
is stored; everything else reads a walk through its accessors and
`observables.position_distribution`.
"""

from __future__ import annotations

import numpy as np

from . import observables

_MIN_EXTENT = 2
# steps between tail trims; a trim scans the ray buffers, which costs about
# as much as one step
_TRIM_PERIOD = 64
_TINY = np.finfo(np.float64).tiny


class TwoBufferWalk:
    """Real-valued walk state stepped by a stencil rule via back buffers.

    `_cycle` and `_ray` are tuples of float64 arrays, one per component:
    cycle arrays have length n with index 0 the junction, ray arrays are
    indexed by half-line site.  A subclass supplies

    - `_COMPONENTS`: the number of arrays per region;
    - `SOURCE`: the walk's name ("quantum" or "classical"), carried by its
      snapshots;
    - `_slot(topology, site, coin) -> (on_ray, component, index)`: where
      the value of one (site, coin) basis state lives, raising ValueError
      unless the topology admits it;
    - `_rule(cycle, ray, new_cycle, new_ray, m)`: writes the next state into
      the `new_*` arrays from the current ones, where m bounds the largest
      occupied half-line site; the ray arrays reach at least index m + 2.
      Entries of `new_ray` past m + 1 are zero already and are left alone;
      the tail trim keeps that so;
    - `_site_probabilities() -> (cycle, halfline)`: fresh arrays of the
      probability at each cycle node and half-line site, with half-line
      index 0 zero (the junction counts on the cycle).
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

    @classmethod
    def _launch(cls, topology, site, coin=None):
        """State at time 0 holding 1.0 in the slot of one basis state."""
        on_ray, component, index = cls._slot(topology, site, coin)
        state = cls(topology, index + 1 if on_ray else _MIN_EXTENT)
        if on_ray:
            state._frontier = index
        (state._ray if on_ray else state._cycle)[component][index] = 1.0
        return state

    def _value(self, site, coin=None) -> float:
        """Value of one basis state; 0.0 for half-line sites past the buffer."""
        on_ray, component, index = self._slot(self.topology, site, coin)
        values = (self._ray if on_ray else self._cycle)[component]
        return float(values[index]) if index < values.size else 0.0

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
        if self.time % _TRIM_PERIOD == 0:
            self._trim_tail()

    def _trim_tail(self) -> None:
        """Move the frontier back to the last half-line site where some
        component is at least the smallest normal double, zeroing the
        contiguous tail past it in the front and back buffers alike."""
        m = self._frontier
        live = np.abs(self._ray[0][: m + 1]) >= _TINY
        for a in self._ray[1:]:
            live |= np.abs(a[: m + 1]) >= _TINY
        sites = np.flatnonzero(live)
        keep = int(sites[-1]) if sites.size else 0
        for a in self._ray + self._ray_back:
            a[keep + 1 : m + 2] = 0.0
        self._frontier = keep


def validate_snapshot_times(snapshot_times, total_steps: int) -> list[int]:
    times = [int(t) for t in snapshot_times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"snapshot times must be strictly increasing: {times}")
    if times and (times[0] < 0 or times[-1] > total_steps):
        raise ValueError(
            f"snapshot times must lie in [0, {total_steps}]: {times}"
        )
    return times


def run_walk(state, total_steps, snapshot_times):
    """Advance `state` by total_steps, collecting snapshots at the given times.

    Snapshot times count from the state's current time; each distribution
    carries the absolute time.  Returns [(time, PositionDistribution), ...]
    in time order.
    """
    if total_steps < 0:
        raise ValueError(f"total_steps must be >= 0, got {total_steps}")
    times = validate_snapshot_times(snapshot_times, total_steps)
    start = state.time
    collected = []
    for t in times:
        for _ in range(start + t - state.time):
            state.step()
        collected.append((t, observables.position_distribution(state)))
    for _ in range(start + total_steps - state.time):
        state.step()
    return collected
