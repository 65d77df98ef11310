"""Shared two-buffer engine and snapshot-collection loop for the two walks.

Both walks live on the same graph and share one storage scheme: the graph
unrolled into one row, with the n cycle nodes in columns 0..n-1 (column 0
is the junction) and half-line site x in column n + x.  Away from the
junction both walks are a nearest-neighbour stencil along that row, so one
array pass per direction steps the cycle and the half-line together.  Steps
run in blocks bounded by time alone, to the next tail trim or the request's
end.  Before a block the half-line part doubles until it holds the block's
reach, and `_step_columns` steps the block, building the two kernels once
and alternating them.  After t steps from a site at offset x the support
cannot pass half-line site x + t, so a row that long would hold the
infinite half-line exactly.

Each kernel writes the next state times a gain under which the walk's
probabilities double every step (sqrt(2) on quantum amplitudes, 2 on
classical masses), so that a step needs no scaling pass: the row holds
the probabilities times 2**(time % _TRIM_PERIOD), which `_scale` undoes
for readers.  At each trim boundary `_step_columns` removes the gain from
the row itself, an exact power of two, multiplying only the columns its
block stepped and the one past them, before the trim scans: past those
a block leaves +0.0.  A step is its array passes plus a few scalar fix-ups
at the junction and the seam; a kernel may write scratch values into
columns 0 and n of its source buffer, because that buffer is the next
step's target and the next step rewrites both.

Far ahead of the walker the values fall below anything a reader sees,
down to subnormal residue and zeros, while the frontier still moves one
site per step.  Every `_TRIM_PERIOD` steps the engine therefore moves its
frontier back to the last half-line site where some component is at least
the class's `_CUT_FLOOR` f and zeroes the contiguous tail past it; interior
values are never touched.  The quantum walk cuts at the smallest normal
double `tiny` (2.2e-308), since its frontier already sits at its ballistic
front; the classical walk cuts at 1e-60, 45 decades under the writers'
print floor of 1e-15, where its diffusive tail would otherwise keep more
than twice as many sites.  Each cut site held less than f in each of its k
components, so a trim discards less than k f**2 probability per cut site
for the quantum walk (k = 2) and less than f mass per cut site for the
classical walk (k = 1).  The step is linear and does not grow the 2-norm
(quantum) or the 1-norm (classical), so a later state is off from the
untrimmed one by at most the sum of the norms the trims discarded: for
the classical walk, the sum over trims of 1e-60 times the sites cut, far
below any printed mass.

The quantum walk also takes light-cone blocks, which `quantum` describes
and runs around this loop.

The engine classes are the only code that knows where a (site, coin) value
is stored; everything else reads a walk through its accessors and
`observables.position_distribution`.
"""

from __future__ import annotations

import numpy as np

from . import observables

_MIN_EXTENT = 2
# steps between tail trims; a trim rescales the live columns and scans
# back from the frontier, which costs about as much as a step or two
_TRIM_PERIOD = 64
_TINY = np.finfo(np.float64).tiny
# Largest cycle, and largest half-line a walk may need, that the engine
# takes: `_launch`, `check_walk` and `advance` refuse more before they
# allocate or step.  Front and back buffer take 32 B per column for the
# quantum walk's two rows, 16 B for the classical walk's one, so after
# doubling the half-line part stays near 640 MB and a cycle this size
# 320 MB.  A quantum light-cone block at frontier m takes L FFT points,
# the least 2**j or 3 * 2**j above about 1.25 m, and adds at most 48 B
# per point for its transforms and the rows they move: about 0.6 GB for
# the 3 * 2**22 points it may need here.  With tracemalloc, 10**6 steps
# from cycle:12:R (n = 25) peaked at 69.4 MB: 32 MB of buffers (extent
# 2**20), 1.3 MB of kept symbols and about 36 B per point for the last
# blocks' 2**20 points.
MAX_HALFLINE_SITES = 10**7


class TwoBufferWalk:
    """Real-valued walk state stepped by a stencil kernel via a back buffer.

    `_values` is a float64 array of shape (components, n + extent + 1):
    column k < n is cycle node [k], column n + x is half-line site x.
    `_back` has the same shape and receives each step.  A subclass supplies

    - `_COMPONENTS`: the number of rows;
    - `SOURCE`: the walk's name ("quantum" or "classical"), carried by its
      snapshots;
    - `_TRIM_RENORM` (required): the power of two that undoes the gain
      the kernel puts on the row over `_TRIM_PERIOD` steps; exact for
      every value >= tiny;
    - `_slot(topology, site, coin) -> (component, column)`: where the
      value of one (site, coin) basis state lives, raising ValueError
      unless the topology admits it;
    - `_kernel(values, new, width) -> step`: a zero-argument callable,
      with every view built once, that writes the next state, times the
      engine's gain, into columns [0, width) of `new` from columns
      [0, width] of `values`.
      It may also overwrite columns 0 and n of `values`, which is the next
      step's `new`, so after a step `_values` is whole and `_back` is
      scratch.  Columns past the frontier hold +0.0 and a step keeps them
      so: the width of a block changes no value, signed zeros included;
    - `_site_probabilities() -> (cycle, halfline)`: fresh arrays of the
      probability at each cycle node and half-line site, with half-line
      index 0 zero (the junction counts on the cycle);
    - `_CUT_FLOOR`: the value below which a trim cuts the tail (`tiny`
      unless the class sets its own).

    `advance` is the only way to step, in blocks bounded by time alone.
    """

    _CUT_FLOOR = _TINY

    def __init__(self, topology, extent: int = _MIN_EXTENT):
        extent = max(int(extent), _MIN_EXTENT)
        shape = (self._COMPONENTS, topology.cycle_size + extent + 1)
        self.topology = topology
        self.time = 0
        self._values = np.zeros(shape)
        self._back = np.zeros(shape)
        # upper bound on the largest occupied half-line site
        self._frontier = 0

    @classmethod
    def _launch(cls, topology, site, coin=None):
        """State at time 0 holding 1.0 in the slot of one basis state."""
        component, column = cls._slot(topology, site, coin)
        frontier = max(column - topology.cycle_size, 0)
        _check_reach(topology, frontier, 0)
        state = cls(topology, frontier + 1)
        state._frontier = frontier
        state._values[component, column] = 1.0
        return state

    def _value(self, site, coin=None) -> float:
        """Value of one basis state; 0.0 for half-line sites past the buffer."""
        component, column = self._slot(self.topology, site, coin)
        row = self._values[component]
        return float(row[column]) if column < row.size else 0.0

    @property
    def extent(self) -> int:
        """Largest half-line site currently representable."""
        return self._values.shape[1] - self.topology.cycle_size - 1

    def copy(self):
        dup = type(self)(self.topology, self.extent)
        dup.time = self.time
        dup._frontier = self._frontier
        dup._values[:] = self._values
        return dup

    def reserve(self, min_extent: int) -> None:
        """Grow the half-line part so that `extent >= min_extent`.

        Newly exposed sites hold exact zeros.  The extent doubles until it
        holds the request, so stepping stays amortized O(1) per site update.
        """
        if min_extent <= self.extent:
            return
        doublings = ((min_extent - 1) // self.extent).bit_length()
        width = self.topology.cycle_size + (self.extent << doublings) + 1
        old = self._values
        self._values = np.zeros((old.shape[0], width))
        self._values[:, : old.shape[1]] = old
        self._back = np.zeros_like(self._values)

    def advance(self, steps: int) -> None:
        """Apply `steps` walk steps, one block at a time."""
        steps = step_count(steps, "steps")
        _check_reach(self.topology, self._frontier, steps)
        self._advance(steps)

    def _advance(self, steps: int) -> None:
        """The block loop behind `advance`: blocks that end at each trim
        boundary, which a subclass may interleave with blocks of its own."""
        n = self.topology.cycle_size
        while steps > 0:
            m = self._frontier
            block = min(steps, _TRIM_PERIOD - self.time % _TRIM_PERIOD)
            # the block's last step reaches half-line site m + block
            self.reserve(m + block + 1)
            self._step_columns(n + m + block + 1, block)
            self._frontier = m + block
            steps -= block
            if self.time % _TRIM_PERIOD == 0:
                self._cut_tail(self._CUT_FLOOR)

    def _scale(self) -> float:
        """Factor that turns the row's gained probabilities into true ones."""
        return 2.0 ** -(self.time % _TRIM_PERIOD)

    def _step_columns(self, width: int, steps: int) -> None:
        """Take `steps` steps with the kernel over columns [0, width); the
        steps end at or before the next trim boundary, and there the row's
        gain, an exact power of two, is removed from columns [0, width]."""
        forward = self._kernel(self._values, self._back, width)
        backward = self._kernel(self._back, self._values, width)
        for _ in range(steps // 2):
            forward()
            backward()
        if steps % 2:
            forward()
            self._values, self._back = self._back, self._values
        self.time += steps
        if self.time % _TRIM_PERIOD == 0:
            live = self._values[:, : width + 1]
            np.multiply(live, self._TRIM_RENORM, live)  # `*=` on a slice copies it back

    def _cut_tail(self, floor: float) -> None:
        """Move the frontier back to the last half-line site where some
        component is at least `floor`, zeroing the contiguous tail past it
        in the front and back buffers alike.

        The last such site is near the frontier after every trim and block,
        so the scan runs back from it over windows of 64, 128, 256, ...
        sites and stops at the first that holds one; together the windows
        cover the whole half-line, so the site found is the whole row's."""
        n, m = self.topology.cycle_size, self._frontier
        end, window = m + 1, _TRIM_PERIOD
        while True:
            start = max(end - window, 0)
            kept = (np.abs(self._values[:, n + start : n + end]) >= floor).any(axis=0)
            sites = np.flatnonzero(kept)
            if sites.size or not start:
                break
            end, window = start, 2 * window
        self._truncate(start + int(sites[-1]) if sites.size else 0)

    def _truncate(self, site: int) -> None:
        """Move the frontier back to `site` and zero both buffers past it."""
        n, m = self.topology.cycle_size, self._frontier
        for buffer in (self._values, self._back):
            buffer[:, n + site + 1 : n + m + 2] = 0.0
        self._frontier = site


def _is_integer(value) -> bool:
    try:
        return int(value) == value
    except (OverflowError, ValueError):  # infinities, NaN, non-numeric strings
        return False


def step_count(steps, name: str) -> int:
    if not _is_integer(steps) or steps < 0:
        raise ValueError(f"{name} must be >= 0 and an integer, got {steps!r}")
    return int(steps)


def _check_reach(topology, offset: int, steps: int) -> None:
    """Refuse a cycle past MAX_HALFLINE_SITES, or a walk whose half-line
    could pass it: from offset x, t steps need x + t + 2 sites."""
    n, limit = topology.cycle_size, MAX_HALFLINE_SITES
    if n > limit:
        raise ValueError(f"cycle size {n} exceeds the limit of {limit} sites")
    if offset + steps + 2 > limit:
        raise ValueError(
            f"half-line offset {offset} + {steps} steps + 2 exceeds the limit "
            f"of {limit} half-line sites"
        )


def check_walk(state, total_steps, snapshot_times) -> tuple[int, list[int]]:
    """Check a request to advance `state` by total_steps with snapshots at
    the given times, before any step; return both as ints."""
    total_steps = step_count(total_steps, "total_steps")
    _check_reach(state.topology, state._frontier, total_steps)
    given = list(snapshot_times)
    if not all(map(_is_integer, given)):
        raise ValueError(f"snapshot times must be integers: {given}")
    times = [int(t) for t in given]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"snapshot times must be strictly increasing: {times}")
    if times and (times[0] < 0 or times[-1] > total_steps):
        raise ValueError(
            f"snapshot times must lie in [0, {total_steps}]: {times}"
        )
    return total_steps, times


def run_walk(state, total_steps, snapshot_times):
    """Advance `state` by total_steps, collecting snapshots at the given times.

    Snapshot times count from the state's current time; each distribution
    carries the absolute time.  Returns [(time, PositionDistribution), ...]
    in time order.
    """
    total_steps, times = check_walk(state, total_steps, snapshot_times)
    start = state.time
    collected = []
    for t in times:
        state.advance(start + t - state.time)
        collected.append((t, observables.position_distribution(state)))
    state.advance(start + total_steps - state.time)
    return collected
