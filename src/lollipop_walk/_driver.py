"""Shared two-buffer engine and snapshot-collection loop for the two walks.

Both walks live on the same graph and share one storage scheme: the graph
unrolled into one row, with the n cycle nodes in columns 0..n-1 (column 0
is the junction) and half-line site x in column n + x.  Away from the
junction both walks are a nearest-neighbour stencil along that row, so one
array pass per direction steps the cycle and the half-line together.  The
half-line part grows geometrically ahead of the walker's frontier.  Steps run
in blocks that end at each tail trim and before each growth, so that the
buffer grows at the same frontiers step by step.  Every block that is
stepped, of either kind below, runs through one loop, `_step_columns`,
which builds the two kernels once and alternates them; the one-product
strip map below is built through it too.  After t steps from a site at offset x
the support cannot pass half-line site x + t, so a row that long would hold
the infinite half-line exactly.

Each kernel writes the next state times a gain under which the walk's
probabilities double every step (sqrt(2) on quantum amplitudes, 2 on
classical masses), so that a step needs no scaling pass: the row holds
the probabilities times 2**(time % _TRIM_PERIOD), which `_scale` undoes
for readers.  At each trim boundary `_step_columns` removes the gain from
the row itself, an exact power of two, multiplying only the columns its
block stepped and the one past them, before the trim scans: past those a
trim-period block leaves +0.0, and a light-cone block pastes its moved
half-line over them.  A step is its array passes plus a few scalar fix-ups
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

A walk whose class supplies `_free_steps` (the quantum walk) also takes
light-cone blocks.  Past the junction the half-line is a free,
translation-invariant line, and K steps on carry half-line site y > K only
from old half-line sites within K of it, none of them the junction.  So
when the walk sits on a trim boundary with enough steps left before the
caller's target, the block loop takes K steps at once (`_light_cone_block`
sets K from the frontier m): `_free_steps` moves the old half-line by the
free line's K-step symbol into sites K + 1 .. m + K and returns the
block's round-off bound; `_advance_strip` advances the cycle and sites
0..K, which read only sites up to 2K, as a walk of their own truncated
past site 2K + 2; and the tail is cut at the block's bound in place of
the floor.  The truncated walk runs the same block loop, so it takes
blocks of its own, down to 64-step strips that a walk may take in one
product with a fixed matrix (`_strip_map`).  A block differs from the same
steps taken one at a time within the nested bound `quantum` states.
`run_walk` advances one snapshot interval at a time, so blocks never cross
a snapshot time, and extra snapshot times split blocks and can move
results within that bound.  The classical walk keeps single steps: its
tail spans dozens of decades below the peak, and an FFT's absolute
round-off, about 1e-17 of the peak, would erase the relative accuracy of
every value printed there.

The engine classes are the only code that knows where a (site, coin) value
is stored; everything else reads a walk through its accessors and
`observables.position_distribution`.
"""

from __future__ import annotations

import numpy as np

from . import observables

_MIN_EXTENT = 2
# steps between tail trims; a trim rescales and scans the live columns,
# which costs about as much as a few steps
_TRIM_PERIOD = 64
_TINY = np.finfo(np.float64).tiny
# Largest cycle, and largest half-line a walk may need, that the engine
# takes: `_launch`, `check_walk` and `advance` refuse more before they
# allocate or step.  Front and back buffer take 32 B per column for the
# quantum walk's two rows, 16 B for the classical walk's one, so after
# doubling the half-line part stays near 640 MB and a cycle this size
# 320 MB.  A light-cone block at frontier m takes L FFT points, the least
# power of two above about 1.25 m, and adds at most 64 B per point for its
# transforms and its strip's walks: about 1.1 GB for the 2**24 points it
# may need here.  With tracemalloc, 10**6 steps from cycle:12:R (n = 25)
# peaked at 77 MB: 32 MB of buffers (extent 2**20) and about 45 B per
# point for the last blocks' 2**20 points.
MAX_HALFLINE_SITES = 10**7
# A light-cone block takes min(steps left, frontier // _BLOCK_SHARE) steps
# rounded down to a multiple of _TRIM_PERIOD, if that is at least
# _BLOCK_MIN, so from frontier 2048.  On a 2-vCPU Xeon host (n = 25,
# medians of 31 alternating runs, each block stepping its strip and
# computing its own symbol) a block lost to stepping at frontier 564
# (0.94x, K = 128), broke even near 1000 (1.1x at 1076, K = 256) and won
# 1.3x at 2092 and 1.8x at 8194; _BLOCK_MIN sits at twice the break-even
# frontier.  A walk with a strip map, whose strips cost one product per 64
# steps, takes blocks of at least _TRIM_PERIOD steps from frontier
# 2 * _TRIM_PERIOD + 1: on every cycle launch of n = 3, 7, 11 advanced
# 1000 steps and then 20 x 50, thresholds from 64 to 192 measured the
# same, 512 took 14 % longer and no such blocks 27 %.  K has no cap, since
# a strip takes blocks of its own.  With K an eighth of the frontier,
# 100 000 steps from cycle:12:R (n = 25) took 0.45 s, against 0.51, 0.44,
# 0.50 and 0.53 s with a quarter, a sixth, a twelfth and a sixteenth
# (medians of 5 alternating runs in one process).
_BLOCK_SHARE = 8
_BLOCK_MIN = 256


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
      unless the class sets its own);
    - `_free_steps(rows, steps) -> (moved, floor)` (optional): from the
      rows of half-line sites 0..m at gain 1, return sites steps + 1 ..
      m + steps after `steps` steps of the free line, and the block's
      round-off bound; a walk without it never takes light-cone blocks;
    - `_strip_map() -> (matrix, bound) or None` (optional): the map that
      takes a _TRIM_PERIOD-step strip in one product, from columns
      [0, n + 2 _TRIM_PERIOD + 1) to [0, n + _TRIM_PERIOD + 1), rows
      flattened one after the other, with its round-off bound.

    `advance` is the only way to step.
    """

    _free_steps = None
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

        Newly exposed sites hold exact zeros.  Growth is at least a doubling,
        so repeated stepping stays amortized O(1) per site update.
        """
        if min_extent <= self.extent:
            return
        width = self.topology.cycle_size + max(2 * self.extent, min_extent) + 1
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
        """The block loop behind `advance`; a light-cone block's strip runs
        it too, on a truncated walk of its own, never through `advance`."""
        n = self.topology.cycle_size
        while steps > 0:
            m = self._frontier
            block = self._light_cone_block(steps)
            if block:
                moved, floor = self._free_steps(self._values[:, n : n + m + 1], block)
                self.reserve(m + block + 2)
                self._advance_strip(block)
                # `moved` holds sites block + 1 .. m + block
                self._values[:, n + block + 1 : n + m + block + 1] = moved
                del moved  # before the next block's transforms allocate
            else:
                self.reserve(m + 2)
                block = min(steps, _TRIM_PERIOD - self.time % _TRIM_PERIOD,
                            self.extent - m - 1)
                # the block's last step reaches half-line site m + block
                self._step_columns(n + m + block + 1, block)
                floor = self._CUT_FLOOR
            self._frontier = m + block
            steps -= block
            if self.time % _TRIM_PERIOD == 0:
                self._cut_tail(floor)

    def _advance_strip(self, steps: int) -> None:
        """Advance the cycle and half-line sites 0..steps by `steps` steps.

        Those sites read only sites up to 2 * steps, so a walk truncated
        past site 2 * steps + 2 gives them, through the same block loop;
        a _TRIM_PERIOD-step strip is one product with `_strip_map()`
        where the walk has one.  Sites past `steps` are left stale.
        """
        n, m = self.topology.cycle_size, self._frontier
        product = self._strip_map() if steps == _TRIM_PERIOD else None
        if product is not None:
            matrix, _ = product
            inputs = matrix.shape[1] // self._COMPONENTS
            self._values[:, : n + steps + 1] = (
                matrix @ self._values[:, :inputs].ravel()
            ).reshape(self._COMPONENTS, -1)
        else:
            sites = min(m, 2 * steps + 2)
            # sized for its last frontier, sites + steps, so that it never grows
            strip = type(self)(self.topology, sites + steps + 2)
            strip.time, strip._frontier = self.time, sites
            strip._values[:, : n + sites + 1] = self._values[:, : n + sites + 1]
            strip._advance(steps)
            self._values[:, : n + steps + 1] = strip._values[:, : n + steps + 1]
        self.time += steps

    def _scale(self) -> float:
        """Factor that turns the row's gained probabilities into true ones."""
        return 2.0 ** -(self.time % _TRIM_PERIOD)

    def _step_columns(self, width: int, steps: int) -> None:
        """Take `steps` steps with the kernel over columns [0, width), and at
        each trim boundary remove the row's gain from columns [0, width],
        an exact power of two."""
        forward = self._kernel(self._values, self._back, width)
        backward = self._kernel(self._back, self._values, width)
        while steps > 0:
            run = min(steps, _TRIM_PERIOD - self.time % _TRIM_PERIOD)
            for _ in range(run // 2):
                forward()
                backward()
            if run % 2:
                forward()
                self._values, self._back = self._back, self._values
                forward, backward = backward, forward
            self.time += run
            steps -= run
            if self.time % _TRIM_PERIOD == 0:
                live = self._values[:, : width + 1]
                np.multiply(live, self._TRIM_RENORM, live)  # `*=` on a slice copies it back

    def _cut_tail(self, floor: float) -> None:
        """Move the frontier back to the last half-line site where some
        component is at least `floor`, zeroing the contiguous tail past it
        in the front and back buffers alike."""
        n, m = self.topology.cycle_size, self._frontier
        kept = (np.abs(self._values[:, n : n + m + 1]) >= floor).any(axis=0)
        sites = np.flatnonzero(kept)
        keep = int(sites[-1]) if sites.size else 0
        self._values[:, n + keep + 1 : n + m + 2] = 0.0
        self._back[:, n + keep + 1 : n + m + 2] = 0.0
        self._frontier = keep

    def _light_cone_block(self, steps: int) -> int:
        """Steps of a light-cone block to take now, or 0 for none."""
        if self._free_steps is None or self.time % _TRIM_PERIOD:
            return 0
        m = self._frontier
        block = min(steps, m // _BLOCK_SHARE)
        block -= block % _TRIM_PERIOD
        if block >= _BLOCK_MIN:
            return block
        # a strip that is one product pays from the least frontier its
        # _TRIM_PERIOD-step block admits
        if (steps >= _TRIM_PERIOD and m > 2 * _TRIM_PERIOD
                and self._strip_map() is not None):
            return max(block, _TRIM_PERIOD)
        return 0

    def _strip_map(self):
        """(matrix, bound) that advances a _TRIM_PERIOD-step strip in one
        product, or None to step it; see `_advance_strip`."""
        return None


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
