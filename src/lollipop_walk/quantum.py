"""Coined discrete-time quantum walk engine on the lollipop graph.

One step applies, at every site, a coin mix followed by a shift to the
adjacent sites.  Degree-2 sites (cycle away from the junction, half-line)
use the Hadamard-type rule with weight sqrt(2)/2; the degree-3 junction
uses the Grover coin (diagonal -1/3, off-diagonal 2/3) over its (L, R,
Down) components, routed to [n-1], [1], and half-line site 1.

Every entry of the one-step operator is real and every launch is a basis
state, so every amplitude stays real and float64 storage is exact: it
holds the same values a complex engine would keep in its real parts.
Storage, half-line growth and the step loop are the shared two-buffer
engine in `_driver`.  A step rounds each value about once: after t steps
each amplitude is within t * 2**-52 of its value in exact arithmetic.

Past the junction the half-line is a free, translation-invariant line,
and K steps on carry half-line site y > K only from old half-line sites
within K of it, none of them the junction.  So from a frontier of 129
sites (512 on a cycle of more than `_STRIP_MAP_MAX_CYCLE` nodes) the walk
advances on each trim boundary in light-cone blocks of K steps, with K
set from the frontier m by `_light_cone_block`.  `_free_steps` moves the
old half-line into sites K + 1 .. m + K by the free walk's K-step symbol
between one rfft/irfft pair over L >= m + 2K + 2 points, so that nothing
wraps around.  `_advance_strip` advances the cycle and sites 0..K, which
read only sites up to 2K, as a walk of its own truncated past site
2K + 2, which takes blocks too; a 64-step strip is one product with
`_build_strip_map`'s matrix.  The tail is then cut at the block's bound
in place of `tiny`.  `_driver.run_walk` advances one snapshot interval
at a time, so blocks never cross a snapshot time, and extra snapshot
times split blocks and can move results within the bound below.  The
classical walk keeps single steps: its tail spans dozens of decades
below the peak, and an FFT's absolute round-off, about 1e-17 of the
peak, would erase the relative accuracy of every value printed there.

A block of K steps over L FFT points is within `_block_error(K, L)`,

    eps(K, L) = (4 K + 7 log2(2 L) + 8) * 2**-52,

in 2-norm (so in every amplitude) of exact arithmetic, from three parts:

- FFT round-off: each transform errs by at most log2(L) eta relative to
  the 2-norm, eta = mu + gamma_4 (sqrt(2) + mu), about 6.7 * 2**-53 with
  accurate twiddles (Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., section 24.1, Theorem 24.2): 7 log2(2 L) covers the
  pair, and 8 more units the roundings in the symbol and its product;
- the symbol's phase: K w errs by K times the error in the eigenphase w
  plus the product's rounding, at most 4 K units: k is rounded only on
  [0, pi/2], where that moves w by under 1/2 unit; sin k, the division by
  sqrt(2) and arcsin round once each, which arcsin's slope (at most
  sqrt(2)) turns into under 3 units; the product rounds by under K / 2;
- the tail cut at eps(K, L): it discards less than 2 eps**2 probability
  per cut site, and a cut that discards probability P moves the state by
  sqrt(P).

A strip map product errs by at most its own bound beta(n) (see
`_build_strip_map`; 5.5e-13 at n = 25).  Errors made at any depth of
strips move on under steps that do not grow the 2-norm, so after t steps
the state is within t * 2**-52 plus, over the blocks taken at every depth,
the sum of eps(K, L) + sqrt(P), plus beta(n) per strip map product, of
exact arithmetic in 2-norm.  Against an impulse stepped in long double one
block errs by 4.2e-15, 1.7e-14 and 7.3e-14 at K = 64, 256 and 1024, about
K / 3 units, and 100 000 steps from cycle:12:R on 25 nodes stay within
5.2e-14 of single steps in every probability.  A block's last bits depend
on numpy's FFT, sin/cos and matrix product, so they may differ between
numpy builds and CPUs, within the bound.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _driver
from .topology import (
    CYCLE_COINS,
    HALFLINE_COINS,
    Coin,
    HalfLineNode,
    LollipopTopology,
    Site,
)


def _block_error(steps: int, points: int) -> float:
    """Bound on the 2-norm error of one light-cone block of `steps` steps
    over `points` FFT points (see the module docstring)."""
    return (4 * steps + 7 * points.bit_length() + 8) * 2.0**-52


def _free_symbol(steps, points):
    """(b, e) of `_apply_free_symbol` for `steps` steps over `points` FFT
    points, at the rfft's frequencies k."""
    k = np.arange(points // 2 + 1) * (2 * math.pi / points)
    sin_k = np.sin(k[: points // 4 + 1])
    sin_k = np.concatenate((sin_k, sin_k[-2::-1]))  # even about k = pi / 2
    angle = steps * np.arcsin(sin_k / math.sqrt(2))  # K w
    s = np.sin(angle) / np.sqrt(2 - sin_k * sin_k)  # sin(K w) / (sqrt(2) cos w)
    e = np.empty(sin_k.size, complex)
    np.multiply(-s, sin_k, e.real)
    np.multiply(s, np.cos(k), e.imag)
    # cos((K-1) w) / cos w = cos(K w) + sin(K w) tan w
    return np.cos(angle) - e.real, e


# Small blocks repeat the same (K, L) many times, so their symbols are
# kept: 300 000 steps from cycle:12:R (n = 25) took 5 939 of their 6 496
# symbols from its 9 entries, and 548 had more points and were computed in
# their block.  It holds at most L / 128 values of K for each power of two
# L up to this, about 2 MB in all; keeping larger symbols would hold memory
# on the scale of the largest block's transform.
_SYMBOL_CACHE_POINTS = 4096
_cached_symbol = functools.lru_cache(maxsize=None)(_free_symbol)


def _apply_free_symbol(spectra, steps):
    """Move the half-line by `steps` (even) free Hadamard steps in place.

    `spectra` holds the rfft, over L points, of the Down and Up rows.
    At frequency k one step is M(k) = [[e^ik, e^ik], [e^-ik, -e^-ik]] / sqrt(2),
    with trace tau = i sqrt(2) sin k and determinant -1, so M^2 = tau M + I
    (Cayley-Hamilton) and M^K = a_K M + a_{K-1} I, where a_K =
    (z1^K - z2^K) / (z1 - z2) over the eigenvalues z1 = e^iw, z2 = -e^-iw,
    sin w = sin(k) / sqrt(2).  For even K that is
        Down' = b Down + e (Down + Up),  Up' = b Up + conj(e) (Up - Down),
    with b = cos((K-1) w) / cos w and e = i e^ik sin(K w) / (sqrt(2) cos w).
    Its temporaries are freed on return, before the inverse transform.
    """
    points = 2 * (spectra.shape[1] - 1)
    symbol = _cached_symbol if points <= _SYMBOL_CACHE_POINTS else _free_symbol
    b, e = symbol(steps, points)
    down, up = spectra
    total, diff = down + up, up - down
    np.multiply(total, e, total)
    # conj(e) x = conj(e conj(x)): a cached e is shared, so only the
    # temporary is conjugated
    np.conj(diff, diff)
    np.multiply(diff, e, diff)
    np.conj(diff, diff)
    for row, mixed in ((down, total), (up, diff)):
        np.multiply(row, b, row)
        np.add(row, mixed, row)


# The strip map has (2n + 130) (2n + 258) entries on an n-node cycle, so it
# is built only up to this size: at most 198 404 entries (1.6 MB), four
# cycle sizes at a time.  On a 2-vCPU Xeon host a product took 12 us at
# n = 25 and 53 us at n = 150, against about 105 us for the 64 kernel
# calls it replaces, and broke even near n = 200.
_STRIP_MAP_MAX_CYCLE = 128


@functools.lru_cache(maxsize=4)
def _build_strip_map(cycle_size):
    """The linear map of one _TRIM_PERIOD-step strip on an n-node cycle
    (see `WalkerState._advance_strip`), with its round-off bound.

    Its input is columns [0, n + 2K + 1) of both rows at gain 1, K =
    _TRIM_PERIOD, and its output the columns [0, n + K + 1) K steps on,
    flattened row by row: the cycle and half-line sites 0..K read only
    sites up to 2K.  Each column is a basis vector stepped through
    `_step_columns`, so it is within K 2**-52 of exact arithmetic in
    2-norm, and ||(map - exact) x|| <= K 2**-52 ||x||_1 <= K 2**-52
    sqrt(c) for a state x of norm at most 1 over c input values.  The
    product rounds output i by at most gamma_c sum_j |map_ij| |x_j|
    (Higham, Theorem 3.5, gamma_c = c u / (1 - c u), u = 2**-53), and
    ||(|map| |x|)|| <= sqrt(R C) ||x|| for the largest absolute row sum R
    and column sum C (Schur's test).  The bound is the sum of the two.
    """
    steps = _driver._TRIM_PERIOD
    n = cycle_size
    inputs, outputs = n + 2 * steps + 1, n + steps + 1
    walk = WalkerState(LollipopTopology(n), 2 * steps + 1)
    matrix = np.empty((2, outputs, 2, inputs))
    for row in range(2):
        for column in range(inputs):
            walk._values[:] = 0.0
            walk._values[row, column] = 1.0
            walk._step_columns(inputs, steps)
            matrix[:, :, row, column] = walk._values[:, :outputs]
    matrix = matrix.reshape(2 * outputs, 2 * inputs)
    size = matrix.shape[1]
    magnitude = np.abs(matrix)
    gamma = size * 2.0**-53 / (1 - size * 2.0**-53)
    rows_by_columns = float(magnitude.sum(axis=1).max() * magnitude.sum(axis=0).max())
    bound = steps * 2.0**-52 * math.sqrt(size) + gamma * math.sqrt(rows_by_columns)
    return matrix, bound


def _strip_map(cycle_size):
    """`_build_strip_map(cycle_size)`, or None past _STRIP_MAP_MAX_CYCLE."""
    return _build_strip_map(cycle_size) if cycle_size <= _STRIP_MAP_MAX_CYCLE else None


# A light-cone block takes K = min(steps left, frontier // _BLOCK_SHARE)
# steps, rounded down to a multiple of _TRIM_PERIOD, whenever that is
# nonzero: from frontier 512.  On a 2-vCPU Xeon host, 1000 to 6000 steps
# from the middle node of cycles of 129, 300 and 2000 nodes took 0.84 to
# 1.08 times as long as with blocks from frontier 2048 (medians of 8
# alternating processes); the 1.08 is n = 2000 at 1000 steps, which takes
# no block at all.  A walk with a strip map, whose strips cost one product
# per 64 steps, takes 64-step blocks from frontier 2 * _TRIM_PERIOD + 1:
# on every cycle launch of n = 3, 7, 11 advanced 1000 steps and then
# 20 x 50, thresholds from 64 to 192 measured the same, 512 took 14 %
# longer and no such blocks 27 %.  With K an eighth of the frontier,
# 100 000 steps from cycle:12:R (n = 25) took 0.45 s, against 0.51, 0.44,
# 0.50 and 0.53 s with a quarter, a sixth, a twelfth and a sixteenth
# (medians of 5 alternating runs in one process).
_BLOCK_SHARE = 8


class WalkerState(_driver.TwoBufferWalk):
    """Real amplitudes of the quantum walker over (site, coin) basis states.

    Row 0 holds the coins that move to the lower column (Left on the cycle,
    Down on the half-line), row 1 those that move to the higher one (Right,
    Up).  Column n, half-line site 0, holds the junction's Down coin in row
    0 and is structurally zero in row 1.
    """

    _COMPONENTS = 2
    SOURCE = "quantum"
    # a step gains sqrt(2), so a trim period gains 2**32
    _TRIM_RENORM = 2.0 ** -(_driver._TRIM_PERIOD // 2)

    @staticmethod
    def _slot(topology, site, coin):
        topology.check_state(site, coin)
        # the junction's Down coin is half-line site 0
        if isinstance(site, HalfLineNode) or coin is Coin.DOWN:
            return HALFLINE_COINS.index(coin), topology.cycle_size + site.index
        return CYCLE_COINS.index(coin), site.index

    def amplitude(self, site: Site, coin: Coin) -> float:
        """Amplitude of one basis state (0 for half-line sites past the buffer)."""
        return self._value(site, coin) * math.sqrt(self._scale())

    def norm(self) -> float:
        """Euclidean norm of the full amplitude vector."""
        return math.sqrt(float(np.vdot(self._values, self._values)) * self._scale())

    def _site_probabilities(self):
        """Squared amplitudes summed over each site's coin states; the
        junction sums its L, R and Down components."""
        n = self.topology.cycle_size
        lower, upper = self._values
        probs = (lower**2 + upper**2) * self._scale()
        cycle, halfline = probs[:n], probs[n:]
        cycle[0] += halfline[0]
        halfline[0] = 0.0
        return cycle, halfline

    def _advance(self, steps):
        """The block loop behind `advance`: a light-cone block wherever
        `_light_cone_block` admits one, else the shared loop up to the
        next trim boundary.  A block's strip runs it too."""
        n, period = self.topology.cycle_size, _driver._TRIM_PERIOD
        while steps > 0:
            block = self._light_cone_block(steps)
            if block:
                m = self._frontier
                moved, floor = self._free_steps(self._values[:, n : n + m + 1], block)
                self.reserve(m + block + 2)
                self._advance_strip(block)
                # `moved` holds sites block + 1 .. m + block
                self._values[:, n + block + 1 : n + m + block + 1] = moved
                del moved  # before the next block's transforms allocate
                self._frontier = m + block
                self._cut_tail(floor)
            else:
                block = min(steps, period - self.time % period)
                super()._advance(block)
            steps -= block

    def _light_cone_block(self, steps):
        """Steps of a light-cone block to take now, or 0 for none."""
        period = _driver._TRIM_PERIOD
        if self.time % period:
            return 0
        m = self._frontier
        block = min(steps, m // _BLOCK_SHARE)
        block -= block % period
        # a strip that is one product pays from the least frontier its
        # 64-step block admits
        if (not block and steps >= period and m > 2 * period
                and _strip_map(self.topology.cycle_size) is not None):
            return period
        return block

    def _advance_strip(self, steps):
        """Advance the cycle and half-line sites 0..steps by `steps` steps
        as the module docstring says; sites past `steps` are left stale."""
        n, m = self.topology.cycle_size, self._frontier
        product = _strip_map(n) if steps == _driver._TRIM_PERIOD else None
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

    @staticmethod
    def _free_steps(rows, steps):
        """Move the Down and Up `rows` of half-line sites 0..m by `steps`
        free steps; return the moved rows at sites steps + 1 .. m + steps
        and the block's round-off bound, `_block_error(steps, L)`.

        Over L >= m + 2 * steps + 2 FFT points no site wraps around into
        another.
        """
        sites = rows.shape[1]
        points = 1 << (sites + 2 * steps).bit_length()
        spectra = np.fft.rfft(rows, points)
        _apply_free_symbol(spectra, steps)
        moved = np.fft.irfft(spectra, points)[:, steps + 1 : sites + steps]
        return moved, _block_error(steps, points)

    def _kernel(self, values, new, width):
        n = self.topology.cycle_size
        a, b, na, nb = values[0], values[1], new[0], new[1]
        # Hadamard stencil, without its weight, gathered at the target
        # column: Left/Down [c] <- [c+1], Right/Up [c] <- [c-1]
        a_up, b_up, to_lower = a[1 : width + 1], b[1 : width + 1], na[:width]
        a_down, b_down, to_higher = a[: width - 1], b[: width - 1], nb[1:width]
        # scalar access through memoryviews costs less than .item()/__setitem__
        ma, mb, mna, mnb = map(memoryview, (a, b, na, nb))
        add, subtract, grover = np.add, np.subtract, math.sqrt(2.0 / 9.0)

        def step():
            # junction: Grover coin over (L, R, Down), routed to [n-1]L, [1]R,
            # (1)Up, times sqrt(2) for the gain: grover is sqrt(2) / 3
            l0, r0, d0 = ma[0], mb[0], ma[n]
            add(a_up, b_up, to_lower)
            subtract(a_down, b_down, to_higher)
            # rewire the junction and the seam between [n-1] and half-line
            # site 0; nb[0] held a stale value, now overwritten
            mna[n - 1] = (2.0 * (r0 + d0) - l0) * grover
            mnb[0] = mnb[n]  # the wrap [n-1] -> [0]R, which the pass put at column n
            mnb[1] = (2.0 * (l0 + d0) - r0) * grover
            mnb[n] = 0.0
            mnb[n + 1] = (2.0 * (l0 + r0) - d0) * grover

        return step


def make_basis_state(
    topology: LollipopTopology, site: Site, coin: Coin
) -> WalkerState:
    """Walker at time 0 with amplitude 1 on a single (site, coin) state."""
    return WalkerState._launch(topology, site, coin)


def evolve_quantum(state: WalkerState, total_steps: int, snapshot_times=()):
    """Apply total_steps steps, snapshotting the position distribution.

    snapshot_times must be strictly increasing and within [0, total_steps],
    counted from the state's current time; 0 means the state before any
    step.  Returns [(time, PositionDistribution)], each distribution
    stamped with the absolute time.
    """
    return _driver.run_walk(state, total_steps, snapshot_times)
