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
set from the frontier m by `WalkerState._block`.  `_free_steps` moves the
old half-line into sites K + 1 .. m + K by the free walk's K-step symbol
between one rfft/irfft pair over L >= m + 2K + 2 points, so that nothing
wraps around; `_fft_points` takes the least such L of the form 2**j or
3 * 2**j, and the symbols of sizes up to `_SYMBOL_CACHE_POINTS` are kept.
`_advance_strip` steps the cycle and sites 0..K, which read only sites up
to 2K, on the walk itself truncated past site 2K + 2, so that it takes
blocks too; a 64-step strip is one product with `_build_strip_map`'s
matrix.  The tail is then cut at the block's bound in place of `tiny`.
`_driver.run_walk` advances one snapshot interval at a time, so blocks
never cross a snapshot time, and extra snapshot times split blocks and
can move results within the bound below.  The classical walk keeps
single steps: its tail spans dozens of decades below the peak, and an
FFT's absolute round-off, about 1e-17 of the peak, would erase the
relative accuracy of every value printed there.

A block of K steps over L FFT points is within `_block_error(K, L)`,

    eps(K, L) = (4 K + 7 b(L) + 8) * 2**-52,

b(L) the bit length of L (log2(2 L) for L = 2**j, j + 2 for L = 3 * 2**j),
in 2-norm (so in every amplitude) of exact arithmetic, from three parts:

- FFT round-off: a radix-2 stage errs by at most eta relative to the
  2-norm, eta = mu + gamma_4 (sqrt(2) + mu), about 6.7 * 2**-53 with
  accurate twiddles (Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., section 24.1, Theorem 24.2), and the stages'
  errors add up.  By the same argument, each output of a radix-3
  butterfly is x_0 plus two products of twiddled inputs with unit
  constants, within c = mu + gamma_4 (1 + mu) + gamma_2 (1 + mu)(1 +
  gamma_4) times |x_0| + |x_1| + |x_2|, so the three outputs err by at
  most 3 c ||x|| in 2-norm; the 3-point DFT is sqrt(3) times a unitary,
  so the stage errs by at most eta_3 = sqrt(3) c relative to its output,
  about 12.2 * 2**-53, under 2 eta.  A transform over 2**j points thus
  errs by at most j eta and one over 3 * 2**j by (j + 2) eta, both at
  most b(L) eta: 7 b(L) covers the pair, and 8 more units the roundings
  in the symbol and its product;
- the symbol's phase: K w errs by K times the error in the eigenphase w
  plus the product's rounding, at most 4 K units: k = i * (2 pi / L) is
  used only on [0, pi/2], and fl(2 pi), the division by L (exact for
  L = 2**j) and the product move it by under 1.5 units, which w's slope
  in k (at most 1 / sqrt(2)) turns into under 1 unit; sin k, the
  division by sqrt(2) and arcsin round once each, which arcsin's slope
  (at most sqrt(2)) turns into under 2.5 units; the product rounds by
  under K / 2;
- the tail cut at eps(K, L): it discards less than 2 eps**2 probability
  per cut site, and a cut that discards probability P moves the state by
  sqrt(P).

A strip map product errs by at most its own bound beta(n) (see
`_build_strip_map`; 5.5e-13 at n = 25).  Errors made at any depth of
strips move on under steps that do not grow the 2-norm, so after t steps
the state is within t * 2**-52 plus, over the blocks taken at every depth,
the sum of eps(K, L) + sqrt(P), plus beta(n) per strip map product, of
exact arithmetic in 2-norm.  Against an impulse stepped in long double one
block errs by 3.7e-15, 1.5e-14 and 6.4e-14 at K = 64, 256 and 1024 over
8K points, and by 5.3e-15, 2.1e-14 and 8.3e-14 over 6K points: 5 to 9 %
of eps(K, L), about K / 3 units.  100 000 steps from cycle:12:R on 25
nodes stay within 4.6e-14 of single steps in every probability at
t = 20 000, 50 000 and 100 000.  A block's last bits depend on numpy's
FFT, sin/cos and matrix product, so they may differ between numpy builds
and CPUs, within the bound.
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


def _fft_points(need):
    """The least L >= need of the form 2**j or 3 * 2**j: a transform of
    radix-2 stages and at most one radix-3 stage, and under 1.5 times
    `need`, where the next power of two can be twice it."""
    return min(1 << (need - 1).bit_length(), 3 << ((need - 1) // 3).bit_length())


def _even_about_quarter(values, out):
    """Write `values`, at frequencies 0..pi/2, into `out`, at 0..pi, even
    about pi/2."""
    out[: values.size] = values
    out[values.size :] = values[-2::-1]


def _free_symbol(steps, points):
    """(b, e) of `_apply_free_symbol` for `steps` steps over `points` FFT
    points, at the rfft's frequencies k.  sin k, w = arcsin(sin k /
    sqrt(2)) and sqrt(2 - sin**2 k) are even about pi/2, so they are taken
    on [0, pi/2] alone; each array is dropped once it is used."""
    k = np.arange(points // 2 + 1) * (2 * math.pi / points)
    sin_k = np.sin(k[: points // 4 + 1])
    w, root = np.arcsin(sin_k / math.sqrt(2)), np.sqrt(2 - sin_k * sin_k)
    angle = steps * w  # K w
    s = np.sin(angle)
    s /= root  # sin(K w) / (sqrt(2) cos w)
    minus_real = -s * sin_k
    del w, root, sin_k
    e = np.empty(k.size, complex)
    _even_about_quarter(minus_real, e.real)
    _even_about_quarter(s, e.imag)
    del s
    np.multiply(e.imag, np.cos(k, out=k), e.imag)
    del k
    # cos((K-1) w) / cos w = cos(K w) + sin(K w) tan w
    np.cos(angle, out=angle)
    angle -= minus_real
    b = np.empty(e.size)
    _even_about_quarter(angle, b)
    return b, e


# Blocks repeat the same (K, L) many times, so the symbols of sizes up to
# this are kept, 12 B per point.  From cycle:12:R (n = 25), 20 000 steps
# asked for 409 symbols and took 400 through 22 entries (1.0 MB), and
# 300 000 steps for 6 496, 6 207 of them through 25 entries (1.3 MB); the
# rest had more points and were computed in their block.  A block takes
# K <= m / 8 over L >= m + 2K + 2 points, so K <= (L - 2) / 10, a
# multiple of 64, or K = 64 from a strip map: at most L // 640 + 1 values
# of K for each size L up to this, 2.6 MiB in all.  Kept only up to 4096
# points, the symbols took a 20 000-step walk twice as long (4.1 ms against
# 2.3 on a 2-vCPU Xeon host); kept up to 2**14, they could take 10 MiB.
_SYMBOL_CACHE_POINTS = 8192
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
    # a chunk of frequencies at a time, so that the temporaries stay small
    # beside the spectra and the symbol on the largest blocks
    for start in range(0, b.size, _SYMBOL_CHUNK):
        part = slice(start, start + _SYMBOL_CHUNK)
        down, up = spectra[:, part]
        total, diff = down + up, up - down
        np.multiply(total, e[part], total)
        np.multiply(diff, np.conj(e[part]), diff)
        for row, mixed in ((down, total), (up, diff)):
            np.multiply(row, b[part], row)
            np.add(row, mixed, row)


# frequencies per chunk of `_apply_free_symbol`: its two temporaries take
# 2 MB, where whole they would take 16 B per FFT point
_SYMBOL_CHUNK = 1 << 16


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
    `_step_columns`; those of sites K + 1 .. 2K, whose light cones never
    reach the junction, take the same roundings at every site, so site
    K + 1's column is stepped and moved up a site for each of the others.
    So each column is within K 2**-52 of exact arithmetic in
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
        for column in range(n + steps + 2):
            walk._values[:] = 0.0
            walk._values[row, column] = 1.0
            walk._step_columns(inputs, steps)
            matrix[:, :, row, column] = walk._values[:, :outputs]
        first = matrix[:, :, row, n + steps + 1]
        for shift in range(1, steps):
            moved = matrix[:, :, row, n + steps + 1 + shift]
            moved[:, : n + shift] = 0.0
            moved[:, n + shift :] = first[:, n : outputs - shift]
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

    def _block(self, steps):
        """Take a light-cone block where one is admitted on a trim boundary,
        else the shared engine's block; return its length.  A block's strip
        runs the block loop too."""
        period = _driver._TRIM_PERIOD
        if self.time % period:
            return super()._block(steps)
        n, m = self.topology.cycle_size, self._frontier
        block = min(steps, m // _BLOCK_SHARE)
        block -= block % period
        # a strip that is one product pays from the least frontier its
        # 64-step block admits
        if not block and steps >= period and m > 2 * period and _strip_map(n) is not None:
            block = period
        if not block:
            return super()._block(steps)
        moved, floor = self._free_steps(self._values[:, n : n + m + 1], block)
        self.reserve(m + block + 2)
        self._advance_strip(block)
        # `moved` holds sites block + 1 .. m + block
        self._values[:, n + block + 1 : n + m + block + 1] = moved
        del moved  # before the next block's transforms allocate
        self._frontier = m + block
        self._cut_tail(floor)
        return block

    def _advance_strip(self, steps):
        """Advance the cycle and half-line sites 0..steps by `steps` steps
        as the module docstring says; sites past `steps`, up to 3 * steps
        + 2, and the frontier are left stale for the block to overwrite."""
        n = self.topology.cycle_size
        product = _strip_map(n) if steps == _driver._TRIM_PERIOD else None
        if product is not None:
            matrix, _ = product
            inputs = matrix.shape[1] // self._COMPONENTS
            self._values[:, : n + steps + 1] = (
                matrix @ self._values[:, :inputs].ravel()
            ).reshape(self._COMPONENTS, -1)
            self.time += steps
        else:
            # a 64-step block with a strip map took the product above, so
            # K <= frontier // _BLOCK_SHARE and the frontier is >= 2K + 2
            self._truncate(2 * steps + 2)
            self._advance(steps)

    @staticmethod
    def _free_steps(rows, steps):
        """Move the Down and Up `rows` of half-line sites 0..m by `steps`
        free steps; return the moved rows at sites steps + 1 .. m + steps
        and the block's round-off bound, `_block_error(steps, L)`.

        Over L >= m + 2 * steps + 2 FFT points no site wraps around into
        another.
        """
        sites = rows.shape[1]
        points = _fft_points(sites + 2 * steps + 1)
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
