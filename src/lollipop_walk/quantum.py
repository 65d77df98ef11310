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
"""

from __future__ import annotations

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
