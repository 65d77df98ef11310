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
engine in `_driver`.
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

SQRT_HALF = math.sqrt(0.5)


class WalkerState(_driver.TwoBufferWalk):
    """Real amplitudes of the quantum walker over (site, coin) basis states.

    The cycle components are (Left, Right), each a length-n array; the
    half-line components are (Down, Up), indexed by site, where index 0 of
    Down is the junction's Down coin and index 0 of Up is structurally zero.
    """

    _COMPONENTS = 2
    SOURCE = "quantum"

    @staticmethod
    def _slot(topology, site, coin):
        topology.check_state(site, coin)
        # the junction's Down coin is index 0 of the Down array
        if isinstance(site, HalfLineNode) or coin is Coin.DOWN:
            return True, HALFLINE_COINS.index(coin), site.index
        return False, CYCLE_COINS.index(coin), site.index

    def amplitude(self, site: Site, coin: Coin) -> float:
        """Amplitude of one basis state (0 for half-line sites past the buffer)."""
        return self._value(site, coin)

    def norm(self) -> float:
        """Euclidean norm of the full amplitude vector."""
        return math.sqrt(sum(float(np.dot(a, a)) for a in self._cycle + self._ray))

    def _site_probabilities(self):
        """Squared amplitudes summed over each site's coin states; the
        junction sums its L, R and Down components."""
        left, right = self._cycle
        down, up = self._ray
        cycle = left**2 + right**2
        halfline = down**2 + up**2
        cycle[0] += halfline[0]
        halfline[0] = 0.0
        return cycle, halfline

    def _rule(self, cycle, ray, new_cycle, new_ray, m) -> None:
        n = self.topology.cycle_size
        cl, cr = cycle
        d, u = ray
        ncl, ncr = new_cycle
        nd, nu = new_ray

        # junction: Grover coin over (L, R, Down), routed to [n-1]L, [1]R, (1)Up;
        # times the rounded 1/3, not / 3: the golden artifact digests pin it
        l0, r0, d0 = cl[0], cr[0], d[0]
        to_left = (2.0 * (r0 + d0) - l0) * (1.0 / 3.0)
        to_right = (2.0 * (l0 + d0) - r0) * (1.0 / 3.0)
        to_up = (2.0 * (l0 + r0) - d0) * (1.0 / 3.0)

        # cycle, gathered at the target: [k]L <- [k+1], [k]R <- [k-1]
        np.add(cl[1:n], cr[1:n], out=ncl[0 : n - 1])
        ncl[0 : n - 1] *= SQRT_HALF
        np.subtract(cl[1 : n - 1], cr[1 : n - 1], out=ncr[2:n])
        ncr[2:n] *= SQRT_HALF
        ncr[0] = SQRT_HALF * (cl[n - 1] - cr[n - 1])
        ncl[n - 1] = to_left
        ncr[1] = to_right

        # half-line: (x)Down <- x+1, (x)Up <- x-1; index 0 of Down is the junction
        np.add(d[1 : m + 1], u[1 : m + 1], out=nd[0:m])
        nd[0:m] *= SQRT_HALF
        np.subtract(d[1 : m + 1], u[1 : m + 1], out=nu[2 : m + 2])
        nu[2 : m + 2] *= SQRT_HALF
        nd[m : m + 2] = 0.0
        nu[0] = 0.0
        nu[1] = to_up


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
