"""Classical random walk on the lollipop graph.

Every degree-2 site splits its mass half/half to its two neighbors; the
junction splits a third each to its cycle neighbors [n-1] and [1] and to
half-line site 1.  Mass is never rescaled to sum to 1: conservation is
for the tests to check, not for the engine to enforce.  Storage, half-line
growth and the step loop are the shared two-buffer engine in `_driver`.
"""

from __future__ import annotations

import numpy as np

from . import _driver
from .topology import HalfLineNode, LollipopTopology, Site


class ClassicalDistribution(_driver.TwoBufferWalk):
    """Site-probability vector of the classical walker.

    Coins do not exist classically, so there is one row: the mass of cycle
    node [k] in column k and of half-line site x in column n + x; column n,
    half-line site 0, is unused and stays zero.
    """

    _COMPONENTS = 1
    SOURCE = "classical"

    @staticmethod
    def _slot(topology, site, coin):
        topology.coins_at(site)  # validates the site; there are no coins
        offset = topology.cycle_size if isinstance(site, HalfLineNode) else 0
        return 0, offset + site.index

    def _scale(self) -> float:  # the row holds each mass times 2**(time % 64)
        return 2.0 ** -(self.time % _driver._TRIM_PERIOD)

    def probability(self, site: Site) -> float:
        return self._value(site) * self._scale()

    def total_mass(self) -> float:
        return float(self._values.sum()) * self._scale()

    def _site_probabilities(self):
        row = self._values[0] * self._scale()
        n = self.topology.cycle_size
        return row[:n], row[n:]

    def _trim_tail(self) -> None:
        self._values *= 2.0**-_driver._TRIM_PERIOD  # exact for masses >= tiny
        super()._trim_tail()

    def _kernel(self, values, new, width):
        n = self.topology.cycle_size
        (v,), (nv,) = values, new
        # both neighbours, without halving, gathered at the target column
        from_higher, from_lower, to_row = v[2 : width + 1], v[: width - 1], nv[1:width]
        add = np.add

        def step():
            third = 2.0 * ((1.0 / 3.0) * v.item(0))
            add(from_higher, from_lower, out=to_row)
            # rewire the junction and the seam between [n-1] and half-line
            # site 0: [0] gathers [1], [n-1] and half-line site 1, and the
            # junction sends a doubled third to [1], [n-1] and half-line site 1
            nv[0] = v.item(1) + (v.item(n - 1) + v.item(n + 1))
            nv[1] = v.item(2) + third
            nv[n - 1] += third
            nv[n + 1] += third
            nv[n] = 0.0

        return step


def make_point_distribution(
    topology: LollipopTopology, site: Site
) -> ClassicalDistribution:
    """Distribution at time 0 with all mass on one site."""
    return ClassicalDistribution._launch(topology, site)


def evolve_classical(
    dist: ClassicalDistribution, total_steps: int, snapshot_times=()
):
    """Classical counterpart of evolve_quantum; same snapshot contract."""
    return _driver.run_walk(dist, total_steps, snapshot_times)
