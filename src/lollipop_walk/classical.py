"""Classical random walk on the lollipop graph.

Every degree-2 site splits its mass half/half to its two neighbors; the
junction splits a third each to its cycle neighbors [n-1] and [1] and to
half-line site 1.  Mass is never renormalized: conservation is something
the tests check, not something the engine enforces.  Storage, half-line
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

    def probability(self, site: Site) -> float:
        return self._value(site)

    def total_mass(self) -> float:
        return float(self._values.sum())

    def _site_probabilities(self):
        row = self._values[0].copy()
        n = self.topology.cycle_size
        return row[:n], row[n:]

    def _kernel(self, values, new, width):
        n = self.topology.cycle_size
        (v,), (nv,) = values, new
        half = np.empty(width + 1)
        # half to each neighbour, gathered at the target column; the
        # junction's column 0 sends nothing along the row
        source, from_higher, to_row = v[: width + 1], half[1:], nv[:width]
        from_lower, to_upper = half[1 : width - 1], nv[2:width]
        multiply, copyto, add = np.multiply, np.copyto, np.add

        def step():
            multiply(source, 0.5, out=half)
            third = (1.0 / 3.0) * v[0]
            copyto(to_row, from_higher)
            add(to_upper, from_lower, out=to_upper)
            # rewire the junction and the seam between [n-1] and half-line
            # site 0: the junction sends a third each to [1], [n-1] and
            # half-line site 1
            nv[0] += half[n - 1] + half[n + 1]  # wrap-around plus half-line site 1
            nv[1] += third
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
