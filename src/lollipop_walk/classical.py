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
    _TRIM_RENORM = 2.0**-_driver._TRIM_PERIOD  # a step gains 2 (no halving)
    # far below any mass a reader sees (the writers print none under 1e-15)
    _CUT_FLOOR = 1e-60

    @staticmethod
    def _slot(topology, site, coin):
        topology.coins_at(site)  # validates the site; there are no coins
        offset = topology.cycle_size if isinstance(site, HalfLineNode) else 0
        return 0, offset + site.index

    def probability(self, site: Site) -> float:
        return self._value(site) * self._scale()

    def total_mass(self) -> float:
        return float(self._values.sum()) * self._scale()

    def _site_probabilities(self):
        row = self._values[0] * self._scale()
        n = self.topology.cycle_size
        return row[:n], row[n:]

    def _kernel(self, values, new, width):
        n = self.topology.cycle_size
        v, nv = values[0], new[0]
        # both neighbours, without halving, gathered at the target column
        from_higher, from_lower, to_row = v[2 : width + 1], v[: width - 1], nv[1:width]
        mv, mnv = memoryview(v), memoryview(nv)
        add = np.add

        def step():
            # park the junction's doubled third in its own column and in the
            # unused column n, so that the pass delivers it to [1], [n-1] and
            # half-line site 1; v is the next step's target, which rewrites both
            mv[0] = mv[n] = 2.0 * ((1.0 / 3.0) * mv[0])
            add(from_higher, from_lower, to_row)
            # [0] gathers [1], [n-1] and half-line site 1; column n stays unused
            mnv[0] = mv[1] + (mv[n - 1] + mv[n + 1])
            mnv[n] = 0.0

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
