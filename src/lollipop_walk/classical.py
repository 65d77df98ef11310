"""Classical random walk on the lollipop graph.

Every degree-2 site splits its mass half/half to its two neighbors; the
junction splits a third each to its cycle neighbors [n-1] and [1] and to
half-line site 1.  Mass is never renormalized: conservation is something
the tests check, not something the engine enforces.  Storage, half-line
growth and the step loop are the shared two-buffer engine in `_driver`.
"""

from __future__ import annotations

from . import _driver
from .topology import HalfLineNode, LollipopTopology, Site

_THIRD = 1.0 / 3.0


class ClassicalDistribution(_driver.TwoBufferWalk):
    """Site-probability vector of the classical walker.

    Coins do not exist classically, so there is one component per region:
    a length-n cycle array (index 0 = junction) plus a half-line array
    whose index 0 is unused.
    """

    _COMPONENTS = 1
    SOURCE = "classical"

    @staticmethod
    def _slot(topology, site, coin):
        topology.coins_at(site)  # validates the site; there are no coins
        return isinstance(site, HalfLineNode), 0, site.index

    def probability(self, site: Site) -> float:
        return self._value(site)

    def total_mass(self) -> float:
        return float(self._cycle[0].sum() + self._ray[0].sum())

    def _site_probabilities(self):
        (cycle,), (ray,) = self._cycle, self._ray
        return cycle.copy(), ray.copy()

    def _rule(self, cycle, ray, new_cycle, new_ray, m) -> None:
        n = self.topology.cycle_size
        (c,), (r,) = cycle, ray
        (nc,), (nr,) = new_cycle, new_ray
        half = 0.5 * c
        rr = 0.5 * r
        c0 = c[0]

        # cycle, gathered at the target node
        nc[0 : n - 1] = half[1:n]          # from the clockwise neighbor [k+1]
        nc[n - 1] = _THIRD * c0            # junction's share to [n-1]
        nc[2:n] += half[1 : n - 1]         # from the counter-clockwise neighbor [k-1]
        nc[0] += half[n - 1] + rr[1]       # wrap-around plus inflow from ray site 1
        nc[1] += _THIRD * c0               # junction's share to [1]

        # half-line
        nr[: m + 2] = 0.0
        nr[2 : m + 2] = rr[1 : m + 1]      # from the inner neighbor x-1
        nr[1:m] += rr[2 : m + 1]           # from the outer neighbor x+1
        nr[1] += _THIRD * c0               # junction's share to site 1


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
