"""Position-space probabilities and summary statistics of walk snapshots."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PositionDistribution:
    """Probability of finding the walker at each site, at one instant.

    cycle_probs[k] is cycle node [k]; the junction's probability (all three
    coin components, for quantum sources) sits at index 0.  halfline_probs
    is indexed by half-line site, with index 0 structurally zero because
    site 0 is the junction.
    """

    time: int
    cycle_probs: np.ndarray
    halfline_probs: np.ndarray
    source: str  # "quantum" | "classical"


@dataclass(frozen=True)
class SummaryRecord:
    """One row of derived statistics for a snapshot.

    halfline_mean/halfline_std are conditional on the walker being on the
    half-line and are None when it carries no probability.
    """

    time: int
    cycle_total: float
    halfline_total: float
    spike_site: int
    spike_height: float
    halfline_mean: float | None
    halfline_std: float | None


def position_distribution(state) -> PositionDistribution:
    """Probability of each site of a walk state, at the state's time.

    The engine computes the marginal: squared amplitudes summed over each
    site's coin states (quantum), or a copy of the site masses (classical).
    """
    cycle, halfline = state._site_probabilities()
    return PositionDistribution(state.time, cycle, halfline, state.SOURCE)


def summarize(dist: PositionDistribution) -> SummaryRecord:
    """Statistics of one snapshot, for tables and files.

    The cycle total includes the junction, and a spike height tie goes to
    the lowest cycle index.  The half-line moments are those of the
    position conditioned on the walker being on the half-line.
    """
    cycle, halfline = dist.cycle_probs, dist.halfline_probs
    spike_site = int(np.argmax(cycle))
    hl_total = float(halfline.sum())
    mean = std = None
    if hl_total > 0.0:
        sites = np.arange(halfline.size)
        mean = float((sites * halfline).sum() / hl_total)
        var = float(((sites - mean) ** 2 * halfline).sum() / hl_total)
        std = math.sqrt(max(var, 0.0))
    return SummaryRecord(
        time=dist.time,
        cycle_total=float(cycle.sum()),
        halfline_total=hl_total,
        spike_site=spike_site,
        spike_height=float(cycle[spike_site]),
        halfline_mean=mean,
        halfline_std=std,
    )
