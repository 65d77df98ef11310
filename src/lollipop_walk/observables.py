"""Position-space probabilities and summary statistics of walk snapshots."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EmptyHalfLineError(ValueError):
    """Raised when a half-line statistic is requested but the half-line is empty."""


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


def cycle_total(dist: PositionDistribution) -> float:
    """Total probability on the cycle, junction included."""
    return float(dist.cycle_probs.sum())


def halfline_total(dist: PositionDistribution) -> float:
    """Total probability on the half-line (sites >= 1)."""
    return float(dist.halfline_probs.sum())


def cycle_spike(dist: PositionDistribution) -> tuple[int, float]:
    """Highest-probability cycle node and its height; ties go to the lowest index."""
    site = int(np.argmax(dist.cycle_probs))
    return site, float(dist.cycle_probs[site])


def halfline_moments(dist: PositionDistribution) -> tuple[float, float]:
    """Mean and standard deviation of the half-line position, conditioned
    on the walker being on the half-line."""
    total = halfline_total(dist)
    if total == 0.0:
        raise EmptyHalfLineError(
            f"half-line carries no probability at time {dist.time}"
        )
    sites = np.arange(dist.halfline_probs.size)
    mean = float((sites * dist.halfline_probs).sum() / total)
    var = float(((sites - mean) ** 2 * dist.halfline_probs).sum() / total)
    return mean, math.sqrt(max(var, 0.0))


def summarize(dist: PositionDistribution) -> SummaryRecord:
    """Bundle the statistics above into one record (for tables and files)."""
    spike_site, spike_height = cycle_spike(dist)
    hl_total = halfline_total(dist)
    if hl_total > 0.0:
        mean, std = halfline_moments(dist)
    else:
        mean, std = None, None
    return SummaryRecord(
        time=dist.time,
        cycle_total=cycle_total(dist),
        halfline_total=hl_total,
        spike_site=spike_site,
        spike_height=spike_height,
        halfline_mean=mean,
        halfline_std=std,
    )
