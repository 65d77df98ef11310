"""Position-space probabilities and summary statistics of walk snapshots."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalDistribution
from .quantum import WalkerState


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
    """Site marginal of a quantum state, or pass-through of classical masses.

    Quantum site probability is the squared amplitude summed over the site's
    coin states; the junction sums its L, R, and Down components.
    """
    if isinstance(state, WalkerState):
        left, right = state._cycle
        down, up = state._ray
        cycle = left**2 + right**2
        halfline = down**2 + up**2
        cycle[0] += halfline[0]
        halfline[0] = 0.0
        return PositionDistribution(state.time, cycle, halfline, "quantum")
    if isinstance(state, ClassicalDistribution):
        (cycle,), (ray,) = state._cycle, state._ray
        return PositionDistribution(state.time, cycle.copy(), ray.copy(), "classical")
    raise TypeError(f"not a walk state: {state!r}")


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
