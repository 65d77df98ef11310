import math

import numpy as np
import pytest

from lollipop_walk import (
    Coin,
    CycleNode,
    EmptyHalfLineError,
    HalfLineNode,
    LollipopTopology,
    cycle_spike,
    cycle_total,
    evolve_classical,
    evolve_quantum,
    halfline_moments,
    halfline_total,
    make_basis_state,
    make_point_distribution,
    position_distribution,
    summarize,
)
from lollipop_walk.observables import PositionDistribution


@pytest.fixture
def topo():
    return LollipopTopology(25)


def test_marginal_of_one_step_state(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    state.step()
    dist = position_distribution(state)
    assert dist.cycle_probs[11] == pytest.approx(0.5, abs=1e-15)
    assert dist.cycle_probs[13] == pytest.approx(0.5, abs=1e-15)
    assert dist.source == "quantum"
    assert halfline_total(dist) == 0.0


def test_marginal_of_fresh_state(topo):
    dist = position_distribution(make_basis_state(topo, CycleNode(12), Coin.RIGHT))
    assert dist.cycle_probs[12] == 1.0
    assert cycle_total(dist) == 1.0


def test_junction_sums_three_coin_components(topo):
    a, b, c = 0.5, -0.5, math.sqrt(0.5)
    state = make_basis_state(topo, CycleNode(0), Coin.LEFT)
    state._cycle[0][0] = a  # test-only superposition at the junction
    state._cycle[1][0] = b
    state._ray[0][0] = c
    dist = position_distribution(state)
    assert dist.cycle_probs[0] == pytest.approx(a * a + b * b + c * c, abs=1e-15)
    assert dist.halfline_probs[0] == 0.0  # site 0 belongs to the cycle


def test_classical_marginal_is_pass_through(topo):
    dist0 = make_point_distribution(topo, CycleNode(0))
    dist0.step()
    dist = position_distribution(dist0)
    assert dist.source == "classical"
    assert dist.cycle_probs[24] == pytest.approx(1 / 3, abs=1e-15)
    assert dist.halfline_probs[1] == pytest.approx(1 / 3, abs=1e-15)


def test_spike_at_time_zero(topo):
    dist = position_distribution(make_basis_state(topo, CycleNode(12), Coin.RIGHT))
    assert cycle_spike(dist) == (12, 1.0)


def test_spike_tie_breaks_to_lowest_index():
    probs = np.zeros(25)
    probs[[4, 9, 17]] = 0.2
    dist = PositionDistribution(0, probs, np.zeros(3), "classical")
    site, height = cycle_spike(dist)
    assert site == 4
    assert height == 0.2


def test_halfline_moments_point_mass(topo):
    dist = position_distribution(make_point_distribution(topo, HalfLineNode(5)))
    mean, std = halfline_moments(dist)
    assert mean == 5.0
    assert std == 0.0


def test_halfline_moments_empty_raises(topo):
    dist = position_distribution(make_basis_state(topo, CycleNode(12), Coin.RIGHT))
    with pytest.raises(EmptyHalfLineError):
        halfline_moments(dist)


def test_summarize_time_zero(topo):
    rec = summarize(position_distribution(make_basis_state(topo, CycleNode(12), Coin.RIGHT)))
    assert rec.time == 0
    assert rec.cycle_total == 1.0
    assert rec.halfline_total == 0.0
    assert (rec.spike_site, rec.spike_height) == (12, 1.0)
    assert rec.halfline_mean is None
    assert rec.halfline_std is None


def test_summarize_junction_down_localization(quantum_junction_down):
    snaps, _ = quantum_junction_down
    rec = summarize(snaps[20000])
    assert rec.spike_site == 0
    assert rec.spike_height == pytest.approx(0.457, abs=5e-3)


def test_summarize_classical_junction_total(classical_junction):
    snaps, _ = classical_junction
    rec = summarize(snaps[50000])
    assert rec.cycle_total == pytest.approx(0.08998, abs=5e-4)


def test_marginalization_consistency(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    for _ in range(123):
        state.step()
    dist = position_distribution(state)
    assert cycle_total(dist) + halfline_total(dist) == pytest.approx(
        state.norm() ** 2, abs=1e-9
    )
    cdist = make_point_distribution(topo, CycleNode(12))
    for _ in range(123):
        cdist.step()
    pd = position_distribution(cdist)
    assert cycle_total(pd) + halfline_total(pd) == pytest.approx(
        cdist.total_mass(), abs=1e-9
    )


def test_spike_dominance(quantum_cycle12):
    snaps, _ = quantum_cycle12
    for t in (5000, 20000, 100000):
        rec = summarize(snaps[t])
        assert rec.spike_height >= rec.cycle_total / 25


def test_quantum_persistence_window(quantum_cycle12):
    snaps, _ = quantum_cycle12
    for t in (20000, 50000, 100000):
        assert 0.49 <= cycle_total(snaps[t]) <= 0.52


def test_classical_totals_fall_and_keep_falling(classical_cycle12):
    snaps, _ = classical_cycle12
    totals = [cycle_total(snaps[t]) for t in (20000, 50000, 100000)]
    assert totals[0] < 0.15
    assert totals[0] > totals[1] > totals[2]


def test_quantum_spreading_is_ballistic(topo, quantum_cycle12):
    snaps, _ = quantum_cycle12
    _, std_5k = halfline_moments(snaps[5000])
    _, std_10k = halfline_moments(snaps[10000])
    # reduced-step rerun must agree with the long run's snapshot
    fresh = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    rerun = evolve_quantum(fresh, 5000, [5000])[0][1]
    _, std_rerun = halfline_moments(rerun)
    assert std_rerun == pytest.approx(std_5k, rel=1e-9)
    assert 1.8 <= std_10k / std_5k <= 2.2


def test_classical_spreading_is_diffusive(topo, classical_cycle12):
    snaps, _ = classical_cycle12
    _, std_5k = halfline_moments(snaps[5000])
    _, std_10k = halfline_moments(snaps[10000])
    fresh = make_point_distribution(topo, CycleNode(12))
    rerun = evolve_classical(fresh, 5000, [5000])[0][1]
    _, std_rerun = halfline_moments(rerun)
    assert std_rerun == pytest.approx(std_5k, rel=1e-9)
    assert 1.32 <= std_10k / std_5k <= 1.52
