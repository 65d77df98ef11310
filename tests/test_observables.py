import math

import numpy as np
import pytest

from lollipop_walk import (
    Coin,
    CycleNode,
    HalfLineNode,
    LollipopTopology,
    evolve_classical,
    evolve_quantum,
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
    assert summarize(dist).halfline_total == 0.0


def test_marginal_of_fresh_state(topo):
    dist = position_distribution(make_basis_state(topo, CycleNode(12), Coin.RIGHT))
    assert dist.cycle_probs[12] == 1.0
    assert summarize(dist).cycle_total == 1.0


def test_junction_sums_three_coin_components(topo):
    a, b, c = 0.5, -0.5, math.sqrt(0.5)
    state = make_basis_state(topo, CycleNode(0), Coin.LEFT)
    # test-only superposition of the junction's L, R and Down coins
    state._values[0, 0] = a
    state._values[1, 0] = b
    state._values[0, topo.cycle_size] = c  # Down lives at half-line site 0
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
    rec = summarize(dist)
    assert (rec.spike_site, rec.spike_height) == (12, 1.0)


def test_spike_tie_breaks_to_lowest_index():
    probs = np.zeros(25)
    probs[[4, 9, 17]] = 0.2
    dist = PositionDistribution(0, probs, np.zeros(3), "classical")
    rec = summarize(dist)
    assert rec.spike_site == 4
    assert rec.spike_height == 0.2


def test_halfline_moments_point_mass(topo):
    dist = position_distribution(make_point_distribution(topo, HalfLineNode(5)))
    rec = summarize(dist)
    assert rec.halfline_total == 1.0
    assert rec.halfline_mean == 5.0
    assert rec.halfline_std == 0.0


@pytest.mark.parametrize("sites", [1, 40])
def test_halfline_moments_are_none_when_empty(sites):
    probs = np.zeros(5)
    probs[2] = 1.0
    rec = summarize(PositionDistribution(7, probs, np.zeros(sites), "classical"))
    assert rec.halfline_total == 0.0
    assert rec.halfline_mean is None
    assert rec.halfline_std is None


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
    rec = summarize(dist)
    assert rec.cycle_total + rec.halfline_total == pytest.approx(
        state.norm() ** 2, abs=1e-9
    )
    cdist = make_point_distribution(topo, CycleNode(12))
    for _ in range(123):
        cdist.step()
    pd = position_distribution(cdist)
    rec = summarize(pd)
    assert rec.cycle_total + rec.halfline_total == pytest.approx(
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
        assert 0.49 <= summarize(snaps[t]).cycle_total <= 0.52


def test_classical_totals_fall_and_keep_falling(classical_cycle12):
    snaps, _ = classical_cycle12
    totals = [summarize(snaps[t]).cycle_total for t in (20000, 50000, 100000)]
    assert totals[0] < 0.15
    assert totals[0] > totals[1] > totals[2]


def test_quantum_spreading_is_ballistic(topo, quantum_cycle12):
    snaps, _ = quantum_cycle12
    std_5k = summarize(snaps[5000]).halfline_std
    std_10k = summarize(snaps[10000]).halfline_std
    # reduced-step rerun must agree with the long run's snapshot
    fresh = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    rerun = evolve_quantum(fresh, 5000, [5000])[0][1]
    std_rerun = summarize(rerun).halfline_std
    assert std_rerun == pytest.approx(std_5k, rel=1e-9)
    assert 1.8 <= std_10k / std_5k <= 2.2


def test_classical_spreading_is_diffusive(topo, classical_cycle12):
    snaps, _ = classical_cycle12
    std_5k = summarize(snaps[5000]).halfline_std
    std_10k = summarize(snaps[10000]).halfline_std
    fresh = make_point_distribution(topo, CycleNode(12))
    rerun = evolve_classical(fresh, 5000, [5000])[0][1]
    std_rerun = summarize(rerun).halfline_std
    assert std_rerun == pytest.approx(std_5k, rel=1e-9)
    assert 1.32 <= std_10k / std_5k <= 1.52
