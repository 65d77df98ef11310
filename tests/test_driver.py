"""The shared engine's launch/read path and snapshot loop, on both walks."""

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
)

N = 7


@pytest.fixture
def topo():
    return LollipopTopology(N)


WALKS = {
    "quantum": (
        lambda topo: make_basis_state(topo, CycleNode(3), Coin.RIGHT),
        evolve_quantum,
    ),
    "classical": (
        lambda topo: make_point_distribution(topo, CycleNode(3)),
        evolve_classical,
    ),
}


def test_accessors_read_zero_past_the_buffer(topo):
    state = make_basis_state(topo, HalfLineNode(4), Coin.UP)
    dist = make_point_distribution(topo, HalfLineNode(4))
    for walk in (state, dist):
        for _ in range(3):
            walk.step()
    for x in (state.extent + 1, state.extent + 100):
        assert state.amplitude(HalfLineNode(x), Coin.DOWN) == 0.0
        assert state.amplitude(HalfLineNode(x), Coin.UP) == 0.0
    for x in (dist.extent + 1, dist.extent + 100):
        assert dist.probability(HalfLineNode(x)) == 0.0


def test_out_of_range_cycle_node_is_rejected(topo):
    with pytest.raises(ValueError):
        make_point_distribution(topo, CycleNode(N))
    dist = make_point_distribution(topo, CycleNode(2))
    with pytest.raises(ValueError):
        dist.probability(CycleNode(N))
    with pytest.raises(ValueError):
        make_basis_state(topo, CycleNode(N), Coin.LEFT)
    state = make_basis_state(topo, CycleNode(2), Coin.LEFT)
    with pytest.raises(ValueError):
        state.amplitude(CycleNode(N), Coin.LEFT)


@pytest.mark.parametrize("model", sorted(WALKS))
def test_evolve_counts_snapshot_times_from_the_current_time(topo, model):
    launch, evolve = WALKS[model]
    state = launch(topo)
    evolve(state, 3)
    assert state.time == 3
    snaps = evolve(state, 6, [0, 2, 5])
    assert [t for t, _ in snaps] == [0, 2, 5]
    assert [d.time for _, d in snaps] == [3, 5, 8]
    assert state.time == 3 + 6
    # the same distributions as a walk stepped from t = 0 in one call
    fresh = dict(evolve(launch(topo), 8, [3, 5, 8]))
    for _, dist in snaps:
        ref = fresh[dist.time]
        assert np.array_equal(dist.cycle_probs, ref.cycle_probs)
        assert np.array_equal(dist.halfline_probs, ref.halfline_probs)
        assert dist.source == model


@pytest.mark.parametrize("model", sorted(WALKS))
def test_evolve_without_snapshots_steps_to_the_end(topo, model):
    launch, evolve = WALKS[model]
    state = launch(topo)
    assert evolve(state, 4) == []
    assert state.time == 4
    assert position_distribution(state).time == 4
