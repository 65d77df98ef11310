import math

import numpy as np
import pytest

from lollipop_walk import (
    Coin,
    CycleNode,
    HalfLineNode,
    LollipopTopology,
    evolve_quantum,
    make_basis_state,
    position_distribution,
)

S = math.sqrt(0.5)


@pytest.fixture
def topo():
    return LollipopTopology(25)


def amp(state, site, coin):
    return state.amplitude(site, coin)


def test_basis_state_is_normalized(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    assert state.norm() == 1.0
    assert state.time == 0
    assert state.extent >= 2
    assert amp(state, CycleNode(12), Coin.RIGHT) == 1.0


def test_basis_state_junction_launches(topo):
    for coin in (Coin.LEFT, Coin.RIGHT, Coin.DOWN):
        state = make_basis_state(topo, CycleNode(0), coin)
        assert state.norm() == 1.0


def test_basis_state_rejects_bad_coin(topo):
    with pytest.raises(ValueError):
        make_basis_state(topo, HalfLineNode(3), Coin.LEFT)
    with pytest.raises(ValueError):
        make_basis_state(topo, CycleNode(0), Coin.UP)
    with pytest.raises(ValueError):
        make_basis_state(topo, CycleNode(4), Coin.DOWN)


def test_single_step_cycle_right(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    state.advance(1)
    assert state.time == 1
    assert abs(amp(state, CycleNode(11), Coin.LEFT) - S) < 1e-15
    assert abs(amp(state, CycleNode(13), Coin.RIGHT) + S) < 1e-15
    assert abs(state.norm() - 1.0) < 1e-15


def test_single_step_junction_down(topo):
    state = make_basis_state(topo, CycleNode(0), Coin.DOWN)
    state.advance(1)
    assert abs(amp(state, CycleNode(24), Coin.LEFT) - 2 / 3) < 1e-15
    assert abs(amp(state, CycleNode(1), Coin.RIGHT) - 2 / 3) < 1e-15
    assert abs(amp(state, HalfLineNode(1), Coin.UP) + 1 / 3) < 1e-15


def test_single_step_junction_left_and_right(topo):
    state = make_basis_state(topo, CycleNode(0), Coin.LEFT)
    state.advance(1)
    assert abs(amp(state, CycleNode(24), Coin.LEFT) + 1 / 3) < 1e-15
    assert abs(amp(state, CycleNode(1), Coin.RIGHT) - 2 / 3) < 1e-15
    assert abs(amp(state, HalfLineNode(1), Coin.UP) - 2 / 3) < 1e-15
    state = make_basis_state(topo, CycleNode(0), Coin.RIGHT)
    state.advance(1)
    assert abs(amp(state, CycleNode(24), Coin.LEFT) - 2 / 3) < 1e-15
    assert abs(amp(state, CycleNode(1), Coin.RIGHT) + 1 / 3) < 1e-15
    assert abs(amp(state, HalfLineNode(1), Coin.UP) - 2 / 3) < 1e-15


def test_single_step_halfline_up(topo):
    state = make_basis_state(topo, HalfLineNode(5), Coin.UP)
    state.advance(1)
    assert abs(amp(state, HalfLineNode(4), Coin.DOWN) - S) < 1e-15
    assert abs(amp(state, HalfLineNode(6), Coin.UP) + S) < 1e-15


def test_halfline_site1_feeds_junction_down(topo):
    state = make_basis_state(topo, HalfLineNode(1), Coin.DOWN)
    state.advance(1)
    assert abs(amp(state, CycleNode(0), Coin.DOWN) - S) < 1e-15
    assert abs(amp(state, HalfLineNode(2), Coin.UP) - S) < 1e-15


def test_two_steps_from_cycle12(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    state.advance(1)
    state.advance(1)
    expected = {
        (CycleNode(10), Coin.LEFT): 0.5,
        (CycleNode(12), Coin.LEFT): -0.5,
        (CycleNode(12), Coin.RIGHT): 0.5,
        (CycleNode(14), Coin.RIGHT): 0.5,
    }
    for (site, coin), want in expected.items():
        assert abs(amp(state, site, coin) - want) < 1e-15


def test_norm_after_1000_steps(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    for _ in range(1000):
        state.advance(1)
    assert abs(state.norm() - 1.0) < 1e-12


def test_norm_of_zero_state(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    # test-only construction of the zero vector
    state._values[:] = 0.0
    assert state.norm() == 0.0


def _support_sites(dist):
    sites = [k for k, p in enumerate(dist.cycle_probs) if p > 0]
    ray = [x for x, p in enumerate(dist.halfline_probs) if p > 0]
    return sites, ray


def test_locality_of_one_step():
    topo = LollipopTopology(7)
    neighbors = {
        (CycleNode(3), Coin.LEFT): ({2, 4}, set()),
        (CycleNode(6), Coin.RIGHT): ({5, 0}, set()),
        (CycleNode(0), Coin.DOWN): ({6, 1}, {1}),
        (HalfLineNode(1), Coin.DOWN): ({0}, {2}),
        (HalfLineNode(4), Coin.UP): (set(), {3, 5}),
    }
    for (site, coin), (cycle_ok, ray_ok) in neighbors.items():
        state = make_basis_state(topo, site, coin)
        state.advance(1)
        cycle_sites, ray_sites = _support_sites(position_distribution(state))
        assert set(cycle_sites) <= cycle_ok
        assert set(ray_sites) <= ray_ok


def test_support_bound_is_exact(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    steps = 37
    for _ in range(steps):
        state.advance(1)
    dist = position_distribution(state)
    assert np.all(dist.halfline_probs[steps + 1 :] == 0.0)
    # and representable sites past the light cone are exact zeros
    for x in range(steps + 1, state.extent + 1):
        assert state.amplitude(HalfLineNode(x), Coin.DOWN) == 0j
        assert state.amplitude(HalfLineNode(x), Coin.UP) == 0j


def test_extent_tracks_time(topo):
    state = make_basis_state(topo, CycleNode(0), Coin.DOWN)
    assert state.extent == 2
    for _ in range(200):
        state.advance(1)
    assert state.extent >= state.time + 1


def test_growth_is_geometric(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    extents = {state.extent}
    for _ in range(300):
        state.advance(1)
        extents.add(state.extent)
    sizes = sorted(extents)
    for small, big in zip(sizes, sizes[1:]):
        assert big >= 2 * small  # at least doubling


def test_reserve_does_not_change_the_walk(topo):
    plain = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    wide = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    wide.reserve(512)
    for _ in range(40):
        plain.advance(1)
        wide.advance(1)
    for k in range(25):
        for coin in topo.coins_at(CycleNode(k)):
            assert plain.amplitude(CycleNode(k), coin) == wide.amplitude(
                CycleNode(k), coin
            )
    for x in range(1, 42):
        for coin in (Coin.DOWN, Coin.UP):
            assert plain.amplitude(HalfLineNode(x), coin) == wide.amplitude(
                HalfLineNode(x), coin
            )


def test_halfline_launch_deep_site(topo):
    state = make_basis_state(topo, HalfLineNode(9), Coin.DOWN)
    assert state.norm() == 1.0
    state.advance(1)
    assert abs(amp(state, HalfLineNode(8), Coin.DOWN) - S) < 1e-15
    assert abs(amp(state, HalfLineNode(10), Coin.UP) - S) < 1e-15


def test_evolve_snapshot_at_time_zero(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    snaps = evolve_quantum(state, 0, [0])
    assert len(snaps) == 1
    t, dist = snaps[0]
    assert t == 0
    assert dist.cycle_probs[12] == 1.0
    assert dist.cycle_probs.sum() == 1.0


def test_evolve_two_steps_probabilities(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    snaps = evolve_quantum(state, 2, [2])
    dist = snaps[0][1]
    want = {10: 0.25, 12: 0.5, 14: 0.25}
    for k in range(25):
        assert abs(dist.cycle_probs[k] - want.get(k, 0.0)) < 1e-15


def test_evolve_returns_time_ordered_snapshots(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    snaps = evolve_quantum(state, 10, [0, 3, 7, 10])
    assert [t for t, _ in snaps] == [0, 3, 7, 10]
    assert [d.time for _, d in snaps] == [0, 3, 7, 10]


def test_evolve_rejects_bad_snapshot_times(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    with pytest.raises(ValueError):
        evolve_quantum(state, 10, [7, 3])
    with pytest.raises(ValueError):
        evolve_quantum(state, 10, [0, 11])
    with pytest.raises(ValueError):
        evolve_quantum(state, 10, [-1, 5])
    with pytest.raises(ValueError):
        evolve_quantum(state, 10, [2, 2])
    with pytest.raises(ValueError):
        evolve_quantum(state, -1, [])


def test_snapshots_are_independent_of_later_steps(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    snaps = evolve_quantum(state, 30, [10])
    frozen = snaps[0][1].cycle_probs.copy()
    for _ in range(20):
        state.advance(1)
    assert np.array_equal(snaps[0][1].cycle_probs, frozen)


def test_copy_is_detached(topo):
    state = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    for _ in range(9):
        state.advance(1)
    dup = state.copy()
    state.advance(1)  # must not disturb the copy
    fresh = make_basis_state(topo, CycleNode(12), Coin.RIGHT)
    for _ in range(9):
        fresh.advance(1)
    assert dup.time == 9
    for k in range(25):
        for coin in topo.coins_at(CycleNode(k)):
            assert dup.amplitude(CycleNode(k), coin) == fresh.amplitude(
                CycleNode(k), coin
            )
    for x in range(1, 11):
        for coin in (Coin.DOWN, Coin.UP):
            assert dup.amplitude(HalfLineNode(x), coin) == fresh.amplitude(
                HalfLineNode(x), coin
            )


# --- accuracy against the rule in long double -------------------------------

ACCURACY_STEPS = 3000
ACCURACY_CHECKS = (1, 2, 63, 64, 65, 1000, 2999, ACCURACY_STEPS)


def longdouble_step(left, right, down, up):
    """One step of the walk rule in long double, written from the rule itself.

    `left`/`right` hold the cycle's coins; `down`/`up` the half-line's, with
    `down[0]` the junction's Down coin and `up[0]` unused."""
    n = left.size
    s, third = np.sqrt(np.longdouble(0.5)), np.longdouble(1) / 3
    l0, r0, d0 = left[0], right[0], down[0]
    new = [np.zeros_like(v) for v in (left, right, down, up)]
    n_left, n_right, n_down, n_up = new
    # cycle nodes 1..n-1: (L + R)/sqrt(2) moves left, (L - R)/sqrt(2) right
    n_left[: n - 1] = s * (left[1:] + right[1:])
    n_right[2:] = s * (left[1 : n - 1] - right[1 : n - 1])
    n_right[0] = s * (left[n - 1] - right[n - 1])
    # half-line sites x >= 1: (D + U)/sqrt(2) moves down, (D - U)/sqrt(2) up
    n_down[:-1] = s * (down[1:] + up[1:])
    n_up[2:] = s * (down[1:-1] - up[1:-1])
    # the junction's Grover coin over (L, R, Down) to [n-1]L, [1]R, (1)Up
    n_left[n - 1] = (2 * (r0 + d0) - l0) * third
    n_right[1] = (2 * (l0 + d0) - r0) * third
    n_up[1] = (2 * (l0 + r0) - d0) * third
    return new


def read_amplitudes(state, sites):
    """(left, right, down, up) of `state`, as `longdouble_step` takes them,
    through the public accessor."""
    n = state.topology.cycle_size
    left = [state.amplitude(CycleNode(k), Coin.LEFT) for k in range(n)]
    right = [state.amplitude(CycleNode(k), Coin.RIGHT) for k in range(n)]
    down = [state.amplitude(CycleNode(0), Coin.DOWN)]
    down += [state.amplitude(HalfLineNode(x), Coin.DOWN) for x in range(1, sites)]
    up = [0.0] + [state.amplitude(HalfLineNode(x), Coin.UP) for x in range(1, sites)]
    return [np.array(v, np.longdouble) for v in (left, right, down, up)]


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 2.0**-60, reason="long double is no wider here"
)
@pytest.mark.parametrize(
    "site,coin",
    [(None, Coin.RIGHT), (CycleNode(0), Coin.DOWN), (HalfLineNode(2), Coin.UP)],
    ids=["cycle", "junction-down", "half"],
)
@pytest.mark.parametrize("n", [3, 4, 7, 25])
def test_amplitudes_track_long_double_arithmetic(n, site, coin):
    topo = LollipopTopology(n)
    state = make_basis_state(topo, site or CycleNode(n // 2), coin)
    sites = ACCURACY_STEPS + 5  # past the launch's light cone
    ref = read_amplitudes(state, sites)
    for t in range(1, ACCURACY_STEPS + 1):
        ref = longdouble_step(*ref)
        if t in ACCURACY_CHECKS:
            state.advance(t - state.time)
            got = read_amplitudes(state, sites)
            error = max(float(np.max(np.abs(g - r))) for g, r in zip(got, ref))
            assert error <= t * 2.0**-52
