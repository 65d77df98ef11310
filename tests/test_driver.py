"""The shared engine's launch/read path, blocks of steps and snapshot loop,
on both walks, and the classical walk against a plain copy of its rule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lollipop_walk import _driver
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


@pytest.mark.parametrize("model", sorted(WALKS))
def test_negative_advance_is_rejected_and_zero_is_a_no_op(topo, model):
    launch, _ = WALKS[model]
    walk = launch(topo)
    walk.advance(5)
    before = walk._values.tobytes()
    with pytest.raises(ValueError, match="steps must be >= 0"):
        walk.advance(-3)
    walk.advance(0)
    assert walk.time == 5
    assert walk._values.tobytes() == before


@pytest.mark.parametrize(
    "steps", [2.5, 0.5, "3", float("inf"), float("-inf"), float("nan")]
)
@pytest.mark.parametrize("model", sorted(WALKS))
def test_non_integral_step_counts_are_rejected_before_stepping(model, steps):
    launch, evolve = WALKS[model]
    walk = launch(LollipopTopology(5))
    walk.advance(3)
    extent, before = walk.extent, walk._values.tobytes()
    with pytest.raises(ValueError, match="steps must be >= 0 and an integer"):
        walk.advance(steps)
    with pytest.raises(ValueError, match="total_steps must be >= 0 and an integer"):
        evolve(walk, steps, [0])
    assert walk.time == 3
    assert walk.extent == extent
    assert walk._values.tobytes() == before
    walk.advance(2.0)  # integral, as snapshot times may be
    assert walk.time == 5


@pytest.mark.parametrize(
    "times",
    [[2.5, 7.9], [0, 4.5], [0, float("inf")], [float("-inf"), 3], [float("nan")]],
)
@pytest.mark.parametrize("model", sorted(WALKS))
def test_non_integral_snapshot_times_are_rejected(topo, model, times):
    launch, evolve = WALKS[model]
    state = launch(topo)
    with pytest.raises(ValueError, match="must be integers"):
        evolve(state, 10, times)
    assert state.time == 0


# --- the engine's size limit, checked before anything is allocated ----------

# Coin.DOWN is admitted at the junction and on the half-line alike
LAUNCHES = {
    "quantum": (lambda topo, site: make_basis_state(topo, site, Coin.DOWN),
                evolve_quantum),
    "classical": (make_point_distribution, evolve_classical),
}


@pytest.mark.parametrize("model", sorted(LAUNCHES))
def test_oversized_launch_is_refused_before_allocating(model, refuse_allocation):
    launch, _ = LAUNCHES[model]
    refuse_allocation()
    with pytest.raises(ValueError, match="cycle size 1000000000000 exceeds the limit"):
        launch(LollipopTopology(10**12), CycleNode(0))
    with pytest.raises(ValueError, match="offset 1000000000000 .* half-line sites"):
        launch(LollipopTopology(5), HalfLineNode(10**12))


@pytest.mark.parametrize("model", sorted(LAUNCHES))
def test_oversized_evolve_is_refused_before_stepping(model, refuse_allocation):
    launch, evolve = LAUNCHES[model]
    state = launch(LollipopTopology(5), CycleNode(0))
    refuse_allocation()
    with pytest.raises(ValueError, match="10000000 half-line sites"):
        evolve(state, 10**12, [0])
    assert state.time == 0


@pytest.mark.parametrize("model", sorted(LAUNCHES))
def test_size_limit_boundary(monkeypatch, model, refuse_allocation):
    # a walk at half-line offset x needs x + t + 2 sites after t steps
    monkeypatch.setattr(_driver, "MAX_HALFLINE_SITES", 100)
    launch, evolve = LAUNCHES[model]
    topo = LollipopTopology(5)
    state = launch(topo, CycleNode(0))
    refuse_allocation()
    assert _driver.check_walk(state, 98, [0, 98]) == (98, [0, 98])
    with pytest.raises(ValueError, match=r"offset 0 \+ 99 steps \+ 2 exceeds"):
        evolve(state, 99)
    assert state.time == 0
    with pytest.raises(AssertionError, match="allocating call reached"):
        launch(topo, HalfLineNode(98))
    with pytest.raises(ValueError, match=r"offset 99 \+ 0 steps \+ 2 exceeds"):
        launch(topo, HalfLineNode(99))
    with pytest.raises(AssertionError, match="allocating call reached"):
        launch(LollipopTopology(100), CycleNode(0))
    with pytest.raises(ValueError, match="cycle size 101 exceeds the limit of 100"):
        launch(LollipopTopology(101), CycleNode(0))


# Steps run in blocks that end at every tail trim (each 64 steps) and before
# every buffer growth.  A window of CHUNK_STEPS from t = 0 spans four trims
# and several growths; from DEEP_START the trims cut the underflowed
# half-line tail of both walks.
CHUNK_STEPS = 300
DEEP_START = 2496


@st.composite
def chunked_launches(draw, model, region):
    """(walk, start time, chunk sizes summing to CHUNK_STEPS) for one launch."""
    topo = LollipopTopology(draw(st.sampled_from([3, 4, 25])))
    if region == "cycle":
        site = CycleNode(draw(st.integers(1, topo.cycle_size - 1)))
        coin = draw(st.sampled_from([Coin.LEFT, Coin.RIGHT]))
    elif region == "junction":
        site, coin = CycleNode(0), Coin.DOWN
    else:
        site = HalfLineNode(draw(st.integers(1, 5)))
        coin = draw(st.sampled_from([Coin.DOWN, Coin.UP]))
    if model == "quantum":
        walk = make_basis_state(topo, site, coin)
    else:
        walk = make_point_distribution(topo, site)
    chunks, left = [], CHUNK_STEPS
    while left:
        chunks.append(draw(st.integers(1, min(left, 150))))
        left -= chunks[-1]
    return walk, draw(st.sampled_from([0, DEEP_START])), chunks


@pytest.mark.parametrize("region", ["cycle", "junction", "half"])
@pytest.mark.parametrize("model", sorted(WALKS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_advance_in_chunks_equals_single_steps_bit_for_bit(model, region, data):
    walk, start, chunks = data.draw(chunked_launches(model, region))
    walk.advance(start)
    chunked, single = walk.copy(), walk.copy()
    extents, trims = {single.extent}, 0
    for count in chunks:
        chunked.advance(count)
        for _ in range(count):
            single.advance(1)
            extents.add(single.extent)
            trims += single.time % 64 == 0
        assert chunked.time == single.time
        assert chunked._frontier == single._frontier
        assert chunked.extent == single.extent
        # the raw bytes, so signed zeros count
        assert chunked._values.tobytes() == single._values.tobytes()
    assert trims >= 2
    assert start or len(extents) >= 3  # two growths at least


# --- the classical walk against a plain copy of its half-split rule ---------

TINY = np.finfo(np.float64).tiny
# below this the engine's one rounding at the trim and the reference's
# rounding at each halving may differ
EQUAL_ABOVE = 1e-300


class HalfSplitReference:
    """The classical rule with a halving pass: halve every mass, then gather
    it at the neighbours, the junction sending a third each way; trim the
    half-line tail every 64 steps.  Plain float64, no gain, one step at a
    time, with the engine's buffer growth so that extents can be compared."""

    def __init__(self, dist):
        snap = position_distribution(dist)
        self.cycle = snap.cycle_probs.copy()
        self.ray = snap.halfline_probs.copy()  # index 0 unused
        self.frontier = dist._frontier
        self.time = dist.time

    @property
    def extent(self):
        return self.ray.size - 1

    def advance(self, steps):
        for _ in range(steps):
            if self.frontier + 2 > self.extent:
                grown = np.zeros(max(2 * self.extent, self.frontier + 2) + 1)
                grown[: self.ray.size] = self.ray
                self.ray = grown
            self.step()

    def step(self):
        c, r, n = self.cycle, self.ray, self.cycle.size
        hc, hr = 0.5 * c, 0.5 * r
        third = (1.0 / 3.0) * c[0]
        cycle, ray = np.empty(n), np.zeros(r.size)
        cycle[0] = hc[1] + (hc[n - 1] + hr[1])
        cycle[2 : n - 1] = hc[3:n] + hc[1 : n - 2]
        cycle[1] = hc[2] + third
        cycle[n - 1] = hc[n - 2] + third
        ray[1] = hr[2] + third
        ray[2:-1] = hr[3:] + hr[1:-2]
        self.cycle, self.ray = cycle, ray
        self.frontier += 1
        self.time += 1
        if self.time % 64 == 0:
            live = np.flatnonzero(self.ray[: self.frontier + 1] >= TINY)
            self.frontier = int(live[-1]) if live.size else 0
            self.ray[self.frontier + 1 :] = 0.0


@pytest.mark.parametrize("region", ["cycle", "junction", "half"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_classical_masses_match_the_half_split_reference(region, data):
    dist, start, chunks = data.draw(chunked_launches("classical", region))
    ref = HalfSplitReference(dist)
    dist.advance(start)
    ref.advance(start)
    for count in [0] + chunks:
        dist.advance(count)
        ref.advance(count)
        snap = position_distribution(dist)
        assert dist._frontier == ref.frontier
        assert dist.extent == ref.extent
        assert snap.halfline_probs.size == ref.ray.size
        for mine, want in ((snap.cycle_probs, ref.cycle), (snap.halfline_probs, ref.ray)):
            big = (mine >= EQUAL_ABOVE) | (want >= EQUAL_ABOVE)
            assert np.array_equal(mine[big], want[big])


@pytest.mark.parametrize("steps", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("n", [3, 7])
def test_parked_third_never_reaches_a_reader(n, steps):
    # the kernel parks the junction's outflow in columns 0 and n of its
    # source buffer; after advance the front buffer must hold none of it
    topo = LollipopTopology(n)
    dist = make_point_distribution(topo, CycleNode(0))
    ref = HalfSplitReference(dist)
    dist.advance(steps)
    ref.advance(steps)
    dup = dist.copy()
    for walk, more in ((dist, 0), (dup, 3)):
        walk.advance(more)
        ref.advance(more)
        assert walk._values[0, n] == 0.0 and not np.signbit(walk._values[0, n])
        snap = position_distribution(walk)
        assert snap.halfline_probs[0] == 0.0
        for mine, want in ((snap.cycle_probs, ref.cycle), (snap.halfline_probs, ref.ray)):
            big = (mine >= EQUAL_ABOVE) | (want >= EQUAL_ABOVE)
            assert np.array_equal(mine[big], want[big])
