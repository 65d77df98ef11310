"""The half-line tail trim of the shared two-buffer engine.

Every 64 steps the engine moves its frontier back to the last half-line
site holding a value at least its cut floor (the smallest normal double
for the quantum walk, 1e-60 for the classical walk) and zeroes the tail
past it.  These tests check that rule from outside: against the step rule
applied with no trim, against a hand-zeroed copy, against an exact
(rational) sum of what the trim throws away, against an untrimmed walk,
and the windowed scan against one scan of the whole half-line.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lollipop_walk import (
    ClassicalDistribution,
    Coin,
    CycleNode,
    LollipopTopology,
    WalkerState,
    make_basis_state,
    make_point_distribution,
)

TINY = np.finfo(np.float64).tiny
# the documented cut floor of each walk
FLOOR = {"quantum": TINY, "classical": 1e-60}


@pytest.fixture
def topo():
    return LollipopTopology(25)


def quantum_from_junction(topo):
    return make_basis_state(topo, CycleNode(0), Coin.DOWN)


def classical_from_junction(topo):
    return make_point_distribution(topo, CycleNode(0))


# (launcher, first step count with a subnormal or zero tail in its light cone)
WALKS = {
    "quantum": (quantum_from_junction, 2560),
    "classical": (classical_from_junction, 1280),
}


def advance(state, steps):
    for _ in range(steps):
        state.advance(1)
    return state


# A walk's row gathers a gain of 2**32 (quantum) or 2**64 (classical) over
# the 64 steps between trims; the trim renormalizes it exactly.
RENORM = {"quantum": 2.0**-32, "classical": 2.0**-64}


def untrimmed_step(state):
    """Cycle and half-line columns after one run of the walk's one-step
    kernel alone, from one step before a trim, renormalized."""
    dup = state.copy()
    dup.reserve(dup._frontier + 2)
    n = state.topology.cycle_size
    dup._kernel(dup._values, dup._back, n + dup._frontier + 2)()
    new = dup._back * RENORM[state.SOURCE]
    return new[:, :n], new[:, n:], dup._frontier + 1


def discarded(model, values):
    """Exact probability (quantum) or mass (classical) held by `values`."""
    if model == "quantum":
        return sum(Fraction(float(v)) ** 2 for v in values)
    return sum(Fraction(float(v)) for v in values)


@pytest.mark.parametrize("model", WALKS)
def test_ray_is_zero_past_frontier_in_both_buffers(topo, model):
    launch, start = WALKS[model]
    state = advance(launch(topo), start)
    for _ in range(3 * 64):
        state.advance(1)
        edge = topo.cycle_size + state._frontier + 2
        for buf in (state._values, state._back):
            assert not buf[:, edge:].any()
    assert state._frontier < state.time  # the trim has moved it back


@pytest.mark.parametrize("model", WALKS)
def test_trim_only_cuts_the_tail_and_within_its_budget(topo, model):
    launch, start = WALKS[model]
    state = advance(launch(topo), start)
    # per trimmed site: below the floor in each of its components, squared
    # for quantum probability
    floor = FLOOR[model]
    per_site = len(state._values) * (
        Fraction(floor) ** 2 if model == "quantum" else Fraction(floor)
    )
    n = topo.cycle_size
    trimmed_total = 0
    lost_total = Fraction(0)
    for _ in range(4):
        advance(state, 63 - state.time % 64)
        cycle, ray, light_cone = untrimmed_step(state)
        state.advance(1)
        assert state.time % 64 == 0
        keep = state._frontier
        assert keep <= light_cone
        assert np.array_equal(state._values[:, :n], cycle)
        lost = Fraction(0)
        for mine, ref in zip(state._values[:, n:], ray):
            assert np.array_equal(mine[: keep + 1], ref[: keep + 1])
            assert not mine[keep + 1 :].any()
            assert np.all(np.abs(ref[keep + 1 : light_cone + 1]) < floor)
            lost += discarded(model, ref[keep + 1 : light_cone + 1])
        assert any(abs(ref[keep]) >= floor for ref in ray) or keep == 0
        assert lost <= (light_cone - keep) * per_site
        trimmed_total += light_cone - keep
        lost_total += lost
    assert trimmed_total > 0
    assert lost_total > 0  # the trimmed band held real values


def test_classical_trims_bound_every_later_mass(topo):
    """Each classical trim discards less than 1e-60 mass per cut site, and
    since a step does not grow the 1-norm, the masses stay within the sum
    discarded so far of those of the same walk never trimmed."""
    trimmed = classical_from_junction(topo)
    untrimmed = trimmed.copy()
    floor = FLOOR["classical"]
    cuts = []
    cut_tail = ClassicalDistribution._cut_tail

    def recording_cut(state, cut_floor):
        n, m = state.topology.cycle_size, state._frontier
        tail = state._values[0, n : n + m + 1].copy()  # at gain 1
        cut_tail(state, cut_floor)
        cut = tail[state._frontier + 1 :]
        assert cut_floor == floor
        assert np.all(cut < floor)
        cuts.append((sum(map(Fraction, cut)), cut.size))

    checked = 0
    for t in (640, 1280, 2560, 4096):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClassicalDistribution, "_cut_tail", recording_cut)
            trimmed.advance(t - trimmed.time)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClassicalDistribution, "_CUT_FLOOR", 0.0)  # cuts nothing
            untrimmed.advance(t - untrimmed.time)
        assert all(lost < sites * Fraction(floor) for lost, sites in cuts if sites)
        discarded_so_far = sum(lost for lost, _ in cuts)
        mine, want = trimmed._site_probabilities(), untrimmed._site_probabilities()
        off = sum(Fraction(float(v)) for v in np.abs(mine[0] - want[0]))
        width = mine[1].size
        off += sum(Fraction(float(v)) for v in np.abs(mine[1] - want[1][:width]))
        off += sum(Fraction(float(v)) for v in want[1][width:])
        # the two walks' own roundings part only beside the cut, by units in
        # the last place of masses there, far under what was cut
        assert off <= discarded_so_far * (1 + Fraction(1, 10**6))
        checked += discarded_so_far > 0
    assert trimmed._frontier < untrimmed._frontier
    assert checked >= 2  # the trims cut real mass


@pytest.mark.parametrize("model", WALKS)
def test_planted_subnormal_band_is_trimmed(topo, model):
    # planted right after a trim, where the row's gain is 1, so that the
    # band is still subnormal, not rounded to zero, when the trims scan it
    launch, _ = WALKS[model]
    state = advance(launch(topo), 128)
    edge, width = state._frontier, 300
    state.reserve(edge + width + 2)
    clean = state.copy()
    n = topo.cycle_size
    # the smallest subnormal, in every row
    state._values[:, n + edge + 1 : n + edge + width + 1] = 5e-324
    state._frontier = clean._frontier = edge + width
    advance(state, 2 * 64)
    advance(clean, 2 * 64)
    assert state._frontier < edge + width
    assert state._frontier == clean._frontier
    assert np.array_equal(state._values[:, :n], clean._values[:, :n])
    for mine, ref in zip(state._values[:, n:], clean._values[:, n:]):
        normal = (np.abs(mine) >= TINY) | (np.abs(ref) >= TINY)
        assert np.array_equal(mine[normal], ref[normal])
    for buf in (state._values, state._back):
        assert not buf[:, n + state._frontier + 1 :].any()


@pytest.mark.parametrize("model", WALKS)
def test_band_planted_at_gain_one_outlives_renormalization_and_is_cut(topo, model):
    # planted right after a trim, where the row's gain is 1, the band still
    # holds subnormals after the next renormalization, so the zeroing itself
    # must remove it
    launch, _ = WALKS[model]
    state = advance(launch(topo), 128)
    edge, width = state._frontier, 300
    state.reserve(edge + width + 2)
    n = topo.cycle_size
    state._values[:, n + edge + 1 : n + edge + width + 1] = 5e-324
    state._frontier = edge + width
    advance(state, 63)
    _, ray, light_cone = untrimmed_step(state)
    # past the walker's reach (edge + 64) only band residue is left
    assert np.any(ray[:, edge + 65 : light_cone + 1])
    assert np.all(np.abs(ray[:, edge + 65 :]) < TINY)
    state.advance(1)
    keep = state._frontier
    assert keep <= edge + 64
    for buf in (state._values, state._back):
        assert not buf[:, n + keep + 1 :].any()


@pytest.mark.parametrize(
    "fixture,share",
    [
        ("quantum_cycle12", 0.8),
        ("quantum_junction_down", 0.8),
        ("classical_cycle12", 0.2),
        ("classical_junction", 0.2),
    ],
)
def test_long_runs_end_with_a_trimmed_frontier(request, fixture, share):
    _, final = request.getfixturevalue(fixture)
    assert final._frontier < share * final.time


def whole_row_cut(state, floor):
    """The cut as one scan of the whole half-line row: back to the last
    site where some component is at least `floor`, the tail past it zeroed
    in both buffers."""
    n, m = state.topology.cycle_size, state._frontier
    kept = (np.abs(state._values[:, n : n + m + 1]) >= floor).any(axis=0)
    sites = np.flatnonzero(kept)
    keep = int(sites[-1]) if sites.size else 0
    state._values[:, n + keep + 1 : n + m + 2] = 0.0
    state._back[:, n + keep + 1 : n + m + 2] = 0.0
    state._frontier = keep


def last_live_site(m, last):
    """None (no site at or above the floor), a site (clipped to m), or
    (i, offset): the first site of the i-th window back from frontier m,
    windows of 64, 128, 256, ... sites, or with offset -1 the site before
    it, the last of the next window."""
    if last is None:
        return None
    if isinstance(last, tuple):
        i, offset = last
        return max(m + 1 - 64 * (2**i - 1) + offset, 0)
    return min(last, m)


@settings(max_examples=150, deadline=None)
@given(
    engine=st.sampled_from([WalkerState, ClassicalDistribution]),
    m=st.integers(0, 1500),
    floor=st.sampled_from([TINY, 1e-60, 1e-13]),
    last=st.one_of(st.none(), st.integers(0, 1500),
                   st.tuples(st.integers(1, 5), st.sampled_from([-1, 0]))),
    others=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(engine=WalkerState, m=1000, floor=TINY, last=None, others=0, seed=1)
@example(engine=WalkerState, m=1000, floor=1e-13, last=0, others=0, seed=2)
@example(engine=ClassicalDistribution, m=1000, floor=1e-60, last=(3, 0), others=2, seed=3)
@example(engine=WalkerState, m=1000, floor=TINY, last=(2, -1), others=0, seed=4)
def test_windowed_cut_equals_a_whole_row_scan(engine, m, floor, last, others, seed):
    n = 25
    rng = np.random.default_rng(seed)
    state = engine(LollipopTopology(n), m + 2)
    rows = state._values.shape[0]
    # every half-line value strictly below the floor, some of them zero
    below = floor * rng.uniform(-0.999, 0.999, (rows, m + 1))
    below[rng.random((rows, m + 1)) < 0.3] = 0.0
    state._values[:, :n] = rng.standard_normal((rows, n))
    state._values[:, n : n + m + 1] = below
    state._back[:, : n + m + 2] = rng.standard_normal((rows, n + m + 2))
    state._frontier = m
    site = last_live_site(m, last)
    if site is not None:
        for live in [site] + list(rng.integers(0, site + 1, others)):
            # at the floor exactly, or above it, in one component
            state._values[rng.integers(rows), n + live] = (
                rng.choice([-1.0, 1.0]) * floor * rng.choice([1.0, 1.5, 1e10]))
    whole = engine(LollipopTopology(n), m + 2)
    whole._values[:], whole._back[:] = state._values, state._back
    whole._frontier = m
    state._cut_tail(floor)
    whole_row_cut(whole, floor)
    assert state._frontier == whole._frontier == (site or 0)
    assert state._values.tobytes() == whole._values.tobytes()
    assert state._back.tobytes() == whole._back.tobytes()
