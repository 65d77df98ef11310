"""The half-line tail trim of the shared two-buffer engine.

Every few dozen steps the engine moves its frontier back to the last
half-line site holding a normal double and zeroes the tail past it.  These
tests check that rule from outside: against the step rule applied with no
trim, against a hand-zeroed copy, and against an exact (rational) sum of
what the trim throws away.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from lollipop_walk import (
    Coin,
    CycleNode,
    LollipopTopology,
    make_basis_state,
    make_point_distribution,
)

TINY = np.finfo(np.float64).tiny


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
        state.step()
    return state


def untrimmed_step(state):
    """Cycle and ray arrays after one application of the walk's rule alone."""
    dup = state.copy()
    dup.reserve(dup._frontier + 2)
    dup._rule(dup._cycle, dup._ray, dup._cycle_back, dup._ray_back, dup._frontier)
    return dup._cycle_back, dup._ray_back, dup._frontier + 1


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
        state.step()
        edge = state._frontier + 2
        for buf in state._ray + state._ray_back:
            assert not buf[edge:].any()
    assert state._frontier < state.time  # the trim has moved it back


@pytest.mark.parametrize("model", WALKS)
def test_trim_only_cuts_the_tail_and_within_its_budget(topo, model):
    launch, start = WALKS[model]
    state = advance(launch(topo), start)
    # per trimmed site: below tiny in each of its components, squared for
    # quantum probability
    per_site = len(state._ray) * (
        Fraction(TINY) ** 2 if model == "quantum" else Fraction(TINY)
    )
    trimmed_total = 0
    lost_total = Fraction(0)
    for _ in range(4):
        advance(state, 63 - state.time % 64)
        cycle, ray, light_cone = untrimmed_step(state)
        state.step()
        assert state.time % 64 == 0
        keep = state._frontier
        assert keep <= light_cone
        for mine, ref in zip(state._cycle, cycle):
            assert np.array_equal(mine, ref)
        lost = Fraction(0)
        for mine, ref in zip(state._ray, ray):
            assert np.array_equal(mine[: keep + 1], ref[: keep + 1])
            assert not mine[keep + 1 :].any()
            assert np.all(np.abs(ref[keep + 1 : light_cone + 1]) < TINY)
            lost += discarded(model, ref[keep + 1 : light_cone + 1])
        assert any(abs(ref[keep]) >= TINY for ref in ray) or keep == 0
        assert lost <= (light_cone - keep) * per_site
        trimmed_total += light_cone - keep
        lost_total += lost
    assert trimmed_total > 0
    if model == "quantum":
        assert lost_total > 0  # the trimmed band held real subnormals


@pytest.mark.parametrize("model", WALKS)
def test_planted_subnormal_band_is_trimmed(topo, model):
    launch, _ = WALKS[model]
    state = advance(launch(topo), 100)
    edge, width = state._frontier, 300
    state.reserve(edge + width + 2)
    clean = state.copy()
    for buf in state._ray:
        buf[edge + 1 : edge + width + 1] = 5e-324  # the smallest subnormal
    state._frontier = clean._frontier = edge + width
    advance(state, 2 * 64)
    advance(clean, 2 * 64)
    assert state._frontier < edge + width
    assert state._frontier == clean._frontier
    for mine, ref in zip(state._cycle, clean._cycle):
        assert np.array_equal(mine, ref)
    for mine, ref in zip(state._ray, clean._ray):
        normal = (np.abs(mine) >= TINY) | (np.abs(ref) >= TINY)
        assert np.array_equal(mine[normal], ref[normal])


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
