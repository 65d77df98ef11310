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
        state.step()
        edge = topo.cycle_size + state._frontier + 2
        for buf in (state._values, state._back):
            assert not buf[:, edge:].any()
    assert state._frontier < state.time  # the trim has moved it back


@pytest.mark.parametrize("model", WALKS)
def test_trim_only_cuts_the_tail_and_within_its_budget(topo, model):
    launch, start = WALKS[model]
    state = advance(launch(topo), start)
    # per trimmed site: below tiny in each of its components, squared for
    # quantum probability
    per_site = len(state._values) * (
        Fraction(TINY) ** 2 if model == "quantum" else Fraction(TINY)
    )
    n = topo.cycle_size
    trimmed_total = 0
    lost_total = Fraction(0)
    for _ in range(4):
        advance(state, 63 - state.time % 64)
        cycle, ray, light_cone = untrimmed_step(state)
        state.step()
        assert state.time % 64 == 0
        keep = state._frontier
        assert keep <= light_cone
        assert np.array_equal(state._values[:, :n], cycle)
        lost = Fraction(0)
        for mine, ref in zip(state._values[:, n:], ray):
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
    state.step()
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
