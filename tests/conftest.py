"""Shared fixtures.

The four long 25-node benchmark runs are session-scoped so the whole suite
pays for them once (their setup takes about 2.2 s in all on a 2-vCPU
machine, by `pytest --durations`).
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from lollipop_walk import _driver
from lollipop_walk import (
    Coin,
    CycleNode,
    LollipopTopology,
    WalkerState,
    evolve_classical,
    evolve_quantum,
    make_basis_state,
    make_point_distribution,
)

BENCH_TIMES = (20000, 50000, 100000)
BENCH_STEPS = 100000
# extra early snapshots feed the spreading-rate checks
SNAPSHOT_TIMES = (0, 5000, 10000) + BENCH_TIMES


def no_light_cone_blocks(patch):
    """Give the quantum walk the shared block loop through `patch` (a
    pytest MonkeyPatch), so that it takes no light-cone block: its steps
    are then the same bits as single steps."""
    patch.setattr(WalkerState, "_advance", _driver.TwoBufferWalk._advance)


@pytest.fixture(scope="session")
def topology25():
    return LollipopTopology(25)


@pytest.fixture(scope="session")
def quantum_cycle12(topology25):
    """Quantum walk from cycle node 12 (Right coin): snapshots and final state."""
    state = make_basis_state(topology25, CycleNode(12), Coin.RIGHT)
    snaps = evolve_quantum(state, BENCH_STEPS, SNAPSHOT_TIMES)
    return dict(snaps), state


@pytest.fixture(scope="session")
def classical_cycle12(topology25):
    """Classical walk from cycle node 12: snapshots and final distribution."""
    dist = make_point_distribution(topology25, CycleNode(12))
    snaps = evolve_classical(dist, BENCH_STEPS, SNAPSHOT_TIMES)
    return dict(snaps), dist


@pytest.fixture(scope="session")
def quantum_junction_down(topology25):
    """Quantum walk launched down the half-line from the junction."""
    state = make_basis_state(topology25, CycleNode(0), Coin.DOWN)
    snaps = evolve_quantum(state, BENCH_STEPS, BENCH_TIMES)
    return dict(snaps), state


@pytest.fixture(scope="session")
def classical_junction(topology25):
    """Classical walk launched at the junction."""
    dist = make_point_distribution(topology25, CycleNode(0))
    snaps = evolve_classical(dist, BENCH_STEPS, BENCH_TIMES)
    return dict(snaps), dist


@pytest.fixture
def refuse_allocation(monkeypatch):
    """A call that makes the engine fail, from then on, where it would
    allocate a buffer wider than `columns` (default: any buffer).

    A request the engine's checks pass then raises AssertionError where it
    would allocate, and one they refuse raises ValueError; neither
    allocates.  numpy itself is left alone.
    """

    def refuse(columns=0):
        def zeros(shape, *args, **kwargs):
            if shape[-1] > columns:
                raise AssertionError("allocating call reached past the size limit")
            return np.zeros(shape, *args, **kwargs)

        engine_numpy = types.SimpleNamespace(**vars(np))
        engine_numpy.zeros = zeros
        monkeypatch.setattr(_driver, "np", engine_numpy)

    return refuse
