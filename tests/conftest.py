"""Shared fixtures.

The four long 25-node benchmark runs are session-scoped so the whole suite
pays for them once (about half a minute in all on a 2-vCPU machine).
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
    evolve_classical,
    evolve_quantum,
    make_basis_state,
    make_point_distribution,
)

BENCH_TIMES = (20000, 50000, 100000)
BENCH_STEPS = 100000
# extra early snapshots feed the spreading-rate checks
SNAPSHOT_TIMES = (0, 5000, 10000) + BENCH_TIMES


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
