import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lollipop_walk import (
    Coin,
    CycleNode,
    HalfLineNode,
    LollipopTopology,
    build_dense_stochastic,
    build_dense_unitary,
    cli,
    compare_step,
    make_point_distribution,
    site_index,
    unitarity_defect,
)
from lollipop_walk.oracle import DenseOperator, interior_state_indices


def test_dimension_is_state_count():
    topo = LollipopTopology(25)
    op = build_dense_unitary(topo, 10)
    assert op.dimension == 71
    assert op.entries.shape == (71, 71)
    assert op.kind == "unitary"


def test_junction_down_column():
    topo = LollipopTopology(25)
    op = build_dense_unitary(topo, 10)
    col = op.entries[:, topo.flat_index(10, CycleNode(0), Coin.DOWN)]
    nz = {i: v for i, v in enumerate(col) if v != 0.0}
    assert len(nz) == 3
    assert nz[topo.flat_index(10, CycleNode(24), Coin.LEFT)] == pytest.approx(2 / 3)
    assert nz[topo.flat_index(10, CycleNode(1), Coin.RIGHT)] == pytest.approx(2 / 3)
    assert nz[topo.flat_index(10, HalfLineNode(1), Coin.UP)] == pytest.approx(-1 / 3)


def test_junction_triple_is_orthonormal():
    rows = np.array(
        [[-1 / 3, 2 / 3, 2 / 3], [2 / 3, -1 / 3, 2 / 3], [2 / 3, 2 / 3, -1 / 3]]
    )
    gram = rows.T @ rows
    assert np.abs(gram - np.eye(3)).max() < 1e-15


@pytest.mark.parametrize("n", [3, 5, 25])
@pytest.mark.parametrize("x_max", [4, 10])
def test_unitarity_defect_small(n, x_max):
    topo = LollipopTopology(n)
    assert unitarity_defect(build_dense_unitary(topo, x_max)) < 1e-12


def test_interior_gram_subblock_directly():
    topo = LollipopTopology(5)
    op = build_dense_unitary(topo, 10)
    gram = op.entries.T @ op.entries - np.eye(op.dimension)
    keep = interior_state_indices(op)
    assert np.abs(gram[np.ix_(keep, keep)]).max() < 1e-12
    # interior columns have unit norm
    norms = np.linalg.norm(op.entries[:, keep], axis=0)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_interior_excludes_only_truncation_edge():
    topo = LollipopTopology(5)
    op = build_dense_unitary(topo, 10)
    keep = set(interior_state_indices(op))
    for i in range(op.dimension):
        site, _ = topo.inverse_index(10, i)
        edge = isinstance(site, HalfLineNode) and site.index >= 9
        assert (i in keep) == (not edge)


def test_defect_sensitive_to_perturbation():
    topo = LollipopTopology(5)
    op = build_dense_unitary(topo, 4)
    keep = interior_state_indices(op)
    entries = op.entries.copy()
    # bump a nonzero interior entry so the column norm moves by ~2*value*eps
    j = topo.flat_index(4, CycleNode(2), Coin.LEFT)
    i = np.nonzero(entries[:, j])[0][0]
    assert i in keep and j in keep
    entries[i, j] += 1e-3
    perturbed = DenseOperator(op.dimension, entries, "unitary", 4, topo)
    assert unitarity_defect(perturbed) >= 1e-3


def test_defect_rejects_wrong_kind():
    topo = LollipopTopology(5)
    with pytest.raises(ValueError):
        unitarity_defect(build_dense_stochastic(topo, 6))


def test_rejects_tiny_truncation():
    topo = LollipopTopology(5)
    with pytest.raises(ValueError):
        build_dense_unitary(topo, 1)
    with pytest.raises(ValueError):
        build_dense_stochastic(topo, 1)


def test_stochastic_shape_and_columns():
    topo = LollipopTopology(5)
    op = build_dense_stochastic(topo, 6)
    assert op.dimension == 11
    assert op.kind == "stochastic"
    assert np.all(op.entries >= 0.0)
    jcol = op.entries[:, site_index(topo, 6, CycleNode(0))]
    assert jcol[site_index(topo, 6, CycleNode(4))] == pytest.approx(1 / 3)
    assert jcol[site_index(topo, 6, CycleNode(1))] == pytest.approx(1 / 3)
    assert jcol[site_index(topo, 6, HalfLineNode(1))] == pytest.approx(1 / 3)
    sums = op.entries.sum(axis=0)
    for j in range(op.dimension):
        if j == site_index(topo, 6, HalfLineNode(6)):
            assert sums[j] == pytest.approx(0.5)  # truncation edge loses up-flow
        else:
            assert sums[j] == pytest.approx(1.0, abs=1e-15)


def test_compare_step_examples():
    assert compare_step(LollipopTopology(5), 10, 8, CycleNode(2), Coin.RIGHT) < 1e-13
    assert compare_step(LollipopTopology(25), 12, 10) < 1e-13


def test_compare_step_zero_steps_is_exact():
    assert compare_step(LollipopTopology(5), 10, 0) == 0.0


def test_compare_step_halfline_launch():
    topo = LollipopTopology(5)
    assert compare_step(topo, 14, 6, HalfLineNode(3), Coin.DOWN) < 1e-13


def test_compare_step_rejects_edge_contact():
    topo = LollipopTopology(5)
    with pytest.raises(ValueError):
        compare_step(topo, 10, 20)
    with pytest.raises(ValueError):
        compare_step(topo, 10, 9)  # 9 >= 10 - 1
    with pytest.raises(ValueError):
        compare_step(topo, 10, 5, HalfLineNode(4), Coin.DOWN)  # 4 + 5 >= 9
    with pytest.raises(ValueError):
        compare_step(topo, 10, -1)


def test_compare_step_independent_of_growth_schedule():
    # identical answers whether or not the engine pre-grows its buffers;
    # see also test_quantum.test_reserve_does_not_change_the_walk
    topo = LollipopTopology(5)
    a = compare_step(topo, 20, 15)
    b = compare_step(topo, 20, 15)
    assert a == b
    assert a < 1e-13


def test_long_agreement_window():
    # the dense product and the rule engine track each other over 50 steps
    assert compare_step(LollipopTopology(5), 60, 50) <= 1e-12



@st.composite
def launches(draw, region):
    """(topology, site, x_max, steps) for a launch at the junction, at another
    cycle node or at half-line sites 1..5, with steps inside the light cone:
    the support never reaches the truncation edge."""
    n = draw(st.integers(3, 12))
    if region == "junction":
        site = CycleNode(0)
    elif region == "cycle":
        site = CycleNode(draw(st.integers(1, n - 1)))
    else:
        site = HalfLineNode(draw(st.integers(1, 5)))
    offset = site.index if region == "half" else 0
    x_max = draw(st.integers(offset + 2, 30))
    return LollipopTopology(n), site, x_max, draw(st.integers(0, x_max - 2 - offset))


@pytest.mark.parametrize("region", ["junction", "cycle", "half"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_classical_engine_matches_dense_stochastic(region, data):
    topo, site, x_max, steps = data.draw(launches(region))
    op = build_dense_stochastic(topo, x_max)
    vec = np.zeros(op.dimension)
    vec[site_index(topo, x_max, site)] = 1.0
    dist = make_point_distribution(topo, site)
    for _ in range(steps):
        vec = op.entries @ vec
        dist.step()
    sites = [CycleNode(k) for k in range(topo.cycle_size)]
    sites += [HalfLineNode(x) for x in range(1, x_max + 1)]
    for s in sites:
        assert abs(dist.probability(s) - vec[site_index(topo, x_max, s)]) <= 1e-15


@pytest.mark.parametrize(
    "region,coin",
    [("cycle", Coin.LEFT), ("cycle", Coin.RIGHT), ("junction", Coin.LEFT),
     ("junction", Coin.RIGHT), ("junction", Coin.DOWN), ("half", Coin.DOWN),
     ("half", Coin.UP)],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_quantum_engine_matches_dense_unitary(region, coin, data):
    topo, site, x_max, steps = data.draw(launches(region))
    assert compare_step(topo, x_max, steps, site, coin) <= cli.MISMATCH_LIMIT
