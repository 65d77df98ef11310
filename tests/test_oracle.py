import dataclasses

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
    make_basis_state,
    make_point_distribution,
    oracle,
    unitarity_defect,
)
from lollipop_walk.oracle import _dense, _stochastic_images, _unitary_images


def test_dimension_is_state_count():
    topo = LollipopTopology(25)
    op = build_dense_unitary(topo, 10)
    assert op.dimension == 71
    assert op.entries.shape == (71, 71)
    assert op.kind == "unitary"


def test_basis_order():
    topo = LollipopTopology(3)
    c0, c1, c2 = CycleNode(0), CycleNode(1), CycleNode(2)
    h1, h2 = HalfLineNode(1), HalfLineNode(2)
    L, R, D, U = Coin.LEFT, Coin.RIGHT, Coin.DOWN, Coin.UP
    unitary = build_dense_unitary(topo, 2)
    assert unitary.basis == [
        (c0, L), (c0, R), (c0, D),
        (c1, L), (c1, R),
        (c2, L), (c2, R),
        (h1, D), (h1, U),
        (h2, D), (h2, U),
    ]
    stochastic = build_dense_stochastic(topo, 2)
    assert stochastic.basis == [c0, c1, c2, h1, h2]
    for op in (unitary, stochastic):
        assert op.dimension == len(op.basis) == op.entries.shape[0]


def test_images_outside_the_basis_raise():
    # only the folded state may lie outside the basis: a basis cut one
    # half-line site short, still folding site 3 onto its last site, leaves
    # the image on half-line site 2 unaddressed
    topo = LollipopTopology(3)
    short = build_dense_stochastic(topo, 2).basis[:-1]
    with pytest.raises(KeyError):
        _dense("stochastic", topo, short, _stochastic_images,
               HalfLineNode(3), HalfLineNode(1))
    short = build_dense_unitary(topo, 2).basis[:-2]
    with pytest.raises(KeyError):
        _dense("unitary", topo, short, _unitary_images,
               (HalfLineNode(3), Coin.UP), (HalfLineNode(1), Coin.DOWN))
    with pytest.raises(ValueError):
        compare_step(topo, 10, 2, CycleNode(1), Coin.DOWN)  # coin not admitted
    with pytest.raises(ValueError):
        compare_step(topo, 10, 2, CycleNode(1), None)  # not a coin
    with pytest.raises(ValueError):
        compare_step(topo, 10, 2, CycleNode(3), Coin.LEFT)  # out of range for n=3


def test_junction_down_column():
    topo = LollipopTopology(25)
    op = build_dense_unitary(topo, 10)
    col = op.entries[:, op.basis.index((CycleNode(0), Coin.DOWN))]
    nz = {state: v for state, v in zip(op.basis, col) if v != 0.0}
    assert len(nz) == 3
    assert nz[(CycleNode(24), Coin.LEFT)] == pytest.approx(2 / 3)
    assert nz[(CycleNode(1), Coin.RIGHT)] == pytest.approx(2 / 3)
    assert nz[(HalfLineNode(1), Coin.UP)] == pytest.approx(-1 / 3)


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


@pytest.mark.parametrize("x_max", [2, 3, 10])
def test_whole_gram_is_identity(x_max):
    # the edge site reflects, so every row and column, the edge's included,
    # is orthonormal
    for n in range(3, 42):
        op = build_dense_unitary(LollipopTopology(n), x_max)
        gram = op.entries.T @ op.entries
        assert np.abs(gram - np.eye(op.dimension)).max() <= 1e-15, n


def test_defect_sensitive_to_perturbation():
    topo = LollipopTopology(5)
    op = build_dense_unitary(topo, 4)
    # an interior column, then the truncation edge's own Down column
    for state in ((CycleNode(2), Coin.LEFT), (HalfLineNode(4), Coin.DOWN)):
        entries = op.entries.copy()
        # bump a nonzero entry so the column norm moves by ~2*value*eps
        j = op.basis.index(state)
        i = np.nonzero(entries[:, j])[0][0]
        entries[i, j] += 1e-3
        perturbed = dataclasses.replace(op, entries=entries)
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
    for x_max in (4.0, 4.5, "4", None):
        for build in (build_dense_unitary, build_dense_stochastic):
            with pytest.raises(ValueError, match="x_max must be an integer"):
                build(topo, x_max)


def refuse_to_allocate(*args):
    raise AssertionError("allocating call reached past the size limit")


@pytest.mark.parametrize("n,x_max", [(5, 100000), (10**12, 10)])
def test_oversized_truncation_is_refused_before_allocating(monkeypatch, n, x_max):
    # the matrix fill and the engine allocate; listing a 10**12-node basis
    # would not finish, so making a cycle node refuses too
    for name in ("_dense", "make_basis_state", "CycleNode"):
        monkeypatch.setattr(oracle, name, refuse_to_allocate)
    topo = LollipopTopology(n)
    for build in (build_dense_unitary, build_dense_stochastic):
        with pytest.raises(ValueError, match="dimension .* exceeds the limit"):
            build(topo, x_max)
    with pytest.raises(ValueError, match="dimension .* exceeds the limit"):
        compare_step(topo, x_max, 8)


def test_stochastic_shape_and_columns():
    topo = LollipopTopology(5)
    op = build_dense_stochastic(topo, 6)
    assert op.dimension == 11
    assert op.kind == "stochastic"
    assert np.all(op.entries >= 0.0)
    jcol = dict(zip(op.basis, op.entries[:, op.basis.index(CycleNode(0))]))
    assert jcol[CycleNode(4)] == pytest.approx(1 / 3)
    assert jcol[CycleNode(1)] == pytest.approx(1 / 3)
    assert jcol[HalfLineNode(1)] == pytest.approx(1 / 3)
    assert np.abs(op.entries.sum(axis=0) - 1.0).max() <= 1e-15
    # the truncation edge folds its outward half back onto itself
    ecol = dict(zip(op.basis, op.entries[:, op.basis.index(HalfLineNode(6))]))
    assert ecol == {**dict.fromkeys(op.basis, 0.0),
                    HalfLineNode(5): 0.5, HalfLineNode(6): 0.5}


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
    vec[op.basis.index(site)] = 1.0
    dist = make_point_distribution(topo, site)
    for _ in range(steps):
        vec = op.entries @ vec
        dist.step()
    for s, p in zip(op.basis, vec):
        assert abs(dist.probability(s) - p) <= 1e-15


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


# Both engines store the graph as one row: cycle nodes, then the half-line
# from site 0.  At n = 3 the junction's neighbour columns 1 and n - 1 and the
# seam column n (half-line site 0) are adjacent, which the draws above do
# not guarantee to reach.
SEAM_STEPS = 27
SEAM_X_MAX = SEAM_STEPS + 4  # launch offset 2 + steps < x_max - 1


def seam_sites(topo):
    """Every cycle node and half-line sites 1 and 2."""
    return [CycleNode(k) for k in range(topo.cycle_size)] + [
        HalfLineNode(1), HalfLineNode(2)
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_quantum_engine_matches_dense_unitary_at_every_step_near_the_seam(n):
    topo = LollipopTopology(n)
    op = build_dense_unitary(topo, SEAM_X_MAX)
    for site in seam_sites(topo):
        for coin in topo.coins_at(site):
            vec = np.zeros(op.dimension)
            vec[op.basis.index((site, coin))] = 1.0
            state = make_basis_state(topo, site, coin)
            for _ in range(SEAM_STEPS):
                vec = op.entries @ vec
                state.step()
                got = np.array([state.amplitude(s, c) for s, c in op.basis])
                assert np.abs(got - vec).max() <= cli.MISMATCH_LIMIT


@pytest.mark.parametrize("n", [3, 4])
def test_classical_engine_matches_dense_stochastic_at_every_step_near_the_seam(n):
    topo = LollipopTopology(n)
    op = build_dense_stochastic(topo, SEAM_X_MAX)
    for site in seam_sites(topo):
        vec = np.zeros(op.dimension)
        vec[op.basis.index(site)] = 1.0
        dist = make_point_distribution(topo, site)
        for _ in range(SEAM_STEPS):
            vec = op.entries @ vec
            dist.step()
            got = np.array([dist.probability(s) for s in op.basis])
            assert np.abs(got - vec).max() <= 1e-15
