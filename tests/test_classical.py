import numpy as np
import pytest

from lollipop_walk import (
    CycleNode,
    HalfLineNode,
    LollipopTopology,
    evolve_classical,
    make_point_distribution,
    position_distribution,
)


@pytest.fixture
def topo():
    return LollipopTopology(25)


def test_point_distribution_on_cycle(topo):
    dist = make_point_distribution(topo, CycleNode(12))
    assert dist.probability(CycleNode(12)) == 1.0
    assert dist.total_mass() == 1.0
    assert dist.time == 0


def test_point_distribution_at_junction_and_halfline(topo):
    assert make_point_distribution(topo, CycleNode(0)).total_mass() == 1.0
    dist = make_point_distribution(topo, HalfLineNode(7))
    assert dist.probability(HalfLineNode(7)) == 1.0


def test_junction_splits_in_thirds(topo):
    dist = make_point_distribution(topo, CycleNode(0))
    dist.advance(1)
    assert dist.probability(CycleNode(24)) == pytest.approx(1 / 3, abs=1e-15)
    assert dist.probability(CycleNode(1)) == pytest.approx(1 / 3, abs=1e-15)
    assert dist.probability(HalfLineNode(1)) == pytest.approx(1 / 3, abs=1e-15)


def test_cycle_site_splits_in_halves(topo):
    dist = make_point_distribution(topo, CycleNode(12))
    dist.advance(1)
    assert dist.time == 1
    assert dist.probability(CycleNode(11)) == 0.5
    assert dist.probability(CycleNode(13)) == 0.5
    assert dist.probability(CycleNode(12)) == 0.0


def test_halfline_site_splits_in_halves(topo):
    dist = make_point_distribution(topo, HalfLineNode(3))
    dist.advance(1)
    assert dist.probability(HalfLineNode(2)) == 0.5
    assert dist.probability(HalfLineNode(4)) == 0.5


def test_halfline_site1_feeds_junction(topo):
    dist = make_point_distribution(topo, HalfLineNode(1))
    dist.advance(1)
    assert dist.probability(CycleNode(0)) == 0.5
    assert dist.probability(HalfLineNode(2)) == 0.5


def test_two_steps_from_cycle12(topo):
    dist = make_point_distribution(topo, CycleNode(12))
    dist.advance(1)
    dist.advance(1)
    want = {10: 0.25, 12: 0.5, 14: 0.25}
    pd = position_distribution(dist)
    for k in range(25):
        assert pd.cycle_probs[k] == pytest.approx(want.get(k, 0.0), abs=1e-15)


def test_mass_conserved_and_non_negative(topo):
    dist = make_point_distribution(topo, CycleNode(12))
    for _ in range(2000):
        dist.advance(1)
    assert abs(dist.total_mass() - 1.0) < 1e-12
    pd = position_distribution(dist)
    assert np.all(pd.cycle_probs >= 0.0)
    assert np.all(pd.halfline_probs >= 0.0)


def test_support_bound_is_exact(topo):
    dist = make_point_distribution(topo, CycleNode(12))
    steps = 41
    for _ in range(steps):
        dist.advance(1)
    pd = position_distribution(dist)
    assert np.all(pd.halfline_probs[steps + 1 :] == 0.0)


def test_extent_growth(topo):
    dist = make_point_distribution(topo, CycleNode(0))
    assert dist.extent == 2
    for _ in range(100):
        dist.advance(1)
    assert dist.extent >= dist.time + 1


def test_reserve_does_not_change_the_walk(topo):
    plain = make_point_distribution(topo, CycleNode(12))
    wide = make_point_distribution(topo, CycleNode(12))
    wide.reserve(300)
    for _ in range(30):
        plain.advance(1)
        wide.advance(1)
    for k in range(25):
        assert plain.probability(CycleNode(k)) == wide.probability(CycleNode(k))
    for x in range(1, 32):
        assert plain.probability(HalfLineNode(x)) == wide.probability(HalfLineNode(x))


def test_evolve_time_zero_snapshot(topo):
    dist = make_point_distribution(topo, CycleNode(12))
    snaps = evolve_classical(dist, 0, [0])
    assert snaps[0][1].cycle_probs[12] == 1.0


def test_evolve_matches_documented_totals(classical_cycle12):
    # long-run totals are asserted tightly in the acceptance tests; here we
    # only pin the qualitative facts the module guarantees
    snaps, final = classical_cycle12
    totals = [snaps[t].cycle_probs.sum() for t in (20000, 50000, 100000)]
    assert totals[0] < 0.15
    assert totals[0] > totals[1] > totals[2]
    assert abs(final.total_mass() - 1.0) < 1e-12


def test_near_uniform_cycle_at_late_times(classical_cycle12):
    snaps, _ = classical_cycle12
    cycle = snaps[100000].cycle_probs
    body = cycle[1:]  # everything except the junction
    assert body.max() / body.min() < 1.2


def test_evolve_rejects_bad_snapshot_times(topo):
    dist = make_point_distribution(topo, CycleNode(12))
    with pytest.raises(ValueError):
        evolve_classical(dist, 5, [3, 1])
    with pytest.raises(ValueError):
        evolve_classical(dist, 5, [6])


def test_copy_is_detached(topo):
    dist = make_point_distribution(topo, CycleNode(12))
    for _ in range(7):
        dist.advance(1)
    dup = dist.copy()
    dist.advance(1)
    assert dup.time == 7
    assert abs(dup.total_mass() - 1.0) < 1e-14
