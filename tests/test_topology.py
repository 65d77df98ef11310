import pytest

from lollipop_walk import Coin, CycleNode, HalfLineNode, LollipopTopology
from lollipop_walk.topology import CYCLE_COINS, HALFLINE_COINS, JUNCTION_COINS


def test_state_count_examples():
    assert LollipopTopology(25).state_count(10) == 71
    assert LollipopTopology(3).state_count(1) == 9


def test_state_count_formula():
    for n in (3, 5, 25):
        for x_max in (1, 4, 10):
            topo = LollipopTopology(n)
            assert topo.state_count(x_max) == 2 * (n - 1) + 3 + 2 * x_max


def test_flat_index_round_trip_71_states():
    topo = LollipopTopology(25)
    for i in range(71):
        site, coin = topo.inverse_index(10, i)
        assert topo.flat_index(10, site, coin) == i


def test_flat_index_injective():
    topo = LollipopTopology(7)
    x_max = 5
    seen = set()
    for k in range(7):
        for coin in topo.coins_at(CycleNode(k)):
            seen.add(topo.flat_index(x_max, CycleNode(k), coin))
    for x in range(1, x_max + 1):
        for coin in HALFLINE_COINS:
            seen.add(topo.flat_index(x_max, HalfLineNode(x), coin))
    assert len(seen) == topo.state_count(x_max)
    assert seen == set(range(topo.state_count(x_max)))


def test_bijectivity_exhaustive():
    # every n in [3, 64] crossed with every x_max in [1, 128]
    for n in range(3, 65):
        topo = LollipopTopology(n)
        for x_max in range(1, 129):
            count = topo.state_count(x_max)
            for i in range(count):
                site, coin = topo.inverse_index(x_max, i)
                assert topo.flat_index(x_max, site, coin) == i


def test_basis_partition_counts():
    for n in (3, 8, 25):
        topo = LollipopTopology(n)
        x_max = 6
        junction = len(topo.coins_at(CycleNode(0)))
        cycle = sum(len(topo.coins_at(CycleNode(k))) for k in range(1, n))
        halfline = sum(len(HALFLINE_COINS) for _ in range(1, x_max + 1))
        assert junction == 3
        assert junction + cycle + halfline == topo.state_count(x_max)


def test_coin_sets():
    topo = LollipopTopology(25)
    assert topo.coins_at(CycleNode(0)) == JUNCTION_COINS == (
        Coin.LEFT,
        Coin.RIGHT,
        Coin.DOWN,
    )
    assert topo.coins_at(CycleNode(7)) == CYCLE_COINS
    assert topo.coins_at(HalfLineNode(4)) == (Coin.DOWN, Coin.UP)


def test_invalid_coin_at_junction():
    topo = LollipopTopology(25)
    with pytest.raises(ValueError):
        topo.flat_index(10, CycleNode(0), Coin.UP)


def test_invalid_coin_on_cycle_and_halfline():
    topo = LollipopTopology(25)
    with pytest.raises(ValueError):
        topo.check_state(CycleNode(3), Coin.DOWN)
    with pytest.raises(ValueError):
        topo.check_state(HalfLineNode(2), Coin.LEFT)


def test_site_validation():
    with pytest.raises(ValueError):
        HalfLineNode(0)
    with pytest.raises(ValueError):
        CycleNode(-3)
    with pytest.raises(ValueError):
        LollipopTopology(2)
    topo = LollipopTopology(5)
    with pytest.raises(ValueError):
        topo.coins_at(CycleNode(5))  # out of range for n=5


def test_index_range_errors():
    topo = LollipopTopology(5)
    with pytest.raises(ValueError):
        topo.state_count(0)
    with pytest.raises(ValueError):
        topo.flat_index(4, HalfLineNode(5), Coin.DOWN)  # beyond x_max
    with pytest.raises(ValueError):
        topo.inverse_index(4, topo.state_count(4))
    with pytest.raises(ValueError):
        topo.inverse_index(4, -1)
