import pytest

from lollipop_walk import Coin, CycleNode, HalfLineNode, LollipopTopology
from lollipop_walk.topology import CYCLE_COINS, JUNCTION_COINS


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
        topo.check_state(CycleNode(0), Coin.UP)


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

