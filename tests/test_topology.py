import pytest

from lollipop_walk import (
    Coin, CycleNode, HalfLineNode, LollipopTopology, make_basis_state,
)
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
    # a coin that is no Coin member is refused with the same ValueError
    for coin in (None, "R"):
        for site in (CycleNode(1), HalfLineNode(2)):
            with pytest.raises(ValueError, match=f"coin {coin!r} not admitted"):
                topo.check_state(site, coin)
        with pytest.raises(ValueError):
            make_basis_state(LollipopTopology(5), CycleNode(1), coin)


def test_site_validation():
    with pytest.raises(ValueError):
        HalfLineNode(0)
    with pytest.raises(ValueError):
        CycleNode(-3)
    with pytest.raises(ValueError):
        LollipopTopology(2)
    # only values that operator.index takes are sizes and indices
    for value in (25.0, 1.5, 2.5, "3", None, float("nan")):
        for make in (CycleNode, HalfLineNode, LollipopTopology):
            with pytest.raises(ValueError, match="must be an integer"):
                make(value)
    topo = LollipopTopology(5)
    with pytest.raises(ValueError):
        topo.coins_at(CycleNode(5))  # out of range for n=5

