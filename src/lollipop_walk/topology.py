"""Sites and coins of the lollipop graph.

The graph is an n-node cycle with a half-line attached at cycle node [0]
(the junction).  Cycle nodes carry Left/Right coin states, half-line sites
carry Down/Up, and the junction carries all of Left, Right, and Down.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum


class Coin(Enum):
    """Internal direction state of a walker."""

    LEFT = "L"
    RIGHT = "R"
    DOWN = "D"
    UP = "U"


def _check_index(value, name: str, low: int, note: str = "") -> None:
    """Raise ValueError unless `operator.index` takes `value` and it is >= low."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}{note}, got {value}")


@dataclass(frozen=True)
class CycleNode:
    """Cycle node [index]; index 0 is the junction."""

    index: int

    def __post_init__(self):
        _check_index(self.index, "cycle index", 0)


@dataclass(frozen=True)
class HalfLineNode:
    """Half-line site at distance `index` >= 1 from the junction.

    Distance 0 is the junction itself and is represented only as CycleNode(0).
    """

    index: int

    def __post_init__(self):
        _check_index(self.index, "half-line index", 1, " (0 is the junction)")


Site = CycleNode | HalfLineNode

# Fixed coin order everywhere: (L, R, Down) at the junction, (L, R) on the
# rest of the cycle, (Down, Up) on the half-line.
JUNCTION_COINS = (Coin.LEFT, Coin.RIGHT, Coin.DOWN)
CYCLE_COINS = (Coin.LEFT, Coin.RIGHT)
HALFLINE_COINS = (Coin.DOWN, Coin.UP)


@dataclass(frozen=True)
class LollipopTopology:
    """An n-node cycle joined at node [0] to a half-line.

    Immutable; safe to share between runs and threads.
    """

    cycle_size: int

    def __post_init__(self):
        _check_index(self.cycle_size, "cycle_size", 3)

    def coins_at(self, site: Site) -> tuple[Coin, ...]:
        """The coin states admitted at `site`, in fixed order."""
        if isinstance(site, CycleNode):
            if site.index >= self.cycle_size:
                raise ValueError(
                    f"cycle index {site.index} out of range for n={self.cycle_size}"
                )
            return JUNCTION_COINS if site.index == 0 else CYCLE_COINS
        if isinstance(site, HalfLineNode):
            return HALFLINE_COINS
        raise TypeError(f"not a site: {site!r}")

    def check_state(self, site: Site, coin: Coin) -> None:
        """Raise ValueError unless (site, coin) is a valid basis state."""
        if coin not in self.coins_at(site):
            label = coin.value if isinstance(coin, Coin) else repr(coin)
            raise ValueError(f"coin {label} not admitted at {site}")
