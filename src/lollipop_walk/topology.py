"""Sites and coins of the lollipop graph.

The graph is an n-node cycle with a half-line attached at cycle node [0]
(the junction).  Cycle nodes carry Left/Right coin states, half-line sites
carry Down/Up, and the junction carries all of Left, Right, and Down.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Coin(Enum):
    """Internal direction state of a walker."""

    LEFT = "L"
    RIGHT = "R"
    DOWN = "D"
    UP = "U"


@dataclass(frozen=True)
class CycleNode:
    """Cycle node [index]; index 0 is the junction."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"cycle index must be >= 0, got {self.index}")


@dataclass(frozen=True)
class HalfLineNode:
    """Half-line site at distance `index` >= 1 from the junction.

    Distance 0 is the junction itself and is represented only as CycleNode(0).
    """

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(
                f"half-line index must be >= 1 (0 is the junction), got {self.index}"
            )


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
        if self.cycle_size < 3:
            raise ValueError(f"cycle_size must be >= 3, got {self.cycle_size}")

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
