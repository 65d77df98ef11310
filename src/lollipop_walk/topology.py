"""Sites, coins, and basis-state indexing for the lollipop graph.

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
            raise ValueError(f"coin {coin.value} not admitted at {site}")

    def state_count(self, x_max: int) -> int:
        """Number of (site, coin) basis states with half-line sites <= x_max.

        2 per non-junction cycle node, 3 at the junction, 2 per half-line site.
        """
        if x_max < 1:
            raise ValueError(f"x_max must be >= 1, got {x_max}")
        return 2 * (self.cycle_size - 1) + 3 + 2 * x_max

    def flat_index(self, x_max: int, site: Site, coin: Coin) -> int:
        """Position of (site, coin) in the canonical basis enumeration.

        Layout: junction (L, R, Down), then cycle nodes 1..n-1 as (L, R)
        pairs, then half-line sites 1..x_max as (Down, Up) pairs.
        """
        if x_max < 1:
            raise ValueError(f"x_max must be >= 1, got {x_max}")
        self.check_state(site, coin)
        if isinstance(site, CycleNode):
            if site.index == 0:
                return JUNCTION_COINS.index(coin)
            return 3 + 2 * (site.index - 1) + CYCLE_COINS.index(coin)
        if site.index > x_max:
            raise ValueError(f"half-line site {site.index} exceeds x_max={x_max}")
        base = 3 + 2 * (self.cycle_size - 1)
        return base + 2 * (site.index - 1) + HALFLINE_COINS.index(coin)

    def inverse_index(self, x_max: int, i: int) -> tuple[Site, Coin]:
        """Inverse of flat_index over the same enumeration."""
        count = self.state_count(x_max)
        if not 0 <= i < count:
            raise ValueError(f"flat index {i} out of range [0, {count})")
        if i < 3:
            return CycleNode(0), JUNCTION_COINS[i]
        i -= 3
        n_cycle = 2 * (self.cycle_size - 1)
        if i < n_cycle:
            return CycleNode(1 + i // 2), CYCLE_COINS[i % 2]
        i -= n_cycle
        return HalfLineNode(1 + i // 2), HALFLINE_COINS[i % 2]
