"""Dense reference operators for cross-checking the stepped engines.

Builds the one-step evolution as an explicit matrix on the truncated graph
(half-line cut at x_max), written as a direct per-state transcription of
the walk rules with no vectorization tricks.  Small and slow on purpose:
it is the ground truth the fast engines are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import SQRT_HALF, evolve_quantum, make_basis_state
from .topology import Coin, CycleNode, HalfLineNode, LollipopTopology, Site


@dataclass(frozen=True)
class DenseOperator:
    """One-step operator as a dimension x dimension real matrix.

    kind "unitary" acts on (site, coin) basis states; kind "stochastic"
    acts on sites.  Columns are images of basis states.  States at the
    truncation edge x_max lose their outgoing (x_max + 1) component, so
    callers must keep evolutions inside the truncation.
    """

    dimension: int
    entries: np.ndarray
    kind: str  # "unitary" | "stochastic"
    x_max: int
    topology: LollipopTopology


def _unitary_images(topology: LollipopTopology, site: Site, coin: Coin):
    """The walk rules, one basis state at a time: [(site, coin, weight)]."""
    n = topology.cycle_size
    s = SQRT_HALF
    if isinstance(site, CycleNode) and site.index == 0:
        targets = (
            (CycleNode(n - 1), Coin.LEFT),
            (CycleNode(1), Coin.RIGHT),
            (HalfLineNode(1), Coin.UP),
        )
        row = {Coin.LEFT: 0, Coin.RIGHT: 1, Coin.DOWN: 2}[coin]
        weights = [2.0 / 3.0] * 3
        weights[row] = -1.0 / 3.0
        return [(t_site, t_coin, w) for (t_site, t_coin), w in zip(targets, weights)]
    if isinstance(site, CycleNode):
        k = site.index
        sign = 1.0 if coin is Coin.LEFT else -1.0
        return [
            (CycleNode(k - 1), Coin.LEFT, s),
            (CycleNode((k + 1) % n), Coin.RIGHT, sign * s),
        ]
    x = site.index
    sign = 1.0 if coin is Coin.DOWN else -1.0
    inward = (
        (CycleNode(0), Coin.DOWN) if x - 1 == 0 else (HalfLineNode(x - 1), Coin.DOWN)
    )
    return [
        (inward[0], inward[1], s),
        (HalfLineNode(x + 1), Coin.UP, sign * s),
    ]


def build_dense_unitary(topology: LollipopTopology, x_max: int) -> DenseOperator:
    """One quantum step on the truncated graph; dimension = state_count."""
    if x_max < 2:
        raise ValueError(f"x_max must be >= 2 for a testable truncation, got {x_max}")
    dim = topology.state_count(x_max)
    matrix = np.zeros((dim, dim))
    for j in range(dim):
        site, coin = topology.inverse_index(x_max, j)
        for t_site, t_coin, w in _unitary_images(topology, site, coin):
            if isinstance(t_site, HalfLineNode) and t_site.index > x_max:
                continue  # outgoing component past the truncation edge
            matrix[topology.flat_index(x_max, t_site, t_coin), j] += w
    return DenseOperator(dim, matrix, "unitary", x_max, topology)


def site_index(topology: LollipopTopology, x_max: int, site: Site) -> int:
    """Row/column of a site in the stochastic operator: cycle first, then ray."""
    topology.coins_at(site)  # validates
    if isinstance(site, CycleNode):
        return site.index
    if site.index > x_max:
        raise ValueError(f"half-line site {site.index} exceeds x_max={x_max}")
    return topology.cycle_size + site.index - 1


def build_dense_stochastic(topology: LollipopTopology, x_max: int) -> DenseOperator:
    """One classical step on the truncated graph; dimension = n + x_max sites."""
    if x_max < 2:
        raise ValueError(f"x_max must be >= 2 for a testable truncation, got {x_max}")
    n = topology.cycle_size
    dim = n + x_max
    matrix = np.zeros((dim, dim))

    def put(target: Site, source: Site, w: float) -> None:
        if isinstance(target, HalfLineNode) and target.index > x_max:
            return
        matrix[site_index(topology, x_max, target), site_index(topology, x_max, source)] += w

    for k in range(n):
        node = CycleNode(k)
        if k == 0:
            put(CycleNode(n - 1), node, 1.0 / 3.0)
            put(CycleNode(1), node, 1.0 / 3.0)
            put(HalfLineNode(1), node, 1.0 / 3.0)
        else:
            put(CycleNode(k - 1), node, 0.5)
            put(CycleNode((k + 1) % n), node, 0.5)
    for x in range(1, x_max + 1):
        site = HalfLineNode(x)
        inward: Site = CycleNode(0) if x == 1 else HalfLineNode(x - 1)
        put(inward, site, 0.5)
        put(HalfLineNode(x + 1), site, 0.5)
    return DenseOperator(dim, matrix, "stochastic", x_max, topology)


def interior_state_indices(op: DenseOperator) -> list[int]:
    """Basis states unaffected by the truncation edge: all cycle states plus
    half-line sites < x_max - 1."""
    topo, x_max = op.topology, op.x_max
    keep = []
    for i in range(op.dimension):
        site, _ = topo.inverse_index(x_max, i)
        if isinstance(site, CycleNode) or site.index < x_max - 1:
            keep.append(i)
    return keep


def unitarity_defect(op: DenseOperator) -> float:
    """Max-norm of (U^T U - I) over the interior sub-block."""
    if op.kind != "unitary":
        raise ValueError(f"unitarity_defect needs a unitary operator, got {op.kind}")
    gram = op.entries.T @ op.entries - np.eye(op.dimension)
    keep = interior_state_indices(op)
    return float(np.abs(gram[np.ix_(keep, keep)]).max())


def compare_step(
    topology: LollipopTopology,
    x_max: int,
    steps: int,
    site: Site | None = None,
    coin: Coin = Coin.RIGHT,
) -> float:
    """Max absolute amplitude difference between the engine, advanced by
    `evolve_quantum` as production runs are, and repeated dense
    matrix-vector products, after `steps` steps.

    The launch defaults to the junction's Right coin.  The support must stay
    clear of the truncation edge, which the light cone guarantees as long as
    launch_offset + steps < x_max - 1.
    """
    if site is None:
        site = CycleNode(0)
    offset = site.index if isinstance(site, HalfLineNode) else 0
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if offset + steps >= x_max - 1:
        raise ValueError(
            f"support could reach the truncation edge: need launch offset + steps"
            f" < x_max - 1, got {offset} + {steps} >= {x_max - 1}"
        )
    op = build_dense_unitary(topology, x_max)
    vec = np.zeros(op.dimension)
    vec[topology.flat_index(x_max, site, coin)] = 1.0
    for _ in range(steps):
        vec = op.entries @ vec
    state = make_basis_state(topology, site, coin)
    evolve_quantum(state, steps)
    worst = 0.0
    for i in range(op.dimension):
        s, c = topology.inverse_index(x_max, i)
        worst = max(worst, abs(state.amplitude(s, c) - vec[i]))
    return worst
