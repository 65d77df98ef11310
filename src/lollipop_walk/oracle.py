"""Dense reference operators for cross-checking the stepped engines.

Builds the one-step evolution as an explicit matrix on the truncated graph
(half-line cut at x_max), written as a direct per-state transcription of
the walk rules with no vectorization tricks.  The edge site x_max reflects:
the one image past it folds back onto it, so the truncated unitary is
exactly orthogonal and every stochastic column sums to 1.  Small and slow on
purpose: it is the ground truth the fast engines are compared against.  Each
builder refuses a truncation too large to hold densely before it allocates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import evolve_quantum, make_basis_state
from .topology import (
    Coin, CycleNode, HalfLineNode, LollipopTopology, Site, _check_index,
)

# Largest truncation the builders take, as the unitary's 2n + 1 + 2 x_max
# basis states: each of an audit's few dense matrices then takes 32 MiB.
MAX_ORACLE_DIMENSION = 2048
_SQRT_HALF = float(np.sqrt(0.5))


@dataclass(frozen=True)
class DenseOperator:
    """One-step operator as a dimension x dimension real matrix.

    kind "unitary" acts on (site, coin) basis states; kind "stochastic"
    acts on sites.  `basis[i]` is the state of row and column i; columns
    are images of basis states.  The edge site x_max reflects what the
    infinite walk would send outward, so callers comparing against that walk
    must keep evolutions clear of the edge.
    """

    dimension: int
    entries: np.ndarray
    kind: str  # "unitary" | "stochastic"
    basis: list


def _sites(topology: LollipopTopology, x_max: int) -> list[Site]:
    """The truncated graph: cycle nodes 0..n-1, then half-line sites 1..x_max.
    Refuses, before listing a site, a truncation whose unitary dimension
    exceeds MAX_ORACLE_DIMENSION (the stochastic one's is smaller)."""
    _check_index(x_max, "x_max", 2, " for a testable truncation")
    dimension = 2 * topology.cycle_size + 1 + 2 * x_max
    if dimension > MAX_ORACLE_DIMENSION:
        raise ValueError(
            f"dense operator dimension 2n + 1 + 2 x_max = {dimension} exceeds "
            f"the limit of {MAX_ORACLE_DIMENSION}"
        )
    return [CycleNode(k) for k in range(topology.cycle_size)] + [
        HalfLineNode(x) for x in range(1, x_max + 1)
    ]


def _dense(kind, topology, basis, images, past_edge, edge) -> DenseOperator:
    """Column j holds `images(topology, basis[j])`, [(state, weight)].
    `past_edge`, the state on half-line site x_max + 1 that the edge site
    feeds, folds back onto `edge`; any other image outside the basis raises
    KeyError."""
    row = {state: i for i, state in enumerate(basis)}
    row[past_edge] = row[edge]
    matrix = np.zeros((len(basis), len(basis)))
    for j, state in enumerate(basis):
        for target, w in images(topology, state):
            matrix[row[target], j] += w
    return DenseOperator(len(basis), matrix, kind, basis)


def _unitary_images(topology: LollipopTopology, state: tuple[Site, Coin]):
    """The walk rules, one basis state at a time: [((site, coin), weight)]."""
    site, coin = state
    n = topology.cycle_size
    s = _SQRT_HALF
    if isinstance(site, CycleNode) and site.index == 0:
        targets = (
            (CycleNode(n - 1), Coin.LEFT),
            (CycleNode(1), Coin.RIGHT),
            (HalfLineNode(1), Coin.UP),
        )
        row = {Coin.LEFT: 0, Coin.RIGHT: 1, Coin.DOWN: 2}[coin]
        weights = [2.0 / 3.0] * 3
        weights[row] = -1.0 / 3.0
        return list(zip(targets, weights))
    if isinstance(site, CycleNode):
        k = site.index
        sign = 1.0 if coin is Coin.LEFT else -1.0
        return [
            ((CycleNode(k - 1), Coin.LEFT), s),
            ((CycleNode((k + 1) % n), Coin.RIGHT), sign * s),
        ]
    x = site.index
    sign = 1.0 if coin is Coin.DOWN else -1.0
    inward = CycleNode(0) if x - 1 == 0 else HalfLineNode(x - 1)
    return [
        ((inward, Coin.DOWN), s),
        ((HalfLineNode(x + 1), Coin.UP), sign * s),
    ]


def _stochastic_images(topology: LollipopTopology, site: Site):
    """The classical rule, one site at a time: [(neighbour, weight)], an
    equal share to each neighbour."""
    n = topology.cycle_size
    if isinstance(site, CycleNode) and site.index == 0:
        targets = [CycleNode(n - 1), CycleNode(1), HalfLineNode(1)]
    elif isinstance(site, CycleNode):
        targets = [CycleNode(site.index - 1), CycleNode((site.index + 1) % n)]
    else:
        x = site.index
        targets = [CycleNode(0) if x == 1 else HalfLineNode(x - 1), HalfLineNode(x + 1)]
    return [(t, 1.0 / len(targets)) for t in targets]


def build_dense_unitary(topology: LollipopTopology, x_max: int) -> DenseOperator:
    """One quantum step on the truncated graph, on the (site, coin) basis:
    the junction's (L, R, Down), then (L, R) per cycle node, then (Down, Up)
    per half-line site; dimension 2n + 1 + 2 x_max."""
    basis = [(s, c) for s in _sites(topology, x_max) for c in topology.coins_at(s)]
    past_edge = (HalfLineNode(x_max + 1), Coin.UP)
    edge = (HalfLineNode(x_max), Coin.DOWN)
    return _dense("unitary", topology, basis, _unitary_images, past_edge, edge)


def build_dense_stochastic(topology: LollipopTopology, x_max: int) -> DenseOperator:
    """One classical step on the truncated graph; dimension = n + x_max sites."""
    basis = _sites(topology, x_max)
    past_edge, edge = HalfLineNode(x_max + 1), HalfLineNode(x_max)
    return _dense("stochastic", topology, basis, _stochastic_images, past_edge, edge)


def unitarity_defect(op: DenseOperator) -> float:
    """Max-norm of (U^T U - I) over every row and column."""
    if op.kind != "unitary":
        raise ValueError(f"unitarity_defect needs a unitary operator, got {op.kind}")
    return float(np.abs(op.entries.T @ op.entries - np.eye(op.dimension)).max())


def compare_step(
    topology: LollipopTopology,
    x_max: int,
    steps: int,
    site: Site = CycleNode(0),
    coin: Coin = Coin.RIGHT,
) -> float:
    """Max absolute amplitude difference between the engine, advanced by
    `evolve_quantum` as production runs are, and repeated dense
    matrix-vector products, after `steps` steps.

    The launch defaults to the junction's Right coin.  The support must stay
    clear of the truncation edge, which the light cone guarantees as long as
    launch_offset + steps < x_max - 1.  The operator is built, and so its
    size checked, before the engine takes a step.
    """
    offset = site.index if isinstance(site, HalfLineNode) else 0
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if offset + steps >= x_max - 1:
        raise ValueError(
            f"support could reach the truncation edge: need launch offset + steps"
            f" < x_max - 1, got {offset} + {steps} >= {x_max - 1}"
        )
    op = build_dense_unitary(topology, x_max)
    state = make_basis_state(topology, site, coin)
    evolve_quantum(state, steps)
    vec = np.zeros(op.dimension)
    vec[op.basis.index((site, coin))] = 1.0
    for _ in range(steps):
        vec = op.entries @ vec
    worst = 0.0
    for i, (s, c) in enumerate(op.basis):
        worst = max(worst, abs(state.amplitude(s, c) - vec[i]))
    return worst
