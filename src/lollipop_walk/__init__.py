"""Quantum and classical walks on a cycle with an attached half-line.

The quantum walk keeps a non-vanishing, quasi-periodic share of probability
on the cycle and spreads ballistically down the half-line; the classical
walk loses its cycle probability diffusively.  This package provides the
two step engines, position observables, dense reference operators for
auditing, and a CLI that writes CSV/JSON/SVG artifacts.
"""

from .classical import (
    ClassicalDistribution,
    evolve_classical,
    make_point_distribution,
)
from .observables import (
    PositionDistribution,
    SummaryRecord,
    position_distribution,
    summarize,
)
from .oracle import (
    DenseOperator,
    build_dense_stochastic,
    build_dense_unitary,
    compare_step,
    unitarity_defect,
)
from .quantum import (
    WalkerState,
    evolve_quantum,
    make_basis_state,
)
from .topology import (
    Coin,
    CycleNode,
    HalfLineNode,
    LollipopTopology,
    Site,
)

__version__ = "0.1.0"

__all__ = [
    "ClassicalDistribution",
    "Coin",
    "CycleNode",
    "DenseOperator",
    "HalfLineNode",
    "LollipopTopology",
    "PositionDistribution",
    "Site",
    "SummaryRecord",
    "WalkerState",
    "build_dense_stochastic",
    "build_dense_unitary",
    "compare_step",
    "evolve_classical",
    "evolve_quantum",
    "make_basis_state",
    "make_point_distribution",
    "position_distribution",
    "summarize",
    "unitarity_defect",
    "__version__",
]
