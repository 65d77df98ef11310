"""
Auditing the evolution rules against dense matrices
===================================================

The fast engine never builds its operator.  Here we build it densely on a
truncated graph, check unitarity, and diff a multi-step evolution.
"""

import numpy as np

from lollipop_walk import (
    LollipopTopology,
    build_dense_stochastic,
    build_dense_unitary,
    compare_step,
    unitarity_defect,
)

for n in (3, 5, 25):
    topology = LollipopTopology(n)
    op = build_dense_unitary(topology, x_max=10)
    print(f"n={n:>2}: dense operator is {op.dimension}x{op.dimension}, "
          f"unitarity defect {unitarity_defect(op):.2e}")

# the same walk, stepped by rules and by repeated dense mat-vec products
topology = LollipopTopology(5)
for steps in (1, 10, 50):
    diff = compare_step(topology, x_max=60, steps=steps)
    print(f"{steps:>2} steps: max amplitude difference {diff:.2e}")

# the classical counterpart is column-stochastic, the reflecting edge included
op = build_dense_stochastic(LollipopTopology(5), x_max=8)
column_error = np.abs(op.entries.sum(axis=0) - 1.0).max()
print(f"stochastic columns: largest |column sum - 1| {column_error:.2e}")
assert np.all(op.entries >= 0)
assert column_error <= 1e-15
