"""
Ballistic versus diffusive spread on the half-line
==================================================

Doubling the time should double the quantum walker's conditional position
std (sigma ~ t) but only multiply the classical one by sqrt(2) (sigma ~ sqrt(t)).
"""

from lollipop_walk import (
    Coin,
    CycleNode,
    LollipopTopology,
    evolve_classical,
    evolve_quantum,
    make_basis_state,
    make_point_distribution,
    summarize,
)

topology = LollipopTopology(25)
times = [2500, 5000, 10000]

state = make_basis_state(topology, CycleNode(12), Coin.RIGHT)
q_snaps = dict(evolve_quantum(state, times[-1], times))

dist = make_point_distribution(topology, CycleNode(12))
c_snaps = dict(evolve_classical(dist, times[-1], times))

print(f"{'t':>6}  {'quantum mean':>12}  {'quantum std':>11}  "
      f"{'classical mean':>14}  {'classical std':>13}")
for t in times:
    q, c = summarize(q_snaps[t]), summarize(c_snaps[t])
    print(f"{t:>6}  {q.halfline_mean:>12.2f}  {q.halfline_std:>11.2f}  "
          f"{c.halfline_mean:>14.2f}  {c.halfline_std:>13.2f}")

q1 = summarize(q_snaps[5000]).halfline_std
q2 = summarize(q_snaps[10000]).halfline_std
c1 = summarize(c_snaps[5000]).halfline_std
c2 = summarize(c_snaps[10000]).halfline_std
print(f"\nstd growth per time doubling: quantum {q2 / q1:.3f} (ballistic ~2), "
      f"classical {c2 / c1:.3f} (diffusive ~1.414)")
