"""One SHA-256 over the exact state of many walks after every `advance`.

Two trees that print the same digest step every walk below to the same
bits on the machine they ran on: the `_values` bytes, `time`, `_frontier`,
`extent` and the summary of the position distribution, after every call
of `advance`.  The walks are

- both walks on cycles of n in {3, 4, 7, 25, 128, 129} nodes, launched at
  node n // 2 (Right coin for the quantum walk), at the junction (Down)
  and at half-line site 3 (Up), each advanced in the chunkings [6000],
  [1, 63, 64, 65, 127, 1000, 1680] and [50] * 60 + [3000]: 108 walks;
- the 54 quantum walks among them again with light-cone blocks of a
  quarter of the frontier, and again with a third of it and no strip map,
  so that strips recurse and step;
- 10**5 quantum steps from cycle:12:R on 25 nodes, advanced to 2 * 10**4,
  5 * 10**4 and 10**5.

It prints that digest, then one digest per group of walks (the plain
walks, share 4, share 3 without the strip map, the 10**5-step walk), each
fed the same bytes as the overall one, so that a mismatch shows which
group moved.  A light-cone block's last bits depend on numpy's FFT, so
compare digests taken with the same numpy on the same CPU.  Runs in about
5 s, outside the suite:

    PYTHONPATH=src python3 tests/state_digest.py
"""

from __future__ import annotations

import hashlib

import pytest

from lollipop_walk import (
    Coin,
    CycleNode,
    HalfLineNode,
    LollipopTopology,
    make_basis_state,
    make_point_distribution,
    position_distribution,
    quantum,
    summarize,
)

CYCLE_SIZES = (3, 4, 7, 25, 128, 129)
CHUNKINGS = ([6000], [1, 63, 64, 65, 127, 1000, 1680], [50] * 60 + [3000])


def launches(n):
    """(topology, site, coin) of the launches at node n // 2, the junction
    and half-line site 3; the classical walk takes the site alone."""
    topology = LollipopTopology(n)
    return [(topology, CycleNode(n // 2), Coin.RIGHT), (topology, CycleNode(0), Coin.DOWN),
            (topology, HalfLineNode(3), Coin.UP)]


class Tee:
    """Feeds every update to the overall digest and one group's digest."""

    def __init__(self, *digests):
        self.digests = digests

    def update(self, data):
        for digest in self.digests:
            digest.update(data)


def absorb(digest, state):
    digest.update(state._values.tobytes())
    digest.update(repr((state.time, state._frontier, state.extent,
                        summarize(position_distribution(state)))).encode())


def walk(digest, state, chunks):
    for steps in chunks:
        state.advance(steps)
        absorb(digest, state)


def quantum_walks(digest):
    for n in CYCLE_SIZES:
        for launch in launches(n):
            for chunks in CHUNKINGS:
                walk(digest, make_basis_state(*launch), chunks)


def main() -> None:
    overall, groups = hashlib.sha256(), {}

    def group(name):
        groups[name] = hashlib.sha256()
        return Tee(overall, groups[name])

    digest = group("plain walks")
    for n in CYCLE_SIZES:
        for topology, site, coin in launches(n):
            for chunks in CHUNKINGS:
                walk(digest, make_basis_state(topology, site, coin), chunks)
                walk(digest, make_point_distribution(topology, site), chunks)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantum, "_BLOCK_SHARE", 4)
        quantum_walks(group("share 4"))
        patch.setattr(quantum, "_BLOCK_SHARE", 3)
        patch.setattr(quantum, "_strip_map", lambda cycle_size: None)
        quantum_walks(group("share 3, no strip map"))
    start = make_basis_state(LollipopTopology(25), CycleNode(12), Coin.RIGHT)
    walk(group("10**5 steps"), start, [20000, 30000, 50000])
    print(overall.hexdigest())
    for name, digest in groups.items():
        print(f"{digest.hexdigest()}  {name}")


if __name__ == "__main__":
    main()
