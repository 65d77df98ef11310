"""Light-cone blocks of the quantum walk: the free line's closed-form K-step
symbol against an impulse stepped in long double, block advancing against
64-step chunks (which never form a block) within the bound `quantum`
states, and the long benchmark fixture and a long `run` against chunked
stepping."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lollipop_walk import _driver, cli
from lollipop_walk import (
    Coin,
    CycleNode,
    HalfLineNode,
    LollipopTopology,
    WalkerState,
    make_basis_state,
    position_distribution,
)
from lollipop_walk.output import PRINT_FLOOR
from lollipop_walk.quantum import _block_error

TINY = np.finfo(np.float64).tiny
CHUNK = 64  # below every block size, so chunked stepping takes no block

def free_line_steps(down, up, steps):
    """`steps` steps of the free Hadamard walk on a plain row, in long
    double: (D + U)/sqrt(2) moves down a site, (D - U)/sqrt(2) up."""
    s = np.sqrt(np.longdouble(0.5))
    for _ in range(steps):
        new_down, new_up = np.zeros_like(down), np.zeros_like(up)
        new_down[:-1] = s * (down[1:] + up[1:])
        new_up[1:] = s * (down[:-1] - up[:-1])
        down, up = new_down, new_up
    return down, up


@pytest.mark.parametrize("steps", [64, 256, 1024])
def test_free_line_symbol_matches_a_long_double_impulse(steps):
    # half-line sites 0..m; the impulse's fronts land on sites steps + 1 and
    # 3 * steps + 1, inside the returned sites steps + 1 .. m + steps
    m = 4 * steps
    centre = 2 * steps + 1
    rows = np.zeros((2, m + 1))
    rows[:, centre] = 0.6, 0.8  # unit norm
    moved, floor = WalkerState._free_steps(rows, steps)
    padded = np.zeros((2, m + steps + 1))
    padded[:, : m + 1] = rows
    want = free_line_steps(*padded.astype(np.longdouble), steps)
    want = [w[steps + 1 :] for w in want]
    assert moved.shape == (2, m)
    error = math.sqrt(sum(float(np.sum((g - w) ** 2)) for g, w in zip(moved, want)))
    points = 1 << (m + 2 * steps + 1).bit_length()  # the least 2**j >= m + 2 * steps + 2
    assert floor == _block_error(steps, points)
    assert error <= floor
    # the stepped impulse reaches exactly `steps` sites each way, to sites
    # steps + 1 and 3 * steps + 1
    assert want[0][0] != 0 and want[1][2 * steps] != 0


def amplitudes(walk, sites):
    """Cycle and half-line rows of `walk` up to half-line site `sites`,
    gain removed, zero past the buffer."""
    n = walk.topology.cycle_size
    rows = np.zeros((2, n + sites + 1))
    live = walk._values[:, : rows.shape[1]]
    rows[:, : live.shape[1]] = live * math.sqrt(walk._scale())
    return rows


def max_probability_change(p, q):
    """Largest change in any site's probability between two distributions,
    half-line sites past one buffer reading 0."""
    half = np.zeros((2, max(p.halfline_probs.size, q.halfline_probs.size)))
    half[0, : p.halfline_probs.size] = p.halfline_probs
    half[1, : q.halfline_probs.size] = q.halfline_probs
    return max(np.max(np.abs(p.cycle_probs - q.cycle_probs)),
               np.max(np.abs(half[0] - half[1])))


def advance_in_chunks(walk, steps):
    end = walk.time + steps
    while walk.time < end:
        walk.advance(min(CHUNK, end - walk.time))


def record_blocks(patch):
    """Make every light-cone block append its share of the stated bound,
    eps(K, L) + sqrt(probability its cut discarded), to the returned list."""
    budget = []
    cut = _driver.TwoBufferWalk._cut_tail

    def recording_cut(state, floor):
        n, m = state.topology.cycle_size, state._frontier
        before = state._values[:, n : n + m + 1].copy()
        cut(state, floor)
        if floor > TINY:  # a block's cut, at gain 1
            budget.append(floor + math.sqrt(np.sum(before[:, state._frontier + 1 :] ** 2)))

    patch.setattr(_driver.TwoBufferWalk, "_cut_tail", recording_cut)
    return budget


def stated_bound(steps, budget):
    """2-norm bound between a walk advanced in blocks and one stepped
    singly, both against exact arithmetic, over `steps` steps."""
    return 2 * steps * 2.0**-52 + sum(budget)


@st.composite
def launches(draw, region):
    topo = LollipopTopology(draw(st.sampled_from([3, 4, 7, 25])))
    if region == "cycle":
        site = CycleNode(draw(st.integers(1, topo.cycle_size - 1)))
        coin = draw(st.sampled_from([Coin.LEFT, Coin.RIGHT]))
    elif region == "junction":
        site, coin = CycleNode(0), Coin.DOWN
    else:
        site = HalfLineNode(draw(st.integers(1, 5)))
        coin = draw(st.sampled_from([Coin.DOWN, Coin.UP]))
    return make_basis_state(topo, site, coin)


@pytest.mark.parametrize("region", ["cycle", "junction", "half"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_blocks_agree_with_chunked_steps_within_the_stated_bound(region, data):
    walk = data.draw(launches(region))
    steps = data.draw(st.integers(1200, 2600))
    split = data.draw(st.integers(0, steps))
    chunked = walk.copy()
    with pytest.MonkeyPatch.context() as patch:
        # blocks of 128..256 steps from frontier 512 on
        patch.setattr(_driver, "_BLOCK_MIN", 2 * CHUNK)
        patch.setattr(_driver, "_BLOCK_SHARE", 4)
        patch.setattr(_driver, "_BLOCK_MAX", 4 * CHUNK)
        budget = record_blocks(patch)
        walk.advance(split)
        walk.advance(steps - split)
        advance_in_chunks(chunked, steps)
    assert budget  # blocks fired
    for state in (walk, chunked):
        past = state.topology.cycle_size + state._frontier + 2
        for rows in (state._values, state._back):
            assert not np.any(rows[:, past:]) and not np.any(np.signbit(rows[:, past:]))
    bound = stated_bound(steps, budget)
    sites = max(walk.extent, chunked.extent)
    mine, want = amplitudes(walk, sites), amplitudes(chunked, sites)
    assert math.sqrt(np.sum((mine - want) ** 2)) <= bound
    # per site |p - q| <= |a - b| |a + b| <= bound (2 + bound)
    change = max_probability_change(position_distribution(walk),
                                    position_distribution(chunked))
    assert change <= bound * (2 + bound)
    # each norm's own summation rounds by at most its length times 2**-53
    summation = mine.size * 2.0**-53
    assert abs(walk.norm() - chunked.norm()) <= bound + 2 * summation


def test_long_fixture_agrees_with_chunked_steps(topology25, quantum_cycle12):
    snaps, state = quantum_cycle12
    chunked = make_basis_state(topology25, CycleNode(12), Coin.RIGHT)
    for t in sorted(snaps):
        advance_in_chunks(chunked, t - chunked.time)
        assert max_probability_change(snaps[t], position_distribution(chunked)) <= 1e-12
    assert chunked.time == state.time
    assert abs(state.norm() - 1.0) <= 1e-12
    assert abs(chunked.norm() - 1.0) <= 1e-12


def read_artifact(path):
    """(cycle, half-line from site 1) probabilities of a `run` artifact."""
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        assert data["halfline"]["first_site"] == 1
        return data["cycle"], data["halfline"]["probabilities"]
    rows = list(csv.DictReader(path.read_text().splitlines()))
    region = {"cycle": [], "halfline": []}
    for row in rows:
        region[row["region"]].append(float(row["probability"]))
    assert [int(r["site"]) for r in rows if r["region"] == "halfline"] == list(
        range(1, len(region["halfline"]) + 1)
    )
    return region["cycle"], region["halfline"]


def test_long_run_artifacts_agree_with_chunked_steps(tmp_path):
    """The 6000-step quantum run of the golden digests, whose digest is
    taken with blocks off: with blocks, its CSV and JSON distributions stay
    within the stated bound of the same launch in 64-step chunks."""
    steps, times = 6000, (0, 1, 100, 999, 3000, 6000)
    out = tmp_path / "out"
    argv = ["run", "--model", "quantum", "--cycle-size", "25", "--start", "cycle:12:R",
            "--steps", str(steps), "--snapshots", ",".join(map(str, times)),
            "--format", "csv,json", "--out", str(out)]
    with pytest.MonkeyPatch.context() as patch:
        budget = record_blocks(patch)
        assert cli.main(argv) == 0
    assert budget  # blocks fired
    bound = stated_bound(steps, budget)
    # sum over sites of |p - q| <= |a - b| |a + b| <= bound (2 + bound)
    tolerance = bound * (2 + bound)
    names = {f"distribution_t{t}.{ext}" for t in times for ext in ("csv", "json")}
    assert {p.name for p in out.iterdir()} == names | {"summary.csv", "summary.json"}
    chunked = make_basis_state(LollipopTopology(25), CycleNode(12), Coin.RIGHT)
    for t in times:
        advance_in_chunks(chunked, t - chunked.time)
        want = position_distribution(chunked)
        for ext in ("json", "csv"):
            cycle, half = read_artifact(out / f"distribution_t{t}.{ext}")
            cut = len(half) + 1
            ref = np.zeros(max(cut, want.halfline_probs.size))
            ref[: want.halfline_probs.size] = want.halfline_probs
            change = np.abs(np.concatenate((cycle, half))
                            - np.concatenate((want.cycle_probs, ref[1:cut])))
            if ext == "json":
                assert np.sum(change) <= tolerance
            else:  # "%.10g" rounds each value by up to 5e-10 of it
                rounding = 5e-10 * np.concatenate((want.cycle_probs, ref[1:cut]))
                assert np.all(change <= tolerance + rounding)
            # the run printed no site past its cutoff
            assert np.all(ref[cut:] <= PRINT_FLOOR + tolerance)
