"""Light-cone blocks of the quantum walk, which `quantum` runs: the free
line's closed-form K-step symbol against an impulse stepped in long double,
the 64-step strip map against stepping, block advancing (recursive, with
and without the strip map, and at the engine's own constants on a cycle
past the strip map's size limit, and from deep half-line launches) against
block-free stepping within the nested bound `quantum` states, with the
zero tail past the frontier after every cut and strip; strips that step
on the walk itself, constructing none; the size limits of the symbol and
strip-map caches and bits that do not depend on them; and the long
benchmark fixture and a long `run` against block-free stepping.  The
block-free references take `_driver`'s shared blocks alone
(`conftest.no_light_cone_blocks`)."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lollipop_walk import _driver, cli, quantum
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

from conftest import no_light_cone_blocks

CHUNK = 64  # the trim period: chunked stepping takes blocks unless they are off
BASE = _driver._TRIM_PERIOD  # steps of a strip the strip map takes in one product

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
    # half-line sites 0..m, over the least 2**j or 3 * 2**j >= m + 2 * steps + 2
    # points: 8 * steps points for m = 4 * steps, 6 * steps for two sites
    # fewer; the impulse's fronts land on sites steps + 1 and 3 * steps + 1,
    # inside the returned sites steps + 1 .. m + steps
    for m, points in ((4 * steps, 8 * steps), (4 * steps - 2, 6 * steps)):
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
        assert floor == _block_error(steps, points)
        assert error <= floor
        # the stepped impulse reaches exactly `steps` sites each way, to sites
        # steps + 1 and 3 * steps + 1
        assert want[0][0] != 0 and want[1][2 * steps] != 0


def test_fft_points_is_the_least_admissible_size():
    sizes = sorted({c << j for j in range(16) for c in (1, 3)})
    for need in range(1, 40000):
        assert quantum._fft_points(need) == next(size for size in sizes if size >= need)


def reference_symbol(steps, points):
    """The K-step symbol computed whole, on every frequency at once: the
    formula `_free_symbol` takes in parts."""
    k = np.arange(points // 2 + 1) * (2 * math.pi / points)
    sin_k = np.sin(k[: points // 4 + 1])
    sin_k = np.concatenate((sin_k, sin_k[-2::-1]))  # even about k = pi / 2
    angle = steps * np.arcsin(sin_k / math.sqrt(2))
    s = np.sin(angle) / np.sqrt(2 - sin_k * sin_k)
    e = np.empty(sin_k.size, complex)
    np.multiply(-s, sin_k, e.real)
    np.multiply(s, np.cos(k), e.imag)
    return np.cos(angle) - e.real, e


@pytest.mark.parametrize("points", [384, 512, 1536, 4096, 6144, 8192, 12288, 3 << 15, 1 << 17])
@pytest.mark.parametrize("steps", [64, 576, 12288])
def test_symbols_equal_the_whole_formula_bit_for_bit(steps, points):
    # sizes on both sides of the symbol cache's limit, 8192
    for got, want in zip(quantum._free_symbol(steps, points),
                         reference_symbol(steps, points)):
        assert got.tobytes() == want.tobytes()


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
    """Advance `walk` by `steps` in CHUNK-step calls, with light-cone blocks
    off: the block-free reference, the same bits as single steps."""
    end = walk.time + steps
    with pytest.MonkeyPatch.context() as patch:
        no_light_cone_blocks(patch)
        while walk.time < end:
            walk.advance(min(CHUNK, end - walk.time))


class Budget(list):
    """Shares of the stated bound, with the depth of strips reached."""

    level = depth = 0


def assert_zero_past_frontier(state):
    """Both buffers of `state` hold +0.0, sign bit clear, past half-line
    site `_frontier + 1`, as the kernels require."""
    past = state.topology.cycle_size + state._frontier + 2
    for rows in (state._values, state._back):
        assert rows[:, past:].view(np.uint64).max(initial=0) == 0


def record_blocks(patch, check_tails=True):
    """Make every light-cone block, at every depth of strips, append its
    share of the stated bound to the returned list: eps(K, L) + sqrt(what
    its cut discarded), and the strip map's bound for a strip taken in one
    product.  The list's `depth` attribute ends as the deepest strip.
    With `check_tails`, every tail cut and every strip must leave both
    buffers +0.0 past the frontier."""
    budget = Budget()
    cut = _driver.TwoBufferWalk._cut_tail
    strip = WalkerState._advance_strip

    def recording_cut(state, floor):
        n, m = state.topology.cycle_size, state._frontier
        before = state._values[:, n : n + m + 1].copy()
        cut(state, floor)
        if check_tails:
            assert_zero_past_frontier(state)
        if floor > state._CUT_FLOOR:  # a block's cut, at gain 1
            budget.append(floor + math.sqrt(np.sum(before[:, state._frontier + 1 :] ** 2)))

    def recording_strip(state, steps):
        product = quantum._strip_map(state.topology.cycle_size) if steps == BASE else None
        if product is not None:
            budget.append(product[1])
        budget.level += 1
        budget.depth = max(budget.depth, budget.level)
        strip(state, steps)
        if check_tails:
            assert_zero_past_frontier(state)
        budget.level -= 1

    patch.setattr(_driver.TwoBufferWalk, "_cut_tail", recording_cut)
    patch.setattr(WalkerState, "_advance_strip", recording_strip)
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


def agrees_within_the_stated_bound(walk, chunked, steps, budget):
    """Check `walk`, advanced `steps` steps in the blocks `budget` records,
    against `chunked`, the same launch in block-free chunks."""
    for state in (walk, chunked):
        assert_zero_past_frontier(state)
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


def blocks_within_the_stated_bound(data, region, **constants):
    """Advance a drawn launch with the walk's block constants set to
    `constants` and check it against block-free chunks within the nested
    bound; return the record of the blocks taken."""
    walk = data.draw(launches(region))
    steps = data.draw(st.integers(1600, 2600))
    split = data.draw(st.integers(0, steps))
    chunked = walk.copy()
    advance_in_chunks(chunked, steps)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(quantum, name, value)
        budget = record_blocks(patch)
        walk.advance(split)
        walk.advance(steps - split)
    agrees_within_the_stated_bound(walk, chunked, steps, budget)
    return budget


@pytest.mark.parametrize("region", ["cycle", "junction", "half"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_blocks_agree_with_chunked_steps_within_the_stated_bound(region, data):
    # blocks of K = m / 4 at frontier m: a block's strip of 2K + 2 sites
    # takes blocks of its own from K = 128, down to one-product strips
    budget = blocks_within_the_stated_bound(data, region, _BLOCK_SHARE=4)
    assert budget.depth >= 2


@pytest.mark.parametrize("region", ["cycle", "junction", "half"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_stepped_strips_agree_with_chunked_steps_within_the_stated_bound(
    region, data
):
    # a cycle past the strip map's size limit steps its strips; blocks of
    # K = m / 3 from frontier 192, so a strip of 2K + 2 sites takes blocks
    # of its own from K = 128 (frontier 384)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantum, "_strip_map", lambda cycle_size: None)
        budget = blocks_within_the_stated_bound(data, region, _BLOCK_SHARE=3)
    assert budget.depth >= 2


@pytest.mark.parametrize("n", [3, 25])
def test_strip_map_agrees_with_stepping_within_its_bound(n):
    matrix, bound = quantum._build_strip_map(n)
    inputs, outputs = n + 2 * BASE + 1, n + BASE + 1
    assert matrix.shape == (2 * outputs, 2 * inputs)
    walk = WalkerState(LollipopTopology(n), 3 * BASE)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((2, inputs))
    x[1, n] = 0.0  # the junction's Down coin has no Up partner
    walk._values[:, :inputs] = x / np.linalg.norm(x)  # unit norm, gain 1
    product = (matrix @ walk._values[:, :inputs].ravel()).reshape(2, outputs)
    walk._step_columns(walk._values.shape[1] - 1, BASE)
    stepped = walk._values[:, :outputs]
    # the product within `bound` of exact arithmetic, stepping within
    # BASE 2**-52
    assert math.sqrt(np.sum((product - stepped) ** 2)) <= bound + BASE * 2.0**-52
    assert bound < 1e-11


def strip_map_stepped_column_by_column(n):
    """The strip map with every column stepped, none moved: its first form."""
    inputs, outputs = n + 2 * BASE + 1, n + BASE + 1
    walk = WalkerState(LollipopTopology(n), 2 * BASE + 1)
    matrix = np.empty((2, outputs, 2, inputs))
    for row in range(2):
        for column in range(inputs):
            walk._values[:] = 0.0
            walk._values[row, column] = 1.0
            walk._step_columns(inputs, BASE)
            matrix[:, :, row, column] = walk._values[:, :outputs]
    return matrix.reshape(2 * outputs, 2 * inputs)


@pytest.mark.parametrize("n", [3, 4, 25, 128])
def test_moved_strip_map_columns_equal_stepped_ones_bit_for_bit(n):
    matrix, _ = quantum._build_strip_map(n)
    want = strip_map_stepped_column_by_column(n)
    assert np.array_equal(matrix, want)
    assert np.array_equal(np.signbit(matrix), np.signbit(want))


def engine_blocks_within_the_stated_bound(walk, steps):
    """Advance `walk` by `steps` in one call at the engine's own constants
    and check it against block-free chunks within the nested bound; return
    the record of the blocks taken.  A cycle past the strip map's size
    limit must build no map."""
    def refuse(cycle_size):
        raise AssertionError("built a strip map past the size limit")

    chunked = walk.copy()
    advance_in_chunks(chunked, steps)
    with pytest.MonkeyPatch.context() as patch:
        if walk.topology.cycle_size > quantum._STRIP_MAP_MAX_CYCLE:
            patch.setattr(quantum, "_build_strip_map", refuse)
        budget = record_blocks(patch)
        walk.advance(steps)
    agrees_within_the_stated_bound(walk, chunked, steps, budget)
    return budget


def test_stepped_strips_past_the_strip_map_limit_agree_with_chunked_steps():
    # the engine's own constants on a cycle one node past the strip map's
    # size limit: no map is built, blocks start at frontier 512 and their
    # strips step, down to 64-step strips of 130 sites that take no block;
    # from half-line site 2000 blocks start at the first step, and every
    # strip starts empty until the inward wave reaches the junction
    n = quantum._STRIP_MAP_MAX_CYCLE + 1
    topology = LollipopTopology(n)
    for site, coin, steps, depth in ((CycleNode(n // 2), Coin.RIGHT, 20000, 2),
                                     (HalfLineNode(2000), Coin.DOWN, 5000, 3)):
        walk = make_basis_state(topology, site, coin)
        budget = engine_blocks_within_the_stated_bound(walk, steps)
        assert budget.depth >= depth


@pytest.mark.parametrize("coin, steps", [(Coin.DOWN, 6000), (Coin.UP, 4000)])
def test_deep_half_line_launches_agree_with_chunked_steps(coin, steps):
    # blocks and one-product strips from the first step: every strip
    # starts empty and fills only once the inward wave reaches the junction
    walk = make_basis_state(LollipopTopology(25), HalfLineNode(3000), coin)
    budget = engine_blocks_within_the_stated_bound(walk, steps)
    assert budget.depth >= 3


def test_light_cone_blocks_construct_no_walk(monkeypatch):
    # every strip steps on the walk itself: none builds a walk of its own
    quantum._build_strip_map(25)  # the map's build steps a walk of its own
    constructed = []
    init = _driver.TwoBufferWalk.__init__

    def counting_init(state, *args, **kwargs):
        constructed.append(type(state))
        init(state, *args, **kwargs)

    n = quantum._STRIP_MAP_MAX_CYCLE + 1
    walks = [(make_basis_state(LollipopTopology(25), CycleNode(12), Coin.RIGHT), 20000),
             (make_basis_state(LollipopTopology(n), CycleNode(n // 2), Coin.RIGHT), 6000)]
    budget = record_blocks(monkeypatch)
    monkeypatch.setattr(_driver.TwoBufferWalk, "__init__", counting_init)
    for walk, steps in walks:
        walk.advance(steps)
    assert budget.depth >= 2  # blocks whose strips stepped
    assert constructed == []


def test_caches_leave_the_bits_as_they_find_them():
    # a walk with every cache cold and the same walk with all of them warm
    caches = (quantum._cached_symbol, quantum._build_strip_map)
    for cache in caches:
        cache.cache_clear()

    def advanced():
        walk = make_basis_state(LollipopTopology(25), CycleNode(12), Coin.RIGHT)
        walk.advance(30000)
        return walk

    cold = advanced()
    misses = [cache.cache_info().misses for cache in caches]
    warm = advanced()
    assert all(misses)  # the first walk filled each cache and the second missed none
    assert [cache.cache_info().misses for cache in caches] == misses
    assert cold._values.tobytes() == warm._values.tobytes()
    assert (cold._frontier, cold.extent) == (warm._frontier, warm.extent)


def test_blocks_off_takes_no_strip_map_and_no_strip(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block ran with blocks off")

    no_light_cone_blocks(monkeypatch)
    monkeypatch.setattr(quantum, "_build_strip_map", refuse)
    monkeypatch.setattr(WalkerState, "_advance_strip", refuse)
    walk = make_basis_state(LollipopTopology(5), CycleNode(2), Coin.LEFT)
    walk.advance(3000)
    assert walk.time == 3000 and walk._frontier > 2048


def test_only_small_symbols_are_cached():
    assert quantum._SYMBOL_CACHE_POINTS == 8192
    quantum._cached_symbol.cache_clear()
    # 128 steps from 1001 sites take 1536 FFT points, from 4000 sites 6144,
    # from 7933 sites 8192 and from 10 000 sites 12 288
    for sites in (1001, 1001, 4000, 4000, 7933, 10000, 10000):
        WalkerState._free_steps(np.zeros((2, sites)), 128)
    info = quantum._cached_symbol.cache_info()
    assert (info.currsize, info.hits, info.misses) == (3, 2, 3)
    # the blocks left the shared symbol as they found it
    for kept, fresh in zip(quantum._cached_symbol(128, 1536), quantum._free_symbol(128, 1536)):
        assert np.array_equal(kept, fresh)


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
