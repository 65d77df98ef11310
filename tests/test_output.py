"""The distribution writers against per-value reference implementations.

The writers format each region in one call; the references below are the
per-value loops they replaced (`json.dump` with `indent`, one
`format_probability` per CSV row, one f-string per SVG point).  Both must
give the same bytes on any distribution.
"""

from __future__ import annotations

import io
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from lollipop_walk import PositionDistribution
from lollipop_walk.output import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    PRINT_FLOOR,
    WIDTH,
    _axes,
    _svg_open,
    _y_scale_label,
    format_probability,
    halfline_cutoff,
    render_halfline_svg,
    write_distribution_csv,
    write_distribution_json,
)

PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
SPECIAL = np.array([0.0, 1.0, 5e-324, 1e-15])


# --- per-value references ---------------------------------------------------

def reference_csv(dist: PositionDistribution) -> str:
    rows = ["region,site,probability\n"]
    for k, p in enumerate(dist.cycle_probs):
        rows.append(f"cycle,{k},{format_probability(float(p))}\n")
    for x in range(1, halfline_cutoff(dist.halfline_probs) + 1):
        rows.append(f"halfline,{x},{format_probability(float(dist.halfline_probs[x]))}\n")
    return "".join(rows)


def reference_json(dist: PositionDistribution) -> str:
    cutoff = halfline_cutoff(dist.halfline_probs)
    payload = {
        "time": dist.time,
        "source": dist.source,
        "cycle": [float(p) for p in dist.cycle_probs],
        "halfline": {
            "first_site": 1,
            "probabilities": [float(p) for p in dist.halfline_probs[1 : cutoff + 1]],
        },
    }
    fh = io.StringIO()
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")
    return fh.getvalue()


def reference_halfline_svg(dist: PositionDistribution) -> str:
    cutoff = halfline_cutoff(dist.halfline_probs)
    probs = dist.halfline_probs[1 : cutoff + 1]
    parts = _svg_open(f"half-line profile, {dist.source} walk, t={dist.time}")
    _axes(parts, "probability", "half-line site")
    if probs.size == 0:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">no probability above '
            f"{PRINT_FLOOR:g}</text>"
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    top = max(float(probs.max()), PRINT_FLOOR)
    _y_scale_label(parts, top)
    span = max(cutoff - 1, 1)
    points = []
    for i, p in enumerate(probs):
        x = MARGIN_LEFT + PLOT_W * i / span
        y = HEIGHT - MARGIN_BOTTOM - PLOT_H * float(p) / top
        points.append(f"{x:.2f},{y:.2f}")
    parts.append(
        f'<polyline points="{" ".join(points)}" fill="none" stroke="firebrick" '
        f'stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        site = 1 + round(span * frac)
        x = MARGIN_LEFT + PLOT_W * frac
        parts.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{site}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- random distributions ---------------------------------------------------

def random_values(rng, size: int, top: float) -> np.ndarray:
    """Values in [0, top] over twenty decades, with the special values and
    SVG near-ties mixed in."""
    values = top * rng.random(size) * 10.0 ** -rng.integers(0, 20, size)
    special = rng.random(size) < 0.2
    values[special] = np.minimum(rng.choice(SPECIAL, special.sum()), top)
    # (PLOT_H * p) / top lands within a few ulps of a 0.005 boundary, where
    # the order of the operations decides the last printed digit
    tie = rng.random(size) < 0.2
    levels = rng.integers(0, 100 * PLOT_H, tie.sum()) / 100 + 0.005
    values[tie] = top * (levels / PLOT_H)
    return values


@st.composite
def distributions(draw) -> PositionDistribution:
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # uniform, where hypothesis would draw mostly short half-lines
    length = int(rng.integers(0, 5001))
    below_floor = draw(st.booleans())
    top = PRINT_FLOOR if below_floor else draw(
        st.sampled_from([1.0, 0.5, 1e-15 * 1.5, float(rng.uniform(1e-6, 1.0))])
    )
    halfline = np.zeros(length + 1)
    halfline[1:] = random_values(rng, length, top)
    if length and not below_floor:
        halfline[rng.integers(1, length + 1)] = top
    return PositionDistribution(
        time=draw(st.integers(0, 10**6)),
        cycle_probs=random_values(rng, n, 1.0),
        halfline_probs=halfline,
        source=draw(st.sampled_from(["quantum", "classical"])),
    )


@settings(max_examples=60, deadline=None)
@given(dist=distributions())
def test_distribution_csv_matches_per_row_writer(tmp_path_factory, dist):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    write_distribution_csv(path, dist)
    assert path.read_bytes() == reference_csv(dist).encode()


@settings(max_examples=60, deadline=None)
@given(dist=distributions())
def test_distribution_json_matches_indented_json_dump(tmp_path_factory, dist):
    path = tmp_path_factory.mktemp("json") / "d.json"
    write_distribution_json(path, dist)
    assert path.read_bytes() == reference_json(dist).encode()


@settings(max_examples=60, deadline=None)
@given(dist=distributions())
def test_halfline_svg_matches_per_point_loop(dist):
    assert render_halfline_svg(dist) == reference_halfline_svg(dist)


def test_all_below_floor_halfline_writes_no_rows(tmp_path):
    dist = PositionDistribution(
        7, np.full(3, 1 / 3), np.array([0.0, PRINT_FLOOR, 5e-324, 0.0]), "classical"
    )
    write_distribution_csv(tmp_path / "d.csv", dist)
    write_distribution_json(tmp_path / "d.json", dist)
    assert "halfline" not in (tmp_path / "d.csv").read_text()
    payload = json.loads((tmp_path / "d.json").read_text())
    assert payload["halfline"]["probabilities"] == []
    assert "no probability above" in render_halfline_svg(dist)
