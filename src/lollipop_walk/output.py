"""Deterministic CSV/JSON/SVG emission for run artifacts.

All writers format floats explicitly and emit "\n" newlines so repeated
runs with the same inputs produce byte-identical files.

A ballistic half-line profile holds thousands of values per snapshot, so
each per-value region (a CSV region, a JSON array, the SVG polyline) is
built by one `%` or `join` call over a Python list, which formats every
value in C instead of in a Python loop, and each of these files goes out
in a single `write`.  The bytes are those of the per-value code: `%.10g` (CSV) and
`%.2f` (SVG) equal the `format()` specs `.10g` and `.2f`, and the SVG
coordinates are computed elementwise in float64 in the operation order of
the scalar expressions.  The distribution JSON is laid out directly as
`json.dump(payload, indent=2, sort_keys=True)` lays it out, with floats as
`float.__repr__`, which is json's encoding of a finite float (probabilities
always are); `indent` would force json's pure-Python encoder.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .observables import PositionDistribution, SummaryRecord

# sites with probability at or below this are cut from half-line output
PRINT_FLOOR = 1e-15


def format_probability(p: float) -> str:
    """10 significant digits, no trailing noise."""
    return f"{p:.10g}"


def halfline_cutoff(halfline_probs: np.ndarray) -> int:
    """Largest half-line site with probability above the print floor (0 if none)."""
    above = np.nonzero(halfline_probs > PRINT_FLOOR)[0]
    return int(above[-1]) if above.size else 0


def _csv_region(region: str, sites, probs: np.ndarray) -> str:
    """`region,site,probability` rows for parallel site and probability arrays."""
    row = f"{region},%d,%.10g\n"
    values = [None] * (2 * probs.size)
    values[0::2] = sites
    values[1::2] = probs.tolist()
    return (row * probs.size) % tuple(values)


def write_distribution_csv(path: Path, dist: PositionDistribution) -> None:
    """Cycle nodes ascending, then half-line sites 1..cutoff."""
    cutoff = halfline_cutoff(dist.halfline_probs)
    _write_text(
        path,
        "region,site,probability\n"
        + _csv_region("cycle", range(dist.cycle_probs.size), dist.cycle_probs)
        + _csv_region("halfline", range(1, cutoff + 1),
                      dist.halfline_probs[1 : cutoff + 1]),
    )


def _json_floats(probs: np.ndarray, indent: int) -> str:
    """A float array as `json.dump(..., indent=2)` lays it out at `indent`."""
    if probs.size == 0:
        return "[]"
    pad = "\n" + " " * indent
    items = ("," + pad).join(map(float.__repr__, probs.tolist()))
    return f"[{pad}{items}\n{' ' * (indent - 2)}]"


def write_distribution_json(path: Path, dist: PositionDistribution) -> None:
    """Keys `cycle`, `halfline` {`first_site`, `probabilities`}, `source`,
    `time`, sorted and indented as `json.dump(indent=2, sort_keys=True)`."""
    cutoff = halfline_cutoff(dist.halfline_probs)
    _write_text(
        path,
        f'{{\n  "cycle": {_json_floats(dist.cycle_probs, 4)},\n'
        f'  "halfline": {{\n    "first_site": 1,\n'
        f'    "probabilities": {_json_floats(dist.halfline_probs[1 : cutoff + 1], 6)}\n'
        f'  }},\n  "source": {json.dumps(dist.source)},\n'
        f'  "time": {dist.time}\n}}\n',
    )


def _record_dict(rec: SummaryRecord) -> dict:
    return {
        "time": rec.time,
        "cycle_total": rec.cycle_total,
        "halfline_total": rec.halfline_total,
        "spike_site": rec.spike_site,
        "spike_height": rec.spike_height,
        "halfline_mean": rec.halfline_mean,
        "halfline_std": rec.halfline_std,
    }


SUMMARY_HEADER = (
    "time,cycle_total,halfline_total,spike_site,spike_height,halfline_mean,halfline_std"
)


def write_summary_csv(path: Path, records: list[SummaryRecord]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for r in records:
            mean = "" if r.halfline_mean is None else format_probability(r.halfline_mean)
            std = "" if r.halfline_std is None else format_probability(r.halfline_std)
            fh.write(
                f"{r.time},{format_probability(r.cycle_total)},"
                f"{format_probability(r.halfline_total)},{r.spike_site},"
                f"{format_probability(r.spike_height)},{mean},{std}\n"
            )


def write_summary_json(path: Path, records: list[SummaryRecord]) -> None:
    payload = {"summaries": [_record_dict(r) for r in records]}
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# --- SVG ------------------------------------------------------------------

WIDTH, HEIGHT = 800, 500
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 60, 20, 40, 45


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]


def _axes(parts: list[str], y_label: str, x_label: str) -> None:
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    parts.append(
        f'<polyline points="{x0},{y1} {x0},{y0} {x1},{y0}" fill="none" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">{y_label}</text>'
    )


def _y_scale_label(parts: list[str], top: float) -> None:
    parts.append(
        f'<text x="{MARGIN_LEFT - 6}" y="{MARGIN_TOP + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{top:.3g}</text>'
    )
    parts.append(
        f'<text x="{MARGIN_LEFT - 6}" y="{HEIGHT - MARGIN_BOTTOM + 4}" '
        f'text-anchor="end" font-family="sans-serif" font-size="11">0</text>'
    )


def render_cycle_svg(dist: PositionDistribution) -> str:
    """Bar profile of the cycle probabilities."""
    probs = dist.cycle_probs
    top = max(float(probs.max()), PRINT_FLOOR)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    n = probs.size
    parts = _svg_open(f"cycle profile, {dist.source} walk, t={dist.time}")
    _axes(parts, "probability", "cycle node")
    _y_scale_label(parts, top)
    slot = plot_w / n
    bar_w = max(slot * 0.8, 1.0)
    for k, p in enumerate(probs):
        h = plot_h * float(p) / top
        x = MARGIN_LEFT + slot * k + (slot - bar_w) / 2
        y = HEIGHT - MARGIN_BOTTOM - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
            f'fill="steelblue"/>'
        )
        if n <= 40 and k % max(1, n // 25) == 0:
            parts.append(
                f'<text x="{x + bar_w / 2:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 14}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="10">{k}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_halfline_svg(dist: PositionDistribution) -> str:
    """Polyline profile of the half-line probabilities out to the print floor."""
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
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    _y_scale_label(parts, top)
    span = max(cutoff - 1, 1)
    # elementwise in the order of the scalar MARGIN_LEFT + plot_w * i / span
    # and HEIGHT - MARGIN_BOTTOM - plot_h * p / top, which fixes the rounding
    coords = [None] * (2 * probs.size)
    coords[0::2] = (MARGIN_LEFT + (plot_w * np.arange(probs.size)) / span).tolist()
    coords[1::2] = (HEIGHT - MARGIN_BOTTOM - (plot_h * probs) / top).tolist()
    points = " ".join(["%.2f,%.2f"] * probs.size) % tuple(coords)
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="firebrick" '
        f'stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        site = 1 + round(span * frac)
        x = MARGIN_LEFT + plot_w * frac
        parts.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{site}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: Path, content: str) -> None:
    _write_text(path, content)
