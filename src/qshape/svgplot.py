"""Deterministic SVG bar graphs with constant-width/height normalization.

The output is assembled from strings only: no timestamps, no library version
markers, no randomness, so identical inputs always produce byte-identical
files.  Bars are scaled so the tallest bar is exactly height_px tall and the
bars jointly fill exactly width_px, which is what makes graphs of
polynomials of different degrees comparable.  Every number in a PlotSpec
is an integer, and every coordinate is the correctly rounded float of an
exact rational.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

# Region fills in region-index order; black marks transition zones.  Beyond
# the first four the palette repeats after the named extension colors.
REGION_PALETTE = ("red", "yellow", "green", "blue", "orange", "purple", "teal", "magenta")
ZONE_FILL = "black"
BAR_FILL = "steelblue"

_MARGIN = 10
_TITLE_BAND = 30


class PlotSpec(NamedTuple):
    """Everything needed to render one bar graph.

    bar_heights are non-negative ints, drawn relative to the tallest, so
    any common denominator cancels.  overlay is (values, den): point j sits
    at the horizontal fraction j/(len(values)-1) (0 for a single value) with
    height values[j]/den in bar units, so bars and curve share one scale.
    """

    bar_heights: tuple[int, ...]
    width_px: int
    height_px: int
    title: str
    overlay: Optional[tuple[tuple[int, ...], int]] = None
    region_colors: Optional[tuple[str, ...]] = None


def _fmt(value) -> str:
    """Fixed-point with up to 3 decimals, trailing zeros stripped."""
    text = f"{float(value):.3f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def render_svg(spec: PlotSpec) -> str:
    bars = spec.bar_heights
    if not bars or any(h < 0 for h in bars):
        raise ValueError("need at least one bar, all heights non-negative")
    if spec.region_colors is not None and len(spec.region_colors) != len(bars):
        raise ValueError("region_colors must give one fill per bar")
    if spec.overlay is not None and (not spec.overlay[0] or spec.overlay[1] < 1):
        raise ValueError("an overlay needs at least one value and den >= 1")
    peak = max(bars)
    if peak == 0:
        raise ValueError("all bars are zero")

    width = spec.width_px + 2 * _MARGIN
    height = spec.height_px + _TITLE_BAND + _MARGIN
    base_y = _TITLE_BAND + spec.height_px
    count = len(bars)
    bar_w = _fmt(spec.width_px / count)

    # html.escape(title, quote=False), without importing html
    title = spec.title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # every coordinate is one int true division, which rounds correctly, so
    # each float is the float of the exact value; a value v is v * height_px
    # / peak pixels tall
    for i, raw in enumerate(bars):
        h = raw * spec.height_px
        fill = spec.region_colors[i] if spec.region_colors is not None else BAR_FILL
        lines.append(
            f'<rect class="bar" x="{_fmt((_MARGIN * count + spec.width_px * i) / count)}" '
            f'y="{_fmt((base_y * peak - h) / peak)}" '
            f'width="{bar_w}" height="{_fmt(h / peak)}" fill="{fill}"/>'
        )
    if spec.overlay is not None:
        values, den = spec.overlay
        ud, vd = max(len(values) - 1, 1), den * peak
        points = " ".join(
            f"{_fmt((_MARGIN * ud + j * spec.width_px) / ud)},"
            f"{_fmt((base_y * vd - v * spec.height_px) / vd)}"
            for j, v in enumerate(values)
        )
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def region_fills(num_bars: int, regions) -> tuple[str, ...]:
    """Per-bar fill colors from region intervals; uncovered bars (the
    transition zones) come out black."""
    fills = [ZONE_FILL] * num_bars
    for region in regions:
        color = REGION_PALETTE[region.index % len(REGION_PALETTE)]
        for i in range(region.left, region.right + 1):
            fills[i] = color
    return tuple(fills)
