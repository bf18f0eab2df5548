"""Deterministic SVG bar graphs with constant-width/height normalization.

The output is assembled from strings only: no timestamps, no library version
markers, no randomness, so identical inputs always produce byte-identical
files.  Bars are scaled so the tallest bar is exactly height_px tall and the
bars jointly fill exactly width_px, which is what makes graphs of
polynomials of different degrees comparable.  Every number render_svg takes
is an integer, and every coordinate is the correctly rounded float of an
exact rational.
"""
# Region fills in region-index order; black marks transition zones.  Beyond
# the first four the palette repeats after the named extension colors.
REGION_PALETTE = ("red", "yellow", "green", "blue", "orange", "purple", "teal", "magenta")
ZONE_FILL = "black"
BAR_FILL = "steelblue"

_MARGIN = 10
_TITLE_BAND = 30


def _fmt(value) -> str:
    """Fixed-point with up to 3 decimals, trailing zeros stripped."""
    text = f"{float(value):.3f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def render_svg(bar_heights, width_px, height_px, title, overlay=None, region_colors=None) -> str:
    """One bar graph as SVG text.

    bar_heights are non-negative ints, drawn relative to the tallest, so
    any common denominator cancels.  overlay is (values, den): point j sits
    at the horizontal fraction j/(len(values)-1) (0 for a single value) with
    height values[j]/den in bar units, so bars and curve share one scale.
    region_colors gives one fill per bar.  A coordinate past the float range
    raises OverflowError, before any size is printed.
    """
    bars = bar_heights
    if not bars or any(h < 0 for h in bars):
        raise ValueError("need at least one bar, all heights non-negative")
    if region_colors is not None and len(region_colors) != len(bars):
        raise ValueError("region_colors must give one fill per bar")
    if overlay is not None and (not overlay[0] or overlay[1] < 1):
        raise ValueError("an overlay needs at least one value and den >= 1")
    peak = max(bars)
    if peak == 0:
        raise ValueError("all bars are zero")

    base_y = _TITLE_BAND + height_px
    count = len(bars)
    bar_w = _fmt(width_px / count)
    # every coordinate is one int true division, which rounds correctly, so
    # each float is the float of the exact value; a value v is v * height_px
    # / peak pixels tall
    shapes = []
    for i, raw in enumerate(bars):
        h = raw * height_px
        fill = region_colors[i] if region_colors is not None else BAR_FILL
        shapes.append(
            f'<rect class="bar" x="{_fmt((_MARGIN * count + width_px * i) / count)}" '
            f'y="{_fmt((base_y * peak - h) / peak)}" '
            f'width="{bar_w}" height="{_fmt(h / peak)}" fill="{fill}"/>'
        )
    if overlay is not None:
        values, den = overlay
        ud, vd = max(len(values) - 1, 1), den * peak
        points = " ".join(
            f"{_fmt((_MARGIN * ud + j * width_px) / ud)},"
            f"{_fmt((base_y * vd - v * height_px) / vd)}"
            for j, v in enumerate(values)
        )
        shapes.append(
            f'<polyline points="{points}" fill="none" stroke="black" stroke-width="1.5"/>'
        )

    width = width_px + 2 * _MARGIN
    height = height_px + _TITLE_BAND + _MARGIN
    # html.escape(title, quote=False), without importing html
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        *shapes,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def region_fills(num_bars: int, intervals) -> tuple[str, ...]:
    """Per-bar fill colors from the regions' (left, right) intervals, in region
    order; uncovered bars (the transition zones) come out black."""
    fills = [ZONE_FILL] * num_bars
    for r, (left, right) in enumerate(intervals):
        fills[left:right + 1] = [REGION_PALETTE[r % len(REGION_PALETTE)]] * (right + 1 - left)
    return tuple(fills)
