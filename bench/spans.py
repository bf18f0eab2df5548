"""Per-layer metrics from the spans of a traced pass.

A layer is a module of the package; a span's layer is the part of its name
before the first dot.  A span's self time is its duration minus the part of
its interval that its child spans cover, so the self times of one request
add up to the duration of its root spans.

The time of a traced request outside its spans is measured in parts, each
between two clock readings (the parent's spawn and reap, ``traced_cli``'s
moments around the import, the wrapping and ``main``): interpreter start,
wrapping and exit.  Together with the import time and the self times these
parts must add up to the wall time the parent measured; what is left over
is time no reading covers (between the last wrapping and the root span,
and between the root span's end and ``main`` returning to ``traced_cli``) or
an error in the self-time arithmetic.
"""
from __future__ import annotations

import math
from collections import defaultdict

LAYERS = ("cli", "qcore", "quasi", "shape", "measure", "svgplot", "exactnum")

# functions reported as inclusive time (".s", outermost span of each
# recursion) and as call counts (".calls")
TIMED = ("qcore.q_binomial_box", "exactnum.exact_div", "qcore.q_binomial_partition_dp",
         "quasi.initial_quasipolynomial", "quasi.reciprocal_series",
         "quasi.fit_quasipolynomial", "exactnum.solve_linear_rational", "quasi.arg_shifted",
         "exactnum.taylor_shift", "quasi.coefficient_via_recursion", "shape.limit_shape",
         "shape.cdf", "shape.evaluate", "measure.measure_from_polynomial", "svgplot.render_svg",
         "svgplot.region_fills")
COUNTED = ("qcore.q_binomial_box", "exactnum.exact_div", "exactnum.solve_linear_rational",
           "quasi.arg_shifted", "quasi.coefficient_via_recursion", "shape.cdf", "shape.evaluate")
SELF = ("quasi.region_decomposition", "measure.ks_distance")
CACHES = ("qcore.q_factorial", "quasi.initial_quasipolynomial", "quasi.numerator_expansion",
          "shape.limit_shape")

NAME, START, END, PARENT, ATTRS = range(5)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [s[END] - s[START] - covered(children[i], s[START], s[END]) for i, s in enumerate(spans)]


def outermost(spans, name: str) -> list[int]:
    """Indices of spans named `name` with no ancestor of the same name."""
    found = []
    for i, span in enumerate(spans):
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            found.append(i)
    return found


def fit_exponent(samples) -> float:
    """Slope of log(time) against log(size), with one intercept per group
    (a pooled within-group least-squares fit); samples are (group, size,
    time).  0.0 when no group has two distinct sizes."""
    groups = defaultdict(list)
    for group, size, seconds in samples:
        if size > 0 and seconds > 0:
            groups[group].append((math.log(size), math.log(seconds)))
    num = den = 0.0
    for points in groups.values():
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        num += sum((x - mx) * (y - my) for x, y in points)
        den += sum((x - mx) ** 2 for x, _ in points)
    return num / den if den > 0 else 0.0


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Each trace is a dict with the parent's clock readings "spawned" and
    "reaped", traced_cli's readings "clock", "output_bytes", "spans" and
    "caches".
    """
    m: dict[str, float] = defaultdict(int, dict.fromkeys(
        [layer + ".self_s" for layer in LAYERS] + [name + ".self_s" for name in SELF]
        + [name + ".calls" for name in COUNTED]
        + ["qcore.coeff_bits", "quasi.scan_points", "measure.atoms", "svgplot.svg_bytes"], 0))
    box_fit, regions_fit, ks_fit = [], [], []
    for trace in traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        for span, own in zip(spans, selfs):
            m[span[NAME].split(".")[0] + ".self_s"] += own
            if span[NAME] in SELF:
                m[span[NAME] + ".self_s"] += own
        for name in TIMED:
            m[name + ".s"] += sum(spans[i][END] - spans[i][START] for i in outermost(spans, name))
        for name in COUNTED:
            m[name + ".calls"] += sum(1 for s in spans if s[NAME] == name)
        for name in CACHES:
            m[name + ".hits"] += trace["caches"][name]["hits"]
            m[name + ".misses"] += trace["caches"][name]["misses"]
        boxes = outermost(spans, "qcore.q_binomial_box")
        for i in boxes:
            m["qcore.coeff_bits"] = max(m["qcore.coeff_bits"], spans[i][ATTRS]["bits"])
        if boxes:
            # the first call of a request runs with cold q-factorial caches
            first = spans[boxes[0]]
            box_fit.append((first[ATTRS]["k"], first[ATTRS]["n"] + first[ATTRS]["k"],
                            first[END] - first[START]))
        for i, span in enumerate(spans):
            if span[NAME] == "quasi.region_decomposition":
                m["quasi.scan_points"] += span[ATTRS]["scan_points"]
                base = sum(s[END] - s[START] for s in spans
                           if s[PARENT] == i and s[NAME] == "quasi.initial_quasipolynomial")
                regions_fit.append((span[ATTRS]["k"], span[ATTRS]["n"],
                                    span[END] - span[START] - base))
            elif span[NAME] == "measure.measure_from_polynomial":
                m["measure.atoms"] += span[ATTRS]["atoms"]
            elif span[NAME] == "measure.ks_distance":
                ks_fit.append((span[ATTRS]["k"], span[ATTRS]["atoms"], span[END] - span[START]))
            elif span[NAME] == "svgplot.render_svg":
                m["svgplot.svg_bytes"] += span[ATTRS]["bytes"]
        clock = trace["clock"]
        start = clock["started"] - trace["spawned"]
        install = clock["installed"] - clock["imported"]
        exit_ = trace["reaped"] - clock["returned"]
        m["cli.output_bytes"] += trace["output_bytes"]
        m["cli.import_s"] += clock["imported"] - clock["started"]
        m["trace.wall_s"] += trace["reaped"] - trace["spawned"]
        m["trace.start_s"] += start
        m["trace.exit_s"] += exit_
        m["trace.outside_spans_s"] += start + install + exit_
    m["qcore.q_binomial_box.exp"] = fit_exponent(box_fit)
    m["quasi.region_decomposition.exp"] = fit_exponent(regions_fit)
    m["measure.ks_distance.exp"] = fit_exponent(ks_fit)
    return dict(m)


def closure_error(metrics: dict[str, float]) -> float:
    """Traced wall time minus the sum of the layer self times, the import
    time and the measured parts outside any span: the time that no clock
    reading accounts for."""
    parts = sum(metrics[layer + ".self_s"] for layer in LAYERS)
    return metrics["trace.wall_s"] - parts - metrics["cli.import_s"] - metrics["trace.outside_spans_s"]
