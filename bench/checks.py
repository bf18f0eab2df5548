"""Output checks that run outside the timed section.

Two kinds:

* goldens: SHA-256 digests of stdout and of the SVG, per request key,
  captured from the unmodified package (``goldens.json``);
* certificates: recomputed here from first principles for any seed, with
  no code from the package.  The q-binomial comes from the product formula
  prod_{i=1..k} (1 - q^(n+i)) / (1 - q^i) over plain integers; the limit
  shape L_k and its CDF from the Irwin-Hall closed form.

Every check returns a list of problems; an empty list means the output
passed.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from fractions import Fraction

REGION_PALETTE = ("red", "yellow", "green", "blue", "orange", "purple", "teal", "magenta")
PLOT_WIDTH, PLOT_HEIGHT, MARGIN, TITLE_BAND, OVERLAY_SAMPLES = 800, 300, 10, 30, 512


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.lru_cache(maxsize=None)
def box_coefficients(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of [n+k choose k]_q by the product formula, as power
    series truncated at degree n*k: multiply by (1 - q^(n+i)) with one
    descending pass, divide by (1 - q^i) with one ascending prefix sum."""
    top = n * k
    c = [1] + [0] * top
    for i in range(1, k + 1):
        e = n + i
        for j in range(top, e - 1, -1):
            c[j] -= c[j - e]
        for j in range(i, top + 1):
            c[j] += c[j - i]
    return tuple(c)


def density(k: int, x: Fraction) -> Fraction:
    """L_k(x) = k IH_k(kx), with IH_k the Irwin-Hall density."""
    t = k * x
    last = min(int(t), k - 1)
    total = sum((-1) ** j * math.comb(k, j) * (t - j) ** (k - 1) for j in range(last + 1))
    return Fraction(k * total, math.factorial(k - 1))


def cdf(k: int, x: Fraction) -> Fraction:
    """Integral of L_k from 0 to x: the Irwin-Hall CDF at kx."""
    t = k * x
    total = sum((-1) ** j * math.comb(k, j) * (t - j) ** k for j in range(int(t) + 1))
    return Fraction(total, math.factorial(k))


@functools.lru_cache(maxsize=None)
def ks_distance(n: int, k: int) -> Fraction:
    """Exact KS distance between the coefficient measure of [n+k choose k]_q
    and L_k, taken at each atom and just left of it."""
    coeffs = box_coefficients(n, k)
    total = sum(coeffs)
    d = len(coeffs) - 1
    best = Fraction(0)
    below = 0
    for i, c in enumerate(coeffs):
        target = cdf(k, Fraction(i, d)) if d else Fraction(0)
        above = below + c
        best = max(best, abs(Fraction(below, total) - target), abs(Fraction(above, total) - target))
        below = above
    return best


def rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def svg_number(value) -> str:
    """The SVG number format: fixed point, 3 decimals, zeros stripped."""
    text = f"{float(value):.3f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?) ?)?(?:([a-z])(?:\^(\d+))?)?$")


def parse_poly(text: str) -> list[Fraction]:
    """Ascending coefficients of a polynomial printed as "1/2 m^2 - m + 3"."""
    if text == "0":
        return []
    parts = re.split(r" ([+-]) ", text)
    signs = ["-" if parts[0].startswith("-") else "+"] + parts[1::2]
    bodies = [parts[0].lstrip("-")] + parts[2::2]
    coeffs: dict[int, Fraction] = {}
    for sign, body in zip(signs, bodies):
        match = _TERM.match(body)
        if not body or not match:
            raise ValueError(f"bad term {body!r}")
        mag, var, power = match.groups()
        exponent = int(power) if power else (1 if var else 0)
        value = Fraction(mag) if mag else Fraction(1)
        coeffs[exponent] = coeffs.get(exponent, 0) + (-value if sign == "-" else value)
    return [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]


def evaluate(coeffs: list[Fraction], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _arg(request: tuple[str, ...], flag: str) -> str | None:
    return request[request.index(flag) + 1] if flag in request else None


def _check_qbinom(request, text: str) -> list[str]:
    n, k = int(_arg(request, "--n")), int(_arg(request, "--k"))
    fmt = _arg(request, "--format") or "coeffs"
    lines = text.splitlines()
    if fmt == "coeffs":
        got = [int(line) for line in lines]
    elif fmt == "csv":
        if lines[0] != "index,coefficient":
            return ["csv header"]
        rows = [line.split(",") for line in lines[1:]]
        if [int(i) for i, _ in rows] != list(range(len(rows))):
            return ["csv index column"]
        got = [int(c) for _, c in rows]
    else:
        doc = json.loads(text)
        if (doc["n"], doc["k"], doc["degree"]) != (n, k, n * k):
            return ["json n/k/degree"]
        got = doc["coefficients"]
    problems = []
    if sum(got) != math.comb(n + k, k):
        problems.append("coefficient sum differs from C(n+k, k)")
    if got != got[::-1]:
        problems.append("coefficients not symmetric")
    if tuple(got) != box_coefficients(n, k):
        problems.append("coefficients differ from the product formula")
    return problems


def _parse_regions(fmt: str, text: str):
    """(regions, zones): regions as (index, left, right, valid_from, period,
    residue polynomials), zones as (left, right, values)."""
    regions, zones = [], []
    if fmt == "json":
        doc = json.loads(text)
        for r in doc["regions"]:
            polys = [[Fraction(c) for c in p] for p in r["residue_polynomials"]]
            regions.append((r["index"], r["left"], r["right"], r["valid_from"], r["period"], polys))
        zones = [(z["left"], z["right"], z["coefficients"]) for z in doc["transition_zones"]]
    elif fmt == "csv":
        lines = text.splitlines()
        if lines[0] != "kind,index,left,right,valid_from,period,residue,formula":
            raise ValueError("csv header")
        by_index: dict[int, list] = {}
        for line in lines[1:]:
            f = line.split(",")
            if f[0] == "region":
                index, left, right, valid, period, residue = map(int, f[1:7])
                entry = by_index.setdefault(index, [index, left, right, valid, period, []])
                if residue != len(entry[5]):
                    raise ValueError("csv residues out of order")
                entry[5].append(parse_poly(f[7]))
            elif f[0] == "zone":
                zones.append((int(f[2]), int(f[3]), [int(v) for v in f[7].split()]))
            else:
                raise ValueError(f"csv kind {f[0]!r}")
        regions = [tuple(e) for e in by_index.values()]
    else:
        head = re.compile(r"region (\d+): interval \[(\d+), (\d+)\] \(formula valid from "
                          r"(\d+)\), period (\d+), degree (\d+)$")
        residue = re.compile(r"  m = (\d+) \(mod (\d+)\): (.+)$")
        zone = re.compile(r"transition zone \[(\d+), (\d+)\]: (.*)$")
        for line in text.splitlines():
            if m := head.match(line):
                regions.append([*map(int, m.groups()[:5]), []])
            elif m := residue.match(line):
                if int(m.group(1)) != len(regions[-1][5]):
                    raise ValueError("residues out of order")
                regions[-1][5].append(parse_poly(m.group(3)))
            elif m := zone.match(line):
                zones.append((int(m.group(1)), int(m.group(2)), [int(v) for v in m.group(3).split()]))
            else:
                raise ValueError(f"unexpected line {line[:40]!r}")
    return regions, zones


def _check_regions(request, text: str) -> list[str]:
    n, k = int(_arg(request, "--n")), int(_arg(request, "--k"))
    regions, zones = _parse_regions(_arg(request, "--format") or "coeffs", text)
    true = box_coefficients(n, k)
    problems = []
    if [r[0] for r in regions] != list(range(k)) or len(zones) != k - 1:
        problems.append(f"{len(regions)} regions and {len(zones)} zones for k={k}")
    for index, left, right, valid_from, period, polys in regions:
        if len(polys) != period:
            problems.append(f"region {index}: {len(polys)} residue polynomials, period {period}")
            continue
        for m in (left, right, valid_from):
            if not 0 <= m < len(true) or evaluate(polys[m % period], m) != true[m]:
                problems.append(f"region {index}: formula wrong at m={m}")
    for left, right, values in zones:
        if values != list(true[left:right + 1]):
            problems.append(f"zone [{left}, {right}]: values differ from the coefficients")
    return problems


def _check_converge(request, text: str) -> list[str]:
    k = int(_arg(request, "--k"))
    ns = [int(v) for v in _arg(request, "--n-list").split(",")]
    lines = text.splitlines()
    expected = ["n,ks"] + [f"{n},{float(ks_distance(n, k)):.12g}" for n in ns]
    return [] if lines == expected else ["KS rows differ from the exact recomputation"]


def _check_shape(request, text: str) -> list[str]:
    k = int(_arg(request, "--k"))
    lines = text.splitlines()
    samples = _arg(request, "--samples")
    if samples is None:
        if len(lines) != k:
            return [f"{len(lines)} pieces for k={k}"]
        for i, line in enumerate(lines):
            prefix = f"piece {i} on [{rat(Fraction(i, k))}, {rat(Fraction(i + 1, k))}]: "
            if not line.startswith(prefix):
                return [f"piece {i} header"]
            poly = parse_poly(line[len(prefix):])
            # a polynomial of degree < k is fixed by its values at k points
            points = [Fraction(i, k) + Fraction(t, k * k) for t in range(k)]
            if len(poly) > k or any(evaluate(poly, x) != density(k, x) for x in points):
                return [f"piece {i} differs from the Irwin-Hall closed form"]
        return []
    count = int(samples)
    if lines[0] != "x,value" or len(lines) != count + 1:
        return ["samples header or row count"]
    for j, line in enumerate(lines[1:]):
        x = Fraction(j, count - 1) if count > 1 else Fraction(0)
        if line != f"{rat(x)},{rat(density(k, x))}":
            return [f"sample row {j} differs from the Irwin-Hall closed form"]
    return []


_BAR = re.compile(r'<rect class="bar" x="([^"]*)" y="([^"]*)" width="([^"]*)" '
                  r'height="([^"]*)" fill="([^"]*)"/>')
_POLYLINE = re.compile(r'<polyline points="([^"]*)"')


def expected_fills(n: int, k: int) -> list[str]:
    """Bar fills of ``plot --color-regions``: region r covers
    [r n + r(r+1)/2 + r(k-r), (r+1) n + (r+1)(r+2)/2 - 1] (the last region
    ends at n k), and the transition zones between regions are black."""
    fills = ["black"] * (n * k + 1)
    for r in range(k):
        left = r * n + r * (r + 1) // 2 + r * (k - r)
        right = n * k if r == k - 1 else (r + 1) * n + (r + 1) * (r + 2) // 2 - 1
        for i in range(left, right + 1):
            fills[i] = REGION_PALETTE[r % len(REGION_PALETTE)]
    return fills


def _check_plot(request, text: str, svg: bytes | None) -> list[str]:
    if text:
        return ["plot wrote to stdout"]
    if svg is None:
        return ["no SVG written"]
    n, k = int(_arg(request, "--n")), int(_arg(request, "--k"))
    coeffs = box_coefficients(n, k)
    doc = svg.decode("utf-8")
    bars = _BAR.findall(doc)
    if len(bars) != len(coeffs):
        return [f"{len(bars)} bars, expected {len(coeffs)}"]
    peak = max(coeffs)
    base_y = TITLE_BAND + PLOT_HEIGHT
    width = Fraction(PLOT_WIDTH, len(coeffs))
    fills = expected_fills(n, k) if "--color-regions" in request else ["steelblue"] * len(coeffs)
    for i, (c, fill) in enumerate(zip(coeffs, fills)):
        h = Fraction(c * PLOT_HEIGHT, peak)
        expected = (svg_number(MARGIN + width * i), svg_number(base_y - h),
                    svg_number(width), svg_number(h), fill)
        if bars[i] != expected:
            return [f"bar {i} differs: {bars[i]} != {expected}"]
    polyline = _POLYLINE.search(doc)
    if "--overlay" in request:
        if not polyline:
            return ["overlay missing"]
        scale = Fraction(PLOT_HEIGHT, peak) * sum(coeffs) / len(coeffs)
        expected_points = " ".join(
            f"{svg_number(MARGIN + u * PLOT_WIDTH)},{svg_number(base_y - density(k, u) * scale)}"
            for u in (Fraction(j, OVERLAY_SAMPLES) for j in range(OVERLAY_SAMPLES + 1)))
        if polyline.group(1) != expected_points:
            return ["overlay curve differs from L_k"]
    elif polyline:
        return ["unexpected overlay"]
    return []


_CHECKS = {"qbinom": _check_qbinom, "regions": _check_regions,
           "converge": _check_converge, "shape": _check_shape}


def certify(request: tuple[str, ...], stdout: bytes, svg: bytes | None) -> list[str]:
    """Problems found by the independent certificates for one output."""
    try:
        text = stdout.decode("utf-8")
        if request[0] == "plot":
            return _check_plot(request, text, svg)
        return _CHECKS[request[0]](request, text)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"unparsable output: {exc!r}"]


def compare_golden(golden: dict | None, stdout: bytes, svg: bytes | None) -> list[str]:
    """Problems found by comparing digests with a golden entry (none when the
    request has no golden)."""
    if golden is None:
        return []
    problems = []
    if golden["stdout"] != digest(stdout):
        problems.append("stdout digest differs from the golden")
    if golden.get("svg") != (digest(svg) if svg is not None else None):
        problems.append("SVG digest differs from the golden")
    return problems
