"""Helpers that only the tests use: constructions that no production path
calls, as plain functions over the package's types rather than in its
public API, and the one way the tests start a new interpreter.  Every
helper that more than one test module needs lives here, so no test module
imports another; this module imports no hypothesis, so the acceptance
suite runs without it."""
import bisect
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import accumulate, combinations, zip_longest

import qshape
from qshape.errors import InvalidArguments
from qshape.exactnum import Polynomial, _mul
from qshape.quasi import fit_quasipolynomial, numerator_expansion


def _promote(x):
    """x as a Polynomial: a scalar c becomes the constant polynomial c."""
    return x if isinstance(x, Polynomial) else Polynomial((x,))


def add(a, b):
    """a + b, for polynomials or scalars on either side."""
    return Polynomial(map(sum, zip_longest(_promote(a).coeffs, _promote(b).coeffs, fillvalue=0)))


def neg(p):
    return Polynomial(-c for c in p.coeffs)


def sub(a, b):
    """a - b, for polynomials or scalars on either side."""
    return add(a, neg(_promote(b)))


def mul(a, b):
    """a * b, for polynomials or scalars on either side, by the package's
    one polynomial product."""
    return Polynomial(_mul(_promote(a).coeffs, _promote(b).coeffs))


def monomial(exponent, coefficient=1):
    """coefficient * x^exponent."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return Polynomial((0,) * exponent + (coefficient,))


def value(p, x):
    """p(x) as the plain sum of c_m x^m, term by term: the reference the
    package's Horner loops are checked against."""
    return sum(c * x ** m for m, c in enumerate(_promote(p).coeffs))


def derivative(p):
    return Polynomial(tuple(i * c for i, c in enumerate(p.coeffs) if i))


def scale_arg(p, a):
    """The polynomial p(a * x)."""
    out, power = [], 1
    for c in p.coeffs:
        out.append(c * power)
        power = power * a
    return Polynomial(out)


def q_integer(n):
    """[n]_q = 1 + q + ... + q^(n-1); the zero polynomial for n = 0."""
    if n < 0:
        raise InvalidArguments("q_integer needs n >= 0")
    return Polynomial((1,) * n)


def parts_at_most_k_denominator(k):
    """(1-q)(1-q^2)...(1-q^k): its reciprocal series counts the partitions
    into parts at most k."""
    den = Polynomial((1,))
    for i in range(1, k + 1):
        den = mul(den, sub(1, monomial(i)))
    return den


def series_fit_formulas(n, k):
    """The k region formulas of [n+k choose k]_q, each fitted from its own
    integer series: the numerator terms of blocks <= r, divided by
    (1-q)...(1-q^k) with one prefix sum per class mod i for each factor
    1-q^i, and fitted from the region's left endpoint on."""
    period = math.lcm(*range(1, k + 1))
    terms = numerator_expansion(k)
    formulas = []
    for r in range(k):
        active = [(t.sign * t.multiplicity, t.exponent(n)) for t in terms if t.block <= r]
        left = max(e for _, e in active)
        series = [0] * (left + 2 * k * period)
        for c, e in active:
            series[e] += c
        for i in range(1, k + 1):
            for c in range(i):
                series[c::i] = accumulate(series[c::i])
        formulas.append(fit_quasipolynomial(series[left:], left, period, k - 1))
    return formulas


def count_subspaces_gf2(dim, sub_dim):
    """Brute-force oracle: distinct sub_dim-dimensional subspaces of F_2^dim,
    enumerated as spans of linearly independent vector tuples."""
    nonzero = range(1, 2 ** dim)
    spans = set()
    for vecs in combinations(nonzero, sub_dim):
        span = {0}
        for v in vecs:
            span |= {v ^ w for w in span}
        if len(span) == 2 ** sub_dim:
            spans.add(frozenset(span))
    return len(spans)


def piece_index(shape, x):
    return min(int(x * shape.k), shape.k - 1)


def cdf_oracle(shape, x):
    """The integral from 0 to x, summed from each piece's Fraction
    antiderivative, with every earlier piece integrated again per call."""
    x = Fraction(x)
    i = piece_index(shape, x)
    total = Fraction(0)
    for j in range(i):
        anti = shape.pieces[j].antiderivative()
        total += value(anti, Fraction(j + 1, shape.k)) - value(anti, Fraction(j, shape.k))
    anti = shape.pieces[i].antiderivative()
    return total + value(anti, x) - value(anti, Fraction(i, shape.k))


def ks_grid_scan(em, shape, grid=10 ** 4):
    """Brute-force oracle for the KS distance: scan the CDF difference over a
    uniform grid joined with the atom locations, in plain floats, taking both
    one-sided empirical values at every candidate point."""
    antis = [p.antiderivative() for p in shape.pieces]
    breaks = [i / shape.k for i in range(shape.k + 1)]
    prefix = [0.0]
    for i, anti in enumerate(antis):
        prefix.append(
            prefix[-1]
            + float(anti.evaluate(breaks[i + 1]))
            - float(anti.evaluate(breaks[i]))
        )

    def cdf(x):
        i = min(int(x * shape.k), shape.k - 1)
        coeffs = [float(c) for c in antis[i].coeffs]
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        base = 0.0
        for c in reversed(coeffs):
            base = base * breaks[i] + c
        return prefix[i] + acc - base

    locations = [float(a) for a, _ in em.atoms]
    cumulative = []
    running = 0.0
    for _, mass in em.atoms:
        running += float(mass)
        cumulative.append(running)
    best = 0.0
    for x in sorted(set([j / grid for j in range(grid + 1)] + locations)):
        target = cdf(x)
        hi = bisect.bisect_right(locations, x)
        lo = bisect.bisect_left(locations, x)
        at = cumulative[hi - 1] if hi else 0.0
        before = cumulative[lo - 1] if lo else 0.0
        best = max(best, abs(at - target), abs(before - target))
    return best


def hammer(calls, threads=8):
    """Run every (fn, args) call from `threads` threads at once, each
    starting at a different offset, with a tiny switch interval; returns
    each thread's ((fn, args), result) pairs."""
    results = [[] for _ in range(threads)]

    def worker(slot):
        for fn, args in calls[slot:] + calls[:slot]:
            results[slot].append(((fn, args), fn(*args)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    return results


def cli_env(unbuffered=False):
    """The caller's environment with this package on the path and stdout
    buffered (the default) or, with `unbuffered`, PYTHONUNBUFFERED=1."""
    src = os.path.dirname(os.path.dirname(qshape.__file__))
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(*args, unbuffered=False, timeout=60, **kwargs):
    """subprocess.run of a new interpreter on `args`, in cli_env(unbuffered)."""
    return subprocess.run([sys.executable, *args], env=cli_env(unbuffered), timeout=timeout,
                          **kwargs)
