"""Seeded request lists for the three benchmark workloads.

A request is a tuple of ``qshape`` arguments.  ``OUT`` stands for the SVG
path of a ``plot`` request and is replaced by a scratch path when the
request runs; request keys (for goldens) keep the placeholder.

Each workload is a list of slots.  A slot fixes the command and a narrow
range of sizes; the seed picks the concrete size, k and output format
inside it.  Because cost depends mostly on size, every seed gives a list of
nearly the same total cost and the same cost profile, which is what keeps
wall time and the latency percentiles comparable across seeds.
"""
from __future__ import annotations

import math
import random

OUT = "OUT.svg"
FORMATS = ("coeffs", "csv", "json")
WORKLOADS = ("box", "regions", "shape")


def min_region_n(k: int) -> int:
    """Smallest n that ``qshape regions`` accepts for k: 2 lcm(1..k)."""
    return 2 * math.lcm(*range(1, k + 1))


def _n_list(rng: random.Random, lo: int, hi: int, below: int | None = None) -> str:
    """Increasing n list whose last entry lies in [lo, hi], with up to two
    smaller entries in [2, below) (default [2, lo))."""
    top = rng.randint(lo, hi)
    smaller = rng.sample(range(2, below or lo), rng.randint(0, 2))
    return ",".join(str(n) for n in sorted(smaller) + [top])


def _balanced(rng: random.Random, choices: tuple, count: int) -> list:
    """`count` picks from `choices`, each as often as possible, in seeded order."""
    start = rng.randrange(len(choices))
    picks = [choices[(start + i) % len(choices)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def _box(rng: random.Random) -> list[tuple[str, ...]]:
    # qbinom cost grows about as (n+k)^4 (the q-factorial quotient); at
    # fixed n+k, k = 4 costs a few percent more than k = 2.  Each slot fixes
    # n+k and the seed picks k (equally often in each group of slots), the
    # format and the order, so every seed has the same cost profile.  Of the
    # 38 requests, 15 lie below n+k = 50; the median falls in the middle of
    # 7 requests at n+k = 50 and the tail percentile (the 28th request) in
    # the middle of 11 at n+k = 58, so that each is a middle value of a
    # group of equal cost, not one noisy sample.  The ten requests beyond
    # the tail are 5 of that group, qbinom at n+k = 72 and 100 and the three
    # converge requests, whose smaller n cost little.
    groups = (tuple(range(40, 47)) * 2 + (47,), (50,) * 7, (58,) * 11, (72, 100))
    requests = []
    for group in groups:
        for total, k in zip(group, _balanced(rng, (2, 3, 4), len(group))):
            requests.append(("qbinom", "--n", str(total - k), "--k", str(k),
                             "--format", rng.choice(FORMATS)))
    for top, k in zip((70, 80, 90), _balanced(rng, (2, 3, 4), 3)):
        requests.append(("converge", "--k", str(k),
                         "--n-list", _n_list(rng, top - k, top - k, below=30)))
    return requests


def _regions(rng: random.Random) -> list[tuple[str, ...]]:
    # Sorted by cost, the k = 4 requests and plots come first (12), then
    # k = 5 (10; cost rises smoothly with n), then k = 6 (17; the base fit
    # over period 60).  The median falls in the middle of the k = 5 group.
    # The tail percentile (the 29th of 39 requests) is about the 6th of the
    # k = 6 group: a k = 6 request with ten others beyond it, but not the
    # cheapest one or two, whose times scatter most from seed to seed.
    requests = []
    for k, count in ((4, 6), (5, 10), (6, 17)):
        lo = min_region_n(k)
        step = lo / count
        for i, fmt in enumerate(_balanced(rng, FORMATS, count)):
            n = rng.randint(lo + int(i * step), lo + int((i + 1) * step) - 1)
            requests.append(("regions", "--n", str(n), "--k", str(k), "--format", fmt))
    for i in range(6):
        n = rng.randint(24 + 4 * i, 27 + 4 * i)
        requests.append(("plot", "--n", str(n), "--k", "4", "--color-regions",
                         "--out", OUT))
    return requests


def _shape(rng: random.Random) -> list[tuple[str, ...]]:
    requests = []
    for i in range(20):
        top = 8 + 4 * (i // 4)
        requests.append(("converge", "--k", str(5 + i % 4),
                         "--n-list", _n_list(rng, top - 2, top)))
    for _ in range(10):
        requests.append(("shape", "--k", str(rng.randint(6, 10)), "--exact"))
    for i in range(16):
        samples = rng.randint(1000 + 187 * i, 1187 + 187 * i)
        requests.append(("shape", "--k", str(rng.randint(6, 10)), "--samples", str(samples)))
    for n in range(5, 21):
        requests.append(("plot", "--n", str(n), "--k", str(rng.randint(5, 8)),
                         "--overlay", "--out", OUT))
    return requests


_BUILDERS = {"box": _box, "regions": _regions, "shape": _shape}


def build(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The request list of `workload` for `seed`; the same seed gives the
    same list, in the same order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    requests = _BUILDERS[workload](rng)
    rng.shuffle(requests)
    return requests


def key(request: tuple[str, ...]) -> str:
    """Stable text key of a request, used for goldens and reports."""
    return " ".join(request)
