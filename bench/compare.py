"""Compare two commits with the benchmark, by alternating pairs of runs.

    python3 bench/compare.py run --base DIR --head DIR --workload W [--out results.json]
    python3 bench/compare.py report results.json

``run`` makes PAIRS (10) pairs.  Pair i uses seed FIRST_SEED + i (1000 + i)
on both sides and runs the base first when i is even and the head first
when it is odd.  Both checkouts must hold the same benchmark files, so both
commits are measured by identical code.  ``report`` prints, for every
end-to-end metric, each side's median and quartiles and the number of
pairs the head wins, and one verdict:

* gain: the head wins at least 9 of 10 pairs (ties count for neither) and
  the medians differ by more than the base's quartile distance;
* unresolved: either side's quartile distance exceeds the metric's bound
  as a share of its median, unless every head run beats every base run;
* regression: the head's median is worse than the base's by more than the
  bound;
* within bound: otherwise.

A gain does not count when the head fails more requests than the base.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PAIRS = 10  # the 9-of-10 rule needs ten pairs
FIRST_SEED = 1000  # apart from the seeds a benchmark run uses by default


def bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "bench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(base: Path, head: Path, workload: str) -> list[dict]:
    if bench_digest(base) != bench_digest(head):
        raise SystemExit("compare: the two checkouts hold different benchmark files")
    results = []
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = (("base", base), ("head", head)) if i % 2 == 0 else (("head", head), ("base", base))
        for side, checkout in order:
            result = run_once(checkout, workload, seed)
            results.append({"pair": i, "side": side, "seed": seed, "workload": workload,
                            "result": result})
            print(f"pair {i} {side}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
    return results


def verdict(base: list[float], head: list[float], bound: float, better: str) -> dict:
    """Statistics and verdict for one metric; base[i] and head[i] form pair i."""
    sign = 1 if better == "lower" else -1
    bq1, bmed, bq3 = statistics.quantiles(base, n=4)
    hq1, hmed, hq3 = statistics.quantiles(head, n=4)
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    worse_share = sign * (hmed - bmed) / bmed
    spread = max((bq3 - bq1) / bmed, (hq3 - hq1) / hmed)
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if wins >= 0.9 * len(base) and sign * (bmed - hmed) > bq3 - bq1:
        outcome = "gain"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif worse_share > bound:
        outcome = "regression"
    else:
        outcome = "within bound"
    return {"base": (bq1, bmed, bq3), "head": (hq1, hmed, hq3), "wins": wins,
            "pairs": len(base), "change": (hmed - bmed) / bmed,
            "spread": spread, "outcome": outcome}


def report(results: list[dict]) -> None:
    by_side = {"base": {}, "head": {}}
    for entry in results:
        by_side[entry["side"]][entry["pair"]] = entry["result"]
    pairs = sorted(set(by_side["base"]) & set(by_side["head"]))
    if len(pairs) != PAIRS:
        raise SystemExit(f"compare: {len(pairs)} complete pairs; a verdict needs {PAIRS}")
    failed = {side: sum(by_side[side][p]["failed"] for p in pairs) for side in by_side}
    print(f"{len(pairs)} pairs; failed requests: base {failed['base']}, head {failed['head']}")
    print(f"{'metric':16s} {'unit':5s} {'base q1/median/q3':>30s} {'head q1/median/q3':>30s} "
          f"{'wins':>6s} {'change':>8s} {'spread':>7s} verdict")
    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        base = [by_side["base"][p]["metrics"][name]["value"] for p in pairs]
        head = [by_side["head"][p]["metrics"][name]["value"] for p in pairs]
        v = verdict(base, head, metric["bound"], metric["better"])
        if v["outcome"] == "gain" and failed["head"] > failed["base"]:
            v["outcome"] = "no gain: more failures"
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
        print(f"{name:16s} {metric['unit']:5s} {fmt(v['base']):>30s} {fmt(v['head']):>30s} "
              f"{v['wins']:>3d}/{v['pairs']:<2d} {v['change']:>+8.1%} {v['spread']:>7.1%} "
              f"{v['outcome']} (bound {metric['bound']:.0%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--base", type=Path, required=True)
    p.add_argument("--head", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--out", type=Path, default=Path("compare-results.json"))
    p = sub.add_parser("report")
    p.add_argument("results", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "run":
        results = run_pairs(args.base.resolve(), args.head.resolve(), args.workload)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    else:
        results = json.loads(args.results.read_text())
    report(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
