"""Benchmark of the ``qshape`` CLI: one closed-loop client, one request at a time.

    python3 bench/run.py --workload box|regions|shape --seed N --seconds S --trace 0|1

Each request runs as ``python -m qshape.cli ARGS`` in a fresh process with
``src/`` on PYTHONPATH, exactly as a user would run it; nothing is
installed.  A run replays the seeded request list in passes while another
pass still fits in S seconds (always at least one).

* ``--trace 0``: untraced passes, with runs of ``qshape --version`` spread
  over them for the set-up time; reports the end-to-end metrics.
* ``--trace 1``: each request runs untraced and traced (through
  ``traced_cli.py``) back to back, alternating which goes first; reports
  the per-layer metrics.

Every output is checked after the timed section: against golden digests
where the request has one, and by independent certificates
(``checks.py``).  The last line of stdout is one JSON object.

``--write-goldens`` records the digests of the seed's outputs into
``goldens.json`` instead.  Run it only on the commit that fixes the
expected outputs, never to make a failing check pass.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens.json"
DEFAULT_SEED = 0
VERSION = ("--version",)
SETUP_PROBES = 12  # runs of `qshape --version` spread over each untraced pass
TIMEOUT_S = 60.0
CLOSURE_S = 1e-4  # time per traced request that no clock reading may miss
REFERENCE_S = 0.003  # nominal time of one slowness probe: slowness 1.0


@dataclass
class Execution:
    """One run of one request."""

    request: tuple[str, ...]
    stdout: Path | None = None
    stderr: Path | None = None
    svg: Path | None = None
    spans: Path | None = None
    started: float = 0.0  # perf_counter just before the spawn
    ended: float = 0.0  # perf_counter just after the reap
    cpu: float = 0.0
    maxrss_kb: int = 0
    status: int = 0
    timed_out: bool = False
    slowness: float = 1.0
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.ended - self.started

    @property
    def corrected(self) -> float:
        """Wall time at the reference machine speed."""
        return self.wall / self.slowness


def slowness() -> float:
    """Current machine slowness: the fastest of three runs of a fixed piece
    of exact arithmetic like the package's own (the product formula for
    [604 choose 4]_q, then a sum of Fractions), in units of REFERENCE_S.

    On a shared machine the speed of a core drifts by a third within
    seconds, as other tenants come and go.  Dividing each request's wall
    time by the slowness measured just before and just after it, on the
    same core, removes most of that drift from the end-to-end metrics.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        coeffs = checks.box_coefficients.__wrapped__(600, 4)
        sum(Fraction(c, j) for j, c in enumerate(coeffs[1:300], 1))
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_S


def spawn(argv: list[str], stdout: Path, stderr: Path, timeout: float):
    """Run argv to completion; returns (perf_counter at the spawn and after
    the reap, exit code, rusage, timed out).  The child is killed at the
    timeout and always reaped."""
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(stdout), write, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), write, 0o644)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    end = time.perf_counter()
    return start, end, os.waitstatus_to_exitcode(status), usage, timed_out


def execute(request, tag: str, work: Path, traced: bool) -> Execution:
    ex = Execution(request, stdout=work / f"{tag}.out", stderr=work / f"{tag}.err")
    args = list(request)
    if workloads.OUT in args:
        ex.svg = work / f"{tag}.svg"
        args[args.index(workloads.OUT)] = str(ex.svg)
    if traced:
        ex.spans = work / f"{tag}.spans.json"
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(ex.spans), *args]
    else:
        argv = [sys.executable, "-m", "qshape.cli", *args]
    ex.started, ex.ended, ex.status, usage, ex.timed_out = spawn(argv, ex.stdout, ex.stderr,
                                                                 TIMEOUT_S)
    ex.cpu = usage.ru_utime + usage.ru_stime
    ex.maxrss_kb = usage.ru_maxrss
    return ex


class Probed:
    """Runs processes with a slowness probe before the first and after each;
    every run gets the mean slowness of the probes around it."""

    def __init__(self, work: Path):
        self.work = work
        self.before = slowness()

    def __call__(self, request, tag: str, traced: bool = False) -> Execution:
        ex = execute(request, tag, self.work, traced)
        after = slowness()
        ex.slowness, self.before = (self.before + after) / 2, after
        return ex


def run_pass(requests, index: int, work: Path, setup: list | None = None) -> list[Execution]:
    """One untraced pass.  With a `setup` list, also runs ``qshape
    --version`` SETUP_PROBES times, spread evenly over the pass, and appends
    those runs to it."""
    every = max(1, len(requests) // SETUP_PROBES)
    done, timed = [], Probed(work)
    for i, request in enumerate(requests):
        if setup is not None and i % every == 0:
            setup.append(timed(VERSION, f"v{index}-{i}"))
        done.append(timed(request, f"u{index}-{i}"))
    return done


def run_paired_pass(requests, index: int, work: Path):
    """Each request untraced and traced back to back, alternating which runs
    first, so that drifts in machine speed cancel in the tracing overhead."""
    plain, traced, timed = [], [], Probed(work)
    for i, request in enumerate(requests):
        for flag in ((False, True) if i % 2 == 0 else (True, False)):
            tag = f"{'t' if flag else 'u'}{index}-{i}"
            (traced if flag else plain).append(timed(request, tag, flag))
    return plain, traced


def measure_loop(requests, work: Path, seconds: float, traced: bool, setup: list):
    """Passes while another one still fits in `seconds`; always at least
    one.  Each pass is (untraced runs, traced runs or None)."""
    deadline = time.perf_counter() + seconds
    passes, last = [], 0.0
    while not passes or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        if traced:
            passes.append(run_paired_pass(requests, len(passes), work))
        else:
            passes.append((run_pass(requests, len(passes), work, setup), None))
        last = time.perf_counter() - started
    return passes


class Verifier:
    """Checks outputs after the timed section.  Outputs of one request must
    be byte-identical across passes (traced or not); each distinct output is
    certified once."""

    def __init__(self, goldens: dict, require_goldens: bool):
        self.goldens = goldens
        self.require_goldens = require_goldens
        self.seen: dict[str, tuple] = {}
        self.verdicts: dict[tuple, list[str]] = {}

    def __call__(self, ex: Execution) -> list[str]:
        if ex.timed_out:
            return [f"timed out after {TIMEOUT_S:.0f} s"]
        if ex.status != 0:
            tail = ex.stderr.read_text(errors="replace").strip()[-200:]
            return [f"exit status {ex.status}: {tail}"]
        out = ex.stdout.read_bytes()
        svg = ex.svg.read_bytes() if ex.svg is not None and ex.svg.exists() else None
        key = workloads.key(ex.request)
        digests = (checks.digest(out), checks.digest(svg) if svg is not None else None)
        if self.seen.setdefault(key, digests) != digests:
            return ["output differs from an earlier run of the same request"]
        if (key, digests) not in self.verdicts:
            golden = self.goldens.get(key)
            problems = checks.compare_golden(golden, out, svg)
            if golden is None and self.require_goldens:
                problems.append("no golden digest for a default-seed request")
            self.verdicts[key, digests] = problems + checks.certify(ex.request, out, svg)
        return self.verdicts[key, digests]


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten values beyond it,
    and that percentile."""
    if len(values) < 11:
        raise ValueError(f"{len(values)} samples: a tail needs at least 11")
    ordered = sorted(values)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(requests, passes, setup: list[Execution]) -> tuple[dict, dict]:
    """End-to-end metrics from times corrected for machine slowness; a
    request's latency is its median over passes."""
    plain = [done for done, _ in passes]
    executions = [ex for done in plain for ex in done]
    per_request = [statistics.median(done[i].corrected for done in plain)
                   for i in range(len(requests))]
    tail_value, percentile = tail(per_request)
    metrics = {
        "wall_s": statistics.median(sum(ex.corrected for ex in done) for done in plain),
        "latency_p50_s": statistics.median(per_request),
        "latency_tail_s": tail_value,
        "cpu_s": statistics.median(sum(ex.cpu / ex.slowness for ex in done) for done in plain),
        "peak_rss_mb": max(ex.maxrss_kb for ex in executions) / 1024,
        "setup_s": statistics.median(ex.corrected for ex in setup),
    }
    raw = statistics.median(sum(ex.wall for ex in done) for done in plain)
    slow = statistics.median(ex.slowness for ex in executions)
    notes = {"wall_s": f"median of {len(plain)} passes; raw {raw:.3f} s at slowness {slow:.3f}",
             "latency_p50_s": f"median of {len(requests)} requests",
             "latency_tail_s": f"p{percentile:.0f} of {len(requests)} requests",
             "cpu_s": f"median of {len(plain)} passes",
             "peak_rss_mb": f"max of {len(executions)} processes",
             "setup_s": f"median of {len(setup)} runs of qshape --version"}
    return metrics, notes


def per_layer(passes, problems: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics: times are medians over traced passes; counts must
    repeat exactly in every traced pass."""
    results, errors = [], []
    for plain, done in passes:
        traces = []
        for ex in done:
            if ex.problems:
                continue
            trace = json.loads(ex.spans.read_text())
            trace["spawned"], trace["reaped"] = ex.started, ex.ended
            trace["output_bytes"] = ex.stdout.stat().st_size
            traces.append(trace)
        layer = spans.layer_metrics(traces)
        # from the per-request pairs, corrected for machine slowness as the
        # end-to-end times are; the median keeps one request that met a slow
        # spell on one side from swamping a cost of a few ms per request
        layer["trace.overhead_s"] = len(done) * statistics.median(
            t.corrected - u.corrected for u, t in zip(plain, done))
        error = spans.closure_error(layer)
        if not abs(error) <= CLOSURE_S * len(traces):
            problems.append(f"self times and measured parts miss {error:.3g} s of the traced "
                            f"wall time of {len(traces)} requests")
        results.append(layer)
        errors.append(error)
    metrics, notes = {}, {}
    for name in results[0]:
        values = [r[name] for r in results]
        if name.endswith((".s", "_s", ".exp")):
            metrics[name] = statistics.median(values)
            notes[name] = f"median of {len(values)} traced passes"
        else:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
    notes["trace.wall_s"] += f"; {max(map(abs, errors)):.2g} s not covered by the parts"
    return metrics, notes


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def write_goldens(requests, work: Path) -> None:
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    done = run_pass(requests, 0, work)
    for ex in done:
        if ex.status != 0:
            raise SystemExit(f"bench: {workloads.key(ex.request)} failed; no goldens written")
        svg = ex.svg.read_bytes() if ex.svg is not None else None
        goldens[workloads.key(ex.request)] = {
            "stdout": checks.digest(ex.stdout.read_bytes()),
            "svg": checks.digest(svg) if svg is not None else None}
    GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    print(f"{len(done)} golden digests recorded in {GOLDENS.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qshape" / "cli.py").is_file():
        print(f"bench: {SRC / 'qshape'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    requests = workloads.build(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_run_", dir=ROOT) as tmp:
        work = Path(tmp)
        if args.write_goldens:
            write_goldens(requests, work)
            return 0
        # one core for the benchmark and its children, so that the speed
        # probes measure the core the requests run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # an untimed first run fills the bytecode cache
        warm, setup = execute(VERSION, "warm", work, False), []
        passes = measure_loop(requests, work, args.seconds, bool(args.trace), setup)
        problems = [f"qshape --version failed: {ex.stderr.read_text()[-200:]}"
                    for ex in [warm] + setup
                    if ex.status != 0 or not ex.stdout.read_bytes().startswith(b"qshape ")]
        verify = Verifier(json.loads(GOLDENS.read_text()), args.seed == DEFAULT_SEED)
        measured = [ex for pair in passes for done in pair if done for ex in done]
        for ex in measured:
            ex.problems = verify(ex)
        failed = [ex for ex in measured if ex.problems]
        if args.trace:
            metrics, notes = per_layer(passes, problems)
        else:
            metrics, notes = end_to_end(requests, passes, setup)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(requests)} requests per pass, "
          f"{len(passes)} passes, {len(measured)} requests run")
    for name in units:
        if name in metrics:
            print(f"  {name:36s} {metrics[name]:14.6f} {units[name]:6s} {notes.get(name, '')}")
    print(f"  {'failed_ratio':36s} {len(failed) / len(measured):14.6f} {'1':6s} "
          f"{len(failed)} of {len(measured)} requests")
    for ex in failed[:20]:
        print(f"  FAILED {workloads.key(ex.request)}: {'; '.join(ex.problems)}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(measured),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
