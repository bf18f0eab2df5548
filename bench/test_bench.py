"""Self-tests of the benchmark: python3 -m unittest discover -s bench"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import compare
import run
import spans
import workloads


def cli(*args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    return subprocess.run([sys.executable, "-m", "qshape.cli", *args], env=env,
                          capture_output=True, check=True).stdout


class Corruption(unittest.TestCase):
    """A corrupted coefficient or SVG byte is counted as a failure."""

    def verify(self, request, out: bytes, svg: bytes | None, goldens=None) -> list[str]:
        with tempfile.TemporaryDirectory() as tmp:
            ex = run.Execution(request, stdout=Path(tmp) / "out")
            ex.stdout.write_bytes(out)
            if svg is not None:
                ex.svg = Path(tmp) / "plot.svg"
                ex.svg.write_bytes(svg)
            return run.Verifier(goldens or {}, False)(ex)

    def test_coefficient(self):
        for fmt in workloads.FORMATS:
            request = ("qbinom", "--n", "9", "--k", "3", "--format", fmt)
            out = cli(*request)
            self.assertEqual(self.verify(request, out, None), [])
            bad = out.replace(b"\n5\n", b"\n6\n", 1) if fmt == "coeffs" else out.replace(b"5", b"6", 1)
            self.assertNotEqual(bad, out)
            self.assertTrue(self.verify(request, bad, None), fmt)

    def test_region_formula_and_zone(self):
        for fmt in workloads.FORMATS:
            request = ("regions", "--n", "24", "--k", "4", "--format", fmt)
            out = cli(*request)
            self.assertEqual(self.verify(request, out, None), [])
            for old, new in ((b"1/144", b"1/143"), (b"502", b"503")):
                self.assertIn(old, out)
                self.assertTrue(self.verify(request, out.replace(old, new, 1), None), (fmt, old))

    def test_ks_and_shape_rows(self):
        for request in (("converge", "--k", "5", "--n-list", "3,8"),
                        ("shape", "--k", "6", "--samples", "11"),
                        ("shape", "--k", "6", "--exact")):
            out = cli(*request)
            self.assertEqual(self.verify(request, out, None), [])
            last = out.rstrip(b"\n")
            bad = last[:-1] + bytes([last[-1] ^ 1]) + b"\n"
            self.assertTrue(self.verify(request, bad, None), request)

    def test_svg_byte(self):
        for extra in ("--color-regions", "--overlay"):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "plot.svg"
                cli("plot", "--n", "24", "--k", "4", extra, "--out", str(path))
                svg = path.read_bytes()
            request = ("plot", "--n", "24", "--k", "4", extra, "--out", workloads.OUT)
            golden = {workloads.key(request): {"stdout": checks.digest(b""),
                                               "svg": checks.digest(svg)}}
            self.assertEqual(self.verify(request, b"", svg, golden), [])
            # any byte: caught by the golden digest
            title = svg.replace(b"choose", b"chooze")
            self.assertTrue(self.verify(request, b"", title, golden))
            # a bar or curve coordinate: caught by the certificate alone
            index = svg.index(b'height="', svg.index(b'class="bar"')) + len(b'height="')
            bar = svg[:index] + bytes([svg[index] ^ 1]) + svg[index + 1:]
            self.assertTrue(self.verify(request, b"", bar, None))
            fill = svg.replace(b'fill="black"', b'fill="red"', 1) if extra == "--color-regions" \
                else svg.replace(b"points=\"10,", b"points=\"11,")
            self.assertNotEqual(fill, svg)
            self.assertTrue(self.verify(request, b"", fill, None))

    def test_failed_exit_status(self):
        with tempfile.TemporaryDirectory() as tmp:
            ex = run.Execution(("qbinom",), status=2, stderr=Path(tmp) / "err")
            ex.stderr.write_text("usage")
            self.assertTrue(run.Verifier({}, False)(ex))


class Certificates(unittest.TestCase):
    def test_product_formula(self):
        self.assertEqual(checks.box_coefficients(2, 2), (1, 1, 2, 1, 1))
        self.assertEqual(checks.box_coefficients(0, 5), (1,))
        self.assertEqual(checks.box_coefficients(4, 0), (1,))
        coeffs = checks.box_coefficients(30, 5)
        self.assertEqual(sum(coeffs), math.comb(35, 5))
        self.assertEqual(coeffs, coeffs[::-1])

    def test_parse_poly(self):
        self.assertEqual(checks.parse_poly("-1/2 m^2 + m - 3"), [-3, 1, Fraction(-1, 2)])
        self.assertEqual(checks.parse_poly("0"), [])
        with self.assertRaises(ValueError):
            checks.parse_poly("2 m^")


class SelfTime(unittest.TestCase):
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    SPANS = [["cli.main", 0.0, 10.0, -1, None], ["qcore.a", 1.0, 4.0, 0, None],
             ["exactnum.c", 2.0, 3.0, 1, None], ["shape.b", 5.0, 9.0, 0, None]]

    def test_nested(self):
        selfs = spans.self_times(self.SPANS)
        self.assertEqual(selfs, [3.0, 2.0, 1.0, 4.0])
        self.assertEqual(sum(selfs), 10.0)

    def test_overlapping_children_count_once(self):
        self.assertEqual(spans.covered([(1, 4), (2, 6), (8, 12)], 0, 10), 7)

    def test_recursion_counts_outermost(self):
        recursive = [["qcore.f", 0.0, 5.0, -1, None], ["qcore.f", 1.0, 4.0, 0, None],
                     ["qcore.f", 2.0, 3.0, 1, None], ["qcore.f", 6.0, 7.0, -1, None]]
        self.assertEqual(spans.outermost(recursive, "qcore.f"), [0, 3])

    def trace(self, returned: float) -> dict:
        # spawned at -1.5, import from -1.0 to -0.25, wrapped by 0.0, main's
        # root span [0, 10], control back at `returned`, reaped at 10.5
        clock = {"started": -1.0, "imported": -0.25, "installed": 0.0, "returned": returned}
        return {"spans": self.SPANS, "spawned": -1.5, "reaped": 10.5, "clock": clock,
                "output_bytes": 3,
                "caches": {name: {"hits": 1, "misses": 2} for name in spans.CACHES}}

    def test_layer_metrics_close(self):
        m = spans.layer_metrics([self.trace(10.0)])
        self.assertEqual((m["cli.self_s"], m["qcore.self_s"], m["exactnum.self_s"],
                          m["shape.self_s"]), (3.0, 2.0, 1.0, 4.0))
        self.assertEqual((m["trace.wall_s"], m["cli.import_s"], m["trace.start_s"],
                          m["trace.exit_s"], m["trace.outside_spans_s"]),
                         (12.0, 0.75, 0.5, 0.5, 1.25))
        self.assertEqual(spans.closure_error(m), 0.0)

    def test_uncovered_time_shows(self):
        # main returns 0.25 s after its root span ended: no part covers that
        m = spans.layer_metrics([self.trace(10.25)])
        self.assertEqual(spans.closure_error(m), 0.25)

    def test_fit_exponent(self):
        samples = [(k, n, k * n ** 3.0) for k in (2, 3) for n in (10, 20, 40)]
        self.assertAlmostEqual(spans.fit_exponent(samples), 3.0)
        self.assertEqual(spans.fit_exponent([(2, 10, 1.0), (3, 20, 2.0)]), 0.0)


class TailRule(unittest.TestCase):
    def test_ten_beyond(self):
        self.assertEqual(run.tail([float(v) for v in range(1, 101)]), (90.0, 90.0))
        value, percentile = run.tail([float(v) for v in range(11, 0, -1)])
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(percentile, 100 / 11)

    def test_too_few(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * 10)


class Workloads(unittest.TestCase):
    def test_reproducible(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.build(workload, 7), workloads.build(workload, 7))
            self.assertNotEqual(workloads.build(workload, 7), workloads.build(workload, 8))
            self.assertGreaterEqual(len(workloads.build(workload, 7)), 11)

    def test_default_seed_has_goldens(self):
        goldens = json.loads(run.GOLDENS.read_text())
        for workload in workloads.WORKLOADS:
            for request in workloads.build(workload, run.DEFAULT_SEED):
                self.assertIn(workloads.key(request), goldens)

    def test_requests_in_domain(self):
        for workload in workloads.WORKLOADS:
            for seed in range(20):
                for request in workloads.build(workload, seed):
                    args = dict(zip(request[1::2], request[2::2]))
                    if request[0] in ("regions", "plot") and "--overlay" not in request:
                        k = int(args["--k"])
                        self.assertGreaterEqual(int(args["--n"]), workloads.min_region_n(k))
                    if "--n-list" in args:
                        ns = [int(n) for n in args["--n-list"].split(",")]
                        self.assertEqual(ns, sorted(set(ns)))


class Compare(unittest.TestCase):
    def test_gain_and_unresolved(self):
        base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
        faster = [b * 0.8 for b in base]
        self.assertEqual(compare.verdict(base, faster, 0.1, "lower")["outcome"], "gain")
        self.assertEqual(compare.verdict(base, base, 0.1, "lower")["outcome"], "within bound")
        slower = [b * 1.2 for b in base]
        self.assertEqual(compare.verdict(base, slower, 0.1, "lower")["outcome"], "regression")
        noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0]
        self.assertEqual(compare.verdict(noisy, base, 0.1, "lower")["outcome"], "unresolved")

    def test_report_needs_ten_pairs(self):
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        nine = [{"pair": i, "side": side, "result": result}
                for i in range(compare.PAIRS - 1) for side in ("base", "head")]
        with self.assertRaises(SystemExit):
            compare.report(nine)


if __name__ == "__main__":
    unittest.main()
