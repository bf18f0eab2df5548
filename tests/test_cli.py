import argparse
import contextlib
import errno
import gc
import hashlib
import io
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qshape
from qshape.cli import (_COMMANDS, _EXCLUSIVE, _build_parser, _flags, _joined, _n_list, _nonneg,
                        _parse, _positive, main)
from qshape.exactnum import _brief, _ratio
from qshape.qcore import q_binomial_box
from qshape.quasi import demo_quasipolynomial
from qshape.shape import PiecewisePolynomial, limit_shape
from qshape.svgplot import _fmt, render_svg
from oracles import cli_env, hammer, run_python


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def bar_fills(svg_text):
    return re.findall(r'<rect class="bar"[^>]*fill="([^"]+)"', svg_text)


def fill_runs(svg_text):
    """The bar fills with each run of equal neighbours cut to one."""
    return [fill for fill, _ in itertools.groupby(bar_fills(svg_text))]


def polyline(svg_text):
    return re.search(r'<polyline points="([^"]*)"', svg_text).group(1)


def polyline_oracle(bars, width, height, points):
    """The overlay polyline by Fraction arithmetic, for points (u, v) with u
    the horizontal fraction and v in bar units: margin 10, title band 30."""
    scale = Fraction(height) / Fraction(max(bars))
    return " ".join(
        f"{_fmt(10 + Fraction(u) * width)},{_fmt(30 + height - Fraction(v) * scale)}"
        for u, v in points
    )


def bar_oracle(bars, width, height, fills=None):
    """The bar elements by Fraction arithmetic, for heights of any exact
    type: margin 10, title band 30."""
    scale = Fraction(height) / Fraction(max(bars))
    bar_w = Fraction(width, len(bars))
    fills = fills or ("steelblue",) * len(bars)
    return [
        f'<rect class="bar" x="{_fmt(10 + bar_w * i)}" '
        f'y="{_fmt(30 + height - Fraction(raw) * scale)}" '
        f'width="{_fmt(bar_w)}" height="{_fmt(Fraction(raw) * scale)}" fill="{fill}"/>'
        for i, (raw, fill) in enumerate(zip(bars, fills))
    ]


def svg_bars(svg_text):
    return [line for line in svg_text.splitlines() if line.startswith('<rect class="bar"')]


def bar_heights(svg_text):
    return [
        float(h) for h in re.findall(r'<rect class="bar"[^>]*height="([^"]+)"', svg_text)
    ]


class TestQbinom:
    def test_csv_roundtrip_sums_to_binomial(self, capsys):
        code, out = run(capsys, "qbinom", "--n", "7", "--k", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,coefficient"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == math.comb(11, 4)
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(29))

    def test_large_n_json(self, capsys):
        code, out = run(capsys, "qbinom", "--n", "1200", "--k", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 2400
        assert sum(doc["coefficients"]) == math.comb(1202, 2)


class TestRegions:
    def test_k4_report_mentions_table_row(self, capsys):
        code, out = run(capsys, "regions", "--n", "50", "--k", "4")
        assert code == 0
        assert out.count("region ") == 4
        assert "period 12, degree 3" in out
        assert "m = 0 (mod 12): 1/144 m^3 + 5/48 m^2 + 1/2 m + 1" in out
        assert out.count("transition zone") == 3

    def test_k1_single_region(self, capsys):
        code, out = run(capsys, "regions", "--n", "50", "--k", "1")
        assert code == 0
        assert "region 0: interval [0, 50]" in out
        assert "m = 0 (mod 1): 1" in out
        assert "transition zone" not in out

    def test_n_too_small_is_usage_error(self, capsys):
        # the domain check runs before the first line: stdout stays empty
        assert main(["regions", "--n", "5", "--k", "4"]) == 2
        assert capsys.readouterr() == ("", "qshape: error: n=5 too small for k=4: need n >= 9\n")

    def test_zone_values_are_true_coefficients(self, capsys):
        from qshape.qcore import q_binomial_box

        code, out = run(capsys, "regions", "--n", "50", "--k", "4")
        truth = q_binomial_box(50, 4)
        line = next(l for l in out.splitlines() if l.startswith("transition zone [51, 53]"))
        values = [int(v) for v in line.split(":")[1].split()]
        assert values == [truth.coefficient(m) for m in (51, 52, 53)]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the interpreter does not limit int to str conversion")
    def test_zone_values_longer_than_the_str_limit(self, capsys):
        # at n = 10^2200 the zone values of k = 3 have about 4 400 digits, more
        # than str() converts by default: they print through _ratio, and the
        # limit is left as it was
        from qshape.quasi import region_decomposition

        n, limit = 10 ** 2200, sys.get_int_max_str_digits()
        argv = ["regions", "--n", str(n), "--k", "3"]
        code, out = run(capsys, *argv)
        assert code == 0 and sys.get_int_max_str_digits() == limit
        result = run_python("-m", "qshape.cli", *argv, capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, out, "")
        zones = [line.split(": ")[1].split() for line in out.splitlines()
                 if line.startswith("transition zone")]
        sys.set_int_max_str_digits(0)
        try:
            expected = [[str(v) for v in values]
                        for values in region_decomposition(n, 3).zone_values]
        finally:
            sys.set_int_max_str_digits(limit)
        assert zones == expected
        assert max(len(v) for values in zones for v in values) > 4300

    def test_json_structure(self, capsys):
        from qshape.quasi import region_decomposition

        code, out = run(capsys, "regions", "--n", "40", "--k", "3", "--format", "json")
        doc = json.loads(out)
        assert [r["index"] for r in doc["regions"]] == [0, 1, 2]
        assert all(r["period"] == 6 for r in doc["regions"])
        assert len(doc["transition_zones"]) == 2
        # coefficients print as the reduced Fractions of the residue polynomials
        assert [r["residue_polynomials"] for r in doc["regions"]] == [
            [[str(c) for c in p.coeffs] for p in region.formula.polys]
            for region in region_decomposition(40, 3).regions]


class TestInternalError:
    @pytest.mark.parametrize("error, line", [
        (MemoryError(), "qshape: internal error: MemoryError\n"),
        (RuntimeError("boom"), "qshape: internal error: boom\n"),
    ], ids=["empty-message", "message"])
    def test_message_or_type_name(self, monkeypatch, capsys, error, line):
        # an exception with an empty message is reported by its type name
        import qshape.qcore

        def fails(n, k):
            raise error

        monkeypatch.setattr(qshape.qcore, "q_binomial_box", fails)
        assert main(["qbinom", "--n", "2", "--k", "2"]) == 1
        assert capsys.readouterr() == ("", line)


class TestComputeOnce:
    @pytest.mark.parametrize("argv", [
        ["regions", "--n", "50", "--k", "4"],
        ["regions", "--n", "50", "--k", "4", "--format", "json"],
        ["plot", "--n", "50", "--k", "4", "--color-regions", "--overlay"],
    ])
    def test_box_polynomial_built_once(self, monkeypatch, tmp_path, capsys, argv):
        import qshape.cli
        import qshape.qcore
        import qshape.quasi

        calls = []

        def counted(n, k):
            calls.append((n, k))
            return q_binomial_box(n, k)

        # every module that could call it, however it imports the name
        for module in (qshape.cli, qshape.qcore, qshape.quasi):
            monkeypatch.setattr(module, "q_binomial_box", counted, raising=False)
        if argv[0] == "plot":
            argv = argv + ["--out", str(tmp_path / "p.svg")]
        assert run(capsys, *argv)[0] == 0
        # regions reads its zones and certificate off the numerator, not the box
        assert calls.count((50, 4)) == (argv[0] == "plot")

    @pytest.mark.parametrize("cli", [False, True])
    def test_cdf_table_built_once_per_convergence_table(self, monkeypatch, capsys, cli):
        from qshape.measure import convergence_table

        calls = []
        cdf = PiecewisePolynomial._cdf

        def counted(self):
            calls.append(self.k)
            return cdf(self)

        monkeypatch.setattr(PiecewisePolynomial, "_cdf", counted)
        if cli:
            assert run(capsys, "converge", "--k", "3", "--n-list", "5,10,20,40")[0] == 0
        else:
            assert len(convergence_table(3, [5, 10, 20, 40])) == 4
        # one table for the call, read by every n's sweep
        assert calls == [3]


class TestShape:
    def test_exact_k3(self, capsys):
        code, out = run(capsys, "shape", "--k", "3", "--exact")
        assert code == 0
        assert "piece 0 on [0, 1/3]: 27/2 x^2" in out
        assert "piece 1 on [1/3, 2/3]: -27 x^2 + 27 x - 9/2" in out
        assert "piece 2 on [2/3, 1]: 27/2 x^2 - 27 x + 27/2" in out

    def test_exact_k2(self, capsys):
        code, out = run(capsys, "shape", "--k", "2", "--exact")
        assert "piece 0 on [0, 1/2]: 4 x" in out
        assert "piece 1 on [1/2, 1]: -4 x + 4" in out

    @pytest.mark.parametrize("samples", [1, 2, 3, 101, 1000])
    def test_samples_match_fraction_oracle(self, capsys, samples):
        # the integer grid prints what Fraction evaluation at j/(S-1) prints
        def rat(x):
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        xs = [Fraction(j, max(samples - 1, 1)) for j in range(samples)]
        for k in range(1, 11):
            curve = limit_shape(k)
            code, out = run(capsys, "shape", "--k", str(k), "--samples", str(samples))
            assert code == 0
            assert out.splitlines() == ["x,value"] + [
                f"{rat(x)},{rat(curve.evaluate(x))}" for x in xs
            ]

    def test_exact_matches_piece_strings(self, capsys):
        for k in range(1, 11):
            code, out = run(capsys, "shape", "--k", str(k), "--exact")
            assert code == 0
            assert out.splitlines() == [
                f"piece {i} on [{Fraction(i, k)}, {Fraction(i + 1, k)}]: "
                f"{piece.to_string('x', descending=True)}"
                for i, piece in enumerate(limit_shape(k).pieces)
            ]

    @pytest.mark.parametrize("argv", [
        ["shape", "--k", "6", "--exact"],
        ["shape", "--k", "6", "--samples", "11"],
        ["plot", "--n", "20", "--k", "6", "--overlay"],
    ])
    def test_requests_that_read_no_cdf_do_not_build_it(self, monkeypatch, tmp_path, capsys,
                                                        argv):
        # a limit shape stores its density alone; only cdf(), ks_distance and
        # convergence_table build the CDF table, so these print the same
        # bytes with it broken
        svg = tmp_path / "p.svg"
        if argv[0] == "plot":
            argv = argv + ["--out", str(svg)]

        def outputs():
            code = main(argv)
            return code, capsys.readouterr(), svg.read_bytes() if svg.exists() else None

        expected = outputs()

        def broken(self):
            raise AssertionError("the CDF table was built")

        monkeypatch.setattr(PiecewisePolynomial, "_cdf", broken)
        limit_shape.cache_clear()
        assert outputs() == expected


class TestConverge:
    def test_strictly_decreasing(self, capsys):
        code, out = run(capsys, "converge", "--k", "3", "--n-list", "5,20,50")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,ks"
        ks = [float(line.split(",")[1]) for line in lines[1:]]
        assert ks[0] > ks[1] > ks[2]

    def test_k1_bound(self, capsys):
        code, out = run(capsys, "converge", "--k", "1", "--n-list", "10")
        ks = float(out.splitlines()[1].split(",")[1])
        assert ks <= 0.1

    def test_non_increasing_list_is_usage_error(self, capsys):
        assert main(["converge", "--k", "3", "--n-list", "5,5"]) == 2
        assert capsys.readouterr() == ("", "qshape: error: n_list must be strictly increasing\n")

    def test_negative_entry_is_usage_error(self, capsys):
        code = main(["converge", "--k", "3", "--n-list=-2,4"])
        assert code == 2
        assert "argument --n-list" in capsys.readouterr().err

    def test_large_n(self, capsys):
        code, out = run(capsys, "converge", "--k", "4", "--n-list", "1000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,ks"
        assert len(lines) == 2 and lines[1].startswith("1000,")

    def test_large_n_k8(self, capsys):
        code, out = run(capsys, "converge", "--k", "8", "--n-list", "10000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,ks"
        assert len(lines) == 2 and lines[1].startswith("10000,")


# the exact stdout of small requests, one per command and format
PINNED_OUTPUT = [
    (["regions", "--n", "4", "--k", "2"],
     "region 0: interval [0, 4] (formula valid from 0), period 2, degree 1\n"
     "  m = 0 (mod 2): 1/2 m + 1\n"
     "  m = 1 (mod 2): 1/2 m + 1/2\n"
     "region 1: interval [6, 8] (formula valid from 4), period 2, degree 1\n"
     "  m = 0 (mod 2): -1/2 m + 5\n"
     "  m = 1 (mod 2): -1/2 m + 9/2\n"
     "transition zone [5, 5]: 2\n"),
    (["regions", "--n", "4", "--k", "2", "--format", "csv"],
     "kind,index,left,right,valid_from,period,residue,formula\n"
     "region,0,0,4,0,2,0,1/2 m + 1\n"
     "region,0,0,4,0,2,1,1/2 m + 1/2\n"
     "region,1,6,8,4,2,0,-1/2 m + 5\n"
     "region,1,6,8,4,2,1,-1/2 m + 9/2\n"
     "zone,0,5,5,,,,2\n"),
    (["regions", "--n", "4", "--k", "2", "--format", "json"],
     '{"n": 4, "k": 2, "regions": [{"index": 0, "left": 0, "right": 4, "valid_from": 0, '
     '"period": 2, "degree": 1, "residue_polynomials": [["1", "1/2"], ["1/2", "1/2"]]}, '
     '{"index": 1, "left": 6, "right": 8, "valid_from": 4, "period": 2, "degree": 1, '
     '"residue_polynomials": [["5", "-1/2"], ["9/2", "-1/2"]]}], '
     '"transition_zones": [{"left": 5, "right": 5, "coefficients": [2]}]}\n'),
    (["qbinom", "--n", "2", "--k", "2"], "1\n1\n2\n1\n1\n"),
    (["qbinom", "--n", "0", "--k", "5"], "1\n"),
    (["qbinom", "--n", "2", "--k", "2", "--format", "csv"],
     "index,coefficient\n0,1\n1,1\n2,2\n3,1\n4,1\n"),
    (["qbinom", "--n", "2", "--k", "2", "--format", "json"],
     '{"n": 2, "k": 2, "degree": 4, "coefficients": [1, 1, 2, 1, 1]}\n'),
    (["shape", "--k", "1", "--samples", "3"], "x,value\n0,1\n1/2,1\n1,1\n"),
    (["shape", "--k", "3", "--samples", "4"], "x,value\n0,0\n1/3,3/2\n2/3,3/2\n1,0\n"),
    (["converge", "--k", "2", "--n-list", "3,4"], "n,ks\n3,0.177777777778\n4,0.141666666667\n"),
]


class TestExactOutput:
    @pytest.mark.parametrize("argv, out", PINNED_OUTPUT,
                             ids=[" ".join(argv) for argv, _ in PINNED_OUTPUT])
    def test_stdout_is_pinned(self, argv, out, capsys):
        assert main(argv) == 0
        assert capsys.readouterr() == (out, "")


def fresh_python(code):
    """stdout of `code` run in a new interpreter that imports this package,
    without `site` (-S), so that a probe of sys.modules sees only what the
    code imports (the `site` of 3.13.13 loads inspect)."""
    return run_python("-S", "-c", code, capture_output=True, text=True, check=True).stdout


class TestStartup:
    def test_import_skips_network_modules(self):
        # every command pays for what `import qshape.cli` pulls in
        probe = (
            "import sys, qshape.cli; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request') if m in sys.modules))"
        )
        assert fresh_python(probe) == "[]\n"

    def test_import_loads_no_engine(self):
        # each command imports its own engine modules
        probe = (
            "import sys, qshape.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'json', 'html', 'qshape.quasi', "
            "'qshape.shape', 'qshape.measure', 'qshape.svgplot') if m in sys.modules))"
        )
        assert fresh_python(probe) == "[]\n"

    @pytest.mark.parametrize("argv, absent", [
        (["--version"], ["qshape.exactnum", "qshape.measure", "qshape.qcore", "qshape.quasi",
                         "qshape.shape", "qshape.svgplot"]),
        (["qbinom", "--n", "3", "--k", "2"],
         ["dataclasses", "fractions", "json", "qshape.measure", "qshape.quasi",
          "qshape.shape", "qshape.svgplot"]),
        (["shape", "--k", "3"], ["fractions", "qshape.measure", "qshape.qcore",
                                 "qshape.quasi", "qshape.svgplot"]),
        (["converge", "--k", "3", "--n-list", "5"], ["fractions", "json", "qshape.quasi",
                                                     "qshape.svgplot"]),
        (["regions", "--n", "24", "--k", "4"], ["fractions", "json", "qshape.measure",
                                                "qshape.shape", "qshape.svgplot"]),
        (["shape", "--k", "3", "--samples", "5"], ["fractions", "qshape.measure",
                                                   "qshape.qcore", "qshape.svgplot"]),
        (["plot", "--n", "24", "--k", "4", "--color-regions", "--out", "OUT"],
         ["fractions", "html", "qshape.measure", "qshape.shape"]),
        (["plot", "--n", "24", "--k", "4", "--out", "OUT"],
         ["fractions", "html", "qshape.measure", "qshape.quasi", "qshape.shape"]),
        (["plot", "--n", "24", "--k", "4", "--overlay", "--out", "OUT"],
         ["decimal", "fractions", "html", "qshape.measure", "qshape.quasi"]),
        (["plot", "--demo", "--out", "OUT"],
         ["decimal", "fractions", "html", "qshape.measure", "qshape.shape"]),
    ])
    def test_command_loads_only_its_modules(self, argv, absent, tmp_path):
        argv = [str(tmp_path / "p.svg") if a == "OUT" else a for a in argv]
        absent = ["argparse", "gettext", *absent]  # a well-formed request builds no parser
        probe = (
            "import contextlib, io, sys; from qshape.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): code = main({argv!r})\n"
            f"print(code, sorted(m for m in {absent!r} if m in sys.modules))"
        )
        assert fresh_python(probe) == "0 []\n"

    def test_svgplot_imports_no_other_module_of_the_package(self):
        probe = (
            "import sys, qshape.svgplot; "
            "print(sorted(m for m in sys.modules if m.startswith('qshape.')))"
        )
        assert fresh_python(probe) == "['qshape.svgplot']\n"

    def test_svgplot_imports_no_module(self):
        import ast

        import qshape.svgplot

        with open(qshape.svgplot.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]

    def test_every_export_resolves(self):
        probe = (
            "import sys, qshape\n"
            "listed = set(qshape.__all__) <= set(dir(qshape))\n"
            "for name in qshape.__all__:\n"
            "    value = getattr(qshape, name)\n"
            "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
            "namespace = {}\n"
            "exec('from qshape import *', namespace)\n"
            "print(sorted(set(namespace) - {'__builtins__'}) == sorted(qshape.__all__),"
            " listed, len(qshape.__all__), set(qshape.__all__) & set(vars(qshape)))"
        )
        # a resolved name is returned, not stored in the package
        assert fresh_python(probe) == "True True 18 set()\n"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qshape.no_such_name
        assert not hasattr(qshape, "Polynomials")

    def test_threads_resolve_the_same_objects(self):
        # 8 threads race to resolve every lazy name in a fresh interpreter
        probe = (
            "import random, sys, threading, qshape\n"
            "barrier, seen = threading.Barrier(8), []\n"
            "def resolve(seed):\n"
            "    names = list(qshape.__all__)\n"
            "    random.Random(seed).shuffle(names)\n"
            "    barrier.wait()\n"
            "    seen.append({name: getattr(qshape, name) for name in names})\n"
            "sys.setswitchinterval(1e-6)\n"
            "threads = [threading.Thread(target=resolve, args=(i,)) for i in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(timeout=30)\n"
            "final = {name: getattr(qshape, name) for name in qshape.__all__}\n"
            "print(len(seen), not any(t.is_alive() for t in threads),"
            " all(all(s[n] is final[n] for n in final) for s in seen))"
        )
        assert fresh_python(probe) == "8 True True\n"


# sha256 of plot's SVG.  cmd_plot works out each picture's bars, title,
# overlay and fills, then passes them to one render_svg call: an overlay, the
# demo, a resized demo, regions alone and with the overlay, and regions at
# k = 11 keep these bytes, and so do three pictures 10^20 pixels wide or tall
W20 = 10**20
PLOT_SVG = {
    "--n 2000 --k 8 --overlay": "19cf5160c455c72b45e4730503241f82576e597fe0c5b8f51c7a884d26ae7489",
    "--demo": "277ee3773c36bd2b89aa6c957ced5920fec3537ae638ae617056965d87327dc2",
    "--demo --width 501 --height 200":
        "10406e3f3fc2cdfb14cf579273aeacdb2c71950f4bb75be164273d6a91f2a1ce",
    "--n 50 --k 4 --color-regions": "2baa98bb8bb781cb79c2303a16ac8e38a98c18c26367d3b989c1b82a0923bf11",
    "--n 50 --k 4 --color-regions --overlay":
        "7281af8a2d1f7d3f38823eff6d6fe728fce949c37157248a330247d66faaf76e",
    "--n 2000 --k 11 --color-regions":
        "0f141944293625fe2a9752e98626e0c2220b380da14dd0053bf7c986aa952201",
    f"--demo --width {W20}": "003341c071ccaf5cd1a60f338f39673c197220219211a92e2dced3114bff4bbd",
    f"--demo --height {W20}": "a52657c6da2f31a435069ad6901aa215e2ae31ff7b6ca6c44b4905a426cbd693",
    f"--n 3 --k 2 --overlay --color-regions --width {W20} --height {W20}":
        "7dd9de029442d6c8e4cda3e3d50a26ae07d702e08952e7450a67cc228c431109",
}

# sizes past the float range, with the one stderr line each gets: a height of
# 4300 digits passes str()'s digit limit once the margins are added, and the
# last request gives the longest message there is, a 200-digit value in full
PAST_FLOAT_RANGE = [
    pytest.param(f"--demo --height 1{'0' * 400}", "800", "a number of 401 digits",
                 id="height-401-digits"),
    pytest.param(f"--demo --width 1{'0' * 309}", "a number of 310 digits", "300",
                 id="width-310-digits"),
    pytest.param(f"--n 1 --k 1 --width 1{'0' * 309}", "a number of 310 digits", "300",
                 id="two-bars-width-310-digits"),
    pytest.param(f"--demo --height {'9' * 4300}", "800", "a number of 4300 digits",
                 id="height-4300-digits"),
    pytest.param(f"--n 3 --k 2 --overlay --width 1{'0' * 199} --height {'9' * 4300}",
                 f"1{'0' * 199}", "a number of 4300 digits", id="longest-message"),
]


class TestPlot:
    def test_title_escaping(self):
        assert (
            '<text x="15" y="20" text-anchor="middle" font-family="sans-serif" '
            'font-size="14">a &amp; b &lt;c&gt; "d"</text>'
        ) in render_svg((1,), 10, 10, 'a & b <c> "d"').splitlines()

    def test_max_bar_is_exact_height(self, tmp_path):
        out_file = tmp_path / "p.svg"
        main(["plot", "--n", "12", "--k", "3", "--height", "240", "--out", str(out_file)])
        assert max(bar_heights(out_file.read_text())) == 240.0

    def test_first_last_equal(self, tmp_path):
        out_file = tmp_path / "p.svg"
        main(["plot", "--n", "10", "--k", "4", "--out", str(out_file)])
        heights = bar_heights(out_file.read_text())
        assert heights[0] == heights[-1]

    @pytest.mark.parametrize("flags", PLOT_SVG)
    def test_svg_is_pinned(self, flags, tmp_path):
        out_file = tmp_path / "p.svg"
        assert main(["plot", *flags.split(), "--out", str(out_file)]) == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PLOT_SVG[flags]

    def test_color_regions_below_two_periods(self, tmp_path):
        # n = 50 < 2 lcm(1..7) = 840: every region of k = 7 is nonempty from n = 27 on
        out_file = tmp_path / "c.svg"
        assert main(["plot", "--n", "50", "--k", "7", "--color-regions", "--out", str(out_file)]) == 0
        svg = out_file.read_text()
        assert len(bar_fills(svg)) == 351
        runs = fill_runs(svg)
        colors = ["red", "yellow", "green", "blue", "orange", "purple", "teal"]
        assert runs[::2] == colors and set(runs[1::2]) == {"black"}

    def test_color_regions_palette_wraps_after_eight(self, tmp_path):
        # n = 44 is the least n for k = 9: region 8 takes the first color again
        out_file = tmp_path / "c.svg"
        assert main(["plot", "--n", "44", "--k", "9", "--color-regions", "--out", str(out_file)]) == 0
        runs = fill_runs(out_file.read_text())
        colors = ["red", "yellow", "green", "blue", "orange", "purple", "teal", "magenta", "red"]
        assert runs[::2] == colors and set(runs[1::2]) == {"black"}

    def test_color_regions_builds_no_region_formulas(self, monkeypatch, tmp_path):
        # the fills need only the region intervals, which have a closed form
        import qshape.quasi

        argv = ["plot", "--n", "50", "--k", "4", "--color-regions", "--out"]
        plain, patched = tmp_path / "plain.svg", tmp_path / "patched.svg"
        assert main(argv + [str(plain)]) == 0

        def fail(*args):
            raise AssertionError("plot --color-regions assembled region formulas")

        for name in ("region_decomposition", "initial_quasipolynomial"):
            monkeypatch.setattr(qshape.quasi, name, fail)
        assert main(argv + [str(patched)]) == 0
        assert patched.read_bytes() == plain.read_bytes()

    def test_color_regions_n_too_small_is_usage_error(self, tmp_path, capsys):
        out_file = tmp_path / "c.svg"
        assert main(["plot", "--n", "8", "--k", "4", "--color-regions", "--out", str(out_file)]) == 2
        assert capsys.readouterr() == ("", "qshape: error: n=8 too small for k=4: need n >= 9\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("n, k", [(50, 4), (60, 6)])
    def test_color_regions_with_overlay(self, tmp_path, n, k):
        # both flags give the --color-regions file with the --overlay
        # polyline as the last element
        files = []
        for flags in (["--color-regions"], ["--overlay"], ["--color-regions", "--overlay"]):
            files.append(tmp_path / f"{len(files)}.svg")
            assert main(["plot", "--n", str(n), "--k", str(k), *flags, "--out", str(files[-1])]) == 0
        colored, curve, both = (f.read_text().splitlines() for f in files)
        line = [text for text in curve if text.startswith("<polyline ")]
        assert len(line) == 1 and colored[-1] == "</svg>"
        assert both == colored[:-1] + line + ["</svg>"]

    def test_overlay_polyline_present(self, tmp_path):
        out_file = tmp_path / "p.svg"
        main(["plot", "--n", "20", "--k", "3", "--overlay", "--out", str(out_file)])
        assert "<polyline points=" in out_file.read_text()

    def test_overlay_points_exact(self, tmp_path):
        out_file = tmp_path / "p.svg"
        main(["plot", "--n", "9", "--k", "7", "--overlay", "--out", str(out_file)])
        poly, curve = q_binomial_box(9, 7), limit_shape(7)
        scale = Fraction(sum(poly.coeffs), len(poly.coeffs))
        points = [
            (Fraction(j, 512), curve.evaluate(Fraction(j, 512)) * scale) for j in range(513)
        ]
        assert polyline(out_file.read_text()) == polyline_oracle(poly.coeffs, 800, 300, points)

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(0, 10 ** 30), min_size=1, max_size=5).filter(any),
        st.lists(st.integers(0, 10 ** 30), min_size=1, max_size=5),
        st.integers(1, 10 ** 12),
        st.integers(1, 2000),
        st.integers(1, 1000),
    )
    def test_overlay_render_matches_fraction_oracle(self, bars, values, den, width, height):
        svg = render_svg(tuple(bars), width, height, "", overlay=(tuple(values), den))
        # point j of n + 1 values sits at j/n of the width (a single one at 0)
        points = [(Fraction(j, max(len(values) - 1, 1)), Fraction(v, den))
                  for j, v in enumerate(values)]
        assert polyline(svg) == polyline_oracle(bars, width, height, points)

    @pytest.mark.parametrize("overlay", [((), 1), ((1, 2), 0)])
    def test_overlay_needs_a_value_and_a_positive_den(self, overlay):
        with pytest.raises(ValueError, match="overlay"):
            render_svg((1, 2), 10, 10, "", overlay=overlay)

    @pytest.mark.parametrize("bars, fills, match", [
        ((), None, "at least one bar"),
        ((1, -1), None, "non-negative"),
        ((1, 2), ("red",), "one fill per bar"),
        ((1, 2), ("red", "red", "red"), "one fill per bar"),
        ((0, 0), None, "all bars are zero"),
    ])
    def test_render_refuses_bad_bars_and_fills(self, bars, fills, match):
        with pytest.raises(ValueError, match=match):
            render_svg(bars, 10, 10, "", region_colors=fills)

    @pytest.mark.parametrize("flags, width, height", PAST_FLOAT_RANGE)
    def test_size_past_the_float_range_is_usage_error(self, tmp_path, capsys, flags, width,
                                                      height):
        out_file = tmp_path / "p.svg"
        assert main(["plot", *flags.split(), "--out", str(out_file)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"qshape: error: plot --width {width} --height {height}: "
                       "a coordinate passes the float range\n")
        assert len(err.encode()) < 300
        assert not out_file.exists()

    def test_failed_render_leaves_out_as_it_was(self, tmp_path, capsys):
        # the picture is rendered in full before --out is opened
        keep, new = tmp_path / "keep.svg", tmp_path / "new.svg"
        assert main(["plot", "--demo", "--out", str(keep)]) == 0
        before = keep.read_bytes()
        assert len(before) == 4009
        assert main(["plot", "--demo", "--height", f"1{'0' * 400}", "--out", str(keep)]) == 2
        assert keep.read_bytes() == before
        assert main(["plot", "--demo", "--width", f"1{'0' * 309}", "--out", str(new)]) == 2
        assert not new.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n, k, width, height, colored", [
        (2, 2, 800, 300, False),
        (10, 4, 333, 97, False),
        (300, 5, 7, 1000, False),
        (50, 4, 800, 300, True),
        (209, 20, 800, 300, True),  # fills need no region formula: k may pass REGIONS_MAX_K
    ])
    def test_bars_match_fraction_oracle(self, tmp_path, n, k, width, height, colored):
        out_file = tmp_path / "p.svg"
        argv = ["plot", "--n", str(n), "--k", str(k), "--width", str(width),
                "--height", str(height), "--out", str(out_file)]
        assert main(argv + ["--color-regions"] * colored) == 0
        svg = out_file.read_text()
        fills = tuple(bar_fills(svg)) if colored else None
        assert svg_bars(svg) == bar_oracle(q_binomial_box(n, k).coeffs, width, height, fills)

    def test_demo_bars_match_fraction_oracle(self, tmp_path):
        # the demo's values are half-integers: the oracle draws them as Fractions
        out_file = tmp_path / "d.svg"
        assert main(["plot", "--demo", "--width", "501", "--out", str(out_file)]) == 0
        f = demo_quasipolynomial()
        heights = [f.evaluate(m) for m in range(41)]
        assert svg_bars(out_file.read_text()) == bar_oracle(heights, 501, 300)

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(0, 10 ** 30), min_size=1, max_size=20).filter(any),
        st.integers(1, 2000),
        st.integers(1, 1000),
    )
    def test_bar_render_matches_fraction_oracle(self, bars, width, height):
        svg = render_svg(tuple(bars), width, height, "")
        assert svg_bars(svg) == bar_oracle(bars, width, height)

    def test_demo_two_branches(self, tmp_path):
        out_file = tmp_path / "d.svg"
        assert main(["plot", "--demo", "--out", str(out_file)]) == 0
        heights = bar_heights(out_file.read_text())
        assert len(heights) == 41
        # even branch 10m dominates early, odd branch (m^2-m)/2 catches up late
        assert heights[10] > heights[9]
        assert heights[39] > heights[38]

    def test_plot_without_n_k_or_demo_is_usage_error(self, tmp_path, capsys):
        out_file = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out_file)]) == 2
        assert capsys.readouterr() == ("", "qshape: error: plot needs --n and --k (or --demo)\n")
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "flags", ["--overlay", "--color-regions", "--n 5", "--k 3", "--n 5 --k 3", "--n 0"])
    def test_demo_rejects_curve_and_region_flags(self, tmp_path, capsys, flags):
        # the demo draws a fixed quasipolynomial: a size or curve flag would be dropped
        out_file = tmp_path / "d.svg"
        code = main(["plot", "--demo", *flags.split(), "--out", str(out_file)])
        flag = flags.split()[0]
        assert code == 2
        err = f"qshape: error: plot --demo cannot be combined with {flag}\n"
        assert capsys.readouterr() == ("", err)
        assert not out_file.exists()


# sha256 of stdout, read from the program in both stdout modes.  The first
# five are larger than the 64 KiB blocks that main writes, as printed before
# main had a stdout stream of its own; the first three also run against a slow
# reader of a non-blocking pipe
LARGE_OUTPUT = {
    "qbinom --n 800 --k 8":
        "7286173cbecfb608a10740ddeaf63e8c40161cb05d4c693fa3407d74012d9ead",
    "qbinom --n 3000 --k 8 --format json":
        "e6b6f9cea40a3703a535b15d9348ade88c9b283c1aaaece52a52347e49c31a4c",
    "regions --n 840 --k 7 --format json":
        "3d89de8103b869b5b179f90d30435e84cbf0df1276143a25fd7888084c3e6408",
    "shape --k 8 --samples 20000":
        "d0822dbc967cd8c3eca8ac9f8e9b783ded4a1e5fbf97dee51e9828a33866868c",
    "qbinom --n 2000 --k 8 --format json":
        "8ab980b06881f0429ab5a990394808f5aa9a753cd7b92be4887d8ee0f03408fc",
    # a limit shape stores its density alone and builds its CDF, a piecewise
    # polynomial, where cdf() and the KS sweep read it, once per convergence
    # table: an exact shape, two KS tables and a sample grid keep their bytes
    "shape --k 160 --exact":
        "56c98eb7643f7604a37865a03e5e3d742d87dbd79b3a15b5f6a83330dfeab679",
    "converge --k 8 --n-list 1000,2000,4000":
        "f27e422af2a403e030cc6668b23a068bc21304f111c7b17141a247fe89aa58a5",
    "shape --k 40 --samples 1001":
        "e5ac81c21da98850141e76020fc7486417e1684f66794d44bc792d2b3248d985",
    "converge --k 160 --n-list 1,2,3,4,5,6,7,8":
        "f22e0a46078067165ca4311944a11ca979e2e71704f4d3f06060c53c2c4c68cc",
    # 1.6 M lines, 50 MB
    "qbinom --n 200000 --k 8":
        "6e84e0281e3a875e73acb65c767c173373534e359dc68065718298b9e0eb1ad0",
}


NO_FULL_DEVICE = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def buffering_params(argvs):
    """(argv, unbuffered) for each argv in both stdout modes, with ids
    argvI and argvI-unbuffered."""
    return [
        pytest.param(argv, unbuffered, id=f"argv{i}" + "-unbuffered" * unbuffered)
        for unbuffered in (False, True)
        for i, argv in enumerate(argvs)
    ]


class TestClosedPipe:
    @pytest.mark.parametrize("argv, unbuffered", buffering_params([
        ["qbinom", "--n", "2000", "--k", "8"],
        ["regions", "--n", "840", "--k", "7"],
        ["shape", "--k", "8", "--samples", "20000"],
        ["regions", "--n", "840", "--k", "7", "--format", "csv"],
        ["regions", "--n", "840", "--k", "7", "--format", "json"],
        ["qbinom", "--n", "2000", "--k", "8", "--format", "json"],
    ]))
    def test_reader_closing_early_is_quiet(self, argv, unbuffered):
        # each output is far larger than a pipe buffer, so the command is
        # still writing when its reader goes away after 64 bytes (a JSON
        # document is one line)
        proc = subprocess.Popen([sys.executable, "-m", "qshape.cli", *argv],
                                env=cli_env(unbuffered), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        proc.stdout.read(64)
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1
        proc.stderr.close()

    # run as a program, main writes through its own buffered stream whatever
    # PYTHONUNBUFFERED says, so the flush fails; argparse's own writer would
    # swallow a failed write
    @pytest.mark.parametrize("argv, unbuffered", buffering_params(
        [["--version"], ["--help"], ["plot", "--help"]]))
    def test_reader_gone_before_version_or_help(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_python("-m", "qshape.cli", *argv, unbuffered=unbuffered,
                              stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    @pytest.mark.parametrize("argv, unbuffered", buffering_params(
        [text.split() for text in LARGE_OUTPUT]))
    def test_fast_reader_gets_every_byte(self, argv, unbuffered):
        done = run_python("-m", "qshape.cli", *argv, unbuffered=unbuffered, capture_output=True,
                          timeout=120)
        assert (done.returncode, done.stderr) == (0, b"")
        assert hashlib.sha256(done.stdout).hexdigest() == LARGE_OUTPUT[" ".join(argv)]

    @pytest.mark.parametrize("argv, unbuffered", buffering_params(
        [text.split() for text in list(LARGE_OUTPUT)[:3]]))
    def test_slow_reader_of_a_nonblocking_pipe(self, argv, unbuffered):
        # the pipe fills and a write fails with EAGAIN: the command either gets
        # every byte through or says so, and never exits 0 with bytes missing
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        try:
            proc = subprocess.Popen([sys.executable, "-m", "qshape.cli", *argv],
                                    env=cli_env(unbuffered), stdout=write_end,
                                    stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        chunks = []
        with open(read_end, "rb", buffering=0) as reader:
            while chunk := reader.read(4096):
                chunks.append(chunk)
                time.sleep(0.02)
        _, err = proc.communicate(timeout=60)
        if proc.returncode == 0:
            digest = hashlib.sha256(b"".join(chunks)).hexdigest()
            assert (digest, err) == (LARGE_OUTPUT[" ".join(argv)], b"")
        else:
            assert proc.returncode == 1
            assert re.fullmatch(rb"qshape: i/o error: [^\n]*\n", err), err

    @NO_FULL_DEVICE
    @pytest.mark.parametrize("argv, unbuffered", buffering_params(
        [["qbinom", "--n", "2", "--k", "2"], ["--version"], ["--help"]]))
    def test_full_device(self, argv, unbuffered):
        # every write to /dev/full fails with ENOSPC: one line, then exit 1
        with open("/dev/full", "wb") as full:
            done = run_python("-m", "qshape.cli", *argv, unbuffered=unbuffered, stdout=full,
                              stderr=subprocess.PIPE)
        assert done.returncode == 1
        assert re.fullmatch(rb"qshape: i/o error: \[Errno %d\] [^\n]*\n" % errno.ENOSPC,
                            done.stderr), done.stderr

    @pytest.mark.parametrize("argv, unbuffered", buffering_params(
        [["qbinom", "--n", "2", "--k", "2"], ["--version"], ["--help"]]))
    def test_closed_stdout(self, argv, unbuffered):
        # file descriptor 1 is closed before the interpreter starts, which
        # leaves sys.stdout None
        done = run_python("-m", "qshape.cli", *argv, unbuffered=unbuffered,
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        assert (done.returncode, done.stderr) == (1, b"qshape: i/o error: stdout is closed\n")

    @pytest.mark.parametrize("argv, unbuffered", buffering_params(
        [["converge", "--k", "2", "--n-list", "3,4"]]))
    def test_terminal_gets_each_line_as_it_is_written(self, argv, unbuffered):
        # before the next row is computed, the probe reads the terminal's
        # other end until the last complete line there is the row's, or for
        # at most 10 s, and reports that line; the terminal may hand over
        # what was written in more than one read
        master, slave = os.openpty()
        probe = (
            "import os, select, sys, time\n"
            "import qshape.measure\n"
            "table = qshape.measure.convergence_table\n"
            "def last_line(n):\n"
            "    seen, deadline = b'', time.monotonic() + 10\n"
            "    while True:\n"
            "        line = (seen.rpartition(b'\\n')[0].splitlines() or [b'nothing'])[-1]\n"
            "        wait = deadline - time.monotonic()\n"
            "        if line.startswith(b'%d,' % n) or wait <= 0:\n"
            "            return line.decode()\n"
            f"        if select.select([{master}], [], [], wait)[0]:\n"
            f"            seen += os.read({master}, 4096)\n"
            "def rows(k, ns):\n"
            "    for row in table(k, ns):\n"
            "        yield row\n"
            "        print(last_line(row.n), file=sys.stderr)\n"
            "qshape.measure.convergence_table = rows\n"
            f"sys.argv = ['qshape', *{argv!r}]\n"
            "from qshape.cli import main\n"
            "code = main()\n"
            "print(code, sys.stdout.line_buffering, file=sys.stderr)\n"
        )
        try:
            done = run_python("-c", probe, unbuffered=unbuffered, stdout=slave,
                              stderr=subprocess.PIPE, text=True, pass_fds=(master,))
        finally:
            os.close(slave)
            os.close(master)
        assert done.stderr.splitlines() == ["3,0.177777777778", "4,0.141666666667", "0 True"]


# stderr on /dev/full, where every write fails with ENOSPC, or file
# descriptor 2 closed before the interpreter starts, which leaves sys.stderr None
STDERR_STATES = [pytest.param("full", marks=NO_FULL_DEVICE), "closed"]


def run_with_stderr(argv, unbuffered, state, cwd, stdout=subprocess.PIPE):
    """The program run on argv in `cwd` with stderr in `state`."""
    with open("/dev/full" if state == "full" else os.devnull, "wb") as sink:
        return run_python("-m", "qshape.cli", *argv, unbuffered=unbuffered, stdout=stdout,
                          stderr=sink, cwd=cwd,
                          preexec_fn=(lambda: os.close(2)) if state == "closed" else None)


# (status, stdout): a domain error from the engine, a usage error from
# argparse (a command, a value), a domain error from cmd_plot, a success
STDERR_REQUESTS = {
    "regions --n 5 --k 4": (2, b""),
    "frobnicate": (2, b""),
    "qbinom --n -1 --k 2": (2, b""),
    "plot --demo --n 3 --out x.svg": (2, b""),
    "qbinom --n 2 --k 2": (0, b"1\n1\n2\n1\n1\n"),
}


class TestStderrState:
    """Run as a program, a message that stderr cannot take is dropped: the
    status is the request's own and stdout holds only its output."""

    @pytest.mark.parametrize("state", STDERR_STATES)
    @pytest.mark.parametrize("argv, unbuffered", buffering_params(
        [text.split() for text in STDERR_REQUESTS]))
    def test_status_and_stdout(self, argv, unbuffered, state, tmp_path):
        done = run_with_stderr(argv, unbuffered, state, tmp_path)
        assert (done.returncode, done.stdout) == STDERR_REQUESTS[" ".join(argv)]
        assert not any(tmp_path.iterdir())

    @NO_FULL_DEVICE
    @pytest.mark.parametrize("state", STDERR_STATES)
    @pytest.mark.parametrize("argv, unbuffered", buffering_params(
        [["qbinom", "--n", "2", "--k", "2"]]))
    def test_full_stdout(self, argv, unbuffered, state, tmp_path):
        with open("/dev/full", "wb") as full:
            done = run_with_stderr(argv, unbuffered, state, tmp_path, stdout=full)
        assert done.returncode == 1


def run_probe(probe, closed):
    """Run `probe` in a new interpreter, stderr captured as text and stdout
    discarded or, with `closed`, a pipe whose reader has gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_python("-c", probe, stdout=write_end if closed else subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)


class TestProgramExit:
    """Run as a program, main freezes the collector before the process exits;
    called with an argv, it leaves its caller's collector alone."""

    # a request for each exit path: (argv, Python run before main, stdout
    # closed, status); the internal error is a product kernel that raises
    @pytest.mark.parametrize("argv, setup, closed, status", [
        pytest.param(["qbinom", "--n", "2", "--k", "2"], "", False, 0, id="success"),
        pytest.param(["qbinom", "--n", "-1", "--k", "2"], "", False, 2, id="usage-error"),
        pytest.param(["regions", "--n", "5", "--k", "4"], "", False, 2, id="domain-error"),
        pytest.param(["qbinom", "--n", "2000", "--k", "8"], "", True, 1, id="closed-stdout"),
        pytest.param(["qbinom", "--n", "2", "--k", "2"],
                     "import qshape.qcore\n"
                     "def boom(n, k): raise RuntimeError('boom')\n"
                     "qshape.qcore.q_binomial_box = boom\n", False, 1, id="internal-error"),
    ])
    def test_program_run_freezes_the_collector(self, argv, setup, closed, status):
        # what the `qshape` console script does: set sys.argv, call main()
        probe = (
            "import gc, sys\n" + setup +
            f"sys.argv = ['qshape', *{argv!r}]\n"
            "from qshape.cli import main\n"
            "code = main()\n"
            "print(code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
        )
        done = run_probe(probe, closed)
        assert done.returncode == 0
        assert done.stderr.splitlines()[-1] == f"{status} True"

    @pytest.mark.parametrize("argv, status", [
        (["qbinom", "--n", "2", "--k", "2"], 0),
        (["qbinom", "--n", "-1", "--k", "2"], 2),
        (["regions", "--n", "5", "--k", "4"], 2),
    ])
    def test_main_with_argv_does_not_freeze(self, argv, status, capsys):
        before = gc.get_freeze_count()
        assert main(argv) == status
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, closed, status", [
        (["qbinom", "--n", "2", "--k", "2"], False, 0),
        (["qbinom", "--n", "-1", "--k", "2"], False, 2),
        (["qbinom", "--n", "2000", "--k", "8"], True, 1),
    ], ids=["success", "usage-error", "closed-stdout"])
    def test_exit_status_and_atexit_survive_the_freeze(self, argv, closed, status):
        # `python -m qshape.cli` runs the module as __main__, which exits
        # through sys.exit(main()); a handler registered before still runs
        probe = (
            "import atexit, runpy, sys\n"
            "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
            f"sys.argv = ['qshape', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('qshape.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print('exit', repr(exc.code), file=sys.stderr)\n"
            "    raise\n"
        )
        done = run_probe(probe, closed)
        assert done.returncode == status
        assert done.stderr.splitlines()[-2:] == [f"exit {status}", "atexit ran"]

    def test_profiler_report_survives_the_freeze(self):
        done = run_python("-m", "cProfile", "-m", "qshape.cli", "--version",
                          capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout.startswith(f"qshape {qshape.__version__}\n")
        assert "function calls" in done.stdout and "Ordered by:" in done.stdout

    # a failed --out, whether opening it fails or (on /dev/full) writing it,
    # leaves stdout open for whatever the process writes after main
    @pytest.mark.parametrize("out, error", [
        pytest.param("missing/p.svg", errno.ENOENT, id="missing-directory"),
        pytest.param("/dev/full", errno.ENOSPC, id="full-device", marks=NO_FULL_DEVICE),
    ])
    def test_profiler_report_survives_a_failed_out_file(self, out, error, tmp_path):
        done = run_python("-m", "cProfile", "-m", "qshape.cli", "plot", "--demo", "--out", out,
                          capture_output=True, text=True, cwd=tmp_path)
        assert re.fullmatch(rf"qshape: i/o error: \[Errno {error}\] [^\n]*\n", done.stderr), \
            done.stderr
        assert "function calls" in done.stdout and "Ordered by:" in done.stdout


def run_bounded(argv, address_space, timeout):
    """The program run on argv in `address_space` bytes of address space
    (RLIMIT_AS, which `ulimit -v` sets), killed after `timeout` seconds."""
    limit = (address_space, address_space)
    return run_python("-m", "qshape.cli", *argv, capture_output=True, timeout=timeout,
                      preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))


class TestCostBounds:
    # regions builds no box polynomial, so its cost does not grow with n;
    # converge builds the CDF table once and reads its grid as the KS sweep
    # computes it.  Each keeps its bytes in this much address space
    @pytest.mark.parametrize("argv, mib, digest", [
        ("regions --n 1000000 --k 8", 256,
         "6868aff66d74691460ef98093964be22a1924b68ca75b6e2a1eaa93849254a5e"),
        ("converge --k 8 --n-list 100000", 128,
         "2f24ec8032120fe7ab3e4d6669364aac05f59ce35b63921c118c9c0f552d6a7a"),
        ("converge --k 256 --n-list 1,2", 128,
         "1163cac60341402f66bebc246d67bfb7f3532f497ffbc42686e5173a8001484a"),
    ], ids=["regions", "converge", "converge-at-the-k-bound"])
    def test_runs_in_bounded_memory(self, argv, mib, digest):
        done = run_bounded(argv.split(), mib << 20, timeout=120)
        assert (done.returncode, done.stderr) == (0, b"")
        assert hashlib.sha256(done.stdout).hexdigest() == digest

    # a k past SHAPE_MAX_K or REGIONS_MAX_K is refused before any work that
    # grows with k; a command that started that work would run out of its
    # 1 GiB or time out
    @pytest.mark.parametrize("argv", [
        "shape --k 257 --samples 2", "shape --k 100000 --exact", "shape --k {nines} --samples 2",
        "converge --k 3000 --n-list 1", "plot --n 2 --k 5000 --overlay --out {out}",
        "plot --n 20000000 --k 5000 --color-regions --overlay --out {out}",
        "regions --n 90 --k 13", "regions --n 1000 --k 25", "regions --n 10000 --k 40",
    ])
    def test_k_past_its_bound_is_refused(self, argv, tmp_path):
        out = tmp_path / "p.svg"
        done = run_bounded(argv.format(nines="9" * 4000, out=out).split(), 1 << 30, timeout=2)
        assert (done.returncode, done.stdout, done.stderr.count(b"\n")) == (2, b"", 1)
        assert done.stderr.startswith(b"qshape: error: ") and len(done.stderr) < 300
        assert b"need k <= " in done.stderr and not out.exists()


def _invalid_choice():
    """The running argparse's message for the invalid choice 'c' of (a, b)."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("x", choices=["a", "b"])
    with pytest.raises(argparse.ArgumentError) as caught:
        parser.parse_args(["c"])
    return str(caught.value)


# the quote that argparse puts around each choice it lists for an invalid
# one: "'" in 3.10.13 through 3.13.0, none in 3.13.13, None for any other
# wording, which then fails only the rows that list choices, naming it
CHOICE_WORDING = _invalid_choice()
CHOICE_QUOTE = {"argument x: invalid choice: 'c' (choose from 'a', 'b')": "'",
                "argument x: invalid choice: 'c' (choose from a, b)": ""}.get(CHOICE_WORDING)


def choice_list(*names):
    """The choices of an invalid choice as the running argparse lists them."""
    if CHOICE_QUOTE is None:
        return f"<unknown argparse wording of an invalid choice: {CHOICE_WORDING!r}>"
    return ", ".join(f"{CHOICE_QUOTE}{name}{CHOICE_QUOTE}" for name in names)


# stdout, stderr and exit status at COLUMNS=80, as argparse wrote them before
# the parser was built from the option table; the two lists of choices follow
# the running argparse (choice_list), every other byte is a literal
PINNED = [
    (["--help"], 0,
     "usage: qshape [-h] [--version] {qbinom,regions,shape,converge,plot} ...\n"
     "\n"
     "Coefficients of [n+k choose k]_q, their quasipolynomial regions, limit shapes,\n"
     "and convergence diagnostics.\n"
     "\n"
     "positional arguments:\n"
     "  {qbinom,regions,shape,converge,plot}\n"
     "    qbinom              coefficients of [n+k choose k]_q\n"
     "    regions             quasipolynomial region report\n"
     "    shape               limit shape L_k, exact pieces or samples\n"
     "    converge            KS distance to L_k for each n\n"
     "    plot                normalized bar graph as a deterministic SVG\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --version             show program's version number and exit\n",
     ""),
    (["qbinom", "--help"], 0,
     "usage: qshape qbinom [-h] --n N --k K [--format {coeffs,csv,json}]\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --n N\n"
     "  --k K\n"
     "  --format {coeffs,csv,json}\n",
     ""),
    (["regions", "--help"], 0,
     "usage: qshape regions [-h] --n N --k K [--format {coeffs,csv,json}]\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --n N\n"
     "  --k K\n"
     "  --format {coeffs,csv,json}\n",
     ""),
    (["shape", "--help"], 0,
     "usage: qshape shape [-h] --k K [--exact | --samples SAMPLES]\n"
     "\n"
     "options:\n"
     "  -h, --help         show this help message and exit\n"
     "  --k K\n"
     "  --exact            list exact pieces\n"
     "  --samples SAMPLES  emit S uniformly spaced (x, L_k(x)) rows\n",
     ""),
    (["converge", "--help"], 0,
     "usage: qshape converge [-h] --k K --n-list a,b,c\n"
     "\n"
     "options:\n"
     "  -h, --help      show this help message and exit\n"
     "  --k K\n"
     "  --n-list a,b,c\n",
     ""),
    (["plot", "--help"], 0,
     "usage: qshape plot [-h] [--n N] [--k K] --out OUT [--overlay]\n"
     "                   [--color-regions] [--demo] [--width WIDTH]\n"
     "                   [--height HEIGHT]\n"
     "\n"
     "options:\n"
     "  -h, --help       show this help message and exit\n"
     "  --n N\n"
     "  --k K\n"
     "  --out OUT\n"
     "  --overlay        draw L_k over the bars; the curve is scaled as L_k(x) *\n"
     "                   height / max_density with bar i's density mass_i * (n*k +\n"
     "                   1), so a perfectly converged bar graph would trace the\n"
     "                   curve exactly\n"
     "  --color-regions  fill bars by quasipolynomial region, zones in black\n"
     "  --demo           plot the two-branch demo quasipolynomial on 0..40 instead\n"
     "                   of a q-binomial\n"
     "  --width WIDTH\n"
     "  --height HEIGHT\n",
     ""),
    ([], 2,
     "",
     "usage: qshape [-h] [--version] {qbinom,regions,shape,converge,plot} ...\n"
     "qshape: error: the following arguments are required: command\n"),
    (["frobnicate"], 2,
     "",
     "usage: qshape [-h] [--version] {qbinom,regions,shape,converge,plot} ...\n"
     "qshape: error: argument command: invalid choice: 'frobnicate' "
     f"(choose from {choice_list('qbinom', 'regions', 'shape', 'converge', 'plot')})\n"),
    (["qbinom", "--k", "2"], 2,
     "",
     "usage: qshape qbinom [-h] --n N --k K [--format {coeffs,csv,json}]\n"
     "qshape qbinom: error: the following arguments are required: --n\n"),
    (["qbinom", "--n", "-1", "--k", "2"], 2,
     "",
     "usage: qshape qbinom [-h] --n N --k K [--format {coeffs,csv,json}]\n"
     "qshape qbinom: error: argument --n: must be >= 0, got -1\n"),
    (["regions", "--n", "30", "--k", "4", "--format", "xml"], 2,
     "",
     "usage: qshape regions [-h] --n N --k K [--format {coeffs,csv,json}]\n"
     "qshape regions: error: argument --format: invalid choice: 'xml' "
     f"(choose from {choice_list('coeffs', 'csv', 'json')})\n"),
    (["shape", "--k", "3", "--exact", "--samples", "5"], 2,
     "",
     "usage: qshape shape [-h] --k K [--exact | --samples SAMPLES]\n"
     "qshape shape: error: argument --samples: not allowed with argument --exact\n"),
    (["converge", "--k", "3", "--n-list", ""], 2,
     "",
     "usage: qshape converge [-h] --k K --n-list a,b,c\n"
     "qshape converge: error: argument --n-list: n list is empty\n"),
    (["regions", "--n", "--k", "3"], 2,
     "",
     "usage: qshape regions [-h] --n N --k K [--format {coeffs,csv,json}]\n"
     "qshape regions: error: argument --n: expected one argument\n"),
]

# a value that starts with "-" and names no flag: the space form does what
# the "=" form does (argparse alone would read the value as a flag); the
# SVG of the plot request is pinned by its sha256
SPACE_FORM = [
    (["regions", "--n", "-1_0", "--k", "3"], 2,
     "usage: qshape regions [-h] --n N --k K [--format {coeffs,csv,json}]\n"
     "qshape regions: error: argument --n: must be >= 0, got -10\n"),
    (["converge", "--k", "2", "--n-list", "-1,2"], 2,
     "usage: qshape converge [-h] --k K --n-list a,b,c\n"
     "qshape converge: error: argument --n-list: must be >= 0, got -1\n"),
    (["plot", "--n", "5", "--k", "2", "--out", "-x.svg"], 0,
     "068703db49029803282a28333efc375d53d24616f5aaff45f839976f39416569"),
]

PARSER = _build_parser()
FLAGS = sorted({flag for _, _, options in _COMMANDS.values() for flag in options})
# abbreviations ("--n" for converge's --n-list is one too), "=" values, help,
# "--" and the top-level flag: each one is left to argparse
OTHERS = [*FLAGS, "--form", "--n=5", "-h", "--", "--version"]
VALUES = ["0", "7", "-1", "", " 7", "\u0663", "5,,6", "csv", "xml", "--k", "-h",
          "-1_0", "-1,2", "-x.svg"]
VALID = {_nonneg: st.integers(0, 10**6).map(str),
         _positive: st.integers(1, 10**6).map(str),
         _n_list: st.lists(st.integers(0, 10**6), min_size=1, max_size=4).map(
             lambda ns: ",".join(map(str, ns))),
         str: st.text(st.characters(exclude_categories=("Cs",)), max_size=8).filter(
             lambda t: not _flags(t, _COMMANDS["plot"][2]))}


def argparse_namespace(argv):
    """The namespace of main's fallback: argparse on the joined argv."""
    try:
        return vars(PARSER.parse_args(_joined(argv)))
    except SystemExit:  # pragma: no cover - reported by the assertion below
        return None


def valid_value(keywords):
    """A strategy for the token after a flag that argparse accepts; none for a switch."""
    if "action" in keywords:
        return st.none()
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    return VALID[keywords.get("type", str)]


@st.composite
def drawn_requests(draw):
    """A command or another first token, then flags, mostly the command's
    own and often repeated, each followed by a value (valid for the flag or
    drawn from VALUES) or by none."""
    head = draw(st.sampled_from([*_COMMANDS, "-h", "--", "--version", "--n=5", "qbin"]))
    options = _COMMANDS[head][2] if head in _COMMANDS else {}
    flags = [f for f, kw in options.items() if kw.get("required") and draw(st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from([*options] * 6 + OTHERS), max_size=3))
    argv = [head]
    for flag in draw(st.permutations(flags)):
        drawn = st.sampled_from([None, *VALUES])
        value = draw(valid_value(options[flag]) | drawn if flag in options else drawn)
        argv += [flag] if value is None else [flag, value]
    return argv


@st.composite
def canonical_requests(draw):
    """A command, every required flag and any others (at most one of an
    exclusive pair), in any order, each with a valid value."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options = _COMMANDS[command][2]
    pair = _EXCLUSIVE.get(command, ())
    optional = [f for f, kw in options.items() if not kw.get("required") and f not in pair]
    flags = [f for f, kw in options.items() if kw.get("required")]
    flags += draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
    flags += [draw(st.sampled_from(pair))] if pair and draw(st.booleans()) else []
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw(valid_value(options[flag]))
        argv += [flag] if value is None else [flag, value]
    return argv


# m 10^(1000 e) + r: integers of up to about 20 000 digits, from few random bits
LONG_INTEGERS = st.builds(lambda m, e, r: m * 10**(1000 * e) + r, st.integers(0, 10**30),
                          st.integers(0, 20), st.integers(0, 10**30))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter does not limit int to str conversion")
class TestDigitLimit:
    """An integer option with more digits than int()'s limit, well-formed or
    not, is a usage error that states the digit count and the limit, and
    echoes neither the value nor the name of the type function.  Printed
    integers may have any length, and main never changes the limit."""

    @pytest.mark.parametrize("argv", [
        ["regions", "--n", "{big}", "--k", "3"],
        ["converge", "--k", "3", "--n-list", "5,{big}"],
        ["plot", "--n", "5", "--k", "3", "--width", "{big}", "--out", "{out}"],
        ["regions", "--n", "{big}x", "--k", "3"],
        ["converge", "--k", "3", "--n-list", "5,{big}x"],
        ["plot", "--n", "5", "--k", "3", "--width", "{big}x", "--out", "{out}"],
    ])
    def test_over_the_limit(self, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        limit = sys.get_int_max_str_digits()
        big, out = "1" + "0" * (limit + 100), tmp_path / "p.svg"
        assert main([a.format(big=big, out=out) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert len(captured.err.encode()) < 300
        assert "_nonneg" not in captured.err and "_positive" not in captured.err
        assert f"has {limit + 101} digits" in captured.err and str(limit) in captured.err

    def test_malformed_value_keeps_its_message(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["regions", "--n", "abc", "--k", "3"]) == 2
        assert capsys.readouterr() == ("", (
            "usage: qshape regions [-h] --n N --k K [--format {coeffs,csv,json}]\n"
            "qshape regions: error: argument --n: invalid _nonneg value: 'abc'\n"))

    def test_overlapping_calls_leave_the_limit_alone(self, monkeypatch):
        # A enters its write, B enters its own, A returns, then B: a main that
        # lifted the limit while writing would end with B restoring the 0 it
        # read, unlimited for the rest of the process
        start = sys.get_int_max_str_digits()
        a_in, b_in, a_done = threading.Event(), threading.Event(), threading.Event()
        out, codes = {}, {}

        class Hook:
            def writelines(self, lines):
                name = threading.current_thread().name
                out[name] = "".join(lines)
                (a_in if name == "A" else b_in).set()
                (b_in if name == "A" else a_done).wait(10)

            def flush(self):
                pass

        def call():
            codes[threading.current_thread().name] = main(["regions", "--n", "50", "--k", "4"])

        monkeypatch.setattr(sys, "stdout", Hook())
        a, b = (threading.Thread(target=call, name=name) for name in "AB")
        try:
            a.start()
            assert a_in.wait(10)
            b.start()
            assert b_in.wait(10)
            a.join(10)
            a_done.set()
            b.join(10)
            assert sys.get_int_max_str_digits() == start
        finally:
            sys.set_int_max_str_digits(start)
        assert codes == {"A": 0, "B": 0} and out["A"] == out["B"] != ""

    @settings(max_examples=40)
    @given(LONG_INTEGERS, LONG_INTEGERS, st.integers(1, 10**30), st.booleans())
    def test_ratio_matches_fraction_at_any_length(self, x, y, common, negative):
        a, b = (-x if negative else x) * common, (y + 1) * common
        text, limit = _ratio(a, b), sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the oracle's str() needs no limit
        try:
            expected = str(Fraction(a, b))
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == expected

    @pytest.mark.parametrize("n, k, fmt, digest", [
        ("1" + "0" * 2200, "3", "coeffs",
         "20c96605ee48694fb238e226e12e929dd845e556fea66c63b832055ff868646a"),
        ("1" + "0" * 2200, "3", "csv",
         "bdbb6fc26591d6a5219ec91d93853ecdbad2d434dcd0bcb49ebbbbdd689d453b"),
        ("1" + "0" * 2200, "3", "json",
         "625bf2485ae992cd0243bc17031fcc220916a6a24f4d7ac8d507df682d26f44b"),
        ("9" * 4300, "2", "coeffs",
         "479d7b45a6f89dbcc7780c08edb9e40fa846a1d77ad49c45f0b1bc924df3d648"),
        ("9" * 4300, "2", "csv",
         "0ac6edb8a87b41a75d021c8497c78cb92b08a15c917acdcb38db87652267229f"),
        ("9" * 4300, "2", "json",
         "4b943c198d3dfb4214fa9d216e6336ee84a738733a3febee6fb18031bb9076e8"),
    ], ids=[f"{n}-{fmt}" for n in ("10^2200", "4300-nines") for fmt in ("coeffs", "csv", "json")])
    def test_regions_past_the_limit_keep_their_bytes(self, n, k, fmt, digest, capsys):
        # region bounds and zone values with more digits than str() converts
        assert main(["regions", "--n", n, "--k", k, "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    def test_too_small_n_states_long_values_by_digit_count(self, capsys):
        # min_region_n of a 4 000-digit k has 8 000 digits
        assert main(["regions", "--n", "0", "--k", "9" * 4000]) == 2
        assert capsys.readouterr() == ("", "qshape: error: n=0 too small for k=a number of "
                                           "4000 digits: need n >= a number of 8000 digits\n")


def rejected_by_int(token):
    """Whether token is a non-blank --n-list entry that int() rejects."""
    try:
        int(token)
    except ValueError:
        return token.strip() != ""
    return False


# the digit 0 of a few Unicode scripts; int() reads each script's 0..9
DIGIT_ZEROS = ("0", "\u0660", "\u0966", "\uff10", "\U0001d7ce")


@st.composite
def below_the_bound(draw):
    """(option, bound, token): a token int() reads as a value below the bound,
    padded with zeros, spaces and underscores and
    written partly in non-ASCII digits; short values and ones past _brief's
    200 characters, so that stderr stays under 300 bytes."""
    option, low = draw(st.sampled_from([("--n", 0), ("--k", 1)]))
    value = draw(st.one_of(st.integers(1 - low, 10**100),
                           st.integers(10**201, 10**300)))
    digits = "0" * draw(st.integers(0, 300)) + str(value)
    written = ""
    for i, d in enumerate(digits):
        if i and draw(st.integers(0, 9)) == 0:
            written += "_"  # int() takes one underscore between digits
        written += chr(ord(draw(st.sampled_from(DIGIT_ZEROS))) + int(d))
    pad = st.text(st.sampled_from(" \t\u3000"), max_size=300)
    sign = "-" if value or draw(st.booleans()) else ""
    return option, low, f"{draw(pad)}{sign}{written}{draw(pad)}"


class TestRejectedValueMessage:
    """A rejected integer gets one short message from the check that rejected
    it: a bad --n-list entry is named alone, cut at 200 characters, and a long
    value below the bound is stated by its digit count."""

    def usage_error(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_bad_entry_after_many_good_ones(self, monkeypatch, capsys):
        err = self.usage_error(["converge", "--k", "3", "--n-list", "1," * 3000 + "abc"],
                               monkeypatch, capsys)
        assert len(err.encode()) < 300 and "'abc'" in err and "1,1,1" not in err
        assert err.endswith("argument --n-list: bad n list entry: "
                            "invalid literal for int() with base 10: 'abc'\n")

    def test_long_bad_entry_is_cut(self, monkeypatch, capsys):
        err = self.usage_error(["converge", "--k", "3", "--n-list", "5," + "x" * 5000],
                               monkeypatch, capsys)
        assert len(err.encode()) < 400 and "x" * 190 in err

    def test_long_negative_value_states_its_digit_count(self, monkeypatch, capsys):
        err = self.usage_error(["regions", "--n", "-" + "9" * 4000, "--k", "3"],
                               monkeypatch, capsys)
        assert len(err.encode()) < 300
        assert "argument --n: must be >= 0, got a number of 4000 digits" in err

    @pytest.mark.parametrize("token", ["-" + "0" * 300 + "1", " " * 300 + "-1"],
                             ids=["leading-zeros", "leading-spaces"])
    def test_padded_token_states_its_value(self, token, monkeypatch, capsys):
        # the value is short however long its token: padding is not a digit of it
        err = self.usage_error(["regions", "--n", token, "--k", "3"], monkeypatch, capsys)
        assert err.endswith("argument --n: must be >= 0, got -1\n")

    @settings(max_examples=60)
    @given(below_the_bound())
    def test_value_below_the_bound_is_stated_by_brief(self, case):
        option, low, token = case
        argv = ["regions", *(f"{o}={t}" for o, t in {"--n": "5", "--k": "3", option: token}.items())]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert out.getvalue() == "" and len(err.getvalue().encode()) < 300
        assert err.getvalue().endswith(f"argument {option}: must be >= {low}, "
                                       f"got {_brief(int(token))}\n")

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
           st.text(st.characters(exclude_categories=("Cs",), exclude_characters=","),
                   min_size=1, max_size=15).filter(rejected_by_int))
    def test_bad_entry_is_named(self, good, token):
        # the token's repr stays under the 200 characters that int() keeps
        argv = ["converge", "--k", "3", "--n-list", ",".join(map(str, good + [token]))]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert out.getvalue() == ""
        assert err.getvalue().endswith(f"argument --n-list: bad n list entry: "
                                       f"invalid literal for int() with base 10: {token!r}\n")


class FailingStream(io.StringIO):
    """A text stream whose every write fails with an i/o error."""

    def write(self, text):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


class TestParser:
    @pytest.mark.parametrize("argv, status, out, err", PINNED)
    def test_fallback_output_is_pinned(self, argv, status, out, err, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert _parse(argv) is None
        code = main(argv)
        assert (code, *capsys.readouterr()) == (status, out, err)

    @pytest.mark.parametrize("argv, status, pinned", SPACE_FORM,
                             ids=[" ".join(argv) for argv, _, _ in SPACE_FORM])
    def test_value_starting_with_a_dash_reads_as_its_equals_form(
            self, argv, status, pinned, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        i = next(i for i, token in enumerate(argv)
                 if token.startswith("-") and not token.startswith("--"))
        value = argv[i]
        equals_form = argv[:i - 1] + [f"{argv[i - 1]}={value}"] + argv[i + 1:]
        assert _joined(argv) == equals_form
        for form in (argv, equals_form):
            code, (out, err) = main(form), capsys.readouterr()
            assert (code, out) == (status, "")
            if status:
                assert err == pinned
            else:
                svg = (tmp_path / value).read_bytes()
                assert err == "" and hashlib.sha256(svg).hexdigest() == pinned
                (tmp_path / value).unlink()

    @settings(max_examples=100)
    @given(st.sampled_from(["regions --n {} --k 3", "regions --k {} --n 30",
                            "qbinom --format {} --n 3 --k 2", "converge --n-list {} --k 2",
                            "converge --n {} --k 2", "shape --samples {} --k 2"]),
           st.text(st.characters(exclude_categories=("Cs",)), max_size=8).map(lambda t: "-" + t))
    def test_space_form_does_what_the_equals_form_does(self, template, value):
        # any value that starts with "-" and names no flag of the command
        (*head, flag), tail = (part.split() for part in template.split("{}"))
        assume(not _flags(value, _COMMANDS[head[0]][2]))
        outputs = []
        for form in ([flag, value], [f"{flag}={value}"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*head, *form, *tail])
            outputs.append((code, out.getvalue(), err.getvalue()))
        assert outputs[0] == outputs[1]

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr() == (f"qshape {qshape.__version__}\n", "")

    def test_threads_write_help_to_the_callers_stdout(self, monkeypatch):
        # argparse writes help to sys.stdout, which main leaves in place: each
        # help text reaches the stream the caller installed once per call
        monkeypatch.setenv("COLUMNS", "80")
        argvs = [("--help",), ("qbinom", "--help"), ("plot", "--help"), ("frobnicate",)]
        serial = {}
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                serial[argv] = main(argv), out.getvalue(), err.getvalue()
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        calls = [(main, (argv,)) for argv in argvs] * 10
        slots = hammer(calls)
        assert sys.stdout is out and sys.stderr is err
        for slot in slots:
            assert len(slot) == len(calls)
            for (_, (argv,)), code in slot:
                assert code == serial[argv][0]
        repeats = len(slots) * len(calls) // len(argvs)
        assert len(out.getvalue()) == repeats * sum(len(text) for _, text, _ in serial.values())
        for argv, (_, text, _) in serial.items():
            assert text == "" or out.getvalue().count(text) == repeats
        # argparse writes a usage error in two lines, which threads may interleave
        assert sorted(err.getvalue().splitlines()) == sorted(
            repeats * [line for _, _, text in serial.values() for line in text.splitlines()])

    # as a library call, a failed write of help or --version is reported like
    # any other: argparse's own writer would drop it and exit 0
    @pytest.mark.parametrize("argv", [["--help"], ["plot", "--help"], ["--vers"]])
    def test_failed_write_of_help_exits_one(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", FailingStream())
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"qshape: i/o error: \[Errno {errno.EIO}\] [^\n]*\n", err), err

    # a failed or impossible write of any error message keeps its status: a
    # usage error from argparse, a domain error from the engine and from
    # cmd_plot, an internal error (a product kernel that raises) and a failed
    # write of help to a failing stdout, with a stderr that fails or is None
    @pytest.mark.parametrize("stderr", [FailingStream, None], ids=["failing", "none"])
    @pytest.mark.parametrize("argv, status", [
        pytest.param(["frobnicate"], 2, id="usage-error"),
        pytest.param(["regions", "--n", "5", "--k", "4"], 2, id="domain-error"),
        pytest.param(["plot", "--demo", "--n", "3", "--out", "x.svg"], 2, id="plot-error"),
        pytest.param(["qbinom", "--n", "2", "--k", "2"], 1, id="internal-error"),
        pytest.param(["--help"], 1, id="failed-help"),
    ])
    def test_failed_write_of_a_usage_error_keeps_its_status(self, argv, status, stderr,
                                                            monkeypatch, tmp_path):
        import qshape.qcore

        def boom(n, k):
            raise RuntimeError("boom")

        monkeypatch.setattr(qshape.qcore, "q_binomial_box", boom)
        monkeypatch.chdir(tmp_path)
        out = FailingStream() if argv == ["--help"] else io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", stderr and stderr())
        assert main(argv) == status
        assert out.getvalue() == ""
        assert not any(tmp_path.iterdir())

    @settings(max_examples=400)
    @given(drawn_requests())
    def test_direct_parse_agrees_with_argparse(self, argv):
        direct = _parse(argv)
        if direct is not None:
            assert vars(direct) == argparse_namespace(argv)

    @settings(max_examples=200)
    @given(canonical_requests())
    def test_canonical_requests_parse_directly(self, argv):
        direct = _parse(argv)
        assert direct is not None
        assert vars(direct) == argparse_namespace(argv)
