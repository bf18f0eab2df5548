import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qshape
from qshape.cli import (_COMMANDS, _EXCLUSIVE, _build_parser, _n_list, _nonneg, _parse,
                        _positive, main)
from qshape.qcore import q_binomial_box
from qshape.quasi import demo_quasipolynomial
from qshape.shape import limit_shape
from qshape.svgplot import PlotSpec, _fmt, render_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def bar_fills(svg_text):
    return re.findall(r'<rect class="bar"[^>]*fill="([^"]+)"', svg_text)


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
    def test_coeff_lines(self, capsys):
        code, out = run(capsys, "qbinom", "--n", "2", "--k", "2")
        assert code == 0
        assert out == "1\n1\n2\n1\n1\n"

    def test_empty_box(self, capsys):
        code, out = run(capsys, "qbinom", "--n", "0", "--k", "5")
        assert code == 0
        assert out == "1\n"

    def test_negative_n_is_usage_error(self, capsys):
        code = main(["qbinom", "--n", "-1", "--k", "2"])
        capsys.readouterr()
        assert code == 2

    def test_csv_roundtrip_sums_to_binomial(self, capsys):
        code, out = run(capsys, "qbinom", "--n", "7", "--k", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,coefficient"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == math.comb(11, 4)
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(29))

    def test_json(self, capsys):
        code, out = run(capsys, "qbinom", "--n", "2", "--k", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["degree"] == 4
        assert doc["coefficients"] == [1, 1, 2, 1, 1]

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
        assert calls.count((50, 4)) == 1


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

    def test_sampled_k1(self, capsys):
        code, out = run(capsys, "shape", "--k", "1", "--samples", "3")
        assert out == "x,value\n0,1\n1/2,1\n1,1\n"

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

    def test_empty_list_is_usage_error(self, capsys):
        code = main(["converge", "--k", "3", "--n-list", ""])
        capsys.readouterr()
        assert code == 2

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


# the exact stdout of small requests, one per command and format (qbinom's
# coeffs format is pinned by TestQbinom.test_coeff_lines)
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
    (["qbinom", "--n", "2", "--k", "2", "--format", "csv"],
     "index,coefficient\n0,1\n1,1\n2,2\n3,1\n4,1\n"),
    (["shape", "--k", "3", "--samples", "4"], "x,value\n0,0\n1/3,3/2\n2/3,3/2\n1,0\n"),
    (["converge", "--k", "2", "--n-list", "3,4"], "n,ks\n3,0.177777777778\n4,0.141666666667\n"),
]


class TestExactOutput:
    @pytest.mark.parametrize("argv, out", PINNED_OUTPUT,
                             ids=[" ".join(argv) for argv, _ in PINNED_OUTPUT])
    def test_stdout_is_pinned(self, argv, out, capsys):
        assert main(argv) == 0
        assert capsys.readouterr() == (out, "")


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


def fresh_python(code):
    """stdout of `code` run in a new interpreter that imports this package."""
    result = subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True,
        timeout=60, check=True,
    )
    return result.stdout


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
            " listed, len(qshape.__all__))"
        )
        assert fresh_python(probe) == "True True 22\n"

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


class TestPlot:
    def test_title_escaping(self):
        spec = PlotSpec(bar_heights=(1,), width_px=10, height_px=10, title='a & b <c> "d"')
        assert (
            '<text x="15" y="20" text-anchor="middle" font-family="sans-serif" '
            'font-size="14">a &amp; b &lt;c&gt; "d"</text>'
        ) in render_svg(spec).splitlines()

    def test_plain_bars(self, tmp_path, capsys):
        out_file = tmp_path / "p.svg"
        assert main(["plot", "--n", "2", "--k", "2", "--out", str(out_file)]) == 0
        svg = out_file.read_text()
        heights = bar_heights(svg)
        assert len(heights) == 5
        top = max(heights)
        assert [h / top for h in heights] == [0.5, 0.5, 1.0, 0.5, 0.5]

    def test_max_bar_is_exact_height(self, tmp_path):
        out_file = tmp_path / "p.svg"
        main(["plot", "--n", "12", "--k", "3", "--height", "240", "--out", str(out_file)])
        assert max(bar_heights(out_file.read_text())) == 240.0

    def test_first_last_equal(self, tmp_path):
        out_file = tmp_path / "p.svg"
        main(["plot", "--n", "10", "--k", "4", "--out", str(out_file)])
        heights = bar_heights(out_file.read_text())
        assert heights[0] == heights[-1]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            main(["plot", "--n", "20", "--k", "3", "--overlay", "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()

    def test_color_regions_bands(self, tmp_path):
        out_file = tmp_path / "c.svg"
        main(["plot", "--n", "50", "--k", "4", "--color-regions", "--out", str(out_file)])
        fills = bar_fills(out_file.read_text())
        assert len(fills) == 201
        runs = [fills[0]]
        for fill in fills[1:]:
            if fill != runs[-1]:
                runs.append(fill)
        assert runs == ["red", "black", "yellow", "black", "green", "black", "blue"]

    def test_color_regions_below_two_periods(self, tmp_path):
        # n = 50 < 2 lcm(1..7) = 840: every region of k = 7 is nonempty from n = 27 on
        out_file = tmp_path / "c.svg"
        assert main(["plot", "--n", "50", "--k", "7", "--color-regions", "--out", str(out_file)]) == 0
        fills = bar_fills(out_file.read_text())
        assert len(fills) == 351
        runs = [fills[0]]
        for fill in fills[1:]:
            if fill != runs[-1]:
                runs.append(fill)
        colors = ["red", "yellow", "green", "blue", "orange", "purple", "teal"]
        assert runs[::2] == colors and set(runs[1::2]) == {"black"}

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

    @settings(max_examples=50, deadline=None, database=None)
    @given(
        st.lists(st.integers(0, 10 ** 30), min_size=1, max_size=5).filter(any),
        st.lists(st.integers(0, 10 ** 30), min_size=1, max_size=5),
        st.integers(1, 10 ** 12),
        st.integers(1, 2000),
        st.integers(1, 1000),
    )
    def test_overlay_render_matches_fraction_oracle(self, bars, values, den, width, height):
        spec = PlotSpec(tuple(bars), width, height, "", overlay=(tuple(values), den))
        # point j of n + 1 values sits at j/n of the width (a single one at 0)
        points = [(Fraction(j, max(len(values) - 1, 1)), Fraction(v, den))
                  for j, v in enumerate(values)]
        assert polyline(render_svg(spec)) == polyline_oracle(bars, width, height, points)

    @pytest.mark.parametrize("overlay", [((), 1), ((1, 2), 0)])
    def test_overlay_needs_a_value_and_a_positive_den(self, overlay):
        with pytest.raises(ValueError, match="overlay"):
            render_svg(PlotSpec((1, 2), 10, 10, "", overlay=overlay))

    @pytest.mark.parametrize("n, k, width, height, colored", [
        (2, 2, 800, 300, False),
        (10, 4, 333, 97, False),
        (300, 5, 7, 1000, False),
        (50, 4, 800, 300, True),
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

    @settings(max_examples=50, deadline=None, database=None)
    @given(
        st.lists(st.integers(0, 10 ** 30), min_size=1, max_size=20).filter(any),
        st.integers(1, 2000),
        st.integers(1, 1000),
    )
    def test_bar_render_matches_fraction_oracle(self, bars, width, height):
        spec = PlotSpec(tuple(bars), width, height, "")
        assert svg_bars(render_svg(spec)) == bar_oracle(bars, width, height)

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

    # buffered stdout, the default, fails only at the flush; with
    # PYTHONUNBUFFERED=1 the write itself fails, which argparse's own writer
    # would swallow
    @pytest.mark.parametrize("argv, unbuffered", buffering_params(
        [["--version"], ["--help"], ["plot", "--help"]]))
    def test_reader_gone_before_version_or_help(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "qshape.cli", *argv],
                                  env=cli_env(unbuffered), stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


# stdout, stderr and exit status at COLUMNS=80, as argparse wrote them before
# the parser was built from the option table
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
     "(choose from 'qbinom', 'regions', 'shape', 'converge', 'plot')\n"),
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
     "(choose from 'coeffs', 'csv', 'json')\n"),
    (["shape", "--k", "3", "--exact", "--samples", "5"], 2,
     "",
     "usage: qshape shape [-h] --k K [--exact | --samples SAMPLES]\n"
     "qshape shape: error: argument --samples: not allowed with argument --exact\n"),
    (["converge", "--k", "3", "--n-list", ""], 2,
     "",
     "usage: qshape converge [-h] --k K --n-list a,b,c\n"
     "qshape converge: error: argument --n-list: n list is empty\n"),
]

PARSER = _build_parser()
FLAGS = sorted({flag for _, _, options in _COMMANDS.values() for flag in options})
# abbreviations ("--n" for converge's --n-list is one too), "=" values, help,
# "--" and the top-level flag: each one is left to argparse
OTHERS = [*FLAGS, "--form", "--n=5", "-h", "--", "--version"]
VALUES = ["0", "7", "-1", "", " 7", "\u0663", "5,,6", "csv", "xml", "--k", "-h"]
VALID = {_nonneg: st.integers(0, 10**6).map(str),
         _positive: st.integers(1, 10**6).map(str),
         _n_list: st.lists(st.integers(0, 10**6), min_size=1, max_size=4).map(
             lambda ns: ",".join(map(str, ns))),
         str: st.text(st.characters(exclude_categories=("Cs",)), max_size=8).filter(
             lambda t: not t.startswith("-"))}


def argparse_namespace(argv):
    try:
        return vars(PARSER.parse_args(argv))
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


class TestParser:
    def test_unknown_command(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code = main(["--help"])
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize("argv, status, out, err", PINNED)
    def test_fallback_output_is_pinned(self, argv, status, out, err, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert _parse(argv) is None
        code = main(argv)
        assert (code, *capsys.readouterr()) == (status, out, err)

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr() == (f"qshape {qshape.__version__}\n", "")

    @settings(max_examples=400, deadline=None)
    @given(drawn_requests())
    def test_direct_parse_agrees_with_argparse(self, argv):
        direct = _parse(argv)
        if direct is not None:
            assert vars(direct) == argparse_namespace(argv)

    @settings(max_examples=200, deadline=None)
    @given(canonical_requests())
    def test_canonical_requests_parse_directly(self, argv):
        direct = _parse(argv)
        assert direct is not None
        assert vars(direct) == argparse_namespace(argv)
