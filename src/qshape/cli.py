"""Command-line surface: qshape <qbinom|regions|shape|converge|plot>.

Exit status: 0 on success, 2 on a usage error (bad arguments or arguments
outside an operation's domain), 1 on an internal error.  CSV output uses a
header row, comma separation, and LF line endings; all outputs, SVG
included, are byte-identical for identical inputs.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import InvalidArguments

# Each command imports the engine modules it uses, so a process loads only
# what its command needs (start-up dominates small requests).


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _n_list(text: str) -> list[int]:
    try:
        values = [_nonneg(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("n list is empty")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshape",
        description="Coefficients of [n+k choose k]_q, their quasipolynomial "
        "regions, limit shapes, and convergence diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"qshape {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qbinom", help="coefficients of [n+k choose k]_q")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--format", choices=("coeffs", "csv", "json"), default="coeffs")
    p.set_defaults(func=cmd_qbinom)

    p = sub.add_parser("regions", help="quasipolynomial region report")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--format", choices=("coeffs", "csv", "json"), default="coeffs")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("shape", help="limit shape L_k, exact pieces or samples")
    p.add_argument("--k", type=_positive, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="list exact pieces")
    mode.add_argument("--samples", type=_positive, default=None,
                      help="emit S uniformly spaced (x, L_k(x)) rows")
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("converge", help="KS distance to L_k for each n")
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--n-list", type=_n_list, required=True, metavar="a,b,c")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("plot", help="normalized bar graph as a deterministic SVG")
    p.add_argument("--n", type=_nonneg)
    p.add_argument("--k", type=_positive)
    p.add_argument("--out", required=True)
    p.add_argument("--overlay", action="store_true",
                   help="draw L_k over the bars; the curve is scaled as "
                   "L_k(x) * height / max_density with bar i's density "
                   "mass_i * (n*k + 1), so a perfectly converged bar graph "
                   "would trace the curve exactly")
    p.add_argument("--color-regions", action="store_true",
                   help="fill bars by quasipolynomial region, zones in black")
    p.add_argument("--demo", action="store_true",
                   help="plot the two-branch demo quasipolynomial on 0..40 "
                   "instead of a q-binomial")
    p.add_argument("--width", type=_positive, default=800)
    p.add_argument("--height", type=_positive, default=300)
    p.set_defaults(func=cmd_plot)
    return parser


def cmd_qbinom(args) -> int:
    from .qcore import q_binomial_box

    poly = q_binomial_box(args.n, args.k)
    out = sys.stdout
    if args.format == "coeffs":
        for c in poly.coeffs:
            out.write(f"{c}\n")
    elif args.format == "csv":
        out.write("index,coefficient\n")
        for i, c in enumerate(poly.coeffs):
            out.write(f"{i},{c}\n")
    else:
        import json

        out.write(json.dumps(
            {"n": args.n, "k": args.k, "degree": poly.degree,
             "coefficients": list(poly.coeffs)}))
        out.write("\n")
    return 0


def cmd_regions(args) -> int:
    from .quasi import region_decomposition

    decomp = region_decomposition(args.n, args.k)
    out = sys.stdout
    zone_values = {
        zone: list(decomp.coeffs[zone[0]:zone[1] + 1]) for zone in decomp.transition_zones
    }
    if args.format == "coeffs":
        for region in decomp.regions:
            f = region.formula
            out.write(
                f"region {region.index}: interval [{region.left}, {region.right}]"
                f" (formula valid from {region.valid_from}),"
                f" period {f.period}, degree {f.degree}\n"
            )
            for r, text in enumerate(f.residue_strings("m", descending=True)):
                out.write(f"  m = {r} (mod {f.period}): {text}\n")
        for zone, values in zone_values.items():
            joined = " ".join(str(v) for v in values)
            out.write(f"transition zone [{zone[0]}, {zone[1]}]: {joined}\n")
    elif args.format == "csv":
        out.write("kind,index,left,right,valid_from,period,residue,formula\n")
        for region in decomp.regions:
            f = region.formula
            for r, text in enumerate(f.residue_strings("m", descending=True)):
                out.write(
                    f"region,{region.index},{region.left},{region.right},"
                    f"{region.valid_from},{f.period},{r},{text}\n"
                )
        for i, (zone, values) in enumerate(zone_values.items()):
            joined = " ".join(str(v) for v in values)
            out.write(f"zone,{i},{zone[0]},{zone[1]},,,,{joined}\n")
    else:
        import json

        from .exactnum import _ratio

        doc = {
            "n": decomp.n,
            "k": decomp.k,
            "regions": [
                {
                    "index": region.index,
                    "left": region.left,
                    "right": region.right,
                    "valid_from": region.valid_from,
                    "period": region.formula.period,
                    "degree": region.formula.degree,
                    "residue_polynomials": region.formula.residue_coefficients(_ratio),
                }
                for region in decomp.regions
            ],
            "transition_zones": [
                {"left": zone[0], "right": zone[1], "coefficients": values}
                for zone, values in zone_values.items()
            ],
        }
        out.write(json.dumps(doc))
        out.write("\n")
    return 0


def cmd_shape(args) -> int:
    from .exactnum import _ratio, _render_rows
    from .shape import limit_shape

    curve, k = limit_shape(args.k), args.k
    out = sys.stdout
    if args.samples is None:
        for i, text in enumerate(_render_rows(*curve._density, "x", True)):
            out.write(f"piece {i} on [{_ratio(i, k)}, {_ratio(i + 1, k)}]: {text}\n")
    else:
        # L_k at j/d for j = 0..d: integer numerators over one denominator
        d = args.samples - 1
        values, den = curve._grid(curve._density, d)
        out.write("x,value\n")
        # d = 0 gives the one point x = 0, which prints as 0 over any d > 0
        out.writelines(f"{_ratio(j, d or 1)},{_ratio(v, den)}\n" for j, v in enumerate(values))
    return 0


def cmd_converge(args) -> int:
    from .measure import convergence_table

    rows = convergence_table(args.k, args.n_list)
    out = sys.stdout
    out.write("n,ks\n")
    for row in rows:
        out.write(f"{row.n},{row.ks:.12g}\n")
    return 0


def cmd_plot(args) -> int:
    from .svgplot import PlotSpec, region_fills, render_svg

    if args.demo:
        given = {"--n": args.n is not None, "--k": args.k is not None,
                 "--overlay": args.overlay, "--color-regions": args.color_regions}
        flag = next((name for name, on in given.items() if on), None)
        if flag:
            raise InvalidArguments(f"plot --demo cannot be combined with {flag}")
        from .quasi import demo_quasipolynomial

        f = demo_quasipolynomial()
        # den * f(m): bars are drawn relative to the tallest, so den cancels
        spec = PlotSpec(
            bar_heights=tuple(f._numerator(m) for m in range(41)),
            width_px=args.width,
            height_px=args.height,
            title="two-branch quasipolynomial, arguments 0..40",
        )
    else:
        if args.n is None or args.k is None:
            raise InvalidArguments("plot needs --n and --k (or --demo)")
        fills = None
        if args.color_regions:
            from .quasi import region_decomposition

            decomp = region_decomposition(args.n, args.k)
            coeffs = decomp.coeffs
            fills = region_fills(len(coeffs), decomp.regions)
        else:
            from .qcore import q_binomial_box

            coeffs = q_binomial_box(args.n, args.k).coeffs
        overlay = None
        if args.overlay:
            from .shape import limit_shape

            curve = limit_shape(args.k)
            # L_k at j/512 in bar-value units: L(x) * total / bars  (see --help)
            values, den = curve._grid(curve._density, 512)
            total = sum(coeffs)
            overlay = (tuple(v * total for v in values), den * len(coeffs))
        spec = PlotSpec(
            bar_heights=coeffs,
            width_px=args.width,
            height_px=args.height,
            title=f"coefficients of [{args.n}+{args.k} choose {args.k}]_q",
            overlay=overlay,
            region_colors=fills,
        )
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_svg(spec))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed write is reported below, not at exit
        return code
    except InvalidArguments as exc:
        print(f"qshape: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone (as with `| head`): stop quietly, and
        # send what is still buffered to devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"qshape: i/o error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal-consistency failures
        print(f"qshape: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
