"""Command-line surface: qshape <qbinom|regions|shape|converge|plot>.

Exit status: 0 on success, 2 on a usage error (bad arguments or arguments
outside an operation's domain), 1 on an internal error.  CSV output uses a
header row, comma separation, and LF line endings; all outputs, SVG
included, are byte-identical for identical inputs.  Each cmd_* yields the
lines of its output (plot writes its SVG to --out and yields none); main is
the one writer of stdout and maps errors to exit statuses.
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__
from .errors import InvalidArguments

# Each command imports the engine modules it uses, so a process loads only
# what its command needs (start-up dominates small requests).


def _invalid(message: str) -> Exception:
    # argparse is imported only on this error branch and in _build_parser,
    # so a well-formed request never loads it
    import argparse

    return argparse.ArgumentTypeError(message)


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise _invalid(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise _invalid(f"must be >= 1, got {value}")
    return value


def _n_list(text: str) -> list[int]:
    try:
        values = [_nonneg(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise _invalid(f"bad n list {text!r}") from exc
    if not values:
        raise _invalid("n list is empty")
    return values


def cmd_qbinom(args):
    from .qcore import q_binomial_box

    poly = q_binomial_box(args.n, args.k)
    if args.format == "coeffs":
        yield from (f"{c}\n" for c in poly.coeffs)
    elif args.format == "csv":
        yield "index,coefficient\n"
        yield from (f"{i},{c}\n" for i, c in enumerate(poly.coeffs))
    else:
        import json

        doc = {"n": args.n, "k": args.k, "degree": poly.degree, "coefficients": poly.coeffs}
        yield from (json.dumps(doc), "\n")


def cmd_regions(args):
    from .quasi import region_decomposition

    decomp = region_decomposition(args.n, args.k)
    zones = [(left, right, decomp.coeffs[left:right + 1])
             for left, right in decomp.transition_zones]
    if args.format == "json":
        import json

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
                    "residue_polynomials": region.formula.residue_coefficients(),
                }
                for region in decomp.regions
            ],
            "transition_zones": [
                {"left": left, "right": right, "coefficients": values}
                for left, right, values in zones
            ],
        }
        yield from (json.dumps(doc), "\n")
        return
    csv = args.format == "csv"
    if csv:
        yield "kind,index,left,right,valid_from,period,residue,formula\n"
    for g in decomp.regions:
        f = g.formula
        if not csv:
            yield (f"region {g.index}: interval [{g.left}, {g.right}]"
                   f" (formula valid from {g.valid_from}), period {f.period}, degree {f.degree}\n")
        for r, text in enumerate(f.residue_strings("m", descending=True)):
            yield (f"region,{g.index},{g.left},{g.right},{g.valid_from},{f.period},{r},{text}\n"
                   if csv else f"  m = {r} (mod {f.period}): {text}\n")
    for i, (left, right, values) in enumerate(zones):
        joined = " ".join(str(v) for v in values)
        yield (f"zone,{i},{left},{right},,,,{joined}\n" if csv
               else f"transition zone [{left}, {right}]: {joined}\n")


def cmd_shape(args):
    from .exactnum import _ratio, _render_rows
    from .shape import limit_shape

    curve, k = limit_shape(args.k), args.k
    if args.samples is None:
        for i, text in enumerate(_render_rows(*curve._density, "x", True)):
            yield f"piece {i} on [{_ratio(i, k)}, {_ratio(i + 1, k)}]: {text}\n"
    else:
        # L_k at j/d for j = 0..d: integer numerators over one denominator
        d = args.samples - 1
        values, den = curve._grid(curve._density, d)
        yield "x,value\n"
        # d = 0 gives the one point x = 0, which prints as 0 over any d > 0
        yield from (f"{_ratio(j, d or 1)},{_ratio(v, den)}\n" for j, v in enumerate(values))


def cmd_converge(args):
    from .measure import convergence_table

    rows = convergence_table(args.k, args.n_list)
    yield "n,ks\n"
    yield from (f"{row.n},{row.ks:.12g}\n" for row in rows)


def cmd_plot(args):
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
    yield from ()  # the SVG file is the output: no lines for stdout


# The one description of the command line: command -> (function, help,
# {flag: add_argument keywords}).  argparse is built from it for help and
# errors; _parse reads it directly for well-formed requests.
_COMMANDS = {
    "qbinom": (cmd_qbinom, "coefficients of [n+k choose k]_q", {
        "--n": {"type": _nonneg, "required": True},
        "--k": {"type": _nonneg, "required": True},
        "--format": {"choices": ("coeffs", "csv", "json"), "default": "coeffs"},
    }),
    "regions": (cmd_regions, "quasipolynomial region report", {
        "--n": {"type": _nonneg, "required": True},
        "--k": {"type": _positive, "required": True},
        "--format": {"choices": ("coeffs", "csv", "json"), "default": "coeffs"},
    }),
    "shape": (cmd_shape, "limit shape L_k, exact pieces or samples", {
        "--k": {"type": _positive, "required": True},
        "--exact": {"action": "store_true", "help": "list exact pieces"},
        "--samples": {"type": _positive, "default": None,
                      "help": "emit S uniformly spaced (x, L_k(x)) rows"},
    }),
    "converge": (cmd_converge, "KS distance to L_k for each n", {
        "--k": {"type": _positive, "required": True},
        "--n-list": {"type": _n_list, "required": True, "metavar": "a,b,c"},
    }),
    "plot": (cmd_plot, "normalized bar graph as a deterministic SVG", {
        "--n": {"type": _nonneg},
        "--k": {"type": _positive},
        "--out": {"required": True},
        "--overlay": {"action": "store_true",
                      "help": "draw L_k over the bars; the curve is scaled as "
                      "L_k(x) * height / max_density with bar i's density "
                      "mass_i * (n*k + 1), so a perfectly converged bar graph "
                      "would trace the curve exactly"},
        "--color-regions": {"action": "store_true",
                            "help": "fill bars by quasipolynomial region, zones in black"},
        "--demo": {"action": "store_true",
                   "help": "plot the two-branch demo quasipolynomial on 0..40 "
                   "instead of a q-binomial"},
        "--width": {"type": _positive, "default": 800},
        "--height": {"type": _positive, "default": 300},
    }),
}
_EXCLUSIVE = {"shape": ("--exact", "--samples")}  # mutually exclusive flags


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="qshape",
        description="Coefficients of [n+k choose k]_q, their quasipolynomial "
        "regions, limit shapes, and convergence diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"qshape {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        pair = _EXCLUSIVE.get(command, ())
        group = p.add_mutually_exclusive_group() if pair else p
        for flag, keywords in options.items():
            (group if flag in pair else p).add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _parse(argv: list[str]):
    """The namespace argparse gives a well-formed request: a command, then
    exact flags of it, each value in its own token not starting with "-" and
    passing the flag's type and choices.  None for any other argv (help,
    "--form", "--n=5", "-1", a bad value), which is left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    given, tokens = {}, iter(argv[1:])
    for flag in tokens:
        keywords = options.get(flag)
        if keywords is None:
            return None
        if "action" in keywords:  # store_true
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value is left to argparse as well
        if text.startswith("-"):
            return None
        try:
            given[flag] = value = keywords.get("type", str)(text)
        except Exception:  # argparse converts it again and reports the failure
            return None
        if value not in keywords.get("choices", (value,)):
            return None
    if len(given.keys() & _EXCLUSIVE.get(argv[0], ())) > 1 or any(
            keywords.get("required") and flag not in given for flag, keywords in options.items()):
        return None
    values = {"command": argv[0], "func": func}
    for flag, keywords in options.items():
        default = keywords.get("default", False if "action" in keywords else None)
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code = 0
        if argv == ["--version"]:
            sys.stdout.write(f"qshape {__version__}\n")
        else:
            args = _parse(argv)
            if args is None:
                import contextlib
                import io

                try:  # argparse drops a failed write, so it writes to a buffer
                    with contextlib.redirect_stdout(io.StringIO()) as text:
                        args = _build_parser().parse_args(argv)
                except SystemExit as exc:  # argparse has written help or a usage error
                    args, code = None, int(exc.code or 0)
                sys.stdout.write(text.getvalue())  # a vanished reader raises here
            if args is not None:
                # one write per text; unbuffered stdout drops a short write, so a
                # JSON document's newline is a write of its own to see a gone reader
                sys.stdout.writelines(args.func(args))
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
