"""Command-line surface: qshape <qbinom|regions|shape|converge|plot>.

Exit status: 0 on success, 2 on a usage error (bad arguments or arguments
outside an operation's domain), 1 on an internal or i/o error.  CSV output
uses a header row, comma separation, and LF line endings; all outputs, SVG
included, are byte-identical for identical inputs.  Each cmd_* yields the
lines of its output (plot writes its SVG to --out and yields none); main
writes them, and argparse writes help and --version text, to the same
sys.stdout; main reports a failed write of either and maps errors to exit
statuses.  Every message for stderr, argparse's usage errors included, goes
through _report, which drops a write that fails or has no stderr to go to:
the state of stderr never changes a status and never puts a message on
stdout.
"""
from __future__ import annotations

import gc
import io
import os
import sys
from types import SimpleNamespace

from . import __version__
from .errors import InvalidArguments

# Each command imports the engine modules it uses, so a process loads only
# what its command needs (start-up dominates small requests).


def _report(text: str) -> None:
    """Write text to sys.stderr, when there is one: the one writer of messages.
    A failed write is dropped, so it never changes the exit status."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(text)
    except (OSError, ValueError):  # ValueError: a closed stream
        pass


def _invalid(message: str) -> Exception:
    # argparse is imported only on this error branch and in _build_parser,
    # so a well-formed request never loads it
    import argparse

    return argparse.ArgumentTypeError(message)


def _nonneg(text: str, low: int = 0) -> int:
    """int(text), which must be >= low: the one check of every integer option.
    A token past the interpreter's limit is stated by its decimal digits (as
    int() counts them), and a value below low by exactnum._brief."""
    digits = sum(map(str.isdecimal, text))
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() = 0: no limit
    if limit and digits > limit:
        raise _invalid(f"has {digits} digits, more than this interpreter's limit of {limit}")
    if (value := int(text)) < low:
        from .exactnum import _brief  # only on this error branch: --version loads no exactnum

        raise _invalid(f"must be >= {low}, got {_brief(value)}")
    return value


def _positive(text: str) -> int:
    return _nonneg(text, 1)


def _n_list(text: str) -> list[int]:
    try:
        values = [_nonneg(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:  # int()'s message names the bad entry, cut at 200 characters
        raise _invalid(f"bad n list entry: {exc}") from exc
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
        yield json.dumps(doc) + "\n"


def cmd_regions(args):
    from .exactnum import _ratio
    from .quasi import region_decomposition

    decomp = region_decomposition(args.n, args.k)
    # integers print through _ratio: at n = 10^2200 they pass str()'s digit limit
    regions = [(g, *(_ratio(v, 1) for v in (g.left, g.right, g.valid_from)))
               for g in decomp.regions]
    zones = [(_ratio(left, 1), _ratio(right, 1), [_ratio(v, 1) for v in values])
             for (left, right), values in zip(decomp.transition_zones, decomp.zone_values)]
    if args.format == "json":
        import json

        # json.dumps's layout for the whole document, written one region at a time
        yield f'{{"n": {decomp.n}, "k": {decomp.k}, "regions": ['
        for g, left, right, start in regions:
            f = g.formula
            yield (f'{", " if g.index else ""}{{"index": {g.index}, "left": {left}, '
                   f'"right": {right}, "valid_from": {start}, "period": {f.period}, '
                   f'"degree": {f.degree}, "residue_polynomials": '
                   f'{json.dumps(f.residue_coefficients())}}}')
        yield '], "transition_zones": [' + ", ".join(
            f'{{"left": {left}, "right": {right}, "coefficients": [{", ".join(values)}]}}'
            for left, right, values in zones) + "]}\n"
        return
    csv = args.format == "csv"
    if csv:
        yield "kind,index,left,right,valid_from,period,residue,formula\n"
    for g, left, right, start in regions:
        f = g.formula
        if not csv:
            yield (f"region {g.index}: interval [{left}, {right}]"
                   f" (formula valid from {start}), period {f.period}, degree {f.degree}\n")
        for r, text in enumerate(f.residue_strings()):
            yield (f"region,{g.index},{left},{right},{start},{f.period},{r},{text}\n"
                   if csv else f"  m = {r} (mod {f.period}): {text}\n")
    for i, (left, right, values) in enumerate(zones):
        joined = " ".join(values)
        yield (f"zone,{i},{left},{right},,,,{joined}\n" if csv
               else f"transition zone [{left}, {right}]: {joined}\n")


def cmd_shape(args):
    from .exactnum import _ratio, _render_rows
    from .shape import limit_shape

    curve, k = limit_shape(args.k), args.k
    if args.samples is None:
        rows, den = curve._density
        for i, text in enumerate(_render_rows(tuple(zip(*rows)), k, den, "x", True)):
            yield f"piece {i} on [{_ratio(i, k)}, {_ratio(i + 1, k)}]: {text}\n"
    else:
        # L_k at j/d for j = 0..d: integer numerators over one denominator
        d = args.samples - 1
        values, den = curve._grid(d)
        yield "x,value\n"
        # d = 0 gives the one point x = 0, which prints as 0 over any d > 0
        yield from (f"{_ratio(j, d or 1)},{_ratio(v, den)}\n" for j, v in enumerate(values))


def cmd_converge(args):
    from .measure import convergence_table

    rows = convergence_table(args.k, args.n_list)
    yield "n,ks\n"
    yield from (f"{row.n},{row.ks:.12g}\n" for row in rows)


def cmd_plot(args):
    from .svgplot import region_fills, render_svg

    overlay = fills = None
    if args.demo:
        given = {"--n": args.n is not None, "--k": args.k is not None,
                 "--overlay": args.overlay, "--color-regions": args.color_regions}
        flag = next((name for name, on in given.items() if on), None)
        if flag:
            raise InvalidArguments(f"plot --demo cannot be combined with {flag}")
        from .quasi import demo_quasipolynomial

        f = demo_quasipolynomial()
        # den * f(m): bars are drawn relative to the tallest, so den cancels
        bars = tuple(f._numerator(m) for m in range(41))
        title = "two-branch quasipolynomial, arguments 0..40"
    else:
        if args.n is None or args.k is None:
            raise InvalidArguments("plot needs --n and --k (or --demo)")
        if args.overlay:  # first, so a k past SHAPE_MAX_K is refused before any work
            from .shape import limit_shape

            overlay = limit_shape(args.k)._grid(512)  # L_k at j/512
        if args.color_regions:
            from .quasi import _region_intervals

            fills = region_fills(args.n * args.k + 1, _region_intervals(args.n, args.k))
        from .qcore import q_binomial_box

        bars = q_binomial_box(args.n, args.k).coeffs
        title = f"coefficients of [{args.n}+{args.k} choose {args.k}]_q"
        if overlay:  # in bar-value units: L(x) * total / bars  (see --help)
            (values, den), total = overlay, sum(bars)
            overlay = (tuple(v * total for v in values), den * len(bars))
    try:  # rendered in full before --out is opened, so a failure leaves it as it was
        svg = render_svg(bars, args.width, args.height, title, overlay, fills)
    except OverflowError:
        from .exactnum import _brief

        raise InvalidArguments(f"plot --width {_brief(args.width)} --height {_brief(args.height)}"
                               ": a coordinate passes the float range") from None
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(svg)
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

    class Parser(argparse.ArgumentParser):
        # help and --version text: a failed write reaches main, which
        # reports it and exits 1
        def _print_message(self, message, file=None):
            sys.stdout.write(message)

        # argparse's bytes, but through _report: without a stderr, argparse
        # would print the usage line to stdout
        def error(self, message):
            _report(self.format_usage())
            _report(f"{self.prog}: error: {message}\n")
            self.exit(2)

    parser = Parser(
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


def _flags(token: str, options) -> list[str]:
    """The flags, of the command's options and -h/--help, that argparse may
    read token as: the one it names, else for a "--" token every flag it
    abbreviates (the text after an "=" is a value).  A token that reads as
    none of them is a value, even when it starts with "-"."""
    name = token.partition("=")[0]
    if name in options or name == "-h":
        return [name]
    if not name.startswith("--"):
        return []
    return [flag for flag in (*options, "--help") if flag.startswith(name)]


def _joined(argv: list[str]) -> list[str]:
    """argv with each value that starts with "-" joined by "=" to the flag
    before it, the one form in which argparse reads such a value.  A token
    that names a flag (_flags) is no value, and nothing after "--" is joined."""
    options = _COMMANDS[argv[0]][2] if argv and argv[0] in _COMMANDS else {}
    valued = {flag for flag, keywords in options.items() if "action" not in keywords}
    joined = argv[:1]
    for token in argv[1:]:
        flag = [] if "=" in joined[-1] or "--" in joined else _flags(joined[-1], options)
        if (len(flag) == 1 and flag[0] in valued and token.startswith("-")
                and not _flags(token, options)):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


def _parse(argv: list[str]):
    """The namespace argparse gives a well-formed request: a command, then
    exact flags of it, each value in its own token, naming no flag (_flags)
    and passing the flag's type and choices.  None for any other argv (help,
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
        text = next(tokens, "--")  # a missing value is left to argparse as well
        if _flags(text, options):
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
    """Run one request and return its exit status; every message goes
    through _report, so the state of stderr changes neither.  With no argv,
    main runs as the program (`python -m qshape.cli`, the `qshape` script) on
    sys.argv, through a stdout stream of its own.  Before it returns, it
    flushes stdout and stderr and points a stream that still fails at
    devnull, so the interpreter's flush at exit cannot fail again and turn
    the status into 120.  It then freezes the collector: the process exits
    next, and interpreter shutdown skips the collection passes over objects
    that the OS frees anyway.  main(argv) writes to its caller's sys.stdout
    and sys.stderr and never freezes."""
    program = argv is None
    argv = sys.argv[1:] if program else list(argv)
    try:
        if program:  # 64 KiB blocks over fd 1 (lines on a terminal) whatever
            # PYTHONUNBUFFERED says; the BufferedWriter retries a short write
            if sys.stdout is None:
                raise OSError("stdout is closed")
            sys.stdout.flush()
            binary = open(1, "wb", 1 << 16, closefd=False)
            sys.stdout = io.TextIOWrapper(binary, sys.stdout.encoding, sys.stdout.errors, "\n",
                                          line_buffering=binary.isatty())
        code = 0
        if argv == ["--version"]:
            sys.stdout.write(f"qshape {__version__}\n")
        else:
            args = _parse(argv)
            if args is None:
                try:
                    args = _build_parser().parse_args(_joined(argv))
                except SystemExit as exc:  # argparse has written help or a usage error
                    args, code = None, int(exc.code or 0)
            if args is not None:
                sys.stdout.writelines(args.func(args))
        sys.stdout.flush()  # a failed write is reported below, not at exit
        return code
    except InvalidArguments as exc:
        _report(f"qshape: error: {exc}\n")
        return 2
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):  # else the reader has gone, as with `| head`
            _report(f"qshape: i/o error: {exc}\n")
        return 1
    except Exception as exc:  # pragma: no cover - internal-consistency failures
        _report(f"qshape: internal error: {str(exc) or type(exc).__name__}\n")
        return 1
    finally:
        if program:
            for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
                try:
                    if stream is not None:
                        stream.flush()
                except (OSError, ValueError):
                    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
