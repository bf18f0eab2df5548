"""Run one ``qshape`` CLI request with a span around every public function.

Usage: python traced_cli.py SPANS.json ARG...

The package is not modified: after ``import qshape.cli`` this script
rebinds the module attributes (and the copies that ``cli``, ``quasi`` and
``measure`` imported by name) to wrappers that record a span, then calls
``qshape.cli.main(ARGS)``.  A span is [name, start, end, parent index,
size attributes]; spans stay in memory and are written to SPANS.json at
exit, with the request they belong to (ARGS), the ``cache_info()`` of the
four memoised functions and the moments at which this script started the
import, finished it, finished wrapping and got control back from
``main``.  The clock is ``time.perf_counter``, which on Linux is
CLOCK_MONOTONIC and so shared with the parent process: the parent's spawn
and reap times bracket these moments on the same time line.
"""
import sys
import time

_clock = time.perf_counter
_spans: list = []
_stack: list = []


def _wrap(name, fn, attrs=None):
    def traced(*args, **kwargs):
        _stack.append(len(_spans))
        record = [name, 0.0, 0.0, _stack[-2] if len(_stack) > 1 else -1, None]
        _spans.append(record)
        record[1] = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = _clock()
            _stack.pop()
        if attrs is not None:
            record[4] = attrs(args, result)
        return result

    return traced


def _bits(poly) -> int:
    return max((abs(c.numerator).bit_length() for c in poly.coeffs), default=0)


def _poly(args, r):
    return {"degree": r.degree, "bits": _bits(r)}


def _box(args, r):
    return {"n": args[0], "k": args[1], "degree": r.degree, "bits": _bits(r)}


def _degree(args, r):
    return {"degree": r.degree}


def _quasi(args, r):
    return {"period": r.period, "degree": r.degree}


def _length(args, r):
    return {"terms": len(r)}


def _decomposition(args, r):
    # the validity scan evaluates each formula from `right` down to the
    # first mismatch: right - valid_from + 1 matches plus that mismatch
    scanned = sum(g.right - g.valid_from + 1 + (g.valid_from > 0) for g in r.regions)
    return {"n": r.n, "k": r.k, "period": r.regions[0].formula.period, "scan_points": scanned}


def _shape(args, r):
    return {"k": r.k, "degree": r.pieces[0].degree}


def _measure(args, r):
    return {"atoms": len(r.atoms)}


def _ks(args, r):
    return {"atoms": len(args[0].atoms), "k": args[1].k}


def _svg(args, r):
    return {"bytes": len(r.encode("utf-8"))}


def _targets():
    """(owner, attribute, span name, size attributes) for every wrapped function."""
    from qshape import exactnum, measure, qcore, quasi, shape, svgplot

    poly, qp, pw = exactnum.Polynomial, quasi.Quasipolynomial, shape.PiecewisePolynomial
    return [
        (qcore, "q_factorial", "qcore.q_factorial", _degree),
        (qcore, "q_binomial", "qcore.q_binomial", _poly),
        (qcore, "q_binomial_box", "qcore.q_binomial_box", _box),
        (qcore, "q_binomial_partition_dp", "qcore.q_binomial_partition_dp", _poly),
        (qcore, "q_binomial_pascal", "qcore.q_binomial_pascal", _poly),
        (qcore, "coefficient_report", "qcore.coefficient_report", None),
        (poly, "exact_div", "exactnum.exact_div", _poly),
        (poly, "taylor_shift", "exactnum.taylor_shift", _degree),
        (poly, "antiderivative", "exactnum.antiderivative", None),
        (poly, "__pow__", "exactnum.pow", _degree),
        (exactnum, "solve_linear_rational", "exactnum.solve_linear_rational", _length),
        (qp, "arg_shifted", "quasi.arg_shifted", None),
        (quasi, "reciprocal_series", "quasi.reciprocal_series", _length),
        (quasi, "fit_quasipolynomial", "quasi.fit_quasipolynomial", _quasi),
        (quasi, "initial_quasipolynomial", "quasi.initial_quasipolynomial", _quasi),
        (quasi, "numerator_expansion", "quasi.numerator_expansion", _length),
        (quasi, "coefficient_via_recursion", "quasi.coefficient_via_recursion", None),
        (quasi, "region_decomposition", "quasi.region_decomposition", _decomposition),
        (quasi, "demo_quasipolynomial", "quasi.demo_quasipolynomial", None),
        (shape, "limit_shape", "shape.limit_shape", _shape),
        (pw, "cdf", "shape.cdf", None),
        (pw, "evaluate", "shape.evaluate", None),
        (shape, "irwin_hall_density", "shape.irwin_hall_density", None),
        (shape, "cube_slice_volume", "shape.cube_slice_volume", None),
        (measure, "measure_from_polynomial", "measure.measure_from_polynomial", _measure),
        (measure, "ks_distance", "measure.ks_distance", _ks),
        (measure, "convergence_table", "measure.convergence_table", None),
        (svgplot, "render_svg", "svgplot.render_svg", _svg),
        (svgplot, "region_fills", "svgplot.region_fills", None),
    ]


def install() -> dict:
    """Wrap every target and rebind each module-level name bound to it.
    Returns the original functions by span name."""
    import qshape
    from qshape import cli, exactnum, measure, qcore, quasi, shape, svgplot

    originals, replacement = {}, {}
    for owner, attribute, name, attrs in _targets():
        original = owner.__dict__[attribute]
        wrapped = _wrap(name, original, attrs)
        setattr(owner, attribute, wrapped)
        originals[name] = original
        replacement[id(original)] = wrapped
    for module in (qshape, cli, exactnum, measure, qcore, quasi, shape, svgplot):
        for attribute, value in list(vars(module).items()):
            if id(value) in replacement:
                setattr(module, attribute, replacement[id(value)])
    return originals


_CACHED = ("qcore.q_factorial", "quasi.initial_quasipolynomial",
           "quasi.numerator_expansion", "shape.limit_shape")


def main() -> int:
    import json

    out_path, argv = sys.argv[1], sys.argv[2:]
    started = _clock()
    import qshape.cli

    imported = _clock()
    originals = install()
    main_ = _wrap("cli.main", qshape.cli.main)
    installed = _clock()
    code = main_(argv)
    returned = _clock()
    caches = {name: originals[name].cache_info()._asdict() for name in _CACHED}
    clock = {"started": started, "imported": imported, "installed": installed,
             "returned": returned}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"request": argv, "clock": clock, "spans": _spans, "caches": caches}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
