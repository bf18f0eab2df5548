"""Exact q-binomial coefficients, quasipolynomial regions, and limit shapes.

The exported names are resolved on first access (PEP 562), so importing the
package, or one submodule such as ``qshape.cli``, loads no other submodule.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exactnum": ("Polynomial",),
    "qcore": ("CoefficientReport", "coefficient_report", "q_binomial", "q_binomial_box"),
    "quasi": ("Quasipolynomial", "Region", "RegionDecomposition", "SignedTerm",
              "fit_quasipolynomial", "initial_quasipolynomial", "numerator_expansion",
              "region_decomposition"),
    "shape": ("PiecewisePolynomial", "cube_slice_volume", "irwin_hall_density", "limit_shape"),
    "measure": (
        "ConvergenceRow",
        "EmpiricalMeasure",
        "convergence_table",
        "ks_distance",
        "measure_from_polynomial",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
