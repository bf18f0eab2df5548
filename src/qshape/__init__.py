"""Exact q-binomial coefficients, quasipolynomial regions, and limit shapes.

The exported names are looked up in their submodules on each access (PEP 562)
and never stored here, so importing the package, or one submodule such as
``qshape.cli``, loads no other submodule, and the package holds no state.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exactnum": ("Polynomial",),
    "qcore": ("q_binomial", "q_binomial_box"),
    "quasi": ("Quasipolynomial", "Region", "RegionDecomposition", "SignedTerm",
              "fit_quasipolynomial", "initial_quasipolynomial", "numerator_expansion",
              "region_decomposition"),
    "shape": ("PiecewisePolynomial", "limit_shape"),
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
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
