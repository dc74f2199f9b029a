"""Numerical laboratory for suspension semi-flows of angle-multiplying maps.

The package computes, at desk scale, every quantity attached to the flow
under a positive trig-polynomial ceiling over tau(x) = ell*x mod 1: inverse
branches and their expansion/slope data, cone-transversality exponents, the
weak-mixing dichotomy through the cobounding potential, Ulam spectra and
correlation decay, anisotropic Sobolev norms on a Fourier grid, and the
perturbation-family genericity diagnostics.

Each public name below is imported from its module on first access (PEP 562),
so ``import semiflow`` loads no submodule and a subcommand loads only the
modules it runs.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {
    "CeilingClass": "ceiling", "TrigPolynomial": "ceiling", "classify": "ceiling",
    "extrema": "ceiling",
    "FlowPoint": "dynamics", "advance": "dynamics", "advance_through": "dynamics",
    "branch_table": "dynamics", "inverse_branches": "dynamics",
    "DomainViolation": "errors", "InvalidArgument": "errors", "NumericalFailure": "errors",
    "ParseError": "errors", "PreconditionViolation": "errors", "ResourceLimit": "errors",
    "SemiflowError": "errors", "ValidationError": "errors",
    "CoboundaryReport": "mixing", "Verdict": "mixing", "cobounding_potential": "mixing",
    "cocycle_residual": "mixing", "eigenfunction_check": "mixing",
    "weak_mixing_test": "mixing",
    "TransversalityEstimate": "transversality", "exponent_fit": "transversality",
    "m_of_t": "transversality", "n_of_t": "transversality",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
