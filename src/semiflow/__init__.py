"""Numerical laboratory for suspension semi-flows of angle-multiplying maps.

The package computes, at desk scale, every quantity attached to the flow
under a positive trig-polynomial ceiling over tau(x) = ell*x mod 1: inverse
branches and their expansion/slope data, cone-transversality exponents, the
weak-mixing dichotomy through the cobounding potential, Ulam spectra and
correlation decay, anisotropic Sobolev norms on a Fourier grid, and the
perturbation-family genericity diagnostics.
"""

from .ceiling import CeilingClass, TrigPolynomial, classify, extrema
from .dynamics import (FlowPoint, advance, advance_through, branch_table,
                       inverse_branches)
from .errors import (DomainViolation, InvalidArgument, NumericalFailure,
                     ParseError, PreconditionViolation, ResourceLimit,
                     SemiflowError, ValidationError)
from .mixing import (CoboundaryReport, Verdict, cobounding_potential,
                     cocycle_residual, eigenfunction_check, weak_mixing_test)
from .transversality import TransversalityEstimate, exponent_fit, m_of_t, n_of_t

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
