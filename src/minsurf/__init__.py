"""Numerical toolkit for minimal surfaces in hyperbolic 3-space.

The pieces fit together in one pipeline:

- ``invariant_ode``: the translation-invariant profile g'' = 2 cosh(2g),
  its blow-up width, and conversion to a chart solution.
- ``pde``: damped inexact Newton solver for the conformal-factor equation
  Delta u = 2 cosh(2u) on rectangle and cylinder charts (MINRES steps with a
  fast-Poisson preconditioner; the Laplacian is applied matrix-free).
- ``geometry``: fundamental forms, shape operator, principal curvatures,
  and Christoffel symbols of e^{2u}(dx^2 + dy^2).
- ``immersion``: Gauss-Weingarten frame integration into the hyperboloid
  model, equidistant (normal) flow, and reading the forms back off an
  immersed grid.
- ``variation``: first-order rates of the fundamental forms and of the
  shape operator under a normal field t |-> f, plus finite-difference
  cross checks through the immersion.
- ``deform``: construction of normal fields that open the principal
  curvatures along the zero set of u (point, half-turn and translation
  holonomy cases) and detection/genericity analysis of that zero set.
- ``acceptance``: the quantitative verification suite.
- ``cli``: ``minsurf`` command line front end.

Top-level names resolve lazily so that importing :mod:`minsurf` (in
particular through the ``minsurf`` console script, which must apply the
``MINSURF_THREADS`` cap before the numerical stack loads) stays free of
numpy/scipy imports until something is actually used.

Diagnostics (such as the per-step Newton trace of ``pde.solve``) go to the
``minsurf`` logger, silent unless the caller configures logging.
"""

from __future__ import annotations

import importlib
import logging

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"

_EXPORTS = {
    "GridSpec": ".fields",
    "ScalarField": ".fields",
    "OperatorField": ".fields",
    "MinsurfError": ".errors",
    "BlowUp": ".errors",
    "IntegratorFailure": ".errors",
    "QuadratureFailure": ".errors",
    "DomainExceedsDelta": ".errors",
    "ComplexEigenvalues": ".errors",
    "NewtonDiverged": ".errors",
    "SingularJacobian": ".errors",
    "ConstraintDrift": ".errors",
    "DegenerateTangents": ".errors",
    "SingularMetric": ".errors",
    "NotOnZ": ".errors",
    "NonGenericCurve": ".errors",
    "BallExceedsChart": ".errors",
    "WrongHolonomyClass": ".errors",
    "ZeroHolonomyInTranslationCase": ".errors",
    "ClosednessViolation": ".errors",
    "OverlappingNeighbourhoods": ".errors",
    "WorkerFailure": ".errors",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value  # cache so __getattr__ runs once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
