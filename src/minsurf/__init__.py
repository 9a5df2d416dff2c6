"""Numerical toolkit for minimal surfaces in hyperbolic 3-space.

The pieces fit together in one pipeline:

- ``invariant_ode``: the translation-invariant profile g'' = 2 cosh(2g),
  its blow-up width, and conversion to a chart solution.
- ``pde``: damped inexact Newton solver for the conformal-factor equation
  Delta u = 2 cosh(2u) on rectangle and cylinder charts (MINRES steps with a
  fast-Poisson preconditioner; the Laplacian is applied matrix-free).
- ``geometry``: fundamental forms, shape operator and principal
  curvatures of e^{2u}(dx^2 + dy^2) charts.
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
- ``kernels``: the numpy kernels these share: not-a-knot cubic splines,
  cubic Hermite evaluation and composite Simpson quadrature.

numpy is the only runtime dependency; scipy serves the tests as an oracle.

The package level holds only the error classes, so importing
:mod:`minsurf` loads no numpy: the ``minsurf`` console script must apply
the ``MINSURF_THREADS`` cap before the numerical stack loads.  Everything
else is imported from its module.

Diagnostics (such as the per-step Newton trace of ``pde.solve``) go to the
``minsurf`` logger, silent unless the caller configures logging.
"""

from __future__ import annotations

import logging

from . import errors as _errors

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"

# every error class, bound now: minsurf.errors imports no numpy
_ERRORS = {k: v for k, v in vars(_errors).items()
           if isinstance(v, type) and issubclass(v, _errors.MinsurfError)}
globals().update(_ERRORS)

__all__ = ["__version__", *sorted(_ERRORS)]
