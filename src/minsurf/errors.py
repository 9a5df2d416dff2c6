"""Exception types shared across the package, and the CLI's exit codes.

Every failure mode that callers are expected to branch on gets its own class;
generic misuse (bad shapes, negative step sizes) stays ValueError.  Classes
whose constructor takes fields rather than the message define __reduce__, so
every error pickles (a forked worker sends them back to its parent).

Each class's exit_code is the status `minsurf` exits with when it escapes a
subcommand: 2 for the numerical breakdowns (NewtonDiverged, BlowUp,
SingularJacobian, DegenerateTangents, ConstraintDrift, SingularMetric,
ComplexEigenvalues, QuadratureFailure, IntegratorFailure), 1 for a failed
gate (ClosednessViolation, WorkerFailure), and 64 for the rest, which are
bad requests.  This module imports no numpy, so importing minsurf stays
free of it.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_DIVERGED = 2
EXIT_USAGE = 64


class MinsurfError(Exception):
    """Base class for package-specific failures."""
    exit_code = EXIT_USAGE


class ComplexEigenvalues(MinsurfError):
    """Shape-operator discriminant is negative beyond tolerance."""
    exit_code = EXIT_DIVERGED

    def __init__(self, min_discriminant: float):
        self.min_discriminant = float(min_discriminant)
        super().__init__(
            f"complex principal curvatures: min discriminant {min_discriminant:.3e}"
        )

    def __reduce__(self):
        return type(self), (self.min_discriminant,)


class BlowUp(MinsurfError):
    """The invariant profile left the representable range before x_max.

    Expected behaviour when integrating past the maximal half-width; carries
    the abscissa actually reached, which approximates that half-width.
    """
    exit_code = EXIT_DIVERGED

    def __init__(self, x_reached: float, g_reached: float):
        self.x_reached = float(x_reached)
        self.g_reached = float(g_reached)
        super().__init__(
            f"profile blow-up at x = {x_reached:.15g} (g = {g_reached:.3g})"
        )

    def __reduce__(self):
        return type(self), (self.x_reached, self.g_reached)


class IntegratorFailure(MinsurfError):
    """The ODE integrator stopped short of x_max without blowing up."""
    exit_code = EXIT_DIVERGED


class QuadratureFailure(MinsurfError):
    """delta(v0) could not be computed: its Simpson rule and the rule on every
    other node differ by more than 1e-8, or v0 is so large that the
    integrand overflows float64."""
    exit_code = EXIT_DIVERGED


class DomainExceedsDelta(MinsurfError):
    """Requested chart extends to or past the maximal half-width."""


class NewtonDiverged(MinsurfError):
    """Damped Newton made no progress; carries the last residual."""
    exit_code = EXIT_DIVERGED

    def __init__(self, iterations: int, residual: float):
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(
            f"Newton diverged after {iterations} iterations "
            f"(residual {residual:.3e})"
        )

    def __reduce__(self):
        return type(self), (self.iterations, self.residual)


class SingularJacobian(MinsurfError):
    """The Newton linear solve broke down or returned a non-finite step."""
    exit_code = EXIT_DIVERGED


class ConstraintDrift(MinsurfError):
    """Frame integration lost the hyperboloid/orthonormality constraints."""
    exit_code = EXIT_DIVERGED

    def __init__(self, drift: float, where: str = ""):
        self.drift = float(drift)
        self.where = where
        super().__init__(
            f"frame constraint drift {drift:.3e} exceeds 1e-6"
            + (f" ({where})" if where else "")
        )

    def __reduce__(self):
        return type(self), (self.drift, self.where)


class DegenerateTangents(MinsurfError):
    """Finite-difference tangents do not span a spacelike plane."""
    exit_code = EXIT_DIVERGED


class SingularMetric(MinsurfError):
    """Recovered first fundamental form is not positive definite."""
    exit_code = EXIT_DIVERGED


class NotOnZ(MinsurfError):
    """Requested node is not on the zero locus at the given tolerance."""


class NonGenericCurve(MinsurfError):
    """Zero-locus curve too close to a straight line for the construction."""


class ClosedZeroCurve(MinsurfError):
    """Zero set encloses nodes of u > tol_z, which no solution has."""


class BallExceedsChart(MinsurfError):
    """Deformation support ball does not fit inside the chart."""


class WrongHolonomyClass(MinsurfError):
    """Tube holonomy is not in the class the builder handles."""


class ZeroHolonomyInTranslationCase(MinsurfError):
    """Translation builder called with a trivial-holonomy tube."""


class ClosednessViolation(MinsurfError):
    """Hessian-column 1-forms fail the discrete closedness gate."""
    exit_code = EXIT_VERIFY


class OverlappingNeighbourhoods(MinsurfError):
    """Deformation supports of two zero-locus components intersect."""


class WorkerFailure(MinsurfError):
    """A forked worker ended without sending its lane's result."""
    exit_code = EXIT_VERIFY

    def __init__(self, lane: str, status: int):
        self.lane = lane
        self.status = int(status)
        super().__init__(
            f"worker for lane {lane!r} ended without a result "
            f"(wait status {status})"
        )

    def __reduce__(self):
        return type(self), (self.lane, self.status)
