"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
generic misuse (bad shapes, negative step sizes) stays ValueError.  Classes
whose constructor takes fields rather than the message define __reduce__, so
every error pickles (a forked worker sends them back to its parent).
"""

from __future__ import annotations


class MinsurfError(Exception):
    """Base class for package-specific failures."""


class ComplexEigenvalues(MinsurfError):
    """Shape-operator discriminant is negative beyond tolerance."""

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


class QuadratureFailure(MinsurfError):
    """Adaptive quadrature did not reach the requested accuracy."""


class DomainExceedsDelta(MinsurfError):
    """Requested chart extends to or past the maximal half-width."""


class NewtonDiverged(MinsurfError):
    """Damped Newton made no progress; carries the last residual."""

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


class ConstraintDrift(MinsurfError):
    """Frame integration lost the hyperboloid/orthonormality constraints."""

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


class SingularMetric(MinsurfError):
    """Recovered first fundamental form is not positive definite."""


class NotOnZ(MinsurfError):
    """Requested node is not on the zero locus at the given tolerance."""


class NonGenericCurve(MinsurfError):
    """Zero-locus curve too close to a straight line for the construction."""


class BallExceedsChart(MinsurfError):
    """Deformation support ball does not fit inside the chart."""


class WrongHolonomyClass(MinsurfError):
    """Tube holonomy is not in the class the builder handles."""


class ZeroHolonomyInTranslationCase(MinsurfError):
    """Translation builder called with a trivial-holonomy tube."""


class ClosednessViolation(MinsurfError):
    """Hessian-column 1-forms fail the discrete closedness gate."""


class OverlappingNeighbourhoods(MinsurfError):
    """Deformation supports of two zero-locus components intersect."""


class WorkerFailure(MinsurfError):
    """A forked worker ended without sending its lane's result."""

    def __init__(self, lane: str, status: int):
        self.lane = lane
        self.status = int(status)
        super().__init__(
            f"worker for lane {lane!r} ended without a result "
            f"(wait status {status})"
        )

    def __reduce__(self):
        return type(self), (self.lane, self.status)
