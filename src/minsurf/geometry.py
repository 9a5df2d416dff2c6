"""Pointwise geometry of a minimal surface chart in hyperbolic 3-space.

A chart is carried by a single scalar field u on a flat coordinate grid.
In these coordinates the fundamental forms of the surface are

    I  = e^{2u} (dx^2 + dy^2),     II = dx^2 - dy^2,

so the shape operator is B = I^{-1} II = e^{-2u} diag(1, -1), the principal
curvatures are +-e^{-2u}, the mean curvature vanishes identically, and the
Gauss equation reduces to the cosh-Gordon equation

    Delta u = 2 cosh(2u).

The locus Z = {u = 0} is where |principal curvature| = 1; on a weakly bounded
chart (u >= 0) it is the closure of the curvature-extreme set.

B is diagonal in these coordinates, so the principal directions are the
coordinate axes; principal_curvatures keeps the general 2x2 eigenvalue
formula because a B recovered from a flowed immersion is not diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComplexEigenvalues
from .fields import GridSpec, OperatorField, ScalarField, laplacian

__all__ = [
    "SurfaceData",
    "PrincipalCurvatures",
    "embedding_data",
    "third_form",
    "principal_curvatures",
    "gauss_residual",
]

UMBILIC_TOL = 1e-12


@dataclass(frozen=True)
class SurfaceData:
    """A chart: the conformal factor exponent u on a flat grid.  Whether
    u >= 0 is read off u where it matters (deform.detect_z)."""

    u: ScalarField

    @property
    def spec(self) -> GridSpec:
        return self.u.spec


def embedding_data(s: SurfaceData) -> tuple[OperatorField, OperatorField, OperatorField]:
    """First form I, second form II, shape operator B = I^{-1} II.

    All three are returned as coefficient fields in the chart frame
    (I and II as bilinear-form coefficients, B as an endomorphism).
    """
    spec = s.spec
    e2u = np.exp(2.0 * s.u.values)
    one = np.ones(spec.shape)
    I = OperatorField.from_diag(spec, e2u, e2u)
    II = OperatorField.from_diag(spec, one, -one)
    B = OperatorField.from_diag(spec, 1.0 / e2u, -1.0 / e2u)
    return I, II, B


def third_form(s: SurfaceData) -> OperatorField:
    """III(X, Y) = I(BX, BY) = e^{-2u} (dx^2 + dy^2)."""
    spec = s.spec
    em2u = np.exp(-2.0 * s.u.values)
    return OperatorField.from_diag(spec, em2u, em2u)


@dataclass(frozen=True)
class PrincipalCurvatures:
    """Eigenvalues lambda_plus >= lambda_minus of a shape operator field;
    no reference to the operator is kept."""

    lambda_plus: ScalarField
    lambda_minus: ScalarField


def _eigenvalues(m: np.ndarray):
    """lambda+ and lambda- of stacked 2x2 matrices m[..., 2, 2];
    ComplexEigenvalues if tr^2 - 4 det is below -UMBILIC_TOL anywhere."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    tr = a + d
    disc = tr * tr - 4.0 * (a * d - b * c)
    dmin = float(disc.min())
    if dmin < -UMBILIC_TOL:
        raise ComplexEigenvalues(dmin)
    sq = np.sqrt(np.maximum(disc, 0.0))
    return 0.5 * (tr + sq), 0.5 * (tr - sq)


def principal_curvatures(B: OperatorField) -> PrincipalCurvatures:
    """Eigenvalue fields of B.  Raises ComplexEigenvalues if tr^2 - 4 det
    drops below -UMBILIC_TOL anywhere."""
    lam_plus, lam_minus = _eigenvalues(B.mat)
    return PrincipalCurvatures(lambda_plus=ScalarField(B.spec, lam_plus),
                               lambda_minus=ScalarField(B.spec, lam_minus))


def gauss_residual(s: SurfaceData) -> ScalarField:
    """Delta_h u - 2 cosh(2u) on the full grid.

    Interior nodes use centered stencils; non-periodic edges use one-sided
    second-order stencils, so contract tolerances apply to the interior.
    """
    lap = laplacian(s.u).values
    return ScalarField(s.spec, lap - 2.0 * np.cosh(2.0 * s.u.values))
