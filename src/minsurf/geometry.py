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

principal_curvatures gives the eigenvalue fields alone; principal_frames
builds eigenframes of stacked 2x2 matrices (a grid, or one node) on demand.
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
    "principal_frames",
    "gauss_residual",
]

WEAK_BOUND_TOL = 1e-12
UMBILIC_TOL = 1e-12


@dataclass(frozen=True)
class SurfaceData:
    """A chart: conformal factor exponent u, with an optional sign certificate.

    weakly_bounded promises u >= 0 up to rounding; constructors that obtain u
    from the invariant profile with v0 >= 0 set it.
    """

    u: ScalarField
    weakly_bounded: bool = False

    def __post_init__(self):
        if self.weakly_bounded and float(self.u.values.min()) < -WEAK_BOUND_TOL:
            raise ValueError(
                f"weakly_bounded set but min u = {self.u.values.min():.3e}"
            )

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
    no reference to the operator is kept (frames: principal_frames)."""

    lambda_plus: ScalarField
    lambda_minus: ScalarField


def _eigenvalues(m: np.ndarray):
    """lambda+, lambda- and discriminant tr^2 - 4 det of stacked 2x2 matrices
    m[..., 2, 2]; ComplexEigenvalues if it is below -UMBILIC_TOL anywhere."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    tr = a + d
    disc = tr * tr - 4.0 * (a * d - b * c)
    dmin = float(disc.min())
    if dmin < -UMBILIC_TOL:
        raise ComplexEigenvalues(dmin)
    sq = np.sqrt(np.maximum(disc, 0.0))
    return 0.5 * (tr + sq), 0.5 * (tr - sq), disc


def _eigvec(a, b, c, d, lam) -> np.ndarray:
    """Nullspace direction of ([[a,b],[c,d]] - lam) for stacked scalars."""
    # rows of (A - lam): (a-lam, b) and (c, d-lam); the nullspace vector can be
    # read off either row, pick the numerically larger candidate
    x1, y1, x2, y2 = b, lam - a, lam - d, c
    n1 = np.hypot(x1, y1)
    n2 = np.hypot(x2, y2)
    pick = n1 >= n2
    n = np.where(pick, n1, n2)
    deg = n < 1e-300  # exactly umbilic node, caller masks it out
    n = np.where(deg, 1.0, n)
    x = np.where(deg, 1.0, np.where(pick, x1, x2) / n)
    y = np.where(deg, 0.0, np.where(pick, y1, y2) / n)
    return np.stack([x, y], axis=-1)


def _metric_normalize(v: np.ndarray, g: np.ndarray | None) -> np.ndarray:
    if g is None:
        return v / np.linalg.norm(v, axis=-1, keepdims=True)
    q = (
        g[..., 0, 0] * v[..., 0] ** 2
        + (g[..., 0, 1] + g[..., 1, 0]) * v[..., 0] * v[..., 1]
        + g[..., 1, 1] * v[..., 1] ** 2
    )
    return v / np.sqrt(q)[..., None]


def _fix_sign(v: np.ndarray) -> np.ndarray:
    flip = (v[..., 0] < 0) | ((v[..., 0] == 0) & (v[..., 1] < 0))
    return np.where(flip[..., None], -v, v)


def principal_curvatures(B: OperatorField) -> PrincipalCurvatures:
    """Eigenvalue fields of B.  Raises ComplexEigenvalues if tr^2 - 4 det
    drops below -UMBILIC_TOL anywhere."""
    lam_plus, lam_minus, _ = _eigenvalues(B.mat)
    return PrincipalCurvatures(lambda_plus=ScalarField(B.spec, lam_plus),
                               lambda_minus=ScalarField(B.spec, lam_minus))


def principal_frames(B: np.ndarray, metric: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenframe (e_plus, e_minus, defined) of stacked 2x2 matrices.

    B and metric are (..., 2, 2) arrays: a grid's OperatorField.mat, or one
    node's matrix.  e_plus and e_minus (shape (..., 2)) are unit vectors
    w.r.t. metric, else Euclidean, fixed by the sign convention: nonnegative
    x-component, ties broken by nonnegative y-component.  defined is False
    at (near-)umbilic nodes, where the discriminant is at most UMBILIC_TOL;
    there the frame falls back to the coordinate axes.  Raises
    ComplexEigenvalues as principal_curvatures does.
    """
    lam_plus, lam_minus, disc = _eigenvalues(B)
    defined = disc > UMBILIC_TOL
    a, b, c, d = B[..., 0, 0], B[..., 0, 1], B[..., 1, 0], B[..., 1, 1]

    def frame(lam, axis):
        v = _fix_sign(_metric_normalize(_eigvec(a, b, c, d, lam), metric))
        fallback = _metric_normalize(np.broadcast_to(axis, v.shape), metric)
        return np.where(defined[..., None], v, fallback)

    return frame(lam_plus, (1.0, 0.0)), frame(lam_minus, (0.0, 1.0)), defined


def gauss_residual(s: SurfaceData) -> ScalarField:
    """Delta_h u - 2 cosh(2u) on the full grid.

    Interior nodes use centered stencils; non-periodic edges use one-sided
    second-order stencils, so contract tolerances apply to the interior.
    """
    lap = laplacian(s.u).values
    return ScalarField(s.spec, lap - 2.0 * np.cosh(2.0 * s.u.values))
