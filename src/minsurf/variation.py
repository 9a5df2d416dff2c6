"""First variation of the fundamental forms under a normal deformation.

For a normal field f nu on a minimal chart, the time derivatives at t = 0 of
the embedding data along the flow sigma + (tf) nu are, in chart coordinates,

    dI/dt   = -2 f II
    dII/dt  = Hess f - f (I + III)          (Hess = covariant Hessian of I)
    dB/dt   = Hess^{(1,1)} f + f (B^2 - Id)

with Hess^{(1,1)} = I^{-1} Hess f.  Because the chart metric is conformal and
II = diag(1, -1), B is diagonal in chart coordinates: the principal
directions are the coordinate axes, and the rates of the principal
curvatures are the diagonal of dB/dt.  On the locus Z = {u = 0}, where
B^2 = Id, that is the diagonal of I^{-1} Hess f, which is what the
deformation construction drives negative.

Every formula here is checked against an independent oracle that flows the
immersion by +-t, recovers the forms by finite differences, and central-
differences in t (immersion_fd_rate).
"""

from __future__ import annotations

import numpy as np

from .errors import NotOnZ
from .fields import GridSpec, OperatorField, ScalarField, diff1, diff2
from .geometry import SurfaceData, embedding_data, third_form
from .immersion import ImmersionGrid, forms_from_immersion, normal_flow

# |u| at a node above which curvature_rate_at_Z refuses it as off the locus
_TOL_Z = 1e-8

__all__ = [
    "cov_hessian",
    "hessian_11",
    "metric_inverse_rate",
    "second_form_rate",
    "shape_rate",
    "curvature_rate_at_Z",
    "immersion_fd_rate",
]


def _grad(s: SurfaceData, f: ScalarField):
    spec = s.spec
    fx = diff1(f.values, spec.hx, axis=0)
    fy = diff1(f.values, spec.hy, axis=1, periodic=spec.periodic_y)
    return fx, fy


def cov_hessian(s: SurfaceData, f: ScalarField) -> OperatorField:
    """Covariant Hessian (nabla df)_ij = f_,ij - Gamma^k_ij f_,k as a (0,2) field.

    The Christoffel symbols of I = e^{2u}(dx^2 + dy^2) are first derivatives
    of u: Gamma^x_xx = Gamma^y_xy = -Gamma^x_yy = u_x,
    Gamma^y_yy = Gamma^x_xy = -Gamma^y_xx = u_y."""
    if f.spec != s.spec:
        raise ValueError("profile lives on a different grid")
    spec = s.spec
    per = spec.periodic_y
    fx, fy = _grad(s, f)
    fxx = diff2(f.values, spec.hx, axis=0)
    fyy = diff2(f.values, spec.hy, axis=1, periodic=per)
    fxy = diff1(fx, spec.hy, axis=1, periodic=per)
    ux, uy = _grad(s, s.u)
    Hxx = fxx - (ux * fx - uy * fy)
    Hxy = fxy - (uy * fx + ux * fy)
    Hyy = fyy - (uy * fy - ux * fx)
    return OperatorField.from_components(spec, Hxx, Hxy, Hxy, Hyy)


def hessian_11(s: SurfaceData, f: ScalarField) -> OperatorField:
    """Hessian with one index raised by I^{-1} = e^{-2u} Id."""
    H = cov_hessian(s, f)
    return H * np.exp(-2.0 * s.u.values)


def metric_inverse_rate(s: SurfaceData, f: ScalarField) -> OperatorField:
    """d(I^{-1})/dt = 2 f B I^{-1} (follows from dI/dt by differentiating I I^{-1})."""
    I, _, B = embedding_data(s)
    return (B @ I.inverse()) * (2.0 * f.values)


def second_form_rate(s: SurfaceData, f: ScalarField) -> OperatorField:
    """dII/dt = Hess f - f (I + III)."""
    I, _, _ = embedding_data(s)
    III = third_form(s)
    return cov_hessian(s, f) - (I + III) * f.values


def shape_rate(s: SurfaceData, f: ScalarField) -> OperatorField:
    """dB/dt = Hess^{(1,1)} f + f (B^2 - Id).

    Identical to d(I^{-1})/dt II + I^{-1} dII/dt by the product rule; the
    equality of the two routes is a property test, not an assumption.
    """
    _, _, B = embedding_data(s)
    eye = OperatorField.identity(s.spec)
    return hessian_11(s, f) + (B @ B - eye) * f.values


def curvature_rate_at_Z(
    s: SurfaceData,
    f: ScalarField,
    node: tuple[int, int],
) -> tuple[float, float]:
    """Rates of the principal curvatures at a zero-locus node.

    At u = 0 the shape operator is diag(1, -1) on the coordinate axes and
    B^2 = Id, so the eigenvalue rates are the diagonal of I^{-1} Hess f:
    (d lambda_+/dt, d lambda_-/dt) = (hessian_11 f [x, x], hessian_11 f [y, y]).
    Raises NotOnZ when |u(node)| > 1e-8.  Evaluated on the node's
    neighbourhood, bitwise as on the whole grid.
    """
    i, j = node
    uval = float(s.u.values[i, j])
    if abs(uval) > _TOL_Z:
        raise NotOnZ(f"u[{i},{j}] = {uval:.3e} exceeds tol_z = {_TOL_Z:.1e}")
    if f.spec != s.spec:
        raise ValueError("profile lives on a different grid")
    # s and f on the nodes within 3 steps, clipped at edges and wrapped
    # across a cylinder's seam: every stencil at the node, one-sided ones
    # included, reads there what it reads on the whole grid
    spec = s.spec
    i, j = (range(n)[k] for k, n in zip(node, spec.shape))  # k < 0 counts back
    rows = np.arange(max(0, i - 3), min(spec.nx, i + 4))
    cols = (np.arange(j - 3, j + 4) if spec.periodic_y
            else np.arange(max(0, j - 3), min(spec.ny, j + 4)))
    win = GridSpec(rows.size, cols.size, spec.hx, spec.hy)
    cut = np.ix_(rows, cols % spec.ny)
    s = SurfaceData(ScalarField(win, s.u.values[cut]))
    f = ScalarField(win, f.values[cut])
    i, j = i - rows[0], j - cols[0]
    h = hessian_11(s, f).mat[i, j]
    return float(h[0, 0]), float(h[1, 1])


def immersion_fd_rate(
    g: ImmersionGrid,
    f: ScalarField,
    t: float = 1e-5,
    which: str = "B",
) -> OperatorField:
    """Oracle: central difference in t of forms recovered from flowed immersions.

    Flows the immersed chart g by +-t f along the normal, recovers (I, II, B)
    by finite differences on each flowed surface, and differences in t.  The
    spatial FD error is O(h^2) but identical on both branches to leading
    order, so it cancels in the t-difference; the result is accurate to
    O(t^2) + O(t h^2) and serves as the independent check of the formulas.
    """
    pick = {"I": 0, "II": 1, "B": 2}
    if which not in pick:
        raise ValueError(f"which must be one of {list(pick)}, got {which!r}")
    if not t > 0:
        raise ValueError("t must be positive")
    plus = forms_from_immersion(normal_flow(g, f, +t))[pick[which]]
    minus = forms_from_immersion(normal_flow(g, f, -t))[pick[which]]
    return (plus - minus) * (0.5 / t)
