"""Frame integration into the hyperboloid model of hyperbolic 3-space.

Ambient setup: Minkowski R^{1,3} with inner product
<a, b> = -a_0 b_0 + a_1 b_1 + a_2 b_2 + a_3 b_3 (component order t, x1, x2, x3)
and H^3 = {<P, P> = -1, t > 0}.  Vectors are plain shape-(..., 4) float
arrays throughout; minkowski_dot broadcasts over leading axes.

Given a chart u solving cosh-Gordon, the immersion sigma and unit normal nu
satisfy the Gauss-Weingarten system

    sigma_xx =  u_x sigma_x - u_y sigma_y + nu + e^{2u} sigma
    sigma_xy =  u_y sigma_x + u_x sigma_y
    sigma_yy = -u_x sigma_x + u_y sigma_y - nu + e^{2u} sigma
    nu_x     = -e^{-2u} sigma_x
    nu_y     = +e^{-2u} sigma_y

whose flatness is exactly the cosh-Gordon equation, so the frame
(sigma, sigma_x, sigma_y, nu) can be propagated by classical RK4 along grid
lines: base row first, then every column in lockstep.  After each step the
frame is re-projected onto the constraint set (<sigma,sigma> = -1,
<nu,nu> = 1, <sigma,nu> = 0, nu normal to the tangents), which keeps drift at
rounding level without changing the order of the method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .errors import ConstraintDrift, DegenerateTangents, SingularMetric
from .fields import (
    GridSpec,
    OperatorField,
    ScalarField,
    _as_grid_array,
    _read_grid_csv,
    _write_grid_csv,
    diff1,
)
from .geometry import SurfaceData, gauss_residual

__all__ = [
    "minkowski_dot",
    "minkowski_normal",
    "ImmersionGrid",
    "immerse",
    "normal_flow",
    "forms_from_immersion",
    "boost",
    "rotation",
    "apply_isometry",
]

_DRIFT_HARD = 1e-6  # abort threshold during integration
_DRIFT_POST = 1e-9  # guaranteed after re-projection

_ETA = np.array([-1.0, 1.0, 1.0, 1.0])


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> with signature (-,+,+,+), broadcasting over leading axes."""
    return np.einsum("...i,...i->...", np.asarray(a) * _ETA, np.asarray(b))


def minkowski_normal(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vector Minkowski-orthogonal to a, b, c (generalized cross product).

    Computed from 3x3 minors: w_mu = (-1)^mu det of the matrix (a; b; c) with
    column mu removed, then the index is raised with eta.  <w, a> expands a
    determinant with a repeated row, so orthogonality is exact.
    """
    M = np.stack([np.asarray(a), np.asarray(b), np.asarray(c)], axis=-2)
    keep = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    w = np.stack(
        [
            ((-1.0) ** mu) * np.linalg.det(M[..., keep[mu]])
            for mu in range(4)
        ],
        axis=-1,
    )
    return w * _ETA


@dataclass(frozen=True)
class ImmersionGrid:
    """Immersion samples sigma and unit normals nu on a grid.

    Constructor enforces the constraint set to 1e-9 and the time orientation
    sigma_t > 0; every operation that produces a grid re-projects first.
    """

    spec: GridSpec
    sigma: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("sigma", "nu"):
            a = _as_grid_array(getattr(self, name), (*self.spec.shape, 4), name)
            object.__setattr__(self, name, a)
        if np.any(self.sigma[..., 0] <= 0):
            raise ValueError("sigma is not future-pointing everywhere")
        drift = self.constraint_drift()
        if drift > _DRIFT_POST:
            raise ValueError(f"constraint drift {drift:.3e} exceeds {_DRIFT_POST}")

    def constraint_drift(self) -> float:
        """max over nodes of |<s,s>+1|, |<n,n>-1|, |<s,n>|."""
        return _drift(self.sigma, self.nu)

    _CSV_NAMES = (
        "sigma_t", "sigma_1", "sigma_2", "sigma_3",
        "nu_t", "nu_1", "nu_2", "nu_3",
    )

    def to_csv(self, path) -> None:
        _write_grid_csv(path, self.spec, self._CSV_NAMES, [self.sigma, self.nu])

    @classmethod
    def from_csv(cls, path) -> "ImmersionGrid":
        spec, data = _read_grid_csv(path, cls._CSV_NAMES)
        frame = data.reshape(spec.nx, spec.ny, 8)
        return cls(spec, frame[..., :4], frame[..., 4:])


# ---------------------------------------------------------------------------
# frame propagation


def _project(sigma, sx, sy, nu):
    """Re-impose the constraint set; leading axes broadcast.

    Order: normalize sigma, strip the sigma-component from the tangents and
    the normal, then strip the tangential part of nu (2x2 Gram solve) and
    normalize.  Tangents keep their O(h^4) accuracy: the corrections are the
    size of the drift, which is itself at scheme order.
    """
    sigma = sigma / np.sqrt(-minkowski_dot(sigma, sigma))[..., None]
    sx = sx + minkowski_dot(sx, sigma)[..., None] * sigma
    sy = sy + minkowski_dot(sy, sigma)[..., None] * sigma
    nu = nu + minkowski_dot(nu, sigma)[..., None] * sigma

    g11 = minkowski_dot(sx, sx)
    g12 = minkowski_dot(sx, sy)
    g22 = minkowski_dot(sy, sy)
    p1 = minkowski_dot(nu, sx)
    p2 = minkowski_dot(nu, sy)
    det = g11 * g22 - g12 * g12
    c1 = (p1 * g22 - p2 * g12) / det
    c2 = (p2 * g11 - p1 * g12) / det
    nu = nu - c1[..., None] * sx - c2[..., None] * sy
    nu = nu / np.sqrt(minkowski_dot(nu, nu))[..., None]
    return sigma, sx, sy, nu


def _drift(sigma, nu) -> float:
    return float(
        max(
            np.max(np.abs(minkowski_dot(sigma, sigma) + 1.0)),
            np.max(np.abs(minkowski_dot(nu, nu) - 1.0)),
            np.max(np.abs(minkowski_dot(sigma, nu))),
        )
    )


def _rhs_x(state, u, ux, uy):
    """d/dx of (sigma, sx, sy, nu); coefficient arrays broadcast leading axes."""
    sigma, sx, sy, nu = state
    e2u = np.exp(2.0 * u)[..., None]
    uxe = ux[..., None]
    uye = uy[..., None]
    dsigma = sx
    dsx = uxe * sx - uye * sy + nu + e2u * sigma
    dsy = uye * sx + uxe * sy
    dnu = -sx / e2u
    return dsigma, dsx, dsy, dnu


def _rhs_y(state, u, ux, uy):
    sigma, sx, sy, nu = state
    e2u = np.exp(2.0 * u)[..., None]
    uxe = ux[..., None]
    uye = uy[..., None]
    dsigma = sy
    dsx = uye * sx + uxe * sy
    dsy = -uxe * sx + uye * sy - nu + e2u * sigma
    dnu = sy / e2u
    return dsigma, dsx, dsy, dnu


def _rk4_step(state, h, rhs, coeff0, coeff_half, coeff1):
    k1 = rhs(state, *coeff0)
    s2 = tuple(s + 0.5 * h * k for s, k in zip(state, k1))
    k2 = rhs(s2, *coeff_half)
    s3 = tuple(s + 0.5 * h * k for s, k in zip(state, k2))
    k3 = rhs(s3, *coeff_half)
    s4 = tuple(s + h * k for s, k in zip(state, k3))
    k4 = rhs(s4, *coeff1)
    return tuple(
        s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


class _Coeff:
    """Bicubic evaluation of (u, u_x, u_y) at arbitrary chart points.

    For periodic grids the sample band is extended by wrap columns before
    fitting so that evaluation near the seam stays interior to the spline.
    """

    def __init__(self, s: SurfaceData):
        spec = s.spec
        xs = spec.xs
        u = s.u.values
        if spec.periodic_y:
            wrap = 3
            ys = spec.origin[1] + spec.hy * np.arange(-wrap, spec.ny + wrap)
            u = np.concatenate(
                [u[:, -wrap:], u, u[:, :wrap]], axis=1
            )
        else:
            ys = spec.ys
        kx = min(3, spec.nx - 1)
        ky = min(3, ys.size - 1)
        self._sp = RectBivariateSpline(xs, ys, u, kx=kx, ky=ky)
        self._spec = spec

    def at(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self._spec.periodic_y:
            p = self._spec.period_y
            y0 = self._spec.origin[1]
            y = y0 + np.mod(y - y0, p)
        u = self._sp.ev(x, y)
        ux = self._sp.ev(x, y, dx=1)
        uy = self._sp.ev(x, y, dy=1)
        return u, ux, uy


_E0 = np.array([1.0, 0.0, 0.0, 0.0])
_E1 = np.array([0.0, 1.0, 0.0, 0.0])
_E2 = np.array([0.0, 0.0, 1.0, 0.0])
_E3 = np.array([0.0, 0.0, 0.0, 1.0])


def immerse(
    s: SurfaceData,
    order: str = "rows_then_columns",
    warn_residual: float = 1e-2,
) -> ImmersionGrid:
    """Integrate the frame system over the grid.

    Initial frame at the first node: sigma = (1,0,0,0), sigma_x = e^u E1,
    sigma_y = e^u E2, nu = E3.  `order` picks which family of grid lines is
    integrated first ("rows_then_columns" or "columns_then_rows"); the two
    routes agree to scheme order and their difference is a flatness check.

    A chart sampled from a genuine solution carries a discrete-laplacian
    residual of pure O(h^2) truncation size, so the compatibility warning
    only fires above warn_residual = 1e-2 relative to the equation scale,
    the level no plausible truncation reaches.
    """
    if order not in ("rows_then_columns", "columns_then_rows"):
        raise ValueError(f"unknown sweep order {order!r}")
    spec = s.spec
    res = gauss_residual(s)
    scale = max(1.0, float(np.max(2.0 * np.cosh(2.0 * s.u.values))))
    rel = res.sup(interior_only=True) / scale
    if rel > warn_residual:
        import warnings

        warnings.warn(
            f"chart residual {rel:.2e} above {warn_residual:.0e}; "
            "immersion error budget not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )

    coeff = _Coeff(s)
    xs, ys = spec.xs, spec.ys
    u0 = float(s.u.values[0, 0])
    e = float(np.exp(u0))
    base = (
        _E0.copy(),
        e * _E1,
        e * _E2,
        _E3.copy(),
    )

    if order == "columns_then_rows":
        # integrate the first column in y, then rows in x
        line_state = _march_line(base, ys, xs[0], coeff, axis="y")
        states = _march_sheet(line_state, xs, ys, coeff, axis="x")
        sigma = states[0].transpose(1, 0, 2)
        nu = states[3].transpose(1, 0, 2)
        sigma = np.ascontiguousarray(sigma)
        nu = np.ascontiguousarray(nu)
    else:
        line_state = _march_line(base, xs, ys[0], coeff, axis="x")
        states = _march_sheet(line_state, ys, xs, coeff, axis="y")
        sigma, nu = states[0], states[3]

    return ImmersionGrid(spec=spec, sigma=sigma, nu=nu)


def _march_line(state0, ts, fixed, coeff: _Coeff, axis: str):
    """March a single frame along one grid line; returns states at all nodes.

    axis = "x": vary x over ts at y = fixed; axis = "y": the transpose.
    Output arrays have shape (len(ts), 4) per frame member.
    """
    n = ts.size
    out = [np.empty((n, 4)) for _ in range(4)]
    state = tuple(np.array(v, dtype=float) for v in state0)
    for k in range(4):
        out[k][0] = state[k]
    rhs = _rhs_x if axis == "x" else _rhs_y
    for i in range(n - 1):
        h = ts[i + 1] - ts[i]
        tm = 0.5 * (ts[i] + ts[i + 1])
        if axis == "x":
            c0 = coeff.at(ts[i], fixed)
            cm = coeff.at(tm, fixed)
            c1 = coeff.at(ts[i + 1], fixed)
        else:
            c0 = coeff.at(fixed, ts[i])
            cm = coeff.at(fixed, tm)
            c1 = coeff.at(fixed, ts[i + 1])
        state = _rk4_step(state, h, rhs, c0, cm, c1)
        d = _drift(state[0], state[3])
        if d > _DRIFT_HARD:
            raise ConstraintDrift(d, where=f"line sweep at t = {ts[i + 1]:.6g}")
        state = _project(*state)
        for k in range(4):
            out[k][i + 1] = state[k]
    return tuple(out)


def _march_sheet(line_state, ts, line_coords, coeff: _Coeff, axis: str):
    """March all frames of a line in lockstep along the transverse direction.

    line_state: tuple of (n_line, 4) arrays at t = ts[0].  Returns a tuple of
    (n_line, len(ts), 4) arrays.  axis names the direction being marched.
    """
    n_line = line_state[0].shape[0]
    n_t = ts.size
    out = [np.empty((n_line, n_t, 4)) for _ in range(4)]
    state = tuple(v.copy() for v in line_state)
    for k in range(4):
        out[k][:, 0] = state[k]
    rhs = _rhs_y if axis == "y" else _rhs_x
    for j in range(n_t - 1):
        h = ts[j + 1] - ts[j]
        tm = 0.5 * (ts[j] + ts[j + 1])
        if axis == "y":
            c0 = coeff.at(line_coords, np.full(n_line, ts[j]))
            cm = coeff.at(line_coords, np.full(n_line, tm))
            c1 = coeff.at(line_coords, np.full(n_line, ts[j + 1]))
        else:
            c0 = coeff.at(np.full(n_line, ts[j]), line_coords)
            cm = coeff.at(np.full(n_line, tm), line_coords)
            c1 = coeff.at(np.full(n_line, ts[j + 1]), line_coords)
        state = _rk4_step(state, h, rhs, c0, cm, c1)
        d = _drift(state[0], state[3])
        if d > _DRIFT_HARD:
            raise ConstraintDrift(d, where=f"sheet sweep at t = {ts[j + 1]:.6g}")
        state = _project(*state)
        for k in range(4):
            out[k][:, j + 1] = state[k]
    return tuple(out)


# ---------------------------------------------------------------------------
# derived quantities


def normal_flow(g: ImmersionGrid, f: ScalarField, t: float) -> ImmersionGrid:
    """Flow each point a signed distance t*f along the surface normal.

    Points move on geodesics: sigma' = cosh(tf) sigma + sinh(tf) nu.  The
    flowed normal is recovered from the flowed surface itself: central
    finite-difference tangents (one-sided at edges), Minkowski cross product,
    normalization, orientation matched to the transported normal
    sinh(tf) sigma + cosh(tf) nu.
    """
    if f.spec != g.spec:
        raise ValueError("profile lives on a different grid")
    spec = g.spec
    a = t * f.values[..., None]
    sigma1 = np.cosh(a) * g.sigma + np.sinh(a) * g.nu
    nu_transport = np.sinh(a) * g.sigma + np.cosh(a) * g.nu

    # ambient samples never wrap: the immersion of a periodic chart does not
    # close up in H^3, so y-edges take one-sided stencils like x-edges
    tx = diff1(sigma1, spec.hx, axis=0)
    ty = diff1(sigma1, spec.hy, axis=1)

    g11 = minkowski_dot(tx, tx)
    g12 = minkowski_dot(tx, ty)
    g22 = minkowski_dot(ty, ty)
    gram_det = g11 * g22 - g12 * g12
    if np.any(g11 <= 0) or np.any(gram_det <= 0):
        raise DegenerateTangents(
            f"min tangent Gram determinant {float(gram_det.min()):.3e}"
        )

    n = minkowski_normal(sigma1, tx, ty)
    nn = minkowski_dot(n, n)
    if np.any(nn <= 0):
        raise DegenerateTangents("recovered normal is not spacelike")
    n = n / np.sqrt(nn)[..., None]
    orient = np.sign(minkowski_dot(n, nu_transport))
    if np.any(orient == 0):
        raise DegenerateTangents("recovered normal orthogonal to transported normal")
    n = n * orient[..., None]

    # strip rounding-level drift before the constructor's hard check
    sigma1, _, _, n = _project(sigma1, tx, ty, n)
    return ImmersionGrid(spec=spec, sigma=sigma1, nu=n)


def forms_from_immersion(
    g: ImmersionGrid,
) -> tuple[OperatorField, OperatorField, OperatorField]:
    """Recover I, II, B from immersion samples by finite differences.

    I_ij = <d_i sigma, d_j sigma>, II_ij = -<d_i nu, d_j sigma> (the normal
    satisfies <nu, d_j sigma> = 0, so this is the usual second form),
    B = I^{-1} II.  The off-diagonal II entries agree only to O(h^2), so II
    is returned unsymmetrized.  Ambient samples never wrap periodically (the
    immersed strip does not close up), so y-edges use one-sided stencils.
    """
    spec = g.spec
    sx = diff1(g.sigma, spec.hx, axis=0)
    sy = diff1(g.sigma, spec.hy, axis=1)
    nx_ = diff1(g.nu, spec.hx, axis=0)
    ny_ = diff1(g.nu, spec.hy, axis=1)

    I = OperatorField.from_components(
        spec,
        minkowski_dot(sx, sx),
        minkowski_dot(sx, sy),
        minkowski_dot(sy, sx),
        minkowski_dot(sy, sy),
    )
    if np.any(I.a11 <= 0) or np.any(I.det() <= 0):
        raise SingularMetric(
            f"recovered metric not positive definite (min det {float(I.det().min()):.3e})"
        )
    II = OperatorField.from_components(
        spec,
        -minkowski_dot(nx_, sx),
        -minkowski_dot(nx_, sy),
        -minkowski_dot(ny_, sx),
        -minkowski_dot(ny_, sy),
    )
    B = I.inverse() @ II
    return I, II, B


# ---------------------------------------------------------------------------
# ambient isometries (testing aids)


def boost(rapidity: float, axis: int = 1) -> np.ndarray:
    """Lorentz boost mixing t with spatial axis (1, 2 or 3)."""
    if axis not in (1, 2, 3):
        raise ValueError("boost axis must be 1, 2 or 3")
    L = np.eye(4)
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    L[0, 0] = ch
    L[0, axis] = sh
    L[axis, 0] = sh
    L[axis, axis] = ch
    return L


def rotation(angle: float, i: int = 1, j: int = 2) -> np.ndarray:
    """Spatial rotation in the (i, j) plane, i, j in {1, 2, 3}."""
    if not (1 <= i <= 3 and 1 <= j <= 3 and i != j):
        raise ValueError("rotation plane must use two distinct spatial axes")
    R = np.eye(4)
    c, s = np.cos(angle), np.sin(angle)
    R[i, i] = c
    R[j, j] = c
    R[i, j] = -s
    R[j, i] = s
    return R


def apply_isometry(g: ImmersionGrid, L: np.ndarray) -> ImmersionGrid:
    """Apply a time-orientation-preserving ambient isometry to the samples."""
    L = np.asarray(L, dtype=float)
    gram = L.T @ np.diag(_ETA) @ L
    if not np.allclose(gram, np.diag(_ETA), atol=1e-12):
        raise ValueError("matrix does not preserve the Minkowski form")
    sigma = np.einsum("ab,ijb->ija", L, g.sigma)
    nu = np.einsum("ab,ijb->ija", L, g.nu)
    if np.any(sigma[..., 0] <= 0):
        raise ValueError("isometry flips time orientation on these samples")
    return ImmersionGrid(spec=g.spec, sigma=sigma, nu=nu)
