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
lines: from the chart's centre node along its row, then every column, each
sweep marching out to both ends at once, k RK4 substeps per cell (see
immerse).  After each step the frame is re-projected onto the constraint
set (<sigma,sigma> = -1, <nu,nu> = 1, <sigma,nu> = 0, nu normal to the
tangents), which keeps drift at rounding level without changing the order
of the method.  normal_flow
re-imposes only the constraints on what it returns, sigma' and nu': its
normal is a cross product with the tangents, orthogonal to them by
construction, and the tangents themselves are discarded unprojected.
normal_flow and forms_from_immersion sweep the grid in row slabs, so only
their outputs are full-size arrays; each node sees the operations of one
whole-grid pass, so the bits do not depend on the slab size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

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
from .kernels import hermite, spline_slopes

__all__ = [
    "minkowski_dot",
    "minkowski_normal",
    "ImmersionGrid",
    "immerse",
    "normal_flow",
    "forms_from_immersion",
]

_DRIFT_HARD = 1e-6  # abort threshold during integration
_DRIFT_POST = 1e-9  # guaranteed after re-projection
_STEP_MAX = 0.1  # largest h e^u of one RK4 substep (_line_tables)
# chart residual, relative to the equation scale, above which immerse warns
_WARN_RESIDUAL = 1e-2
# nodes per row slab of normal_flow, forms_from_immersion and the constraint
# check (_row_slabs)
_SLAB_NODES = 8192

_ETA = np.array([-1.0, 1.0, 1.0, 1.0])

_log = logging.getLogger(__name__)


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> with signature (-,+,+,+), broadcasting over leading axes."""
    return (np.asarray(a) * np.asarray(b)) @ _ETA


def minkowski_normal(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vector Minkowski-orthogonal to a, b, c (generalized cross product).

    w_mu = (-1)^mu det of the matrix (a; b; c) with column mu removed, then
    the index is raised with eta.  Each 3x3 minor is expanded along a over
    the six 2x2 minors p_ij = b_i c_j - b_j c_i.  <w, a> is then the
    expansion of a determinant with a repeated row, so orthogonality holds
    to rounding.
    """
    a0, a1, a2, a3 = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    b0, b1, b2, b3 = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    c0, c1, c2, c3 = np.moveaxis(np.asarray(c, dtype=float), -1, 0)
    p01, p02, p03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
    p12, p13, p23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
    return np.stack(
        [
            -(a1 * p23 - a2 * p13 + a3 * p12),
            -(a0 * p23 - a2 * p03 + a3 * p02),
            a0 * p13 - a1 * p03 + a3 * p01,
            -(a0 * p12 - a1 * p02 + a2 * p01),
        ],
        axis=-1,
    )


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
        """max over nodes of |<s,s>+1|, |<n,n>-1|, |<s,n>|, row slab by row
        slab (_row_slabs), so no whole-grid product is made."""
        return max(_drift(self.sigma[rows], self.nu[rows])[0]
                   for rows, _, _ in _row_slabs(self.spec))

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


def _project(frame, ss):
    """Re-impose the constraint set on a stacked frame, in place (used by
    _march; normal_flow returns no tangents and constrains its own output).

    frame is (sigma, sigma_x, sigma_y, nu) stacked into one (4, ..., 4) array
    whose leading axes broadcast, and ss = <sigma, sigma>, as _drift has
    already computed it.  Order: normalize sigma, strip the sigma-component
    from the tangents and the normal, then strip the tangential part of nu
    (2x2 Gram solve) and normalize.  Tangents keep their O(h^4) accuracy: the
    corrections are the size of the drift, which is itself at scheme order.
    """
    sigma, sx, sy, nu = frame
    sigma /= np.sqrt(-ss)[..., None]
    for v in (sx, sy, nu):
        v += minkowski_dot(v, sigma)[..., None] * sigma

    g11 = minkowski_dot(sx, sx)
    g12 = minkowski_dot(sx, sy)
    g22 = minkowski_dot(sy, sy)
    p1 = minkowski_dot(nu, sx)
    p2 = minkowski_dot(nu, sy)
    det = g11 * g22 - g12 * g12
    c1 = (p1 * g22 - p2 * g12) / det
    c2 = (p2 * g11 - p1 * g12) / det
    nu -= c1[..., None] * sx
    nu -= c2[..., None] * sy
    nu /= np.sqrt(minkowski_dot(nu, nu))[..., None]


def _drift(sigma, nu):
    """Largest of |<s,s>+1|, |<n,n>-1|, |<s,n>| over the nodes, returned
    with <s,s> for _project to reuse."""
    ss = minkowski_dot(sigma, sigma)
    d = max(
        np.max(np.abs(ss + 1.0)),
        np.max(np.abs(minkowski_dot(nu, nu) - 1.0)),
        np.max(np.abs(minkowski_dot(sigma, nu))),
    )
    return float(d), ss


def _rhs_x(frame, e2u, ux, uy):
    """d/dx of the stacked frame (sigma, sx, sy, nu); the coefficients come
    marched axis first, as _line_tables gives them (_rhs_y takes u_y, u_x),
    with a trailing unit axis that broadcasts over the frame's leading axes."""
    sigma, sx, sy, nu = frame
    k = np.empty_like(frame)
    k[0] = sx
    k[1] = ux * sx - uy * sy + nu + e2u * sigma
    k[2] = uy * sx + ux * sy
    k[3] = -sx / e2u
    return k


def _rhs_y(frame, e2u, uy, ux):
    sigma, sx, sy, nu = frame
    k = np.empty_like(frame)
    k[0] = sy
    k[1] = uy * sx + ux * sy
    k[2] = -ux * sx + uy * sy - nu + e2u * sigma
    k[3] = sy / e2u
    return k


def _rk4_step(frame, h, rhs, coeff0, coeff_half, coeff1):
    k1 = rhs(frame, *coeff0)
    k2 = rhs(frame + 0.5 * h * k1, *coeff_half)
    k3 = rhs(frame + 0.5 * h * k2, *coeff_half)
    k4 = rhs(frame + h * k3, *coeff1)
    return frame + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stages(ts, k):
    """The points of k RK4 substeps per cell of ts: substep node q at index
    2q, the midpoint after it at 2q + 1; node i of ts is at 2ki."""
    m = 2 * k
    out = np.empty(m * (ts.size - 1) + 1)
    out[::m] = ts
    for j in range(1, m):
        out[j::m] = ((m - j) * ts[:-1] + j * ts[1:]) / m
    return out


def _line_tables(knots, ts, f, c, f_m, c_m):
    """(k, (u, u_m, u_c)): one sweep's substeps per cell and its table, the
    fit along one family of grid lines, m the marched axis and c the other.

    f and c are the fit's values and c-slopes at the knots of axis m (the
    first axis; trailing axes are the lines), f_m and c_m their m-slopes.
    On a grid line the bicubic patch is their cubic Hermite interpolant, so
    the table is one pass on the stacked (f, c) and one derivative pass on
    f, at the _stages of the nodes ts.  k = ceil(max h e^u / _STEP_MAX), h
    the knot spacing, as the frame's rates scale with e^u.
    """
    k = math.ceil((knots[1] - knots[0]) * float(np.exp(f.max())) / _STEP_MAX)
    pts = _stages(ts, k)
    both = hermite(knots, np.stack([f, c], axis=1),
                   np.stack([f_m, c_m], axis=1), pts)
    return k, (both[:, 0], hermite(knots, f, f_m, pts, nu=1), both[:, 1])


def _coeff_tables(s: SurfaceData, order: str):
    """_line_tables of `order`'s line sweep and sheet sweep.

    The fit is the tensor product of not-a-knot cubic splines (FITPACK's
    bicubic interpolant), the bicubic Hermite patch of the node values and
    of the spline slopes u_x, u_y and u_xy: two spline solves, along y and
    then along x, whose arrays are freed before the sweeps start.  For
    periodic grids the knots are extended by wrap columns so that
    evaluation near the seam stays interior to the spline.
    """
    spec = s.spec
    u = s.u.values
    xs, ys = spec.xs, spec.ys
    wrap = 3 if spec.periodic_y else 0
    if wrap:
        ys = spec.origin[1] + spec.hy * np.arange(-wrap, spec.ny + wrap)
        u = np.concatenate([u[:, -wrap:], u, u[:, :wrap]], axis=1)
    u_y = spline_slopes(ys, np.ascontiguousarray(u.T)).T
    slopes = spline_slopes(xs, np.concatenate([u, u_y], axis=1))
    u_x, u_xy = slopes[:, :ys.size], slopes[:, ys.size:]
    if order == "rows_then_columns":
        j = spec.ny // 2 + wrap
        return (_line_tables(xs, xs, u[:, j], u_y[:, j], u_x[:, j], u_xy[:, j]),
                _line_tables(ys, spec.ys, u.T, u_x.T, u_y.T, u_xy.T))
    i, own = (spec.nx - 1) // 2, np.s_[:, wrap:wrap + spec.ny]
    return (_line_tables(ys, spec.ys, u[i], u_x[i], u_y[i], u_xy[i]),
            _line_tables(xs, xs, u[own], u_y[own], u_x[own], u_xy[own]))


def immerse(
    s: SurfaceData,
    order: str = "rows_then_columns",
) -> ImmersionGrid:
    """Integrate the frame system over the grid.

    Initial frame at the centre node (i0, j0) = ((nx - 1) // 2, ny // 2):
    sigma = (1,0,0,0), sigma_x = e^u E1, sigma_y = e^u E2, nu = E3, so the
    immersion sits at the hyperboloid's vertex, where ambient coordinates,
    and the finite-difference error of forms_from_immersion, are smallest.
    `order` picks which family of grid lines is integrated first
    ("rows_then_columns" or "columns_then_rows"); the two routes agree to
    scheme order and their difference is a flatness check.  Either way,
    each sweep marches out from the centre to both ends in lockstep (see
    _sweep), so its sequential depth is half the line's length.

    The RK4 coefficients (u, u_x, u_y) come from one bicubic fit of the
    chart, tabulated before the sweeps at every point the RK4 stages visit.
    These lie on grid lines (the centre line, and the marched lines through
    its nodes), so each sweep's table is one 1-D Hermite pass; the sweeps
    only slice arrays, and the work is linear in the node count.  A sweep
    takes k = ceil(max h e^u / _STEP_MAX) substeps per cell (k > 1 at the
    edges of wide strips), and keeps frames at grid nodes only.

    A chart sampled from a genuine solution carries a discrete-laplacian
    residual of pure O(h^2) truncation size, so the compatibility warning
    only fires above 1e-2 relative to the equation scale, the level no
    plausible truncation reaches.  The residual ratio, and each sweep's
    largest constraint drift before projection and its substep count k,
    are logged at DEBUG on the "minsurf.immersion" logger.
    """
    if order not in ("rows_then_columns", "columns_then_rows"):
        raise ValueError(f"unknown sweep order {order!r}")
    spec = s.spec
    res = gauss_residual(s)
    scale = max(1.0, float(np.max(2.0 * np.cosh(2.0 * s.u.values))))
    rel = res.sup(interior_only=True) / scale
    _log.debug("chart residual ratio %.3e", rel)
    if rel > _WARN_RESIDUAL:
        import warnings

        warnings.warn(
            f"chart residual {rel:.2e} above {_WARN_RESIDUAL:.0e}; "
            "immersion error budget not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )

    xs, ys = spec.xs, spec.ys
    i0, j0 = (spec.nx - 1) // 2, spec.ny // 2
    e = float(np.exp(s.u.values[i0, j0]))
    base = np.diag([1.0, e, e, 1.0])  # (sigma, sigma_x, sigma_y, nu)

    # the sheet keeps sigma and nu only
    line, sheet = _coeff_tables(s, order)
    if order == "rows_then_columns":
        line_frames = _sweep(base, xs, i0, *line, _rhs_x, "line")
        frames = _sweep(line_frames.transpose(1, 0, 2), ys, j0, *sheet,
                        _rhs_y, "sheet", _ENDS)
        sigma, nu = (frames[:, m].transpose(1, 0, 2) for m in (0, 1))
    else:
        line_frames = _sweep(base, ys, j0, *line, _rhs_y, "line")
        frames = _sweep(line_frames.transpose(1, 0, 2), xs, i0, *sheet,
                        _rhs_x, "sheet", _ENDS)
        sigma, nu = frames[:, 0], frames[:, 1]

    return ImmersionGrid(spec=spec, sigma=sigma, nu=nu)


_ENDS = np.s_[::3]  # sigma and nu of a stacked frame


def _sweep(frame0, ts, i0, k, coeffs, rhs, sweep: str, parts=np.s_[:]):
    """March frame0 from node i0 of ts out to both ends, k RK4 substeps per
    cell; return the frames' `parts` at the nodes ts as one (len(ts), ...)
    array in grid order.

    coeffs: _line_tables' (u, u_m, u_c).  The forward and backward halves
    stack along a new frame axis and go through one _march in
    lockstep, the backward half on negative steps.  That is bitwise the
    forward march of the reflected frame (the marched tangent and its
    coefficient negated, the step positive), as every negation is exact.
    Where one half is a cell longer, it takes that cell alone.  Each half
    writes into its own outward view of one preallocated output.  The
    largest drift before projection is logged once per sweep.
    """
    out = np.empty((ts.size, *frame0[parts].shape))
    out[i0] = frame0[parts]
    lengths = (ts.size - 1 - i0, i0)  # cells forward and backward
    n = min(lengths)
    subs = _stages(ts, k)[::2]

    def halves(dirs, a, b):
        """Substep nodes, tables and output rows of the halves marching in
        dirs from cell a to cell b, stacked along axis 1."""
        return (np.stack([subs[k * i0::d][k * a:k * b + 1] for d in dirs],
                         axis=1),
                tuple(np.stack([c[2 * k * i0::d][2 * k * a:2 * k * b + 1]
                                for d in dirs], axis=1) for c in coeffs),
                [out[i0::d][a:] for d in dirs])

    # C order: the stack would keep the transposed layout of the line sweep's
    # output, which makes every vector operation strided, about 2x slower
    frame = np.ascontiguousarray(np.stack([frame0, frame0], axis=1))
    frame, d_max = _march(frame, *halves((1, -1), 0, n), k, rhs, sweep, parts)
    for h, d in enumerate((1, -1)):
        if lengths[h] > n:  # the longer half's last cell, alone
            _, tail = _march(frame[:, h:h + 1], *halves((d,), n, lengths[h]),
                             k, rhs, sweep, parts)
            d_max = max(d_max, tail)
    _log.debug("%s sweep: max drift before projection %.3e, %d substeps "
               "per cell", sweep, d_max, k)
    return out


def _march(frame, ts, coeffs, out, k, rhs, sweep: str, parts=np.s_[:]):
    """March stacked frames by RK4, projecting after every step.

    frame: (4, H, ..., 4) frame (sigma, sx, sy, nu) of H lines marching in
    lockstep, line h at ts[0, h]; the axes after H (none for a single line,
    the line's nodes for a sheet) broadcast.  ts: (n + 1, H) substep nodes,
    in marching order (steps may be negative).  coeffs: (u, u_m, u_c)
    tables of shape (2n + 1, H, ...), substep node q at index 2q and the
    midpoint after it at 2q + 1; e^{2u} and the trailing unit axis are
    tabulated once here.  out[h][q] receives `parts` of line h's frame at
    ts[k q, h], the grid nodes, for q >= 1.  Returns the last frame and the
    largest drift before projection.
    """
    u, u_m, u_c = coeffs
    coeffs = tuple(c[..., None] for c in (np.exp(2.0 * u), u_m, u_c))
    steps = np.diff(ts, axis=0).reshape(-1, ts.shape[1],
                                        *[1] * (frame.ndim - 2))
    d_max = 0.0
    for i, h in enumerate(steps):
        j = 2 * i
        c0, cm, c1 = ([c[j + m] for c in coeffs] for m in range(3))
        frame = _rk4_step(frame, h, rhs, c0, cm, c1)
        d, ss = _drift(frame[0], frame[3])
        if d > _DRIFT_HARD:
            worst = int(np.argmax([_drift(frame[0, w], frame[3, w])[0]
                                  for w in range(ts.shape[1])]))
            raise ConstraintDrift(
                d, where=f"{sweep} sweep at t = {ts[i + 1, worst]:.6g}")
        d_max = max(d_max, d)
        _project(frame, ss)
        if (i + 1) % k == 0:  # a grid node
            for w, o in enumerate(out):
                o[(i + 1) // k] = frame[parts, w]
    return frame, d_max


# ---------------------------------------------------------------------------
# derived quantities


def _row_slabs(spec: GridSpec):
    """Row slabs of about _SLAB_NODES nodes covering the grid, as slices:
    the slab's rows; the window of rows its x-differences read, one halo row
    each side and at least three, so that an edge's one-sided stencil is
    whole; and the slab within the window."""
    nx = spec.nx
    step = max(1, _SLAB_NODES // spec.ny)
    for i0 in range(0, nx, step):
        i1 = min(i0 + step, nx)
        lo, hi = max(0, min(i0 - 1, nx - 3)), min(nx, max(i1 + 1, 3))
        yield slice(i0, i1), slice(lo, hi), slice(i0 - lo, i1 - lo)


def normal_flow(g: ImmersionGrid, f: ScalarField, t: float) -> ImmersionGrid:
    """Flow each point a signed distance t*f along the surface normal.

    Points move on geodesics: sigma' = cosh(tf) sigma + sinh(tf) nu.  The
    flowed normal is recovered from the flowed surface itself: central
    finite-difference tangents (one-sided at edges), Minkowski cross product,
    normalization, orientation matched to the transported normal
    sinh(tf) sigma + cosh(tf) nu.  The grid's minimum tangent Gram
    determinant is logged at DEBUG on the "minsurf.immersion" logger.

    Only what is returned is re-constrained: sigma' is normalized to
    <sigma', sigma'> = -1 and the rounding-level sigma'-component of the
    normal is stripped.  The cross product is orthogonal to sigma' and to
    both tangents by construction, so the tangents, which are not returned,
    are not projected, and no Gram solve against them is needed.

    Each row slab flows its window again for the x-tangents.  The checks
    are gathered over the grid and raised after the sweep, in this order.
    """
    if f.spec != g.spec:
        raise ValueError("profile lives on a different grid")
    spec = g.spec
    sigma1, nu1 = np.empty(g.sigma.shape), np.empty(g.nu.shape)
    gram_mins, failed = [], set()
    for rows, win, inner in _row_slabs(spec):
        a = t * f.values[win, :, None]
        ch, sh = np.cosh(a), np.sinh(a)
        s = ch * g.sigma[win] + sh * g.nu[win]
        # ambient samples never wrap: the immersion of a periodic chart does
        # not close up in H^3, so y-edges take one-sided stencils like x-edges
        tx = diff1(s, spec.hx, axis=0)[inner]
        ch, sh, s = ch[inner], sh[inner], s[inner]
        ty = diff1(s, spec.hy, axis=1)

        g11 = minkowski_dot(tx, tx)
        g12 = minkowski_dot(tx, ty)
        g22 = minkowski_dot(ty, ty)
        gram_mins.append((g11 * g22 - g12 * g12).min())

        s = np.divide(s, np.sqrt(-minkowski_dot(s, s))[..., None],
                      out=sigma1[rows])
        n = minkowski_normal(s, tx, ty)
        n += minkowski_dot(n, s)[..., None] * s
        nn = minkowski_dot(n, n)
        orient = np.sign(minkowski_dot(n, sh * g.sigma[rows] + ch * g.nu[rows]))
        failed |= {k for k, bad in (("g11", g11 <= 0), ("nn", nn <= 0),
                                    ("orient", orient == 0)) if bad.any()}
        if "nn" not in failed:
            np.multiply(n, (orient / np.sqrt(nn))[..., None], out=nu1[rows])

    gram_min = float(np.min(gram_mins))
    _log.debug("normal flow: min tangent Gram determinant %.3e", gram_min)
    if "g11" in failed or gram_min <= 0:
        raise DegenerateTangents(f"min tangent Gram determinant {gram_min:.3e}")
    if "nn" in failed:
        raise DegenerateTangents("recovered normal is not spacelike")
    if "orient" in failed:
        raise DegenerateTangents("recovered normal orthogonal to transported normal")
    return ImmersionGrid(spec=spec, sigma=_frozen(sigma1), nu=_frozen(nu1))


def forms_from_immersion(
    g: ImmersionGrid,
) -> tuple[OperatorField, OperatorField, OperatorField]:
    """Recover I, II, B from immersion samples by finite differences.

    I_ij = <d_i sigma, d_j sigma>, II_ij = -<d_i nu, d_j sigma> (the normal
    satisfies <nu, d_j sigma> = 0, so this is the usual second form),
    B = I^{-1} II.  The off-diagonal II entries agree only to O(h^2), so II
    is returned unsymmetrized.  Ambient samples never wrap periodically (the
    immersed strip does not close up), so y-edges use one-sided stencils.
    SingularMetric reports the grid's minimum det I; once a row slab has
    failed, the sweep computes only det I.
    """
    spec = g.spec
    I, ii, b = (np.empty((*spec.shape, 2, 2)) for _ in range(3))
    det_mins, singular = [], False
    for rows, win, inner in _row_slabs(spec):
        sx = diff1(g.sigma[win], spec.hx, axis=0)[inner]
        sy = diff1(g.sigma[rows], spec.hy, axis=1)
        i = I[rows]
        i[..., 0, 0] = minkowski_dot(sx, sx)
        i[..., 0, 1] = i[..., 1, 0] = minkowski_dot(sx, sy)
        i[..., 1, 1] = minkowski_dot(sy, sy)
        det = i[..., 0, 0] * i[..., 1, 1] - i[..., 0, 1] * i[..., 1, 0]
        det_mins.append(det.min())
        singular = singular or np.any(i[..., 0, 0] <= 0) or np.any(det <= 0)
        if singular:
            continue
        dnu = (diff1(g.nu[win], spec.hx, axis=0)[inner],
               diff1(g.nu[rows], spec.hy, axis=1))
        ii_s, b_s = ii[rows], b[rows]
        for r, c in np.ndindex(2, 2):
            ii_s[..., r, c] = -minkowski_dot(dnu[r], (sx, sy)[c])
        # B = adj(I) II / det I
        for r, c in np.ndindex(2, 2):
            s = 1 - r
            b_s[..., r, c] = i[..., s, s] * ii_s[..., r, c] - i[..., r, s] * ii_s[..., s, c]
        b_s /= det[..., None, None]
    if singular:
        raise SingularMetric("recovered metric not positive definite "
                             f"(min det {float(np.min(det_mins)):.3e})")
    return tuple(OperatorField(spec, _frozen(m)) for m in (I, ii, b))


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only, for the grid or field built on it to adopt."""
    a.setflags(write=False)
    return a
