"""Dirichlet solver for the cosh-Gordon equation on strips and cylinders.

Discretization: 5-point Laplacian on the grid, Dirichlet data on the
non-periodic edges, periodic wrap in y when the grid is a cylinder.  Delta_h
is applied matrix-free, as an array stencil on the interior nodes.  The
nonlinear system F(u) = Delta_h u - 2 cosh(2u) = 0 on interior nodes is solved
by damped inexact Newton.  Each step solves with the Jacobian
J = Delta_h - 4 sinh(2u) I_diag by MINRES, preconditioned with the exact
inverse of -Delta_h + s I: the 5-point Laplacian diagonalises by the sine
transform in x and by the real FFT (cylinder) or the sine transform
(rectangle) in y (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970),
so the preconditioner costs O(N log N) and O(N) memory.  -J is positive
definite wherever sinh(2u) >= 0, which is what makes the weakly bounded
regime (u >= 0) so benign; MINRES also handles the symmetric indefinite -J of
charts with u < 0 somewhere.

Solvability is width-limited: boundary data >= 0 on a strip of width >= twice
the maximal invariant half-width admits no solution, and Newton divergence is
the expected (and tested) signal there.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
from scipy.sparse.linalg import LinearOperator, minres

from .errors import NewtonDiverged, SingularJacobian
from .fields import GridSpec, ScalarField, laplacian
from .geometry import SurfaceData, gauss_residual

__all__ = [
    "NewtonParams",
    "PdeProblem",
    "solve",
    "residual",
    "harmonic_extension",
    "invariant_strip_problem",
]

_DAMPING_FLOOR = 2.0**-10
# Eisenstat-Walker forcing terms, choice 2 (SIAM J. Sci. Comput. 17, 1996):
# eta_k = gamma (|F_k| / |F_k-1|)^alpha, safeguarded, within [floor, max].
# The first step uses the max; the floor keeps the last steps from asking
# MINRES for more than the 1e-10 residual the Newton test needs.
_EW_GAMMA, _EW_ALPHA = 0.9, 2.0
_FORCING_MAX = 0.5
_FORCING_FLOOR = 1e-10
# MINRES takes 1-6 iterations per step here; the cap bounds a stalled solve,
# whose inexact step the line search then judges
_MINRES_MAXITER = 200

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NewtonParams:
    tol_residual: float = 1e-10
    max_iter: int = 50
    damping: float = 1.0

    def __post_init__(self):
        if not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0 < self.damping <= 1.0):
            raise ValueError("initial damping must lie in (0, 1]")


@dataclass(frozen=True)
class PdeProblem:
    """Dirichlet problem for Delta u = 2 cosh(2u).

    boundary supplies values on every non-periodic edge node (interior
    entries of the field are ignored).
    """

    spec: GridSpec
    boundary: ScalarField
    newton: NewtonParams = field(default_factory=NewtonParams)

    def __post_init__(self):
        if self.boundary.spec != self.spec:
            raise ValueError("boundary field lives on a different grid")


def _interior_shape(spec: GridSpec) -> tuple[int, int]:
    """Shape of spec.interior_mask()'s nodes; unknowns are in row-major order."""
    return spec.nx - 2, spec.ny if spec.periodic_y else spec.ny - 2


def _neighbour_sum(a: np.ndarray, out: np.ndarray, periodic: bool) -> None:
    """out[i] = a[i-1] + a[i+1] along the first axis, zero beyond the ends or
    wrapped around when periodic (len(a) >= 3 then)."""
    np.add(a[:-2], a[2:], out=out[1:-1])
    if len(a) == 1:
        out[0] = 0.0
    else:
        out[0], out[-1] = (a[1] + a[-1], a[-2] + a[0]) if periodic else (a[1], a[-2])


def _apply_laplacian(spec: GridSpec, v: np.ndarray,
                     absolute: bool = False) -> np.ndarray:
    """Delta_h v on the interior nodes with zero Dirichlet data, as a stencil
    (wrapped in y on a cylinder).  absolute takes |coefficients|: |L_h| v."""
    a = v.reshape(_interior_shape(spec))
    cx, cy = spec.hx**-2, spec.hy**-2
    out = a * ((2.0 if absolute else -2.0) * (cx + cy))
    t = np.empty_like(a)
    _neighbour_sum(a.T, t.T, periodic=spec.periodic_y)
    out += np.multiply(t, cy, out=t)
    _neighbour_sum(a, t, periodic=False)
    out += np.multiply(t, cx, out=t)
    return out.ravel()


def _boundary_term(boundary: ScalarField) -> np.ndarray:
    """b in Delta_h u = L v + b on the interior: Delta_h of the Dirichlet data
    with the interior set to zero."""
    inner = boundary.spec.interior_mask()
    g = np.where(inner, 0.0, boundary.values)
    return laplacian(ScalarField(boundary.spec, g)).values[inner]


def _with_interior(boundary: ScalarField, v: np.ndarray) -> np.ndarray:
    """The boundary data with the interior nodes replaced by v."""
    u = boundary.values.copy()
    u[boundary.spec.interior_mask()] = v
    return u


def _poisson_eigs(spec: GridSpec) -> np.ndarray:
    """Eigenvalues of -L_h on the interior nodes, in _poisson_solve's order:
    DST-I for zero end data, rfft along a periodic y."""
    mx, my = _interior_shape(spec)
    kx = np.arange(1, mx + 1) / (2 * mx + 2)
    ky = (np.arange(my // 2 + 1) / my if spec.periodic_y
          else np.arange(1, my + 1) / (2 * my + 2))
    return ((4.0 / spec.hx**2) * np.sin(np.pi * kx)[:, None] ** 2
            + (4.0 / spec.hy**2) * np.sin(np.pi * ky) ** 2)


def _poisson_solve(spec: GridSpec, rhs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(-L_h + s I)^-1 rhs on the interior nodes, given the eigenvalues
    lam = _poisson_eigs(spec) + s of that operator, for a shift s >= 0.

    The sine transform (DST-I) diagonalises the x part; the y part is
    diagonalised by the real FFT on a cylinder and by DST-I on a rectangle.
    """
    mx, my = _interior_shape(spec)
    r = rhs.reshape(mx, my)
    if spec.periodic_y:
        r = sfft.rfft(sfft.dst(r, type=1, axis=0, norm="ortho"), axis=1) / lam
        out = sfft.idst(sfft.irfft(r, n=my, axis=1), type=1, axis=0, norm="ortho")
    else:
        out = sfft.idstn(sfft.dstn(r, type=1, norm="ortho") / lam, type=1,
                         norm="ortho")
    return out.ravel()


def harmonic_extension(spec: GridSpec, boundary: ScalarField) -> ScalarField:
    """Solve Delta_h v = 0 with the given Dirichlet data (solve's start)."""
    if boundary.spec != spec:
        raise ValueError("boundary field lives on a different grid")
    v = _poisson_solve(spec, _boundary_term(boundary), _poisson_eigs(spec))
    return ScalarField(spec, _with_interior(boundary, v))


def solve(p: PdeProblem) -> SurfaceData:
    """Damped inexact Newton iteration for the discrete cosh-Gordon system.

    Starts from the harmonic extension of the boundary data.  Each step
    solves (-J) step = F by MINRES with the fast-Poisson preconditioner
    (-L_h + s I)^-1, s = max(mean(4 sinh 2u), 0), to the Eisenstat-Walker
    forcing term of that step.  A MINRES breakdown or
    a non-finite step raises SingularJacobian.  When MINRES stops at its
    iteration cap (info > 0) the unconverged step is used as an inexact
    Newton step: the line search still has to reduce the true residual, and
    convergence is still declared only on the true residual.  Each step is
    logged at DEBUG on the "minsurf.pde" logger: iteration, sup residual,
    accepted damping, MINRES iterations, forcing term and MINRES info (0
    when converged, the iteration count when capped).

    Residual is measured in the sup norm over interior nodes.  Backtracking
    halves the step down to 2^-10 of the nominal damping; failure to reduce
    the residual there, or running out of iterations, raises NewtonDiverged.

    The sup residual cannot be evaluated below the cancellation floor of
    Delta_h v (about eps * |L_h| |v|, above 1e-10 once h^-2 |u| reaches ~5e5,
    e.g. constant data 0.3 on a width-0.05 grid with 33 nodes), so
    convergence is declared at max(tol_residual, a few eps of that floor);
    anything stricter would misreport machine-precision iterates as
    divergence.
    """
    spec = p.spec
    b = _boundary_term(p.boundary)
    eigs = _poisson_eigs(spec)  # each step only adds its shift
    v = _poisson_solve(spec, b, eigs)

    def F(vv):
        with np.errstate(over="ignore"):
            return _apply_laplacian(spec, vv) + b - 2.0 * np.cosh(2.0 * vv)

    def tol_eff(vv):
        with np.errstate(over="ignore"):
            scale = float(np.max(_apply_laplacian(spec, np.abs(vv), absolute=True)
                                 + np.abs(b) + 2.0 * np.cosh(2.0 * vv)))
        return max(p.newton.tol_residual, 4.0 * np.finfo(float).eps * scale)

    res_vec = F(v)
    res = float(np.max(np.abs(res_vec)))
    eta, norm_prev = _FORCING_MAX, None
    for it in range(p.newton.max_iter):
        if res <= tol_eff(v):
            break
        with np.errstate(over="ignore"):
            dg = 4.0 * np.sinh(2.0 * v)
        if not np.all(np.isfinite(dg)):
            raise NewtonDiverged(it, res)

        norm_f = float(np.linalg.norm(res_vec))
        if norm_prev is not None:
            ew = _EW_GAMMA * (norm_f / norm_prev) ** _EW_ALPHA
            safeguard = _EW_GAMMA * eta**_EW_ALPHA
            if safeguard > 0.1:
                ew = max(ew, safeguard)
            eta = min(max(ew, _FORCING_FLOOR), _FORCING_MAX)
        norm_prev = norm_f

        lam_s = eigs + max(float(np.mean(dg)), 0.0)
        minus_J = LinearOperator((v.size,) * 2, dtype=float,
                                 matvec=lambda x: dg * x - _apply_laplacian(spec, x))
        precond = LinearOperator((v.size,) * 2, dtype=float,
                                 matvec=lambda r: _poisson_solve(spec, r, lam_s))
        its = []  # one entry per MINRES iteration
        step, info = minres(minus_J, res_vec, rtol=eta, maxiter=_MINRES_MAXITER,
                            M=precond, callback=lambda _: its.append(None))
        if info < 0:
            raise SingularJacobian(f"MINRES breakdown (info {info})")
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")

        lam = p.newton.damping
        accepted = False
        while lam >= _DAMPING_FLOOR * p.newton.damping:
            v_try = v + lam * step
            res_try_vec = F(v_try)
            res_try = float(np.max(np.abs(res_try_vec)))
            if np.isfinite(res_try) and res_try < res:
                v, res_vec, res = v_try, res_try_vec, res_try
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            if res <= tol_eff(v):
                break
            raise NewtonDiverged(it + 1, res)
        _log.debug("newton iteration %d: residual %.3e, damping %g, "
                   "%d MINRES iterations, forcing %.2e, MINRES info %d",
                   it + 1, res, lam, len(its), eta, info)
    else:
        if res > tol_eff(v):
            raise NewtonDiverged(p.newton.max_iter, res)

    u = _with_interior(p.boundary, v)
    weak = float(u.min()) >= -1e-12
    return SurfaceData(ScalarField(spec, u), weakly_bounded=weak)


def residual(s: SurfaceData) -> float:
    """Sup-norm interior residual of the discrete equation for a given chart."""
    return gauss_residual(s).sup(interior_only=True)


def invariant_strip_problem(
    sol,
    width: float,
    nx: int,
    ny: int,
    period_y: float = 1.0,
    newton: NewtonParams | None = None,
) -> PdeProblem:
    """Dirichlet problem on a centered periodic strip with data g(|x|).

    The exact solution is the invariant profile itself, which makes this the
    reference configuration for convergence and divergence studies.
    """
    spec = GridSpec(
        nx=nx,
        ny=ny,
        hx=width / (nx - 1),
        hy=period_y / ny,
        origin=(-width / 2.0, 0.0),
        periodic_y=True,
    )
    vals = np.zeros(spec.shape)
    g_edge = sol.g_at(np.abs(spec.xs[[0, -1]]))
    vals[0, :] = g_edge[0]
    vals[-1, :] = g_edge[1]
    return PdeProblem(spec=spec, boundary=ScalarField(spec, vals),
                      newton=newton or NewtonParams())
