"""Dirichlet solver for the cosh-Gordon equation on strips and cylinders.

Discretization: 5-point Laplacian on the grid, Dirichlet data on the
non-periodic edges, periodic wrap in y when the grid is a cylinder.  Delta_h
is applied matrix-free, as an array stencil on the interior nodes.  The
nonlinear system F(u) = Delta_h u - 2 cosh(2u) = 0 on interior nodes is solved
by damped inexact Newton.  Each step solves with the Jacobian
J = Delta_h - 4 sinh(2u) I_diag by MINRES, preconditioned with the exact
inverse of -Delta_h + s I: the 5-point Laplacian diagonalises by the sine
transform in x and by the real FFT (cylinder) or the sine transform
(rectangle) in y (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970).
The sine transform is a product with the orthonormal DST-I matrix, cached
per size, so the preconditioner costs O(mx^2 my) on an mx x my interior,
whatever mx + 1 factors into.  -J is positive definite wherever
sinh(2u) >= 0, which is what makes the weakly bounded regime (u >= 0) so
benign; MINRES also handles the symmetric indefinite -J of charts with u < 0
somewhere.  MINRES is written here (_minres) with every
inner product a numpy pairwise sum, never a BLAS call, so a solve gives the
same bits whatever the BLAS thread count.

A cylinder whose two Dirichlet edge rows are each constant along y is
solved on 3 columns and the column tiled (see solve): the same Newton
iterates at about 3/ny of the cost.  The invariant strips
(invariant_strip_problem, so `minsurf solve` and criterion 03) go this way;
every other problem is solved on its full grid.

Solvability is width-limited: boundary data >= 0 on a strip of width >= twice
the maximal invariant half-width admits no solution, and Newton divergence is
the expected (and tested) signal there.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NewtonDiverged, SingularJacobian
from .fields import GridSpec, ScalarField, laplacian
from .geometry import SurfaceData, gauss_residual

__all__ = [
    "PdeProblem",
    "solve",
    "residual",
    "harmonic_extension",
    "invariant_strip_problem",
]

# Newton: iteration cap, and the floor of the backtracked damping
_MAX_ITER = 50
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
class PdeProblem:
    """Dirichlet problem for Delta u = 2 cosh(2u).

    boundary supplies values on every non-periodic edge node (interior
    entries of the field are ignored).  solve stops once the sup residual
    is at most tol_residual.
    """

    spec: GridSpec
    boundary: ScalarField
    tol_residual: float = 1e-10

    def __post_init__(self):
        if self.boundary.spec != self.spec:
            raise ValueError("boundary field lives on a different grid")
        if not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")


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


@lru_cache(maxsize=8)
def _dst_matrix(m: int) -> np.ndarray:
    """The orthonormal DST-I matrix of size m, read-only:
    S[k, n] = sqrt(2/(m+1)) sin(pi (k+1)(n+1) / (m+1)).  S is symmetric and
    its own inverse.  (k+1)(n+1) is reduced mod 2(m+1) in integers first,
    so every sine is taken of an angle in [0, 2 pi)."""
    k = np.arange(1, m + 1)
    phase = np.outer(k, k) % (2 * (m + 1))
    s = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * phase / (m + 1))
    s.setflags(write=False)
    return s


def _poisson_solve(spec: GridSpec, rhs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(-L_h + s I)^-1 rhs on the interior nodes, given the eigenvalues
    lam = _poisson_eigs(spec) + s of that operator, for a shift s >= 0.

    The sine transform (DST-I) diagonalises the x part; the y part is
    diagonalised by the real FFT on a cylinder and by DST-I on a rectangle.
    """
    mx, my = _interior_shape(spec)
    sx = _dst_matrix(mx)
    r = rhs.reshape(mx, my)
    if spec.periodic_y:
        r = np.fft.rfft(sx @ r, axis=1) / lam
        out = sx @ np.fft.irfft(r, n=my, axis=1)
    else:
        sy = _dst_matrix(my)
        out = sx @ ((sx @ r @ sy) / lam) @ sy
    return out.ravel()


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b as numpy's pairwise sum.  numpy.dot, inner and linalg.norm go
    through BLAS, whose threaded sums round differently with the thread
    count; this gives the same bits with any BLAS."""
    return float(np.add.reduce(a * b))


def _minres(apply_A, b: np.ndarray, psolve, rtol: float, maxiter: int):
    """Preconditioned MINRES (Paige and Saunders, SIAM J. Numer. Anal. 12,
    1975) for A x = b from x = 0: A symmetric, possibly indefinite, and
    psolve applying a symmetric positive definite M^-1.

    The recurrences and stopping tests are those of
    scipy.sparse.linalg.minres with no shift: the relative residual test1,
    the test2 of a least-squares solution, the condition estimate Acond, the
    rounding floor epsx, and the early exit when b is an eigenvector of
    M^-1 A.  Every vector reduction is a pairwise sum (_dot), so the result
    does not depend on the BLAS thread count.

    Returns (x, info, iterations), info 0 when a test held and maxiter when
    the cap stopped the iteration.  x is finite.  A breakdown raises
    SingularJacobian: b^T M^-1 b < 0 (M is not positive definite),
    beta^2 < 0 (A or M is not symmetric), or a non-finite reduction.
    """
    eps = np.finfo(float).eps

    def reduced(a, c):
        d = _dot(a, c)
        if not math.isfinite(d):
            raise SingularJacobian("MINRES breakdown: non-finite inner product")
        return d

    x = np.zeros_like(b)
    r1 = b.copy()
    y = psolve(r1)
    beta1 = reduced(r1, y)
    if beta1 < 0:
        raise SingularJacobian("MINRES breakdown: b^T M^-1 b < 0, the "
                               "preconditioner is not positive definite")
    if beta1 == 0:
        return x, 0, 0
    beta1 = math.sqrt(beta1)

    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin = 0.0, 0.0, np.finfo(float).max
    cs, sn = -1.0, 0.0
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    r2 = r1
    itn = 0
    while itn < maxiter:
        itn += 1
        # Lanczos step: v_k, alpha_k and beta_k+1 of the tridiagonal T_k
        v = (1.0 / beta) * y
        y = apply_A(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = reduced(v, y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = psolve(r2)
        oldb, beta = beta, reduced(r2, y)
        if beta < 0:
            raise SingularJacobian("MINRES breakdown: beta^2 < 0, the "
                                   "operator or M is not symmetric")
        beta = math.sqrt(beta)
        tnorm2 += alfa * alfa + oldb * oldb + beta * beta
        # b is an eigenvector of M^-1 A: x_1 is the solution
        eigenvector = itn == 1 and beta / beta1 <= 10 * eps

        # Givens rotation that eliminates beta_k+1 from T_k's QR factor
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.sqrt(gbar * gbar + dbar * dbar)
        gamma = max(math.sqrt(gbar * gbar + beta * beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w

        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(reduced(x, x))
        test1 = (math.inf if ynorm == 0 or anorm == 0
                 else phibar / (anorm * ynorm))  # |r| / (|A| |x|)
        test2 = math.inf if anorm == 0 else root / anorm  # |A r| / (|A| |r|)
        if (eigenvector or test1 <= rtol or test2 <= rtol
                or 1 + test1 <= 1 or 1 + test2 <= 1
                or anorm * ynorm * eps >= beta1  # epsx: rounding floor
                or gmax / gmin >= 0.1 / eps):  # Acond
            return x, 0, itn
    return x, maxiter, itn


def harmonic_extension(spec: GridSpec, boundary: ScalarField) -> ScalarField:
    """Solve Delta_h v = 0 with the given Dirichlet data: the start of
    solve's Newton iteration, which _newton computes inline."""
    if boundary.spec != spec:
        raise ValueError("boundary field lives on a different grid")
    v = _poisson_solve(spec, _boundary_term(boundary), _poisson_eigs(spec))
    return ScalarField(spec, _with_interior(boundary, v))


def _y_invariant(p: PdeProblem) -> bool:
    """A cylinder of more than 3 columns whose two Dirichlet edge rows are
    each exactly constant along y."""
    g = p.boundary.values
    return (p.spec.periodic_y and p.spec.ny > 3
            and bool(np.all(g[0] == g[0, 0]))
            and bool(np.all(g[-1] == g[-1, 0])))


def solve(p: PdeProblem) -> SurfaceData:
    """Damped inexact Newton iteration for the discrete cosh-Gordon system.

    Starts from the harmonic extension of the boundary data.  Each step
    solves (-J) step = F by MINRES with the fast-Poisson preconditioner
    (-L_h + s I)^-1, s = max(mean(4 sinh 2u), 0), to the Eisenstat-Walker
    forcing term of that step.  A MINRES breakdown (see _minres) raises
    SingularJacobian.  When MINRES stops at its iteration cap (info > 0)
    the unconverged step is used as an inexact Newton step: the line search
    still has to reduce the true residual, and convergence is still
    declared only on the true residual.  Each step is logged at DEBUG on
    the "minsurf.pde" logger: iteration, sup residual, accepted damping,
    MINRES iterations, forcing term and MINRES info (0 when converged, the
    iteration count when capped).

    Residual is measured in the sup norm over interior nodes.  Each step
    starts undamped and backtracking halves it down to 2^-10; failure to
    reduce the residual there, or running out of the 50 iterations, raises
    NewtonDiverged.

    The sup residual cannot be evaluated below the cancellation floor of
    Delta_h v (about eps * |L_h| |v|, above 1e-10 once h^-2 |u| reaches ~5e5,
    e.g. constant data 0.3 on a width-0.05 grid with 33 nodes), so
    convergence is declared at max(tol_residual, a few eps of that floor);
    anything stricter would misreport machine-precision iterates as
    divergence.

    A y-invariant cylinder (more than 3 columns, each Dirichlet edge row
    exactly constant along y) is solved on 3 columns with the same nx, hx,
    hy, origin and edge values, and that column is tiled to all ny.  The
    iterates are the full solve's: from y-constant data every iterate is
    y-constant, the periodic stencil's y-terms vanish on such vectors
    whatever ny is, the preconditioner acts on them through its y = 0
    Fourier mode alone, whose eigenvalues do not depend on ny, and the sup
    residuals are the same maxima.  The Eisenstat-Walker ratio is a ratio
    of norms that replicating columns scales alike, and MINRES is handed F
    at unit 2-norm on either grid (see _newton), so its recurrences and
    stopping tests see the same numbers.  Only the order of the pairwise
    sums and of the FFT changes, so u moves at rounding level.  The
    invariant strips of criterion 03 and `minsurf solve`
    (invariant_strip_problem) take this path; every other problem, a
    rectangle or a cylinder with y-dependent edge data, is solved on the
    full grid.
    """
    spec = p.spec
    if _y_invariant(p):
        column = replace(spec, ny=3)
        u_col = _newton(PdeProblem(
            column, ScalarField(column, p.boundary.values[:, :3]),
            p.tol_residual))
        u = p.boundary.values.copy()
        u[1:-1] = u_col[1:-1, :1]
    else:
        u = _newton(p)
    return SurfaceData(ScalarField(spec, u))


def _newton(p: PdeProblem) -> np.ndarray:
    """solve's Newton-MINRES iteration on p's own grid, started from the
    harmonic extension of the boundary data (computed here, as
    harmonic_extension does); returns u on every node, the Dirichlet data
    on the edges.

    MINRES is handed F / |F|_2 and its solution is multiplied by |F|_2.
    MINRES is homogeneous in b, except that its |A| estimate starts from
    |b|; at unit norm that start, and so every stopping test, is the same
    for a y-invariant column as for the full grid it stands for.
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
        return max(p.tol_residual, 4.0 * np.finfo(float).eps * scale)

    res_vec = F(v)
    res = float(np.max(np.abs(res_vec)))
    eta, norm_prev = _FORCING_MAX, None
    for it in range(_MAX_ITER):
        if res <= tol_eff(v):
            break
        with np.errstate(over="ignore"):
            dg = 4.0 * np.sinh(2.0 * v)
        if not np.all(np.isfinite(dg)):
            raise NewtonDiverged(it, res)

        norm_f = math.sqrt(_dot(res_vec, res_vec))
        if norm_prev is not None:
            ew = _EW_GAMMA * (norm_f / norm_prev) ** _EW_ALPHA
            safeguard = _EW_GAMMA * eta**_EW_ALPHA
            if safeguard > 0.1:
                ew = max(ew, safeguard)
            eta = min(max(ew, _FORCING_FLOOR), _FORCING_MAX)
        norm_prev = norm_f

        lam_s = eigs + max(float(np.mean(dg)), 0.0)
        step, info, its = _minres(
            lambda x: dg * x - _apply_laplacian(spec, x), res_vec / norm_f,
            lambda r: _poisson_solve(spec, r, lam_s), eta, _MINRES_MAXITER)
        step *= norm_f

        lam = 1.0
        accepted = False
        while lam >= _DAMPING_FLOOR:
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
                   it + 1, res, lam, its, eta, info)
    else:
        if res > tol_eff(v):
            raise NewtonDiverged(_MAX_ITER, res)

    return _with_interior(p.boundary, v)


def residual(s: SurfaceData) -> float:
    """Sup-norm interior residual of the discrete equation for a given chart."""
    return gauss_residual(s).sup(interior_only=True)


def invariant_strip_problem(
    sol,
    width: float,
    nx: int,
    ny: int,
    period_y: float = 1.0,
    tol_residual: float = 1e-10,
) -> PdeProblem:
    """Dirichlet problem on a centered periodic strip with data g(|x|).

    The exact solution is the invariant profile itself, which makes this the
    reference configuration for convergence and divergence studies.
    """
    spec = GridSpec.strip(width, nx, ny, period_y)
    vals = np.zeros(spec.shape)
    g_edge = sol.g_at(np.abs(spec.xs[[0, -1]]))
    vals[0, :] = g_edge[0]
    vals[-1, :] = g_edge[1]
    return PdeProblem(spec=spec, boundary=ScalarField(spec, vals),
                      tol_residual=tol_residual)
