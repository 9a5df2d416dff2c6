"""Dirichlet solver for the cosh-Gordon equation on strips and cylinders.

Discretization: 5-point Laplacian on the grid, Dirichlet data on the
non-periodic edges, periodic wrap in y when the grid is a cylinder.  The
nonlinear system F(u) = Delta_h u - 2 cosh(2u) = 0 on interior nodes is solved
by damped Newton with sparse LU; the Jacobian is Delta_h - 4 sinh(2u) I_diag,
strictly diagonally dominant wherever sinh(2u) >= 0, which is what makes the
weakly bounded regime (u >= 0) so benign.

Solvability is width-limited: boundary data >= 0 on a strip of width >= twice
the maximal invariant half-width admits no solution, and Newton divergence is
the expected (and tested) signal there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NewtonDiverged, SingularJacobian
from .fields import GridSpec, ScalarField
from .geometry import SurfaceData, gauss_residual

__all__ = [
    "NewtonParams",
    "PdeProblem",
    "ContinuationResult",
    "solve",
    "residual",
    "harmonic_extension",
    "invariant_strip_problem",
    "continuation",
]

_DAMPING_FLOOR = 2.0**-10


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
    entries of the field are ignored).  boundary_func, when set, regenerates
    boundary data for a rescaled strip and is consulted only by continuation.
    """

    spec: GridSpec
    boundary: ScalarField
    initial_guess: ScalarField | None = None
    newton: NewtonParams = field(default_factory=NewtonParams)
    boundary_func: Callable[[GridSpec], ScalarField] | None = None

    def __post_init__(self):
        if self.boundary.spec != self.spec:
            raise ValueError("boundary field lives on a different grid")
        if self.initial_guess is not None and self.initial_guess.spec != self.spec:
            raise ValueError("initial guess lives on a different grid")


def _interior_map(spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index array (nx, ny) with -1 at boundary, interior i's, interior j's)."""
    idx = -np.ones(spec.shape, dtype=np.int64)
    mask = spec.interior_mask()
    ii, jj = np.nonzero(mask)
    idx[ii, jj] = np.arange(ii.size)
    return idx, ii, jj


def _assemble_laplacian(spec: GridSpec, boundary: np.ndarray):
    """Sparse Delta_h on interior nodes and the boundary contribution vector."""
    idx, ii, jj = _interior_map(spec)
    m = ii.size
    cx = 1.0 / spec.hx**2
    cy = 1.0 / spec.hy**2

    rows, cols, vals = [], [], []
    b = np.zeros(m)
    diag = np.full(m, -2.0 * (cx + cy))
    k = np.arange(m)
    rows.append(k)
    cols.append(k)
    vals.append(diag)

    def neighbor(di: int, dj: int, coef: float):
        ni = ii + di
        nj = jj + dj
        if spec.periodic_y:
            nj = nj % spec.ny
        nidx = idx[ni, nj]
        inside = nidx >= 0
        rows.append(k[inside])
        cols.append(nidx[inside])
        vals.append(np.full(inside.sum(), coef))
        out = ~inside
        if out.any():
            b[k[out]] += coef * boundary[ni[out], nj[out]]

    neighbor(-1, 0, cx)
    neighbor(+1, 0, cx)
    neighbor(0, -1, cy)
    neighbor(0, +1, cy)

    L = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    )
    return L, b, (idx, ii, jj)


def _full_field(spec: GridSpec, interior: np.ndarray, boundary: np.ndarray, maps):
    _, ii, jj = maps
    full = boundary.copy()
    full[ii, jj] = interior
    return full


def harmonic_extension(spec: GridSpec, boundary: ScalarField) -> ScalarField:
    """Solve Delta_h v = 0 with the given Dirichlet data (default initial guess)."""
    L, b, maps = _assemble_laplacian(spec, boundary.values)
    try:
        v = splu(L.tocsc()).solve(-b)
    except RuntimeError as exc:  # pragma: no cover - Laplacian is never singular
        raise SingularJacobian(str(exc)) from exc
    return ScalarField(spec, _full_field(spec, v, boundary.values, maps))


def solve(p: PdeProblem) -> SurfaceData:
    """Damped Newton iteration for the discrete cosh-Gordon system.

    Residual is measured in the sup norm over interior nodes.  Backtracking
    halves the step down to 2^-10 of the nominal damping; failure to reduce
    the residual there, or running out of iterations, raises NewtonDiverged.

    The sup residual cannot be evaluated below the cancellation floor of
    L @ v (about eps * |L| |v|, which exceeds 1e-10 once h^-2 |u| reaches
    ~5e5, e.g. constant data 0.3 on a width-0.05 grid with 33 nodes), so
    convergence is declared at max(tol_residual, a few eps of that floor);
    anything stricter would misreport machine-precision iterates as
    divergence.
    """
    spec = p.spec
    L, b, maps = _assemble_laplacian(spec, p.boundary.values)
    m = b.size
    absL = abs(L)

    if p.initial_guess is not None:
        _, ii, jj = maps
        v = p.initial_guess.values[ii, jj].copy()
    else:
        v = splu(L.tocsc()).solve(-b)

    def F(vv):
        with np.errstate(over="ignore"):
            return L @ vv + b - 2.0 * np.cosh(2.0 * vv)

    def tol_eff(vv):
        with np.errstate(over="ignore"):
            scale = float(np.max(absL @ np.abs(vv) + np.abs(b)
                                 + 2.0 * np.cosh(2.0 * vv)))
        return max(p.newton.tol_residual, 4.0 * np.finfo(float).eps * scale)

    res_vec = F(v)
    res = float(np.max(np.abs(res_vec)))
    for it in range(p.newton.max_iter):
        if res <= tol_eff(v):
            break
        with np.errstate(over="ignore"):
            dg = -4.0 * np.sinh(2.0 * v)
        if not np.all(np.isfinite(dg)):
            raise NewtonDiverged(it, res)
        J = (L + sp.diags(dg)).tocsc()
        try:
            lu = splu(J)
        except RuntimeError as exc:
            raise SingularJacobian(str(exc)) from exc
        step = lu.solve(-res_vec)
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
    else:
        if res > tol_eff(v):
            raise NewtonDiverged(p.newton.max_iter, res)

    u = _full_field(spec, v, p.boundary.values, maps)
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

    def boundary_for(spec: GridSpec) -> ScalarField:
        vals = np.zeros(spec.shape)
        edge = np.abs(spec.xs[[0, -1]])
        g_edge = sol.g_at(edge)
        vals[0, :] = g_edge[0]
        vals[-1, :] = g_edge[1]
        return ScalarField(spec, vals)

    spec = GridSpec(
        nx=nx,
        ny=ny,
        hx=width / (nx - 1),
        hy=period_y / ny,
        origin=(-width / 2.0, 0.0),
        periodic_y=True,
    )
    return PdeProblem(
        spec=spec,
        boundary=boundary_for(spec),
        newton=newton or NewtonParams(),
        boundary_func=boundary_for,
    )


@dataclass(frozen=True)
class ContinuationResult:
    widths: tuple[float, ...]
    solutions: tuple[SurfaceData, ...]
    diverged_at: float | None
    last_residual: float | None


def continuation(p: PdeProblem, widths) -> ContinuationResult:
    """Re-solve on progressively wider strips, seeding Newton from the last hit.

    Node counts stay fixed; hx rescales with the width and the previous
    solution is transported by per-row linear interpolation in x (clamped at
    the old edges).  Stops at the first divergence and reports the width.
    """
    if p.boundary_func is None:
        raise ValueError("continuation needs a PdeProblem with boundary_func")
    widths = [float(w) for w in widths]
    if any(w2 <= w1 for w1, w2 in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly increasing")

    sols: list[SurfaceData] = []
    done: list[float] = []
    guess: ScalarField | None = p.initial_guess
    prev_spec: GridSpec | None = None

    for w in widths:
        spec = GridSpec(
            nx=p.spec.nx,
            ny=p.spec.ny,
            hx=w / (p.spec.nx - 1),
            hy=p.spec.hy,
            origin=(-w / 2.0, p.spec.origin[1]),
            periodic_y=p.spec.periodic_y,
        )
        if guess is not None and prev_spec is not None:
            vals = np.empty(spec.shape)
            for j in range(spec.ny):
                vals[:, j] = np.interp(spec.xs, prev_spec.xs, guess.values[:, j])
            seed = ScalarField(spec, vals)
        else:
            seed = None
        prob = PdeProblem(
            spec=spec,
            boundary=p.boundary_func(spec),
            initial_guess=seed,
            newton=p.newton,
            boundary_func=p.boundary_func,
        )
        try:
            s = solve(prob)
        except NewtonDiverged as exc:
            return ContinuationResult(
                widths=tuple(done),
                solutions=tuple(sols),
                diverged_at=w,
                last_residual=exc.residual,
            )
        sols.append(s)
        done.append(w)
        guess = s.u
        prev_spec = spec

    return ContinuationResult(
        widths=tuple(done), solutions=tuple(sols), diverged_at=None, last_residual=None
    )
