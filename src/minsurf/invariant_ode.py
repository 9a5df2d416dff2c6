"""Translation-invariant profiles: the ODE reduction of the cosh-Gordon chart.

For u(x, y) = g(x) the cosh-Gordon equation becomes

    g'' = 2 cosh(2g),    g(0) = v0 >= 0,   g'(0) = 0,

with first integral  g'^2 = 2 sinh(2g) - 2 sinh(2v0).  Solutions are even and
blow up at a finite abscissa delta(v0), expressible by quadrature:

    delta(v0) = integral_{v0}^{inf} dg / sqrt(2 sinh 2g - 2 sinh 2v0).

delta is the maximal chart half-width for the invariant family; it decreases
in v0.  Near the blow-up g(x) ~ -log(delta - x), so the induced metric e^{2g}
has a non-integrable singularity and the chart length integral
integral_0^X e^g dx dominates g(X) - v0 (completeness margin).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid, ode, quad
from scipy.interpolate import CubicHermiteSpline

from .errors import (BlowUp, DomainExceedsDelta, IntegratorFailure,
                     QuadratureFailure)
from .fields import GridSpec, ScalarField
from .geometry import SurfaceData

__all__ = [
    "OdeSolution",
    "LengthCheck",
    "integrate",
    "estimate_delta",
    "first_integral_residual",
    "first_integral_residuals",
    "length_lower_bound_check",
    "to_surface",
]

# past this value one DOPRI5 step of g' ~ e^g falls below float64 spacing, the
# integrator stalls, and the abscissa reached approximates delta to ~1e-11
_STALL_G = 25.0
_GUARD_G = 300.0
# DOPRI5's step cap; a blow-up takes about 1e3 accepted steps at rtol 1e-10
_MAX_STEPS = 100_000


@dataclass(frozen=True)
class OdeSolution:
    """Accepted-step samples of (g, g') on [0, x_max] plus dense output.

    Dense output is cubic Hermite on the accepted steps: for g the slopes are
    the stored g', for g' the slopes are g'' = 2 cosh(2g), so interpolation
    error matches the integrator's local order. g extends evenly, g' oddly.
    """

    v0: float
    xs: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    gp: np.ndarray = field(repr=False)
    delta_est: float
    rtol: float
    atol: float

    def __post_init__(self):
        for name in ("xs", "g", "gp"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(
            self, "_g_spline", CubicHermiteSpline(self.xs, self.g, self.gp)
        )
        object.__setattr__(
            self,
            "_gp_spline",
            CubicHermiteSpline(self.xs, self.gp, 2.0 * np.cosh(2.0 * self.g)),
        )

    @property
    def x_max(self) -> float:
        return float(self.xs[-1])

    @property
    def samples(self) -> np.ndarray:
        """(n, 3) array of rows (x, g, g')."""
        return np.column_stack([self.xs, self.g, self.gp])

    def _check_range(self, ax: np.ndarray) -> None:
        if np.any(ax > self.x_max * (1.0 + 1e-12) + 1e-300):
            raise ValueError(
                f"evaluation outside integrated range [0, {self.x_max:.6g}]"
            )

    def g_at(self, x) -> np.ndarray | float:
        ax = np.abs(np.asarray(x, dtype=float))
        self._check_range(ax)
        out = self._g_spline(np.minimum(ax, self.x_max))
        return float(out) if np.isscalar(x) else out

    def gp_at(self, x) -> np.ndarray | float:
        xx = np.asarray(x, dtype=float)
        ax = np.abs(xx)
        self._check_range(ax)
        out = np.sign(xx) * self._gp_spline(np.minimum(ax, self.x_max))
        return float(out) if np.isscalar(x) else out


def _rhs(x, y):
    return [y[1], 2.0 * np.cosh(2.0 * y[0])]


def integrate(
    v0: float,
    x_max: float,
    rtol: float = 1e-10,
    atol: float | None = None,
    estimate_width: bool = True,
) -> OdeSolution:
    """Integrate the profile from 0 to x_max with adaptive Dormand-Prince 5(4).

    Raises BlowUp(x_reached, g_reached) if the profile leaves the
    representable range first; the abscissa it carries approximates delta(v0).
    Any other integrator failure raises IntegratorFailure.
    """
    if v0 < 0:
        raise ValueError(f"v0 must be nonnegative, got {v0}")
    if not x_max > 0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    if atol is None:
        atol = rtol * 1e-2

    rows = []  # (x, g, g') at every accepted step, x = 0 included

    def accept(x, y):
        rows.append((x, y[0], y[1]))
        return -1 if y[0] > _GUARD_G else 0

    r = ode(_rhs).set_integrator("dopri5", rtol=rtol, atol=atol,
                                 nsteps=_MAX_STEPS)
    r.set_solout(accept)
    r.set_initial_value([float(v0), 0.0], 0.0)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "dopri5: step size becomes too small",
                                UserWarning)
        r.integrate(float(x_max))
    code = r.get_return_code()
    # scipy's dopri5 wrapper keeps its integrator object alive after the
    # call (scipy 1.17): detach the callback, or each call leaks its samples
    r.set_solout(None)
    xs, g, gp = np.array(rows).T
    # code 2: the guard stopped it; code -3: step-size underflow against
    # dg/dx ~ e^g.  Both are the blow-up signature
    if code == 2 or (code == -3 and g[-1] > _STALL_G):
        raise BlowUp(xs[-1], g[-1])
    if code < 0:
        raise IntegratorFailure(
            f"DOPRI5 failed at x = {xs[-1]:.6g} (return code {code})")

    delta = estimate_delta(v0) if estimate_width else np.inf
    return OdeSolution(
        v0=float(v0),
        xs=xs,
        g=g,
        gp=gp,
        delta_est=float(delta),
        rtol=float(rtol),
        atol=float(atol),
    )


def estimate_delta(v0: float, epsabs: float = 1e-12) -> float:
    """Maximal half-width by quadrature of the first integral.

    The integrand has an inverse-square-root singularity at g = v0; the
    substitution g = v0 + s^2 removes it on the first unit of g, and the tail
    decays like e^{-g}, so adaptive quadrature handles [v0+1, inf) directly.
    """
    if v0 < 0:
        raise ValueError(f"v0 must be nonnegative, got {v0}")
    s2v0 = np.sinh(2.0 * v0)
    c2v0 = np.cosh(2.0 * v0)

    def inner(s):
        # ds-form of dg / sqrt(2 sinh 2g - 2 sinh 2v0) with g = v0 + s^2:
        # 2s ds / sqrt(...); the ratio (sinh 2g - sinh 2v0)/s^2 -> 2 cosh 2v0
        g = v0 + s * s
        d = np.sinh(2.0 * g) - s2v0
        if s == 0.0:
            return 2.0 / np.sqrt(2.0 * 2.0 * c2v0)
        return 2.0 * s / np.sqrt(2.0 * d)

    def tail(g):
        return 1.0 / np.sqrt(2.0 * (np.sinh(2.0 * g) - s2v0))

    with np.errstate(over="ignore"):
        v1, e1 = quad(inner, 0.0, 1.0, epsabs=epsabs, epsrel=1e-12, limit=200)
        v2, e2 = quad(tail, v0 + 1.0, np.inf, epsabs=epsabs, epsrel=1e-12, limit=200)
    err = e1 + e2
    if not np.isfinite(v1 + v2) or err > 1e-8:
        raise QuadratureFailure(
            f"delta({v0}): estimated error {err:.3e} exceeds 1e-8"
        )
    return float(v1 + v2)


def first_integral_residuals(sol: OdeSolution) -> np.ndarray:
    """|g'^2 - 2 sinh(2g) + 2 sinh(2v0)| at every accepted sample.

    Absolute residual; its conditioning degrades like e^{2g} near blow-up,
    so restrict the sample window when comparing against tolerances.
    """
    with np.errstate(over="ignore"):
        e = sol.gp**2 - 2.0 * np.sinh(2.0 * sol.g) + 2.0 * np.sinh(2.0 * sol.v0)
    return np.abs(e)


def first_integral_residual(sol: OdeSolution) -> float:
    """Max of the per-sample first-integral residuals."""
    return float(np.max(first_integral_residuals(sol)))


@dataclass(frozen=True)
class LengthCheck:
    """Outcome of the completeness inequality  length(0,X) > g(X) - v0."""

    ok: bool
    length: float
    rhs: float
    first_violation_x: float | None

    def __bool__(self) -> bool:
        return self.ok


def length_lower_bound_check(sol: OdeSolution, X: float | None = None) -> LengthCheck:
    """Check integral_0^x e^g dx' > g(x) - v0 at every sample up to X.

    Trapezoid quadrature on the accepted steps; both sides vanish at x = 0,
    where the inequality degenerates to equality, so x = 0 is skipped.
    """
    if X is None:
        X = sol.x_max
    m = sol.xs <= X * (1.0 + 1e-12)
    xs = sol.xs[m]
    if xs.size < 2:
        raise ValueError("need at least two samples below X")
    eg = np.exp(sol.g[m])
    length = cumulative_trapezoid(eg, xs, initial=0.0)
    rhs = sol.g[m] - sol.v0
    bad = np.flatnonzero(length[1:] <= rhs[1:]) + 1
    return LengthCheck(
        ok=bad.size == 0,
        length=float(length[-1]),
        rhs=float(rhs[-1]),
        first_violation_x=(float(xs[bad[0]]) if bad.size else None),
    )


def to_surface(sol: OdeSolution, spec: GridSpec) -> SurfaceData:
    """Sample u(x, y) = g(|x|) on a grid, certifying u >= 0.

    The grid must sit strictly inside the maximal strip |x| < delta(v0) and
    inside the integrated range.
    """
    xs = np.abs(spec.xs)
    xmax_req = float(xs.max())
    if xmax_req >= sol.delta_est:
        raise DomainExceedsDelta(
            f"grid reaches |x| = {xmax_req:.6g} >= delta = {sol.delta_est:.6g}"
        )
    if xmax_req > sol.x_max * (1.0 + 1e-12):
        raise ValueError(
            f"grid reaches |x| = {xmax_req:.6g} beyond integrated {sol.x_max:.6g}; "
            "integrate further"
        )
    col = sol.g_at(xs)
    u = np.repeat(np.asarray(col)[:, None], spec.ny, axis=1)
    # v0 >= 0 and g increasing in |x| make the chart weakly bounded
    return SurfaceData(ScalarField(spec, u), weakly_bounded=True)
