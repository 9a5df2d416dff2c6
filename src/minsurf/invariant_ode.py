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

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (BlowUp, DomainExceedsDelta, IntegratorFailure,
                     QuadratureFailure)
from .fields import GridSpec, ScalarField
from .geometry import SurfaceData
from .kernels import hermite, simpson

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

# Dormand-Prince 5(4) tableau, as in Hairer's DOPRI5 (Hairer, Norsett and
# Wanner, Solving Ordinary Differential Equations I, 2nd ed., sec. II.5):
# stage abscissae C, stage weights A, error weights E (fifth-order minus
# embedded fourth-order solution)
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_A71, _A73, _A74, _A75, _A76 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                                -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0,
                                71.0 / 1920.0, -17253.0 / 339200.0,
                                22.0 / 525.0, -1.0 / 40.0)
# DOPRI5's defaults: rounding unit, safety factor, step-ratio bounds, Lund
# stabilisation beta, and the stiffness test's period and threshold
_UROUND = 2.3e-16
_SAFE, _FAC1, _FAC2, _BETA = 0.9, 0.2, 10.0, 0.04
_NSTIFF, _STIFF_HLAMB = 1000, 3.25
_DOPRI_MESSAGES = {-2: "larger nsteps is needed",
                   -4: "problem is probably stiff (interrupted)"}

# DOPRI5's absolute tolerance, relative to its rtol
_ATOL_PER_RTOL = 1e-2
# Simpson nodes of delta's quadrature, uniform on [0, 1]; its error estimate
# compares with the rule on every other node
_DELTA_NODES = 2049
# past this v0, cosh(2 v0 + w) overflows for w < 40 in delta's tail, and the
# part of the tail it drops exceeds e^-40 of delta
_DELTA_V0_MAX = 335.0


@dataclass(frozen=True)
class OdeSolution:
    """Accepted-step samples of (g, g') on [0, x_max] plus dense output.

    Dense output is cubic Hermite on the accepted steps: for g the slopes are
    the stored g', for g' the slopes are g'' = 2 cosh(2g), so interpolation
    error matches the integrator's local order. g extends evenly, g' oddly.
    delta_est is delta(v0), computed by estimate_delta's Simpson quadrature
    on first read.
    """

    v0: float
    xs: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    gp: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("xs", "g", "gp"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        with np.errstate(over="ignore"):
            gpp = 2.0 * np.cosh(2.0 * self.g)
        gpp.setflags(write=False)
        object.__setattr__(self, "_gpp", gpp)

    @cached_property
    def delta_est(self) -> float:
        return estimate_delta(self.v0)

    @property
    def x_max(self) -> float:
        return float(self.xs[-1])

    def _check_range(self, ax: np.ndarray) -> None:
        if np.any(ax > self.x_max * (1.0 + 1e-12) + 1e-300):
            raise ValueError(
                f"evaluation outside integrated range [0, {self.x_max:.6g}]"
            )

    def g_at(self, x) -> np.ndarray | float:
        ax = np.abs(np.asarray(x, dtype=float))
        self._check_range(ax)
        out = hermite(self.xs, self.g, self.gp, np.minimum(ax, self.x_max))
        return float(out) if np.isscalar(x) else out

    def gp_at(self, x) -> np.ndarray | float:
        xx = np.asarray(x, dtype=float)
        ax = np.abs(xx)
        self._check_range(ax)
        out = np.sign(xx) * hermite(self.xs, self.gp, self._gpp,
                                    np.minimum(ax, self.x_max))
        return float(out) if np.isscalar(x) else out


def _rhs(x, g, gp):
    """(g', g'') of the profile equation; g'' is inf once cosh overflows."""
    try:
        return gp, 2.0 * math.cosh(2.0 * g)
    except OverflowError:
        return gp, math.inf


def _rms(a: float, b: float, n: float = 1.0) -> float:
    """sqrt((a^2 + b^2) / n), through math.hypot only where the squares
    overflow float64, so that every other case keeps the plain formula's
    bits."""
    try:
        return math.sqrt((a ** 2 + b ** 2) / n)
    except OverflowError:
        return math.hypot(a, b) / math.sqrt(n)


def _dopri5(f, x, y0, y1, xend, rtol, atol, guard, nmax):
    """Hairer's DOPRI5 (code DOPCOR) for a system of two equations, in
    floats: f(x, y0, y1) returns (y0', y1').

    Scalar tolerances and the code's defaults throughout: the initial step
    of HINIT, the step control with safety 0.9, step ratios within [0.2, 10]
    and Lund stabilisation beta = 0.04, the stiffness test every 1000
    accepted steps, and the stall test 0.1 |h| <= |x| * 2.3e-16.  Returns
    (code, rows): rows are (x, y0, y1) at the start and after every accepted
    step.  code is DOPRI5's IDID: 1 at xend; 2 when y0 exceeded guard after
    an accepted step; -2 after more than nmax steps; -3 when the step became
    too small; -4 when the problem became stiff.
    """
    rows = [(x, y0, y1)]
    posneg = math.copysign(1.0, xend - x)
    hmax = abs(xend - x)
    expo1 = 0.2 - _BETA * 0.75
    facc1, facc2 = 1.0 / _FAC1, 1.0 / _FAC2
    k1a, k1b = f(x, y0, y1)

    # HINIT: an explicit Euler step sized from |y| / |y'|, then h^5 times
    # the larger of |y'| and an estimate of |y''| set to 0.01
    sk0 = atol + rtol * abs(y0)
    sk1 = atol + rtol * abs(y1)
    dny = (y0 / sk0) ** 2 + (y1 / sk1) ** 2
    nf = _rms(k1a / sk0, k1b / sk1)
    try:
        dnf = (k1a / sk0) ** 2 + (k1b / sk1) ** 2
        h = (1.0e-6 if dnf <= 1.0e-10 or dny <= 1.0e-10
             else math.sqrt(dny / dnf) * 0.01)
    except OverflowError:  # |y'| / atol squared, from v0 ~ 163.6 on
        h = math.sqrt(dny) / nf * 0.01
    h = math.copysign(min(h, hmax), posneg)
    fa, fb = f(x + h, y0 + h * k1a, y1 + h * k1b)
    der2 = _rms((fa - k1a) / sk0, (fb - k1b) / sk1) / h
    der12 = max(abs(der2), nf)
    h1 = (max(1.0e-6, abs(h) * 1.0e-3) if der12 <= 1.0e-15
          else (0.01 / der12) ** (1.0 / 5))
    h = math.copysign(min(100 * abs(h), h1, hmax), posneg)

    facold = 1.0e-4
    last = reject = False
    hlamb = 0.0
    iasti = nonsti = naccpt = nstep = 0
    while True:
        if nstep > nmax:
            return -2, rows
        if 0.1 * abs(h) <= abs(x) * _UROUND:
            return -3, rows
        if (x + 1.01 * h - xend) * posneg > 0.0:
            h = xend - x
            last = True
        nstep += 1
        k2a, k2b = f(x + _C2 * h, y0 + h * _A21 * k1a, y1 + h * _A21 * k1b)
        k3a, k3b = f(x + _C3 * h, y0 + h * (_A31 * k1a + _A32 * k2a),
                     y1 + h * (_A31 * k1b + _A32 * k2b))
        k4a, k4b = f(x + _C4 * h,
                     y0 + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a),
                     y1 + h * (_A41 * k1b + _A42 * k2b + _A43 * k3b))
        k5a, k5b = f(x + _C5 * h,
                     y0 + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a
                               + _A54 * k4a),
                     y1 + h * (_A51 * k1b + _A52 * k2b + _A53 * k3b
                               + _A54 * k4b))
        ys0 = y0 + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a
                        + _A65 * k5a)
        ys1 = y1 + h * (_A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b
                        + _A65 * k5b)
        xph = x + h
        k6a, k6b = f(xph, ys0, ys1)
        n0 = y0 + h * (_A71 * k1a + _A73 * k3a + _A74 * k4a + _A75 * k5a
                       + _A76 * k6a)
        n1 = y1 + h * (_A71 * k1b + _A73 * k3b + _A74 * k4b + _A75 * k5b
                       + _A76 * k6b)
        k7a, k7b = f(xph, n0, n1)
        ea = (_E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a
              + _E7 * k7a) * h
        eb = (_E1 * k1b + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b
              + _E7 * k7b) * h
        sk0 = atol + rtol * max(abs(y0), abs(n0))
        sk1 = atol + rtol * max(abs(y1), abs(n1))
        err = _rms(ea / sk0, eb / sk1, 2.0)
        fac11 = err ** expo1
        fac = max(facc2, min(facc1, fac11 / facold ** _BETA / _SAFE))
        hnew = h / fac
        if err <= 1.0:
            facold = max(err, 1.0e-4)
            naccpt += 1
            if naccpt % _NSTIFF == 0 or iasti > 0:
                stden = _rms(n0 - ys0, n1 - ys1)
                if stden > 0.0:
                    hlamb = h * _rms(k7a - k6a, k7b - k6b) / stden
                if hlamb > _STIFF_HLAMB:
                    nonsti = 0
                    iasti += 1
                    if iasti == 15:
                        return -4, rows
                else:
                    nonsti += 1
                    if nonsti == 6:
                        iasti = 0
            k1a, k1b = k7a, k7b
            x, y0, y1 = xph, n0, n1
            rows.append((x, y0, y1))
            if y0 > guard:
                return 2, rows
            if last:
                return 1, rows
            if abs(hnew) > hmax:
                hnew = posneg * hmax
            if reject:
                hnew = posneg * min(abs(hnew), abs(h))
            reject = False
        else:
            hnew = h / min(facc1, fac11 / _SAFE)
            reject = True
            last = False
        h = hnew


def integrate(v0: float, x_max: float, rtol: float = 1e-10) -> OdeSolution:
    """Integrate the profile from 0 to x_max with adaptive Dormand-Prince 5(4)
    at relative tolerance rtol and absolute tolerance rtol * 1e-2.

    Raises BlowUp(x_reached, g_reached) if the profile leaves the
    representable range first; the abscissa it carries approximates delta(v0).
    Raises IntegratorFailure for v0 >= _GUARD_G, where the blow-up guard
    would stop the first step, and for any other integrator failure, with
    DOPRI5's message where it has one.
    """
    if v0 < 0:
        raise ValueError(f"v0 must be nonnegative, got {v0}")
    if not x_max > 0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    if v0 >= _GUARD_G:
        raise IntegratorFailure(
            f"v0 = {v0:g} is at or past the blow-up guard g = {_GUARD_G:g}, "
            "where integration stops")

    code, rows = _dopri5(_rhs, 0.0, float(v0), 0.0, float(x_max), rtol,
                         rtol * _ATOL_PER_RTOL, _GUARD_G, _MAX_STEPS)
    xs, g, gp = np.array(rows).T
    # code 2: the guard stopped it; code -3: step-size underflow against
    # dg/dx ~ e^g.  Both are the blow-up signature
    if code == 2 or (code == -3 and g[-1] > _STALL_G):
        raise BlowUp(xs[-1], g[-1])
    if code < 0:
        why = f": {_DOPRI_MESSAGES[code]}" if code in _DOPRI_MESSAGES else ""
        raise IntegratorFailure(
            f"DOPRI5 failed at x = {xs[-1]:.6g}{why} (return code {code})")
    return OdeSolution(v0=float(v0), xs=xs, g=g, gp=gp)


def estimate_delta(v0: float) -> float:
    """Maximal half-width by quadrature of the first integral.

    With g = v0 + w, 2 sinh 2g - 2 sinh 2v0 = 4 cosh(2 v0 + w) sinh w, free
    of cancellation.  The substitution w = s^2 removes the integrand's
    inverse-square-root singularity on the first unit of w; the tail
    w = 1/t in [1, inf), where the integrand decays like e^{-w}, maps to
    (0, 1].  Both pieces, with their limits 1/sqrt(cosh 2v0) at s = 0 and 0
    at t = 0, go to composite Simpson on one uniform node set.  Raises
    QuadratureFailure for v0 > _DELTA_V0_MAX, where the tail overflows, and
    when the rule and its every-other-node subset differ by more than 1e-8.
    """
    if v0 < 0:
        raise ValueError(f"v0 must be nonnegative, got {v0}")
    if v0 > _DELTA_V0_MAX:
        raise QuadratureFailure(
            f"delta({v0}): cosh(2 v0 + w) overflows float64 on the tail "
            f"beyond v0 = {_DELTA_V0_MAX}")
    s = np.linspace(0.0, 1.0, _DELTA_NODES)
    t = s[1:]
    f = np.zeros(_DELTA_NODES)  # inner piece in s plus tail piece in t = s
    with np.errstate(over="ignore"):
        f[0] = 1.0 / np.sqrt(np.cosh(2.0 * v0))
        # 2s ds / sqrt(4 cosh(2 v0 + s^2) sinh s^2), and dt / t^2 over the
        # same root at w = 1/t; where cosh or sinh overflows, the tail term
        # is 0, its value to float64 accuracy while v0 <= _DELTA_V0_MAX
        f[1:] = t / (np.sqrt(np.cosh(2.0 * v0 + t * t))
                     * np.sqrt(np.sinh(t * t)))
        f[1:] += 0.5 / (t * t * np.sqrt(np.cosh(2.0 * v0 + 1.0 / t))
                        * np.sqrt(np.sinh(1.0 / t)))
    delta = simpson(f, s)
    err = abs(delta - simpson(f[::2], s[::2]))
    if not np.isfinite(delta) or err > 1e-8:
        raise QuadratureFailure(
            f"delta({v0}): estimated error {err:.3e} exceeds 1e-8"
        )
    return delta


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


def length_lower_bound_check(sol: OdeSolution) -> LengthCheck:
    """Check integral_0^x e^g dx' > g(x) - v0 at every accepted sample.

    Trapezoid quadrature on the accepted steps; both sides vanish at x = 0,
    where the inequality degenerates to equality, so x = 0 is skipped.
    """
    xs = sol.xs
    if xs.size < 2:
        raise ValueError("need at least two samples")
    eg = np.exp(sol.g)
    length = np.concatenate(
        [[0.0], np.cumsum(np.diff(xs) * (eg[1:] + eg[:-1]) / 2.0)])
    rhs = sol.g - sol.v0
    bad = np.flatnonzero(length[1:] <= rhs[1:]) + 1
    return LengthCheck(
        ok=bad.size == 0,
        length=float(length[-1]),
        rhs=float(rhs[-1]),
        first_violation_x=(float(xs[bad[0]]) if bad.size else None),
    )


def to_surface(sol: OdeSolution, spec: GridSpec) -> SurfaceData:
    """Sample u(x, y) = g(|x|) on a grid, which must sit strictly inside
    the maximal strip |x| < delta(v0) and inside the integrated range."""
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
    return SurfaceData(ScalarField(spec, u))
