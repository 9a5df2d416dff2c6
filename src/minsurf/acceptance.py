"""Quantitative verification suite shared by the CLI and the tests.

Eleven machine-checkable criteria cover the pipeline end to end: the
invariant ODE profiles, the nonlinear Dirichlet solver against its ODE
oracle, frame integration and round-trip recovery of the fundamental forms,
the variation formulas against flowed-immersion differences, and the
curvature-opening constructions with their certificates.  Each criterion is
a zero-argument function returning a CriterionResult; run_all executes the
registry in order and keeps going past failures, so `minsurf verify` and
``pytest tests/test_acceptance.py`` consume the same implementation and
cannot drift apart.  LANES splits the registry in two by the cached inputs
the criteria share; `minsurf verify` runs the lanes in parallel processes.

Configurations are pinned: grid sizes keep the whole suite under a minute
while every tolerance retains roughly a 3x margin over the measured value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import deform, variation
from .errors import BlowUp, NonGenericCurve
from .fields import GridSpec, ScalarField
from .geometry import embedding_data, principal_curvatures
from .immersion import forms_from_immersion, immerse, normal_flow
from .invariant_ode import (
    estimate_delta,
    first_integral_residual,
    integrate,
    to_surface,
)
from .pde import invariant_strip_problem, solve

__all__ = ["CriterionResult", "LANES", "REGISTRY", "run_all"]


# one periodic chart configuration is reused by every surface-level check:
# unit strip and period around the invariant profile at v0 = 0, bump of
# radius 0.45 centered on the zero locus {x = 0}
_BUMP_CENTER = (0.0, 0.5)
_BUMP_R = 0.45
_FLOW_T = 1e-3
_SWEEP = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: dict
    elapsed_s: float

    def line(self) -> str:
        parts = []
        for k, v in self.details.items():
            if isinstance(v, float):
                parts.append(f"{k}={v:.6g}")
            elif isinstance(v, (bool, int, str)):
                parts.append(f"{k}={v}")
        body = ", ".join(parts)
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name}  [{self.elapsed_s:.2f}s]  {body}"

    def as_dict(self) -> dict:
        def jsonable(v):
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, tuple):
                return [jsonable(x) for x in v]
            if isinstance(v, dict):
                return {k: jsonable(x) for k, x in v.items()}
            return v

        # raw timings are excluded: reports must be byte-identical across
        # runs of the same configuration, so only boolean runtime verdicts
        # (within_*) travel in the JSON
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "details": {k: jsonable(v) for k, v in self.details.items()
                        if not k.endswith("_s")},
        }


def _timed(fn):
    def wrapper() -> CriterionResult:
        t0 = time.perf_counter()
        passed, details = fn()
        return CriterionResult(
            name=fn.__name__.replace("_", "-").lstrip("-"),
            passed=passed,
            details=details,
            elapsed_s=time.perf_counter() - t0,
        )

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# ---------------------------------------------------------------------------
# cached building blocks


@lru_cache(maxsize=None)
def _profile(v0: float):
    """Invariant profile integrated on [0, 0.9 delta(v0)] at tol 1e-10."""
    return integrate(v0, 0.9 * estimate_delta(v0), rtol=1e-10)


@lru_cache(maxsize=None)
def _chart(n: int):
    """Unit-strip periodic chart of the v0 = 0 profile at grid step 1/n."""
    spec = GridSpec(nx=n + 1, ny=n, hx=1.0 / n, hy=1.0 / n,
                    origin=(-0.5, 0.0), periodic_y=True)
    return to_surface(_profile(0.0), spec)


@lru_cache(maxsize=None)
def _bump(n: int) -> ScalarField:
    return deform.build_point_f(_BUMP_CENTER, _BUMP_R, _chart(n).spec)


@lru_cache(maxsize=None)
def _immersed(n: int):
    return immerse(_chart(n))


def _graph_samples():
    """The pinned moment-problem input: h(x) = 0.3 x (1 - x) on [0, 1]."""
    xs = np.linspace(0.0, 1.0, 4097)
    return xs, 0.3 * xs * (1.0 - xs)


@lru_cache(maxsize=None)
def _translation_field():
    """Pinned translation-holonomy scenario (gentle slope, wide window)."""
    L = 1.0

    def curve(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t + 0.02 * np.sin(2 * np.pi * t),
                         -0.2 * t + 0.02 * np.cos(2 * np.pi * t)], axis=-1)

    def curve_deriv(t):
        t = np.asarray(t, dtype=float)
        return np.stack([1.0 + 0.04 * np.pi * np.cos(2 * np.pi * t),
                         -0.2 - 0.04 * np.pi * np.sin(2 * np.pi * t)], axis=-1)

    tube = deform.CurveTube(period=L, s_bar=0.1, holonomy="translation",
                            curve=curve, curve_deriv=curve_deriv,
                            hol_vector=(1.0, -0.2))
    spec = GridSpec(nx=33, ny=256, hx=0.16 / 32, hy=L / 256,
                    origin=(-0.08, 0.0), periodic_y=True)
    return deform.build_translation_f(tube, spec, r=0.06)


def _smooth_random_pair(rng, spec: GridSpec):
    """Random trigonometric (u, f): periodic in y, O(1) second derivatives."""
    X, Y = spec.nodes()
    u = np.zeros(spec.shape)
    f = np.zeros(spec.shape)
    for m in (1, 2, 3):
        au, af = rng.uniform(0.03, 0.1, 2)
        pu, qu, pf, qf = rng.uniform(0.0, 2 * np.pi, 4)
        wu, wf = rng.uniform(1.0, 4.0, 2)
        u += au * np.cos(wu * X + pu) * np.cos(2 * np.pi * m * Y + qu)
        f += 3 * af * np.sin(wf * X + pf) * np.cos(2 * np.pi * m * Y + qf)
    from .geometry import SurfaceData

    return SurfaceData(ScalarField(spec, u)), ScalarField(spec, f)


# ---------------------------------------------------------------------------
# criteria


@_timed
def _01_ode_first_integral():
    """g'^2 - 2 sinh 2g + 2 sinh 2v0 stays below 1e-8 on [0, 0.9 delta]."""
    t0 = time.perf_counter()
    residuals = {}
    for v0 in (0.0, 0.5):
        sol = integrate(v0, 0.9 * estimate_delta(v0), rtol=1e-10)
        residuals[v0] = first_integral_residual(sol)
    elapsed = time.perf_counter() - t0
    ok = all(r <= 1e-8 for r in residuals.values()) and elapsed < 1.0
    return ok, {
        "residual_v0_0": residuals[0.0],
        "residual_v0_05": residuals[0.5],
        "tolerance": 1e-8,
        "within_1s": elapsed < 1.0,
        "integration_s": elapsed,
    }


@_timed
def _02_blowup_width_cross_check():
    """Blow-up abscissa agrees with the separated-variable quadrature."""
    details = {}
    worst = 0.0
    for v0 in (0.0, 0.25, 0.5):
        dq = estimate_delta(v0)
        try:
            integrate(v0, dq + 0.1, estimate_width=False)
            raise AssertionError("profile failed to blow up past delta")
        except BlowUp as e:
            gap = abs(e.x_reached - dq)
        details[f"gap_v0_{v0:g}"] = gap
        worst = max(worst, gap)
    details["tolerance"] = 1e-6
    return worst <= 1e-6, details


@_timed
def _03_pde_vs_ode_convergence():
    """Dirichlet solve converges at order 2 to the invariant profile."""
    sol = _profile(0.0)
    width = 0.8 * estimate_delta(0.0)
    t0 = time.perf_counter()
    errs = {}
    for level in (64, 128):
        nx = round(width * level) + 1
        prob = invariant_strip_problem(sol, width, nx=nx, ny=level)
        s = solve(prob)
        exact = sol.g_at(np.abs(s.spec.xs))[:, None]
        errs[level] = float(np.max(np.abs(s.u.values - exact)))
    elapsed = time.perf_counter() - t0
    ratio = errs[64] / errs[128]
    ok = 3.5 <= ratio <= 4.5 and elapsed < 30.0
    return ok, {
        "sup_error_h64": errs[64],
        "sup_error_h128": errs[128],
        "ratio": ratio,
        "ratio_window": (3.5, 4.5),
        "within_30s": elapsed < 30.0,
        "solve_s": elapsed,
    }


@_timed
def _04_immersion_round_trip():
    """Frame integration + FD recovery returns (I, II, B) at order 2."""
    errs = {}
    drift = 0.0
    for n in (32, 64):
        s = _chart(n)
        g = _immersed(n)
        drift = max(drift, g.constraint_drift())
        rec = forms_from_immersion(g)
        exact = embedding_data(s)
        errs[n] = tuple((a - b).sup(interior_only=True)
                        for a, b in zip(rec, exact))
    ratios = tuple(errs[32][k] / errs[64][k] for k in range(3))
    ok = all(3.5 <= r <= 4.5 for r in ratios) and drift <= 1e-9
    return ok, {
        "ratio_I": ratios[0],
        "ratio_II": ratios[1],
        "ratio_B": ratios[2],
        "ratio_window": (3.5, 4.5),
        "constraint_drift": drift,
        "drift_tolerance": 1e-9,
    }


@_timed
def _05_shape_rate_vs_immersion():
    """dB/dt formula matches the flowed-immersion difference on the plateau.

    The comparison region is the bump plateau (profile identically 1) minus
    one stencil width: there the field is an exact quadratic and the oracle's
    own FD error is the only discrepancy, which must shrink at order 2.
    """
    discs = {}
    full = {}
    for n in (64, 128):
        s = _chart(n)
        f = _bump(n)
        rate = variation.shape_rate(s, f)
        fd = variation.immersion_fd_rate(_immersed(n), f, t=_FLOW_T,
                                         which="B")
        gap = np.abs((rate - fd).mat).max(axis=(-2, -1))
        plateau = deform.plateau_mask(s.spec, _BUMP_CENTER, _BUMP_R)
        discs[n] = float(np.max(gap[plateau]))
        full[n] = float(np.max(gap[s.spec.interior_mask()]))
    shrink = discs[64] / discs[128]
    ok = discs[128] <= 1e-3 and shrink >= 3.5
    return ok, {
        "plateau_sup_h128": discs[128],
        "tolerance": 1e-3,
        "shrink_64_to_128": shrink,
        "min_shrink": 3.5,
        "flow_t": _FLOW_T,
        "interior_sup_h128": full[128],
    }


@_timed
def _06_rate_product_rule():
    """dB/dt = d(I^-1)/dt II + I^-1 dII/dt holds to rounding on random data."""
    spec = GridSpec(nx=65, ny=64, hx=1.0 / 64, hy=1.0 / 64,
                    origin=(-0.5, 0.0), periodic_y=True)
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(3):
        s, f = _smooth_random_pair(rng, spec)
        I, II, _ = embedding_data(s)
        chain = (variation.metric_inverse_rate(s, f) @ II
                 + I.inverse() @ variation.second_form_rate(s, f))
        res = (chain - variation.shape_rate(s, f)).sup()
        worst = max(worst, res)
    return worst <= 1e-12, {
        "max_residual": worst,
        "tolerance": 1e-12,
        "seed": 20260822,
        "draws": 3,
    }


@_timed
def _07_curvature_rates_at_zero_locus():
    """Principal curvature rates at the bump center are -1 and +1.

    Checked twice: the Hessian-eigenframe formula at the center node, and a
    central t-difference of the eigenvalues measured on flowed immersions.
    """
    n = 128
    s = _chart(n)
    f = _bump(n)
    node = (n // 2, n // 2)  # chart point (0, 0.5), on the zero locus
    rate_p, rate_m = variation.curvature_rate_at_Z(s, f, node)

    g = _immersed(n)
    lam = {}
    for sgn in (+1.0, -1.0):
        _, _, B = forms_from_immersion(normal_flow(g, f, sgn * _FLOW_T))
        pc = principal_curvatures(B)
        lam[sgn] = (float(pc.lambda_plus.values[node]),
                    float(pc.lambda_minus.values[node]))
    slope_p = (lam[1.0][0] - lam[-1.0][0]) / (2 * _FLOW_T)
    slope_m = (lam[1.0][1] - lam[-1.0][1]) / (2 * _FLOW_T)

    ok = max(abs(rate_p + 1.0), abs(rate_m - 1.0),
             abs(slope_p + 1.0), abs(slope_m - 1.0)) <= 1e-2
    return ok, {
        "formula_rate_plus": rate_p,
        "formula_rate_minus": rate_m,
        "measured_slope_plus": slope_p,
        "measured_slope_minus": slope_m,
        "tolerance": 1e-2,
    }


@_timed
def _08_hessian_interpolant_certificate():
    """build_G certificate: exact left slab, constant right gap, on-curve
    Hessian diag(-1, 1) to 10 h^2."""
    xs, hs = _graph_samples()
    xi = deform.solve_xi(xs, hs, 0.2, -0.1)
    dom = GridSpec(nx=141, ny=81, hx=1.4 / 140, hy=2.0 / 80,
                   origin=(-0.2, -1.0), periodic_y=False)
    gf = deform.build_G((xs, hs), xi, dom)
    c = gf.certificate
    step = c["curve_hessian_step"]
    ok = (c["left_slab_residual"] == 0.0
          and c["right_slab_constancy"] <= 1e-10
          and c["curve_hessian_residual"] <= 10.0 * step ** 2)
    return ok, {
        "left_slab_residual": c["left_slab_residual"],
        "right_slab_constancy": c["right_slab_constancy"],
        "constancy_tolerance": 1e-10,
        "curve_hessian_residual": c["curve_hessian_residual"],
        "hessian_tolerance": 10.0 * step ** 2,
        "fd_step": step,
        "byparts_residual": c["byparts_residual"],
    }


@_timed
def _09_moment_conditions():
    """Moment residuals below 1e-10; straight-line input is rejected."""
    xs, hs = _graph_samples()
    xi = deform.solve_xi(xs, hs, 0.2, -0.1)
    worst = float(max(np.max(np.abs(xi.residual_sample)),
                      np.max(np.abs(xi.residual_refined))))
    try:
        deform.solve_xi(xs, 0.1 + 0.05 * xs, 0.2, -0.1)
        rejected = False
    except NonGenericCurve:
        rejected = True
    return worst <= 1e-10 and rejected, {
        "max_moment_residual": worst,
        "tolerance": 1e-10,
        "affine_input_rejected": rejected,
    }


@_timed
def _10_translation_field():
    """Translation-case field: exact periodicity, seam smoothness, and
    on-curve Hessian diag(-1, 1) to 10 h^2 across all three branches."""
    tf = _translation_field()
    c = tf.certificate
    tube = tf.tube
    L = tube.period

    # order-4 divided t-differences must stay bounded as the stencil
    # shrinks: they saturate at sup |d^4 f / dt^4| for a seam-smooth field,
    # while a derivative jump at a seam would blow up like h^-k.  Coarse
    # stencils under-resolve the narrow interpolant bumps, so the
    # saturation test runs on the two finest levels.
    ss = np.array([-0.04, -0.015, 0.02, 0.035])
    ts = np.linspace(0.0, L, 129, endpoint=False)
    T, S = np.meshgrid(ts, ss, indexing="ij")
    d4 = {}
    for m in (512, 1024, 2048, 4096):
        h = L / m
        acc = np.zeros_like(T)
        for k, w in zip((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)):
            acc += w * tf.evaluate(T + k * h, S)
        d4[m] = float(np.max(np.abs(acc)) / h ** 4)

    # the un-bumped field along the whole developing curve, crossing both
    # construction seams, keeps Hessian diag(-1, 1) to 10 h^2
    a = c["window"][0]
    dc = c["delta_c"]
    h = dc / 4096.0
    zc = (np.asarray(tube.curve(np.linspace(0.0, L, 257, endpoint=False)))
          - np.asarray(tube.curve(a)))
    gxx = deform._fd4_second(tf.flat_core, zc, h, axis=0)
    gyy = deform._fd4_second(tf.flat_core, zc, h, axis=1)
    hess = float(max(np.max(np.abs(gxx + 1.0)), np.max(np.abs(gyy - 1.0))))

    step = c["curve_hessian_step"]
    ok = (c["periodicity_residual"] <= 1e-12
          and d4[4096] <= 1.1 * d4[2048]
          and hess <= 10.0 * h ** 2
          and c["curve_hessian_residual"] <= 10.0 * step ** 2)
    return ok, {
        "periodicity_residual": c["periodicity_residual"],
        "periodicity_tolerance": 1e-12,
        "d4_h512": d4[512],
        "d4_h1024": d4[1024],
        "d4_h2048": d4[2048],
        "d4_h4096": d4[4096],
        "d4_saturation": d4[4096] / d4[2048],
        "curve_hessian_residual": hess,
        "hessian_tolerance": 10.0 * h ** 2,
        "window_hessian_residual": c["curve_hessian_residual"],
        "window_hessian_tolerance": 10.0 * step ** 2,
        "seam_value_residuals": c["seam_value_residuals"],
    }


@_timed
def _11_flow_opens_curvatures():
    """max lambda+ over the bump plateau stays strictly below 1 for every
    flow time in [1e-4, 1e-2].

    Only lambda+ on the plateau is checked: lambda- and the nodes outside
    the plateau (the bump's transition ring) are not."""
    n = 128
    s = _chart(n)
    f = _bump(n)
    g = _immersed(n)
    mask = deform.plateau_mask(s.spec, _BUMP_CENTER, _BUMP_R)
    maxima = {}
    for t in _SWEEP:
        _, _, B = forms_from_immersion(normal_flow(g, f, t))
        pc = principal_curvatures(B)
        maxima[t] = float(np.max(pc.lambda_plus.values[mask]))
    ok = all(v < 1.0 for v in maxima.values())
    details = {f"max_lambda_plus_t_{t:g}": v for t, v in maxima.items()}
    details["strict_bound"] = 1.0
    return ok, details


REGISTRY: tuple[tuple[str, Callable[[], CriterionResult]], ...] = (
    ("01-ode-first-integral", _01_ode_first_integral),
    ("02-blowup-width-cross-check", _02_blowup_width_cross_check),
    ("03-pde-vs-ode-convergence", _03_pde_vs_ode_convergence),
    ("04-immersion-round-trip", _04_immersion_round_trip),
    ("05-shape-rate-vs-immersion", _05_shape_rate_vs_immersion),
    ("06-rate-product-rule", _06_rate_product_rule),
    ("07-curvature-rates-at-zero-locus", _07_curvature_rates_at_zero_locus),
    ("08-hessian-interpolant-certificate", _08_hessian_interpolant_certificate),
    ("09-moment-conditions", _09_moment_conditions),
    ("10-translation-field", _10_translation_field),
    ("11-flow-opens-curvatures", _11_flow_opens_curvatures),
)


# two lanes that partition REGISTRY by the cached building blocks they read,
# so each can run in its own process without building the other's: the
# chart lane reads _chart, _bump and _immersed; the profile/deform lane reads
# the profile alone or the deform constructions
LANES: dict[str, tuple[str, ...]] = {
    "chart": ("04-immersion-round-trip", "05-shape-rate-vs-immersion",
              "06-rate-product-rule", "07-curvature-rates-at-zero-locus",
              "11-flow-opens-curvatures"),
    "profile": ("01-ode-first-integral", "02-blowup-width-cross-check",
                "03-pde-vs-ode-convergence",
                "08-hessian-interpolant-certificate", "09-moment-conditions",
                "10-translation-field"),
}


def run_all(names: "list[str] | None" = None) -> list[CriterionResult]:
    """Run the registered criteria (all by default, in order)."""
    wanted = None if names is None else set(names)
    out = []
    for name, fn in REGISTRY:
        if wanted is not None and name not in wanted:
            continue
        res = fn()
        out.append(CriterionResult(name=name, passed=res.passed,
                                   details=res.details,
                                   elapsed_s=res.elapsed_s))
    return out
