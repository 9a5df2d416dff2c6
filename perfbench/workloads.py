"""The benchmark workloads: inputs, one job, and the oracle checks.

Each workload builds its inputs from the seed in ``setup`` (the library sees
only the grids and fields made here), runs one job in ``job`` (the timed
region) and judges the job's outputs in ``check``, outside the timed
region.  ``check`` returns the names of the failed checks and the
workload's oracle error, a deterministic accuracy figure reported as
``oracle_err``.

Every call into minsurf goes through a module attribute (``pde.solve``,
not a name imported from it) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from minsurf import deform, fields, geometry, immersion, invariant_ode, pde

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# criterion-11 flow-time sweep and bump radius (minsurf.acceptance pins them)
SWEEP = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
BUMP_R = 0.45
DRIFT_TOL = 1e-9
RESIDUAL_TOL = 1e-10


def _profile():
    """Invariant profile at v0 = 0 on [0, 0.9 delta], as the criteria use."""
    delta = invariant_ode.estimate_delta(0.0)
    return delta, invariant_ode.integrate(0.0, 0.9 * delta, rtol=1e-10)


def _unit_strip(n: int) -> fields.GridSpec:
    return fields.GridSpec(nx=n + 1, ny=n, hx=1.0 / n, hy=1.0 / n,
                           origin=(-0.5, 0.0), periodic_y=True)


def _periodic_dy(spec: fields.GridSpec, Y, y0):
    p = spec.period_y
    return (Y - y0 + p / 2) % p - p / 2


# ---------------------------------------------------------------------------
# solve: Dirichlet Newton solves


class Solve:
    """Invariant strips of width 0.8 delta(0) at two sizes (the ODE profile is
    the exact answer) and two seeded rectangles whose boundary data take
    both signs, so u < 0 on part of the chart."""

    name = "solve"
    RECT_LO, RECT_HI = -0.5, 0.3

    def __init__(self, tiny: bool = False):
        self.strips = (32, 64) if tiny else (128, 256)
        self.rect_n = 32 if tiny else 128

    def _rect(self, rng) -> pde.PdeProblem:
        n = self.rect_n
        spec = fields.GridSpec(nx=n + 1, ny=n + 1, hx=1.0 / n, hy=1.0 / n)
        X, Y = spec.nodes()
        v = np.zeros(spec.shape)
        for k in (1, 2, 3):
            a, b = rng.uniform(-1.0, 1.0, 2)
            px, py = rng.uniform(0.0, 2 * np.pi, 2)
            v += (a * np.cos(2 * np.pi * k * X + px)
                  + b * np.cos(2 * np.pi * k * Y + py)) / k
        edge = ~spec.interior_mask()
        lo, hi = v[edge].min(), v[edge].max()
        v = self.RECT_LO + (self.RECT_HI - self.RECT_LO) * (v - lo) / (hi - lo)
        return pde.PdeProblem(spec=spec, boundary=fields.ScalarField(spec, v))

    def setup(self, seed: int) -> dict:
        delta, sol = _profile()
        rng = np.random.default_rng(seed)
        probs = [(f"strip{n}", pde.invariant_strip_problem(
            sol, 0.8 * delta, nx=n + 1, ny=n)) for n in self.strips]
        probs += [(f"rect{k}", self._rect(rng)) for k in range(2)]
        return {"sol": sol, "problems": probs}

    def job(self, state, tracer=None, job_id=None) -> list:
        # residual as `minsurf solve` reports it
        out = []
        for _, p in state["problems"]:
            s = pde.solve(p)
            out.append((s, pde.residual(s)))
        return out

    def check(self, state, out) -> tuple[list[str], float]:
        failed = []
        errs = []
        eps = np.finfo(float).eps
        for (label, p), (s, reported) in zip(state["problems"], out):
            u = s.u.values
            spec = p.spec
            edge = ~spec.interior_mask()
            if not np.array_equal(u[edge], p.boundary.values[edge]):
                failed.append(f"{label}:dirichlet")
            # pde.solve promises a sup residual of 1e-10, floored at 4 eps
            # times the scale of F; pde.residual evaluates F in another
            # order, so allow one more such margin
            scale = float(np.max(4.0 * np.abs(u) / min(spec.hx, spec.hy) ** 2
                                 + 2.0 * np.cosh(2.0 * u)))
            tol = max(RESIDUAL_TOL, 4 * eps * scale) + 4 * eps * scale
            if not max(reported, pde.residual(s)) <= tol:
                failed.append(f"{label}:residual")
            if label.startswith("strip"):
                exact = state["sol"].g_at(np.abs(spec.xs))[:, None]
                errs.append(float(np.max(np.abs(u - exact))))
            elif not u[spec.interior_mask()].min() < 0:
                failed.append(f"{label}:indefinite")
        # second-order convergence to the ODE profile between the two strips
        if len(errs) == 2 and not 3.5 <= errs[0] / errs[1] <= 4.5:
            failed.append("strip:order2")
        return failed, errs[-1] if errs else float("nan")


# ---------------------------------------------------------------------------
# flow: immerse, recover forms, flow through the criterion-11 sweep


class Flow:
    """The invariant chart immersed at two sizes, then flowed by a bump of
    radius 0.45 centred at a seeded point of the zero locus x = 0; no PDE
    solve.  Each job ends with the file handoff between subcommands at the
    smaller size (see Handoff)."""

    name = "flow"

    def __init__(self, tiny: bool = False):
        self.sizes = (32, 64) if tiny else (128, 256)
        self.handoff = Handoff(self.sizes[0])

    def setup(self, seed: int) -> dict:
        _, sol = _profile()
        rng = np.random.default_rng(seed)
        y0 = float(rng.uniform(0.0, 1.0))
        charts = [invariant_ode.to_surface(sol, _unit_strip(n))
                  for n in self.sizes]
        bumps = [deform.build_point_f((0.0, y0), BUMP_R, c.spec)
                 for c in charts]
        return {"centre": (0.0, y0), "charts": charts, "bumps": bumps,
                "handoff": self.handoff.setup(sol, rng)}

    def job(self, state, tracer=None, job_id=None) -> dict:
        sweeps = []
        for chart, f in zip(state["charts"], state["bumps"]):
            g = immersion.immerse(chart)
            forms = immersion.forms_from_immersion(g)
            exact = geometry.embedding_data(chart)
            flowed = []
            for t in SWEEP:
                g1 = immersion.normal_flow(g, f, t)
                _, _, B = immersion.forms_from_immersion(g1)
                flowed.append((g1, geometry.principal_curvatures(B)))
            sweeps.append((g, forms, exact, flowed))
        handoff = self.handoff.job(state["handoff"], Path(state["tmpdir"]))
        return {"sweeps": sweeps, "handoff": handoff,
                "counters": handoff["counters"]}

    def check(self, state, out) -> tuple[list[str], float]:
        failed = [f"handoff:{name}" for name in
                  self.handoff.check(state["handoff"], out["handoff"])]
        err = float("nan")
        cx, cy = state["centre"]
        for chart, (g, forms, exact, flowed) in zip(state["charts"],
                                                     out["sweeps"]):
            spec = chart.spec
            n = spec.ny
            err = max((a - b).sup(interior_only=True)
                      for a, b in zip(forms, exact))
            X, Y = spec.nodes()
            d = np.hypot(X - cx, _periodic_dy(spec, Y, cy))
            plateau = d <= BUMP_R / 2 - 2 * max(spec.hx, spec.hy)
            if not g.constraint_drift() <= DRIFT_TOL:
                failed.append(f"n{n}:drift")
            # at the bump centre the principal curvatures leave -1 and 1 at
            # unit rate (criterion 07's tolerance), here between t = 1e-3
            # and t = 1e-2
            node = (int(np.argmin(np.abs(spec.xs - cx))),
                    int(np.argmin(np.abs(spec.ys - cy))))
            (_, a), (_, b) = flowed[2], flowed[4]
            dt = SWEEP[4] - SWEEP[2]
            slope_p = (b.lambda_plus.values[node] - a.lambda_plus.values[node]) / dt
            slope_m = (b.lambda_minus.values[node] - a.lambda_minus.values[node]) / dt
            if not max(abs(slope_p + 1.0), abs(slope_m - 1.0)) <= 1e-2:
                failed.append(f"n{n}:unit_rate")
            for t, (g1, pc) in zip(SWEEP, flowed):
                lp, lm = pc.lambda_plus.values, pc.lambda_minus.values
                if not g1.constraint_drift() <= DRIFT_TOL:
                    failed.append(f"n{n}:t{t:g}:drift")
                if not np.all(lm <= lp):
                    failed.append(f"n{n}:t{t:g}:ordering")
                if not float(np.max(lp[plateau])) < 1.0:
                    failed.append(f"n{n}:t{t:g}:plateau")
        return failed, err


# ---------------------------------------------------------------------------
# the file handoff between subcommands, run at the end of each flow job


class Handoff:
    """CSV round trips of two charts and one immersion, then zero-set
    detection and field assembly on the charts read back (the
    ``zlocus --input`` / ``deform --input --field-csv`` path).

    Not a workload of its own: CSV formatting runs in the interpreter,
    whose speed on a shared host swings far more than numpy's, so a job
    made mostly of it does not repeat within the benchmark's bounds."""

    POINTS = 4
    POINT_R = 0.1

    def __init__(self, n: int):
        self.n = n

    def _point_chart(self, rng) -> tuple[fields.ScalarField, list]:
        """u = min_k |p - p_k|^2: zero exactly at POINTS well-separated
        nodes whose r-balls fit in the chart."""
        spec = _unit_strip(self.n)
        xs, ys = spec.xs, spec.ys
        ix = np.nonzero(np.abs(xs) <= 0.5 - self.POINT_R - 1e-12)[0]
        pts: list = []
        while len(pts) < self.POINTS:
            p = (float(xs[rng.choice(ix)]), float(ys[rng.integers(spec.ny)]))
            if all(np.hypot(p[0] - q[0], _periodic_dy(spec, p[1], q[1]))
                   > 2 * self.POINT_R + 4 * spec.hx for q in pts):
                pts.append(p)
        X, Y = spec.nodes()
        u = np.min([(X - p[0]) ** 2 + _periodic_dy(spec, Y, p[1]) ** 2
                    for p in pts], axis=0)
        return fields.ScalarField(spec, u), sorted(pts)

    def setup(self, sol, rng) -> dict:
        chart = invariant_ode.to_surface(sol, _unit_strip(self.n))
        points_u, pts = self._point_chart(rng)
        return {"chart": chart, "points_u": points_u, "points": pts,
                "immersion": immersion.immerse(chart)}

    def job(self, state, d: Path) -> dict:
        paths = {k: d / f"{k}.csv" for k in ("chart", "points", "imm", "f")}
        state["chart"].u.to_csv(paths["chart"])
        state["points_u"].to_csv(paths["points"])
        state["immersion"].to_csv(paths["imm"])
        chart_u = fields.ScalarField.from_csv(paths["chart"])
        points_u = fields.ScalarField.from_csv(paths["points"])
        g = immersion.ImmersionGrid.from_csv(paths["imm"])
        curves = deform.detect_z(geometry.SurfaceData(chart_u))
        verdicts = [deform.genericity_check(c) for c in curves
                    if c.kind == "Curve"]
        pts_s = geometry.SurfaceData(points_u)
        comps = deform.detect_z(pts_s)
        f = deform.assemble_f(pts_s, comps, self.POINT_R)
        f.to_csv(paths["f"])
        sizes = {k: os.path.getsize(p) for k, p in paths.items()}
        return {"chart_u": chart_u, "points_u": points_u, "immersion": g,
                "curves": curves, "verdicts": verdicts, "comps": comps,
                "f": f, "counters": {
                    "fields.csv_bytes": sizes["chart"] + sizes["points"]
                    + sizes["f"],
                    "immersion.csv_bytes": sizes["imm"]}}

    def check(self, state, out) -> list[str]:
        failed = []
        chart, g0 = state["chart"], state["immersion"]
        for key, ref in (("chart_u", chart.u), ("points_u", state["points_u"])):
            got = out[key]
            if got.spec != ref.spec or not np.array_equal(got.values, ref.values):
                failed.append(f"{key}:roundtrip")
        g = out["immersion"]
        if (g.spec != g0.spec or not np.array_equal(g.sigma, g0.sigma)
                or not np.array_equal(g.nu, g0.nu)):
            failed.append("immersion:roundtrip")
        # the invariant chart vanishes on the straight line x = 0, which
        # winds around the cylinder and is not generic
        curves = out["curves"]
        if ([c.kind for c in curves] != ["Curve"] or not curves[0].closed
                or [v.passed for v in out["verdicts"]] != [False]):
            failed.append("chart:zero_set")
        comps = out["comps"]
        if ([c.kind for c in comps] != ["Point"] * self.POINTS
                or sorted(tuple(c.center) for c in comps) != state["points"]):
            failed.append("points:zero_set")
        spec = state["points_u"].spec
        expect = np.zeros(spec.shape)
        for p in state["points"]:
            expect = expect + deform.build_point_f(p, self.POINT_R, spec).values
        if not np.max(np.abs(out["f"].values - expect)) <= 1e-12:
            failed.append("points:assemble_f")
        return failed


# ---------------------------------------------------------------------------
# verify: `minsurf verify` in a fresh interpreter per job


class Verify:
    """The acceptance gate as users run it; configurations are pinned, so
    the seed does not apply."""

    name = "verify"

    def __init__(self, tiny: bool = False):
        pass

    def setup(self, seed: int) -> dict:
        return {"reference": None}

    def job(self, state, tracer=None, job_id=None) -> dict:
        d = Path(state["tmpdir"])
        report = d / f"verify-{job_id}.json"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if tracer is None:
            cmd = [sys.executable, "-m", "minsurf.cli", "verify",
                   "--out", str(report)]
        else:
            spans_path = d / f"spans-{job_id}.json"
            cmd = [sys.executable, str(HERE / "verify_child.py"),
                   str(report), str(spans_path)]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if tracer is not None and proc.returncode == 0:
            tracer.extend(json.loads(spans_path.read_text()), job_id)
        return {"rc": proc.returncode, "stderr": proc.stderr[-500:],
                "report": report.read_bytes() if report.exists() else b""}

    def check(self, state, out) -> tuple[list[str], float]:
        failed = []
        if out["rc"] != 0:
            last = (out["stderr"].strip().splitlines() or [""])[-1]
            failed.append(f"exit_code:{out['rc']} {last}")
        try:
            rep = json.loads(out["report"])
        except ValueError:
            return failed + ["report:json"], float("nan")
        if rep.get("all_passed") is not True:
            failed.append("all_passed")
        if state["reference"] is None:
            state["reference"] = out["report"]
        elif out["report"] != state["reference"]:
            failed.append("report:byte_identical")
        err = float("nan")
        for c in rep.get("criteria", []):
            if c["name"] == "03-pde-vs-ode-convergence":
                err = float(c["details"]["sup_error_h128"])
        return failed, err


WORKLOADS = {w.name: w for w in (Solve, Flow, Verify)}

