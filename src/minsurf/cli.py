"""Command-line driver: solve -> detect -> deform -> flow -> verify.

Reports are JSON with a stable schema tag and sorted keys; identical
configuration (and seed) produces byte-identical report files, so runtimes
never enter reports (stdout may carry them).  Fields and immersions travel
as CSV with the grid spec in a comment header.

Exit codes: 0 success, 1 verification failure, 2 solver divergence or
numerical breakdown, 64 usage error (bad flags or bad input data).

Two entry points share the subcommands.  ``main(argv)`` is the in-process
API that tests and harnesses call: it runs `verify`'s criteria serially in
the calling process and leaves the garbage collector alone.  ``program()``
is the ``minsurf`` program itself (the console script and
``python -m minsurf.cli``): it runs `verify` as two lanes of criteria, one
in a forked worker, when at least two CPUs are usable (``MINSURF_THREADS``
caps the count) and the criteria span both lanes.  Its results, lines and
report are the same as the serial run's.  ``program()`` also switches off
automatic cyclic GC and freezes the heap before returning, so neither the
numerical stack's imports nor interpreter shutdown pay for a collection
over the import-time objects.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import signal
import sys

# honour the thread cap before numpy/scipy load (imports below are lazy);
# only set what the user has not already pinned themselves
_threads = os.environ.get("MINSURF_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

SCHEMA = "minsurf-report/1"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_DIVERGED = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _nonneg_float(text: str) -> float:
    v = float(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {v}")
    return v


def _pos_float(text: str) -> float:
    v = float(text)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {v}")
    return v


def _pos_int(text: str) -> int:
    v = int(text)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {v}")
    return v


def _point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected X,Y, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _emit(report: dict, path: "str | None") -> None:
    # allow_nan=False: a NaN or infinity in a report is a bug upstream,
    # and the emitted JSON must stay standard
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _invariant_surface(v0: float, width: float, nx: int, ny: int,
                       period: float):
    from .fields import GridSpec
    from .invariant_ode import estimate_delta, integrate, to_surface

    sol = integrate(v0, 0.95 * estimate_delta(v0), rtol=1e-10)
    spec = GridSpec(nx=nx, ny=ny, hx=width / (nx - 1), hy=period / ny,
                    origin=(-width / 2.0, 0.0), periodic_y=True)
    return to_surface(sol, spec)


def _surface_from_args(args):
    from .fields import ScalarField
    from .geometry import SurfaceData

    if getattr(args, "input", None):
        return SurfaceData(ScalarField.from_csv(args.input))
    return _invariant_surface(args.v0, args.width, args.nx, args.ny,
                              args.period)


def _surface_params(args) -> dict:
    if getattr(args, "input", None):
        return {"input": args.input}
    return {"v0": args.v0, "width": args.width, "nx": args.nx,
            "ny": args.ny, "period": args.period}


def _add_surface_flags(p, nx=129, ny=128):
    p.add_argument("--input", metavar="CSV",
                   help="chart data u as CSV (from `minsurf solve --csv`)")
    p.add_argument("--v0", type=_nonneg_float, default=0.0,
                   help="invariant profile value at the axis (default 0)")
    p.add_argument("--width", type=_pos_float, default=1.0,
                   help="strip width of the built chart (default 1.0)")
    p.add_argument("--nx", type=_pos_int, default=nx)
    p.add_argument("--ny", type=_pos_int, default=ny)
    p.add_argument("--period", type=_pos_float, default=1.0,
                   help="period of the chart in y (default 1.0)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_ode(args) -> int:
    import numpy as np

    from .fields import _write_rows
    from .invariant_ode import (
        estimate_delta,
        first_integral_residuals,
        integrate,
        length_lower_bound_check,
    )

    delta = estimate_delta(args.v0)
    sol = integrate(args.v0, args.x_frac * delta, rtol=args.tol)
    r = first_integral_residuals(sol)
    residual = float(np.max(r))
    # the residual grows with its terms, like sinh 2g: judge it against them
    size = (sol.gp**2 + 2.0 * np.abs(np.sinh(2.0 * sol.g))
            + 2.0 * abs(np.sinh(2.0 * sol.v0)))
    relative = float(np.max(r / np.maximum(1.0, size)))
    bound = 100.0 * args.tol  # the integrator tracks the invariant to ~100x rtol
    lc = length_lower_bound_check(sol)

    if args.csv:
        with open(args.csv, "w") as fh:
            _write_rows(fh, ["x", "g", "gp"],
                           [np.column_stack([sol.xs, sol.g, sol.gp])])

    report = {
        "schema": SCHEMA,
        "command": "ode",
        "params": {"v0": args.v0, "tol": args.tol, "x_frac": args.x_frac},
        "delta": delta,
        "x_max": float(sol.x_max),
        "first_integral_residual": residual,
        "first_integral_relative_residual": relative,
        "residual_bound": bound,
        "length_check": {
            "ok": lc.ok,
            "length": lc.length,
            "profile_gain": lc.rhs,
        },
        "samples": int(np.size(sol.xs)),
    }
    ok = relative <= bound and lc.ok
    report["passed"] = ok
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_solve(args) -> int:
    from .invariant_ode import estimate_delta, integrate
    from .pde import NewtonParams, invariant_strip_problem, residual, solve

    delta = estimate_delta(args.v0)
    if args.width / 2.0 >= delta:
        raise ValueError(
            f"width/2 = {args.width / 2:.6g} reaches the maximal half-width "
            f"delta({args.v0:g}) = {delta:.6g}; no solution exists")
    sol = integrate(args.v0, min(0.95 * delta, 0.55 * args.width * 1.2 + 0.2),
                    rtol=1e-10)
    prob = invariant_strip_problem(
        sol, args.width, nx=args.nx, ny=args.ny, period_y=args.period,
        newton=NewtonParams(tol_residual=args.tol))
    s = solve(prob)
    if args.csv:
        s.u.to_csv(args.csv)
    report = {
        "schema": SCHEMA,
        "command": "solve",
        "params": {"v0": args.v0, "width": args.width, "nx": args.nx,
                   "ny": args.ny, "period": args.period, "tol": args.tol},
        "delta": delta,
        "residual": residual(s),
        "u_range": [float(s.u.values.min()), float(s.u.values.max())],
        "passed": True,
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_zlocus(args) -> int:
    from .deform import detect_z, genericity_check

    s = _surface_from_args(args)
    comps = detect_z(s, tol_z=args.tol_z)
    items = []
    for c in comps:
        item = {
            "kind": c.kind,
            "center": [float(c.center[0]), float(c.center[1])],
            "diameter": c.diameter,
            "nodes": int(len(c.nodes)),
            "closed": bool(c.closed),
            "dropped_nodes": c.dropped,
            "thinned_nodes": c.thinned,
        }
        if c.kind == "Curve":
            v = genericity_check(c)
            item["line_deviation"] = v.line_deviation
            item["generic"] = v.passed
            item["tol_line"] = v.tol_line
        items.append(item)
    report = {
        "schema": SCHEMA,
        "command": "zlocus",
        "params": {**_surface_params(args), "tol_z": args.tol_z},
        "components": items,
        "count": len(items),
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_deform(args) -> int:
    import numpy as np

    from .deform import (
        assemble_f,
        build_point_f,
        check_separation,
        detect_z,
        genericity_check,
        point_distance,
    )
    from .errors import (
        BallExceedsChart,
        NonGenericCurve,
        OverlappingNeighbourhoods,
        WrongHolonomyClass,
    )
    from .fields import ScalarField

    s = _surface_from_args(args)
    comps = detect_z(s, tol_z=args.tol_z)
    # components are built one at a time below, so their pairwise gaps are
    # checked here, over all of them, before any is built
    check_separation(s.spec, comps, args.r)
    total = np.zeros(s.spec.shape)
    items = []
    built = 0
    for c in comps:
        item = {
            "kind": c.kind,
            "center": [float(c.center[0]), float(c.center[1])],
        }
        try:
            if c.kind == "Curve":
                verdict = genericity_check(c)
                item["line_deviation"] = verdict.line_deviation
                if not verdict:
                    raise NonGenericCurve(
                        f"line deviation {verdict.line_deviation:.3e} below "
                        f"{verdict.tol_line:.3e}")
            f = assemble_f(s, [c], args.r)
            total += f.values
            built += 1
            item["status"] = "built"
            item["sup"] = f.sup()
        except (NonGenericCurve, WrongHolonomyClass, BallExceedsChart) as e:
            item["status"] = "skipped"
            item["error"] = type(e).__name__
            item["detail"] = str(e)
        items.append(item)

    if args.bump_center is not None:
        # the requested bump must keep clear of every field built above
        dist = point_distance(s.spec, args.bump_center)
        need = args.r + args.bump_r
        for i, (c, item) in enumerate(zip(comps, items)):
            if item["status"] != "built":
                continue
            gap = float(dist[c.nodes[:, 0], c.nodes[:, 1]].min())
            if gap < need:
                raise OverlappingNeighbourhoods(
                    f"requested bump and component {i} are {gap:.4g} apart; "
                    f"their neighbourhoods need a gap of at least {need:.4g}")
        f = build_point_f(args.bump_center, args.bump_r, s.spec)
        total += f.values
        built += 1
        items.append({
            "kind": "Point",
            "center": [args.bump_center[0], args.bump_center[1]],
            "status": "built",
            "requested": True,
            "sup": f.sup(),
        })

    if args.field_csv:
        ScalarField(s.spec, total).to_csv(args.field_csv)

    report = {
        "schema": SCHEMA,
        "command": "deform",
        "params": {**_surface_params(args), "r": args.r,
                   "tol_z": args.tol_z,
                   "bump_center": list(args.bump_center)
                   if args.bump_center else None,
                   "bump_r": args.bump_r},
        "components": items,
        "built": built,
        "field_sup": float(np.max(np.abs(total))),
    }
    _emit(report, args.out)
    return EXIT_OK


def _outside_unit_interval(pc, interior) -> int:
    """Interior nodes where lambda+ > 1 or lambda- < -1."""
    out = (pc.lambda_plus.values > 1.0) | (pc.lambda_minus.values < -1.0)
    return int(out[interior].sum())


def cmd_flow(args) -> int:
    from .deform import build_point_f, plateau_mask
    from .geometry import principal_curvatures
    from .immersion import forms_from_immersion, immerse, normal_flow

    s = _surface_from_args(args)
    f = build_point_f(args.bump_center, args.bump_r, s.spec)
    g = immerse(s)
    g2 = normal_flow(g, f, args.t)
    if args.csv:
        g2.to_csv(args.csv)
    _, _, B = forms_from_immersion(g2)
    pc = principal_curvatures(B)
    lam, lam_minus = pc.lambda_plus.values, pc.lambda_minus.values
    plateau = plateau_mask(s.spec, args.bump_center, args.bump_r)
    interior = s.spec.interior_mask()
    report = {
        "schema": SCHEMA,
        "command": "flow",
        "params": {**_surface_params(args), "t": args.t,
                   "bump_center": list(args.bump_center),
                   "bump_r": args.bump_r},
        "constraint_drift": g2.constraint_drift(),
        "lambda_plus": {
            "interior_max": float(lam[interior].max()),
            "interior_min": float(lam[interior].min()),
            "plateau_max": float(lam[plateau].max()) if plateau.any() else None,
        },
        "lambda_minus": {
            "interior_max": float(lam_minus[interior].max()),
            "interior_min": float(lam_minus[interior].min()),
        },
        "outside_unit_interval": _outside_unit_interval(pc, interior),
        "passed": True,
    }
    _emit(report, args.out)
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on, capped by MINSURF_THREADS when set."""
    n = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
    try:
        return min(n, int(os.environ["MINSURF_THREADS"]))
    except (KeyError, ValueError):
        return n


def _forked(here, there, lane: str):
    """(here(), there()), with there() run in a forked worker meanwhile.

    The worker pickles what there() returns, or the exception it raised,
    into a pipe and ends with os._exit, never returning into the caller's
    code; the exception is re-raised here.  A worker that ends without
    sending anything raises WorkerFailure naming the lane and the wait
    status.  The worker is always reaped before this returns or raises.
    """
    from .errors import WorkerFailure

    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                payload = (True, there())
            except BaseException as e:  # re-raised by the parent
                payload = (False, e)
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    data = None
    reader = os.fdopen(r, "rb")
    try:
        mine = here()
        data = reader.read()
    finally:
        reader.close()
        if data is None:  # here() raised: the worker's result is moot
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if not data:
        raise WorkerFailure(lane, status)
    ok, value = pickle.loads(data)  # bytes written by our own worker
    if not ok:
        raise value
    return mine, value


def _lane(names: list) -> list:
    """Run the criteria in order; one that raises ends the list with its
    exception, as it would end the serial run."""
    from .acceptance import run_all

    out = []
    for name in names:
        try:
            out += run_all([name])
        except Exception as e:  # re-raised by _verify_in_lanes
            out.append(e)
            break
    return out


def _verify_in_lanes(names: list) -> list:
    """run_all(names) with the profile lane in a forked worker.

    names must be in registry order.  The results come back in that order;
    if criteria raised, the first of them in that order has its exception
    raised, as the serial run would.
    """
    from .acceptance import LANES

    chart = [n for n in names if n in LANES["chart"]]
    profile = [n for n in names if n in LANES["profile"]]
    here, there = _forked(lambda: _lane(chart), lambda: _lane(profile),
                          "profile")
    done = dict(zip(chart, here)) | dict(zip(profile, there))
    results = []
    for name in names:
        # a lane stops at its exception, which comes before anything missing
        r = done[name]
        if isinstance(r, BaseException):
            raise r
        results.append(r)
    return results


def cmd_verify(args) -> int:
    from .acceptance import LANES, REGISTRY, run_all

    known = [name for name, _ in REGISTRY]
    wanted = args.only or None
    if wanted:
        bad = sorted(set(wanted) - set(known))
        if bad:
            raise ValueError(
                f"unknown criteria {bad}; known: {known}")
    names = [n for n in known if not wanted or n in wanted]
    both = all(set(names) & set(lane) for lane in LANES.values())
    if args.lanes and both and hasattr(os, "fork") and _usable_cpus() >= 2:
        results = _verify_in_lanes(names)
    else:
        results = run_all(wanted)
    for r in results:
        print(r.line())
    all_passed = all(r.passed for r in results)
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "params": {"only": wanted},
        "criteria": [r.as_dict() for r in results],
        "all_passed": all_passed,
    }
    first_fail = next((r.name for r in results if not r.passed), None)
    if first_fail is not None:
        report["first_failure"] = first_fail
        print(f"FAILED at {first_fail}", file=sys.stderr)
    _emit(report, args.out)
    return EXIT_OK if all_passed else EXIT_VERIFY


def cmd_demo(args) -> int:
    """Flow the invariant chart by a curvature-opening bump and watch the
    top principal curvature leave 1 at unit rate."""
    from .acceptance import (
        _BUMP_CENTER,
        _BUMP_R,
        _SWEEP,
        _bump,
        _chart,
        _immersed,
    )
    from .deform import plateau_mask
    from .geometry import principal_curvatures
    from .immersion import forms_from_immersion, normal_flow

    fine = args.fine
    if fine % 2 or fine < 32:
        raise ValueError("--fine must be an even integer >= 32")
    center, r = _BUMP_CENTER, _BUMP_R

    def curvatures(n, t):
        _, _, B = forms_from_immersion(normal_flow(_immersed(n), _bump(n), t))
        return principal_curvatures(B)

    # sweep on the fine grid: the bump plateau keeps lambda+ below 1
    spec = _chart(fine).spec
    plateau = plateau_mask(spec, center, r)
    interior = spec.interior_mask()
    node_f = (fine // 2, fine // 2)
    node_c = (fine // 4, fine // 4)
    sweep = {}
    for t in _SWEEP:
        pc = curvatures(fine, t)
        lam = pc.lambda_plus.values
        sweep[t] = {
            "plateau_max": float(lam[plateau].max()),
            "center": float(lam[node_f]),
            "lambda_minus_min": float(pc.lambda_minus.values[interior].min()),
            "outside_unit_interval": _outside_unit_interval(pc, interior),
        }
    plateau_ok = all(v["plateau_max"] < 1.0 for v in sweep.values())

    # at t = 1e-3 (a sweep time) the center value matches 1 - t to 1e-5 once
    # the O(h^2) recovery bias is removed by Richardson extrapolation across
    # h, h/2
    t_ref = 1e-3
    lam_f = sweep[t_ref]["center"]
    lam_c = curvatures(fine // 2, t_ref).lambda_plus.values[node_c]
    center_extrap = float((4.0 * lam_f - lam_c) / 3.0)
    center_err = abs(center_extrap - (1.0 - t_ref))
    center_ok = center_err <= 1e-5

    # measured slope of lambda+ in t at the center, and the sign flip for
    # t < 0 (the deformation direction matters)
    lam_neg = float(curvatures(fine, -t_ref).lambda_plus.values[node_f])
    slope = float((lam_f - lam_neg) / (2 * t_ref))
    slope_ok = abs(slope + 1.0) <= 1e-2
    neg_ok = lam_neg > 1.0

    ok = plateau_ok and center_ok and slope_ok and neg_ok
    report = {
        "schema": SCHEMA,
        "command": "demo",
        "params": {"fine": fine, "bump_center": list(center), "bump_r": r},
        "sweep": {f"{t:g}": v for t, v in sweep.items()},
        "plateau_below_1": plateau_ok,
        "center_extrapolated": center_extrap,
        "center_error_vs_1_minus_t": center_err,
        "center_tolerance": 1e-5,
        "slope_dlambda_dt": slope,
        "slope_tolerance": 1e-2,
        "lambda_at_negative_t": lam_neg,
        "negative_t_exceeds_1": neg_ok,
        "passed": ok,
    }
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    p = _Parser(prog="minsurf",
                description="minimal-surface chart pipeline driver")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ode", parents=[], help="invariant profile checks")
    q.add_argument("--v0", type=_nonneg_float, required=True)
    q.add_argument("--tol", type=_pos_float, default=1e-10,
                   help="integrator relative tolerance (default 1e-10)")
    q.add_argument("--x-frac", type=_pos_float, default=0.9,
                   help="integrate to this fraction of delta (default 0.9)")
    q.add_argument("--out", help="JSON report path (default stdout)")
    q.add_argument("--csv", help="write accepted samples x,g,gp")
    q.set_defaults(fn=cmd_ode)

    q = sub.add_parser("solve", help="Dirichlet solve on an invariant strip")
    q.add_argument("--v0", type=_nonneg_float, default=0.0)
    q.add_argument("--width", type=_pos_float, required=True)
    q.add_argument("--nx", type=_pos_int, default=129)
    q.add_argument("--ny", type=_pos_int, default=128)
    q.add_argument("--period", type=_pos_float, default=1.0)
    q.add_argument("--tol", type=_pos_float, default=1e-10,
                   help="Newton residual tolerance")
    q.add_argument("--out", help="JSON report path (default stdout)")
    q.add_argument("--csv", help="write the solved chart u")
    q.set_defaults(fn=cmd_solve)

    q = sub.add_parser("zlocus", help="detect and classify the zero locus")
    _add_surface_flags(q)
    q.add_argument("--tol-z", type=_pos_float, default=1e-8,
                   help="|u| threshold for the locus (default 1e-8); charts "
                        "from `solve` sit O(h^2) off the continuum profile, "
                        "so pass roughly 2x that offset for them")
    q.add_argument("--out", help="JSON report path (default stdout)")
    q.set_defaults(fn=cmd_zlocus)

    q = sub.add_parser("deform",
                       help="build curvature-opening fields per component")
    _add_surface_flags(q)
    q.add_argument("--tol-z", type=_pos_float, default=1e-8)
    q.add_argument("--r", type=_pos_float, default=0.2,
                   help="bump radius around each component (default 0.2)")
    q.add_argument("--bump-center", type=_point, default=None,
                   help="place an extra point bump at X,Y")
    q.add_argument("--bump-r", type=_pos_float, default=0.45)
    q.add_argument("--field-csv", help="write the assembled field f")
    q.add_argument("--out", help="JSON report path (default stdout)")
    q.set_defaults(fn=cmd_deform)

    q = sub.add_parser("flow", help="immerse, flow by t*f, report curvatures")
    _add_surface_flags(q)
    q.add_argument("--t", type=float, required=True,
                   help="flow time (may be negative)")
    q.add_argument("--bump-center", type=_point, default=(0.0, 0.5))
    q.add_argument("--bump-r", type=_pos_float, default=0.45)
    q.add_argument("--csv", help="write the flowed immersion")
    q.add_argument("--out", help="JSON report path (default stdout)")
    q.set_defaults(fn=cmd_flow)

    q = sub.add_parser("verify", help="run the acceptance suite")
    q.add_argument("--only", action="append", metavar="NAME",
                   help="run a single criterion (repeatable)")
    q.add_argument("--out", help="JSON report path (default stdout)")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("demo",
                       help="curvature opening on the invariant chart")
    q.add_argument("--fine", type=_pos_int, default=128,
                   help="fine grid resolution (default 128)")
    q.add_argument("--out", help="JSON report path (default stdout)")
    q.set_defaults(fn=cmd_demo)

    return p


def main(argv=None) -> int:
    """Run one subcommand in this process; returns the exit code."""
    return _main(argv, lanes=False)


def program() -> int:
    """The ``minsurf`` program: main() on sys.argv, with verify in two lanes
    and no automatic cyclic GC.  Meant to end its process: it leaves
    automatic GC off and the heap frozen."""
    gc.disable()
    try:
        return _main(sys.argv[1:], lanes=True)
    finally:
        gc.freeze()


def _main(argv, lanes: bool) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_USAGE
    args.lanes = lanes

    from .errors import (
        BlowUp,
        ClosednessViolation,
        ComplexEigenvalues,
        ConstraintDrift,
        DegenerateTangents,
        IntegratorFailure,
        MinsurfError,
        NewtonDiverged,
        QuadratureFailure,
        SingularJacobian,
        SingularMetric,
        WorkerFailure,
    )

    diverged = (NewtonDiverged, BlowUp, SingularJacobian, DegenerateTangents,
                ConstraintDrift, SingularMetric, ComplexEigenvalues,
                QuadratureFailure, IntegratorFailure)
    try:
        return args.fn(args)
    except diverged as e:
        print(f"minsurf {args.command}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return EXIT_DIVERGED
    except (ClosednessViolation, WorkerFailure) as e:
        print(f"minsurf {args.command}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return EXIT_VERIFY
    except (MinsurfError, ValueError, OSError) as e:
        # remaining domain errors are bad requests: ball outside the chart,
        # width past delta, non-finite input data, missing files
        print(f"minsurf {args.command}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(program())
