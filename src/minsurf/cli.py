"""Command-line driver: solve -> detect -> deform -> flow -> verify.

Reports are JSON with a stable schema tag and sorted keys; identical
configuration (and seed) produces byte-identical report files, so runtimes
never enter reports (stdout may carry them).  Fields and immersions travel
as CSV with the grid spec in a comment header.

Exit codes: 0 success, 1 verification failure, 2 solver divergence or
numerical breakdown, 64 usage error (bad flags or bad input data).  An error
that escapes a subcommand exits with its class's exit_code: 2 for
NewtonDiverged, BlowUp, SingularJacobian, DegenerateTangents,
ConstraintDrift, SingularMetric, ComplexEigenvalues, QuadratureFailure and
IntegratorFailure, 1 for ClosednessViolation and WorkerFailure, 64 for every
other MinsurfError and for ValueError and OSError.

Two entry points share the subcommands.  ``main(argv)`` is the in-process
API that tests and harnesses call: it runs `verify`'s criteria serially in
the calling process and leaves the garbage collector and the environment
alone.  ``program()`` is the ``minsurf`` program itself (the console script
and ``python -m minsurf.cli``): it runs `verify` as two lanes of criteria,
one in a forked worker, when at least two CPUs are usable
(``MINSURF_THREADS`` caps the count) and the criteria span both lanes.
Before numpy loads it then lowers the BLAS/OpenMP thread variables to
max(1, usable CPUs // 2), so the two lanes' pools share the CPUs instead of
each claiming all of them.  Its results, lines and report are the same as
the serial run's, whatever the BLAS thread count: pde.solve's MINRES sums
pairwise instead of through BLAS.  ``program()`` also switches off
automatic cyclic GC and freezes the heap before returning, so neither the
numerical stack's imports nor interpreter shutdown pay for a collection
over the import-time objects.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import signal
import sys

from .errors import (EXIT_OK, EXIT_USAGE, EXIT_VERIFY, BallExceedsChart,
                     DomainExceedsDelta, MinsurfError, NonGenericCurve,
                     WorkerFailure, WrongHolonomyClass)

# the thread-pool sizes numpy's native libraries read when they load
_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")

# honour the thread cap before numpy loads (imports below are lazy);
# only set what the user has not already pinned themselves
_threads = os.environ.get("MINSURF_THREADS")
if _threads:
    for _var in _POOL_VARS:
        os.environ.setdefault(_var, _threads)

SCHEMA = "minsurf-report/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {v}")
    return v


def _nonneg_float(text: str) -> float:
    v = _finite_float(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {v}")
    return v


def _pos_float(text: str) -> float:
    v = _finite_float(text)
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
    return (_finite_float(parts[0]), _finite_float(parts[1]))


def _emit(args, report: dict) -> None:
    """Write report, tagged with the schema and the subcommand, to args.out
    (stdout when unset)."""
    report = {"schema": SCHEMA, "command": args.command, **report}
    # allow_nan=False: a NaN or infinity in a report is a bug upstream,
    # and the emitted JSON must stay standard
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _strip_profile(args):
    """The strip that args ask for, centred and periodic in y; the invariant
    profile of args.v0, integrated out to at least the strip's edge; and
    delta(args.v0).  A strip that reaches delta raises DomainExceedsDelta."""
    import numpy as np

    from .fields import GridSpec
    from .invariant_ode import estimate_delta, integrate

    delta = estimate_delta(args.v0)
    spec = GridSpec.strip(args.width, args.nx, args.ny, args.period)
    # a strip past delta is refused before the profile could blow up on it
    reach = float(np.abs(spec.xs).max())
    if reach >= delta:
        raise DomainExceedsDelta(
            f"grid reaches |x| = {reach:.6g} >= delta = {delta:.6g}")
    sol = integrate(args.v0, max(0.95 * delta, reach), rtol=1e-10)
    return spec, sol, delta


def _surface_from_args(args):
    from .fields import ScalarField
    from .geometry import SurfaceData
    from .invariant_ode import to_surface

    if getattr(args, "input", None):
        return SurfaceData(ScalarField.from_csv(args.input))
    spec, sol, _ = _strip_profile(args)
    return to_surface(sol, spec)


def _surface_params(args) -> dict:
    if getattr(args, "input", None):
        return {"input": args.input}
    return {"v0": args.v0, "width": args.width, "nx": args.nx,
            "ny": args.ny, "period": args.period}


def _add_surface_flags(p):
    p.add_argument("--input", metavar="CSV",
                   help="chart data u as CSV (from `minsurf solve --csv`)")
    p.add_argument("--v0", type=_nonneg_float, default=0.0,
                   help="invariant profile value at the axis (default 0)")
    p.add_argument("--width", type=_pos_float, default=1.0,
                   help="strip width of the built chart (default 1.0)")
    p.add_argument("--nx", type=_pos_int, default=129)
    p.add_argument("--ny", type=_pos_int, default=128)
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
    _emit(args, report)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_solve(args) -> int:
    from .pde import invariant_strip_problem, residual, solve

    _, sol, delta = _strip_profile(args)
    prob = invariant_strip_problem(
        sol, args.width, nx=args.nx, ny=args.ny, period_y=args.period,
        tol_residual=args.tol)
    s = solve(prob)
    if args.csv:
        s.u.to_csv(args.csv)
    report = {
        "params": {"v0": args.v0, "width": args.width, "nx": args.nx,
                   "ny": args.ny, "period": args.period, "tol": args.tol},
        "delta": delta,
        "residual": residual(s),
        "u_range": [float(s.u.values.min()), float(s.u.values.max())],
    }
    _emit(args, report)
    return EXIT_OK


def _describe(c) -> dict:
    """A zero-set component as `zlocus` reports it: kind, centre, size and
    node counts, and for a curve the straight-line test."""
    from .deform import genericity_check

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
    return item


def cmd_zlocus(args) -> int:
    from .deform import detect_z

    items = [_describe(c)
             for c in detect_z(_surface_from_args(args), tol_z=args.tol_z)]
    report = {
        "params": {**_surface_params(args), "tol_z": args.tol_z},
        "components": items,
        "count": len(items),
    }
    _emit(args, report)
    return EXIT_OK


def cmd_deform(args) -> int:
    import numpy as np

    from .deform import assemble_f, check_separation, detect_z
    from .fields import ScalarField

    s = _surface_from_args(args)
    comps = detect_z(s, tol_z=args.tol_z)
    # components are built one at a time below, so their pairwise gaps are
    # checked here, over all of them, before any is built
    check_separation(s.spec, comps, args.r)
    total = np.zeros(s.spec.shape)
    items = []
    for c in comps:
        item = _describe(c)
        try:
            if c.kind == "Curve" and not item["generic"]:
                raise NonGenericCurve(
                    f"line deviation {item['line_deviation']:.3e} below "
                    f"{item['tol_line']:.3e}")
            f = assemble_f(s, [c], args.r)
            total += f.values
            item["status"] = "built"
            item["sup"] = f.sup()
        except (NonGenericCurve, WrongHolonomyClass, BallExceedsChart) as e:
            item["status"] = "skipped"
            item["error"] = type(e).__name__
            item["detail"] = str(e)
        items.append(item)

    if args.field_csv:
        ScalarField(s.spec, total).to_csv(args.field_csv)

    report = {
        "params": {**_surface_params(args), "r": args.r,
                   "tol_z": args.tol_z},
        "components": items,
        "built": sum(item["status"] == "built" for item in items),
        "field_sup": float(np.max(np.abs(total))),
    }
    _emit(args, report)
    return EXIT_OK


def cmd_flow(args) -> int:
    from .deform import build_point_f, plateau_mask
    from .geometry import principal_curvatures
    from .immersion import forms_from_immersion, immerse, normal_flow

    s = _surface_from_args(args)
    f = build_point_f(args.bump_center, args.bump_r, s.spec)
    # the unflowed immersion is freed once flowed, before forms are recovered
    g2 = normal_flow(immerse(s), f, args.t)
    if args.csv:
        g2.to_csv(args.csv)
    _, _, B = forms_from_immersion(g2)
    pc = principal_curvatures(B)
    lam, lam_minus = pc.lambda_plus.values, pc.lambda_minus.values
    plateau = plateau_mask(s.spec, args.bump_center, args.bump_r)
    interior = s.spec.interior_mask()
    report = {
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
        # interior nodes where lambda+ > 1 or lambda- < -1
        "outside_unit_interval": int(
            ((lam > 1.0) | (lam_minus < -1.0))[interior].sum()),
    }
    _emit(args, report)
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


def _runs_in_lanes(args) -> bool:
    """Whether `verify` runs as two lanes: its criteria span both lanes, and
    os.fork and at least two usable CPUs exist.  Reads only the parsed args
    and the static lane names, so it can run before numpy loads."""
    if (args.command != "verify" or not hasattr(os, "fork")
            or _usable_cpus() < 2):
        return False
    from .lanes import LANES

    names = {n for lane in LANES.values() for n in lane}
    if args.only:
        names &= set(args.only)
    return all(names & set(lane) for lane in LANES.values())


def _lower_pools(threads: int) -> None:
    """Lower every pool-size variable to at most threads.  Larger values,
    unset ones and ones that are not a positive integer are replaced:
    BLAS reads those as "all cores"."""
    for var in _POOL_VARS:
        try:
            if 1 <= int(os.environ[var]) <= threads:
                continue
        except (KeyError, ValueError):
            pass
        os.environ[var] = str(threads)


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
    from .acceptance import REGISTRY, run_all

    known = [name for name, _ in REGISTRY]
    wanted = args.only or None
    if wanted:
        bad = sorted(set(wanted) - set(known))
        if bad:
            raise ValueError(
                f"unknown criteria {bad}; known: {known}")
    if args.lanes:
        results = _verify_in_lanes([n for n in known
                                    if not wanted or n in wanted])
    else:
        results = run_all(wanted)
    for r in results:
        print(r.line())
    all_passed = all(r.passed for r in results)
    report = {
        "params": {"only": wanted},
        "criteria": [r.as_dict() for r in results],
        "all_passed": all_passed,
    }
    first_fail = next((r.name for r in results if not r.passed), None)
    if first_fail is not None:
        report["first_failure"] = first_fail
        print(f"FAILED at {first_fail}", file=sys.stderr)
    _emit(args, report)
    return EXIT_OK if all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    p = _Parser(prog="minsurf",
                description="minimal-surface chart pipeline driver")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ode", help="invariant profile checks")
    q.add_argument("--v0", type=_nonneg_float, required=True)
    q.add_argument("--tol", type=_pos_float, default=1e-10,
                   help="integrator relative tolerance (default 1e-10)")
    q.add_argument("--x-frac", type=_pos_float, default=0.9,
                   help="integrate to this fraction of delta (default 0.9)")
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
    q.add_argument("--csv", help="write the solved chart u")
    q.set_defaults(fn=cmd_solve)

    q = sub.add_parser("zlocus", help="detect and classify the zero locus")
    _add_surface_flags(q)
    q.add_argument("--tol-z", type=_pos_float, default=1e-8,
                   help="|u| threshold for the locus (default 1e-8); charts "
                        "from `solve` sit O(h^2) off the continuum profile, "
                        "so pass roughly 2x that offset for them")
    q.set_defaults(fn=cmd_zlocus)

    q = sub.add_parser("deform",
                       help="build curvature-opening fields per component")
    _add_surface_flags(q)
    q.add_argument("--tol-z", type=_pos_float, default=1e-8)
    q.add_argument("--r", type=_pos_float, default=0.2,
                   help="bump radius around each component (default 0.2)")
    q.add_argument("--field-csv", help="write the assembled field f")
    q.set_defaults(fn=cmd_deform)

    q = sub.add_parser("flow", help="immerse, flow by t*f, report curvatures")
    _add_surface_flags(q)
    q.add_argument("--t", type=_finite_float, required=True,
                   help="flow time (may be negative)")
    q.add_argument("--bump-center", type=_point, default=(0.0, 0.5))
    q.add_argument("--bump-r", type=_pos_float, default=0.45)
    q.add_argument("--csv", help="write the flowed immersion")
    q.set_defaults(fn=cmd_flow)

    q = sub.add_parser("verify", help="run the acceptance suite")
    q.add_argument("--only", action="append", metavar="NAME",
                   help="run a single criterion (repeatable)")
    q.set_defaults(fn=cmd_verify)

    for q in sub.choices.values():
        q.add_argument("--out", help="JSON report path (default stdout)")
    return p


def main(argv=None) -> int:
    """Run one subcommand in this process; returns the exit code.  verify
    runs serially, and the environment is left as it is."""
    return _main(argv, lanes=False)


def program() -> int:
    """The ``minsurf`` program: main() on sys.argv, with verify in two lanes
    of max(1, usable CPUs // 2) BLAS threads each, and no automatic cyclic
    GC.  Meant to end its process: it leaves automatic GC off and the heap
    frozen, and the BLAS thread variables lowered for verify in lanes."""
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
    args.lanes = lanes and _runs_in_lanes(args)
    if args.lanes:
        # before numpy loads: both lanes' BLAS pools share the usable CPUs
        _lower_pools(max(1, _usable_cpus() // 2))

    try:
        return args.fn(args)
    except (MinsurfError, ValueError, OSError) as e:
        # ValueError and OSError are bad requests too: non-finite input
        # data, missing files
        print(f"minsurf {args.command}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return getattr(e, "exit_code", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(program())
