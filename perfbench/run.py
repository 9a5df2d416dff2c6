"""minsurf benchmark: one workload, one seed, a fixed measuring time.

Usage, from the repository root:

    python3 perfbench/run.py --workload {solve,flow,verify} \
        --seed N --seconds S --trace {0,1}

One client runs jobs back to back (a closed loop) until the next job would
end past ``--seconds``; every job's outputs are checked against an oracle
outside the timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics (see README.md).  Lines before the last describe the run: each
metric with its unit, each failed check with its job, and one ``meta``
JSON object.  The last line is the result JSON.

Numerical-library threads are capped at the CPUs this process may use
(``MINSURF_THREADS`` when set), for this process and its children.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("solve", "flow", "verify")

END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
    "oracle_err": "1",
}

LAYERS = ("pde", "immersion", "geometry", "fields", "deform", "variation",
          "invariant_ode", "acceptance", "cli")
SETUP_LAYERS = ("invariant_ode", "immersion", "deform")
# metric -> span whose summed duration per job it reports
CALL_METRICS = {
    "pde.solve_s": "pde.solve",
    "pde.residual_s": "pde.residual",
    "immersion.immerse_s": "immersion.immerse",
    "immersion.normal_flow_s": "immersion.normal_flow",
    "immersion.forms_from_immersion_s": "immersion.forms_from_immersion",
    "immersion.csv_write_s": "immersion.ImmersionGrid.to_csv",
    "immersion.csv_read_s": "immersion.ImmersionGrid.from_csv",
    "geometry.principal_curvatures_s": "geometry.principal_curvatures",
    "geometry.embedding_data_s": "geometry.embedding_data",
    "fields.csv_write_s": "fields.ScalarField.to_csv",
    "fields.csv_read_s": "fields.ScalarField.from_csv",
    "deform.detect_z_s": "deform.detect_z",
    "deform.assemble_f_s": "deform.assemble_f",
    "deform.build_point_f_s": "deform.build_point_f",
    "deform.solve_xi_s": "deform.solve_xi",
    "deform.build_G_s": "deform.build_G",
    "deform.build_translation_f_s": "deform.build_translation_f",
    "variation.shape_rate_s": "variation.shape_rate",
    "variation.immersion_fd_rate_s": "variation.immersion_fd_rate",
    "invariant_ode.integrate_s": "invariant_ode.integrate",
    "invariant_ode.estimate_delta_s": "invariant_ode.estimate_delta",
    **{f"acceptance.c{k:02d}_s": f"acceptance.c{k:02d}" for k in range(1, 12)},
}
# metric -> span whose time grows as (node count)^metric between the
# smallest and the largest grid it ran on
SCALING_METRICS = {
    "pde.solve_scaling": "pde.solve",
    "immersion.immerse_scaling": "immersion.immerse",
}
PER_LAYER = {
    **{m: "s" for m in CALL_METRICS},
    "pde.solve_calls": "count",
    **{m: "1" for m in SCALING_METRICS},
    "fields.csv_bytes": "B",
    "immersion.csv_bytes": "B",
    "deform.components_attempted": "count",
    "deform.components_built": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"setup.{layer}.self_s": "s" for layer in SETUP_LAYERS},
    "cli.import_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def apply_env() -> str:
    """Cap numerical-library threads for this process and its children, and
    return the cap.  numpy's transparent-huge-page hint is switched off:
    with it, whether a large array lands on huge pages depends on the
    machine's free memory at that moment, which makes peak RSS vary by
    several percent between identical runs."""
    cap = os.environ.get("MINSURF_THREADS") or str(len(os.sched_getaffinity(0)))
    os.environ["MINSURF_THREADS"] = cap
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = cap
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return cap


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with
    at least ten samples beyond it.  Below 100 samples that percentile
    would lie below p90, too close to the median to show a tail, so p90 is
    reported instead, interpolated between order statistics.  A run holds
    7 to 15 jobs, so this is about the second-largest job: one job slowed
    by the shared host moves it far less than it moves the largest."""
    s = sorted(samples)
    n = len(s)
    if n >= 100:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    value = s[0] if n == 1 else statistics.quantiles(s, n=10, method="inclusive")[-1]
    return value, 90.0, sum(x > value for x in s)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "minsurf").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def probe_setup(args) -> dict:
    """Set-up in a fresh interpreter, timed from outside: interpreter start,
    imports and input generation, as a user's process pays them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    wall = time.perf_counter() - t0
    inner = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"wall": wall, "inputs_s": inner["inputs_s"]}


def layer_metrics(tracer, traced: dict, untraced: dict, setups: list,
                  counters: dict) -> dict:
    from tracing import empty_job, per_job

    jobs = per_job(tracer.spans)
    ids = sorted(traced)
    per = [jobs.get(i, empty_job()) for i in ids]

    def med(fn) -> float:
        return _median(fn(j) for j in per)

    m = {}
    for metric, span in CALL_METRICS.items():
        m[metric] = med(lambda j: j["total"].get(span, 0.0))
    m["pde.solve_calls"] = med(lambda j: j["count"].get("pde.solve", 0))
    for metric, span in SCALING_METRICS.items():
        by_size: dict = {}
        for j in per:
            for nodes, dur in j["sized"].get(span, []):
                by_size.setdefault(nodes, []).append(dur)
        m[metric] = 0.0
        if len(by_size) >= 2:
            lo, hi = min(by_size), max(by_size)
            m[metric] = (math.log(_median(by_size[hi]) / _median(by_size[lo]))
                         / math.log(hi / lo))
    for key in ("fields.csv_bytes", "immersion.csv_bytes"):
        m[key] = _median(counters[key].get(i, 0) for i in ids)
    m["deform.components_attempted"] = med(
        lambda j: j["items"].get("deform.assemble_f", 0))
    m["deform.components_built"] = med(
        lambda j: j["items_ok"].get("deform.assemble_f", 0))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = med(lambda j: j["self"].get(layer, 0.0))
    setup = jobs.get("setup", empty_job())
    for layer in SETUP_LAYERS:
        m[f"setup.{layer}.self_s"] = setup["self"].get(layer, 0.0)
    m["cli.import_s"] = _median(p["wall"] - p["inputs_s"] for p in setups)
    m["trace.unattributed_s"] = _median(
        traced[i] - j["covered"] for i, j in zip(ids, per))
    m["trace.overhead_s"] = _median(traced.values()) - _median(untraced.values())
    return m


def run(args) -> int:
    cap = apply_env()
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]

    import numpy
    import scipy

    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](tiny=args.tiny)
    in_process = args.workload != "verify"
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.job = "setup"
        tracer.install()
    try:
        state = wl.setup(args.seed)
    finally:
        if tracer is not None:
            tracer.job = None
            tracer.remove()

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    walls = {False: {}, True: {}}
    counters = {"fields.csv_bytes": {}, "immersion.csv_bytes": {}}
    errs = []
    failures = []
    attempted = 0
    start = time.perf_counter()
    try:
        for i in itertools.count():
            traced = tracer is not None and i % 2 == 1
            attempted += 1
            out = None
            problems = []
            # a fresh directory per job, removed after its checks, so that
            # no job truncates files an earlier one left for writeback
            state["tmpdir"] = tmp / f"job{i}"
            state["tmpdir"].mkdir(parents=True)
            try:
                if traced:
                    tracer.job = i
                    if in_process:
                        tracer.install()
                t0 = time.perf_counter()
                out = wl.job(state, tracer if traced else None, i)
                walls[traced][i] = time.perf_counter() - t0
            except Exception as exc:
                problems = [f"raised {type(exc).__name__}: {exc}"]
            finally:
                if traced:
                    tracer.job = None
                    tracer.remove()
            if out is not None:
                try:
                    problems, err = wl.check(state, out)
                    if math.isfinite(err):
                        errs.append(err)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                made = out.get("counters", {}) if isinstance(out, dict) else {}
                for key in counters:
                    counters[key][i] = made.get(key, 0)
            shutil.rmtree(state["tmpdir"])
            for name in problems:
                print(f"FAIL job={i} check={name}")
            if problems:
                failures.append((i, problems))
            # a traced run needs one untraced and one traced job at least
            if tracer is not None and i < 1:
                continue
            done = [*walls[False].values(), *walls[True].values()]
            if time.perf_counter() - start + _median(done) > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = walls[False]
    samples = sorted(untraced.values())
    tail_value, tail_pct, tail_beyond = tail(samples) if samples else (0.0, 0.0, 0)
    if args.trace:
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        values = layer_metrics(tracer, walls[True], untraced, setups, counters)
        units = PER_LAYER
    else:
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        values = {
            "setup_s": _median(p["wall"] for p in setups),
            "job_s_p50": _median(samples),
            "job_s_tail": tail_value,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "oracle_err": _median(errs),
        }
        units = END_TO_END
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    for k, v in metrics.items():
        print(f"{k:36s} {v['value']:.6g} {v['unit']}")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "machine": {"arch": platform.machine(), "cpu": cpu_model(),
                    "nproc": os.cpu_count(),
                    "usable_cpus": len(os.sched_getaffinity(0))},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "src_sha256": source_digest(), "thread_cap": cap,
        "loop": "closed, one client, one process",
        "samples": {"setup_s": len(setups), "job_s_p50": len(samples),
                    "job_s_tail": len(samples), "traced_jobs": len(walls[True])},
        "tail": {"percentile": tail_pct, "samples_beyond": tail_beyond},
        "failed_frac": len(failures) / attempted,
        "job_walls": {str(i): t for i, t in
                      sorted({**walls[False], **walls[True]}.items())},
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": not failures and bool(errs),
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def probe_main(args) -> int:
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](tiny=args.tiny)
    t1 = time.perf_counter()
    wl.setup(args.seed)
    print(json.dumps({"import_s": t1 - t0, "inputs_s": time.perf_counter() - t1}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test grid sizes instead of the benchmark's")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "minsurf" / "__init__.py").is_file():
        print(f"perfbench: no minsurf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        apply_env()
        return probe_main(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
