"""Smoke check of the benchmark itself, at tiny grid sizes.

Usage, from the repository root:  python3 perfbench/smoke.py

1. Runs every workload listed in BENCHMARK.json for one second, untraced
   and traced, and confirms that each run is correct and emits exactly the
   end-to-end (untraced) or per-layer (traced) metrics of BENCHMARK.json,
   each with its unit.
2. Confirms that the oracle checks catch a wrong answer: one perturbed node
   in a solved u, and one altered value in a chart read back from CSV,
   must each fail a check.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_runs(spec: dict) -> list[str]:
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   w["name"], "--seed", "1", "--seconds", "1", "--trace",
                   str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            tag = f"{w['name']} trace={trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: not correct: {proc.stdout[-500:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            if len(problems) == before:
                print(f"ok  {tag}: {len(got)} metrics", flush=True)
    return problems


def check_oracles() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    from minsurf.fields import ScalarField
    from minsurf.geometry import SurfaceData
    from workloads import Handoff, Solve

    problems = []
    solve = Solve(tiny=True)
    solve_state = solve.setup(1)
    out = solve.job(solve_state)
    if solve.check(solve_state, out)[0]:
        problems.append("solve: clean job failed its checks")
    for k, (s, res) in enumerate(out):
        u = s.u.values.copy()
        u[u.shape[0] // 2, u.shape[1] // 3] += 1e-6
        bad = list(out)
        bad[k] = (SurfaceData(ScalarField(s.spec, u)), res)
        if not solve.check(solve_state, bad)[0]:
            problems.append(f"solve: perturbed node in problem {k} passed")

    handoff = Handoff(32)
    state = handoff.setup(solve_state["sol"], np.random.default_rng(1))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = handoff.job(state, Path(tmp))
    if handoff.check(state, out):
        problems.append("handoff: clean job failed its checks")
    for key in ("chart_u", "points_u"):
        f = out[key]
        v = f.values.copy()
        v[1, 2] = np.nextafter(v[1, 2], np.inf)
        if not handoff.check(state, {**out, key: ScalarField(f.spec, v)}):
            problems.append(f"handoff: altered value in {key} passed")
    if not problems:
        print("ok  oracle checks", flush=True)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_runs(spec) + check_oracles()
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
