"""Exit codes, report schemas, and determinism of the command-line driver."""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from minsurf import acceptance, cli
from minsurf.errors import NewtonDiverged, SingularMetric, WorkerFailure


def run(argv):
    return cli.main(argv)


def load(path):
    with open(path) as fh:
        return json.load(fh)


class TestOde:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["ode", "--v0", "0", "--out", str(out)]) == 0
        rep = load(out)
        assert rep["schema"] == "minsurf-report/1"
        assert rep["passed"] is True
        assert rep["first_integral_residual"] <= rep["residual_bound"]
        assert rep["length_check"]["ok"] is True

    def test_tolerance_scales_residual(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["ode", "--v0", "0", "--tol", "1e-12",
                    "--out", str(out)]) == 0
        assert load(out)["first_integral_residual"] <= 1e-10

    def test_negative_v0_is_usage_error(self):
        assert run(["ode", "--v0", "-1"]) == 64

    def test_integrating_past_blowup_reports_divergence(self, tmp_path):
        assert run(["ode", "--v0", "0", "--x-frac", "1.05",
                    "--out", str(tmp_path / "r.json")]) == 2

    def test_large_v0_profile_passes(self, tmp_path):
        # the absolute residual exceeds 100 tol here (1.9e-8 > 1e-8): it
        # grows like sinh 2g, so it is judged relative to its terms
        out = tmp_path / "r.json"
        assert run(["ode", "--v0", "1", "--out", str(out)]) == 0
        rep = load(out)
        assert rep["first_integral_residual"] > rep["residual_bound"]
        assert rep["first_integral_relative_residual"] <= rep["residual_bound"]

    def test_profile_past_the_squares_overflow_passes(self, tmp_path):
        # (2 cosh 2v0 / atol)^2 overflows float64 from v0 ~ 163.6; DOPRI5's
        # norms take math.hypot there
        out = tmp_path / "r.json"
        assert run(["ode", "--v0", "200", "--out", str(out)]) == 0
        rep = load(out)
        assert rep["passed"] is True and rep["samples"] == 177
        assert rep["delta"] == pytest.approx(2.17e-87, rel=1e-3)

    def test_overflowing_profile_is_a_typed_failure(self, capsys):
        # v0 = 335, the largest delta(v0) accepts, starts past the blow-up
        # guard g = 300, so integration is refused before the first step
        assert run(["ode", "--v0", "335"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("minsurf ode: IntegratorFailure:")
        assert "guard" in err and err.count("\n") == 1

    @pytest.mark.parametrize("v0", ["0", "1"])
    def test_wrong_slope_fails(self, tmp_path, monkeypatch, v0):
        from dataclasses import replace

        from minsurf import invariant_ode

        inner = invariant_ode.integrate

        def perturbed(*args, **kwargs):
            sol = inner(*args, **kwargs)
            return replace(sol, gp=sol.gp * (1.0 + 1e-6))

        monkeypatch.setattr(invariant_ode, "integrate", perturbed)
        out = tmp_path / "r.json"
        assert run(["ode", "--v0", v0, "--out", str(out)]) == 1
        assert load(out)["passed"] is False

    def test_csv_export(self, tmp_path):
        csv = tmp_path / "samples.csv"
        assert run(["ode", "--v0", "0.5", "--csv", str(csv),
                    "--out", str(tmp_path / "r.json")]) == 0
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert data.shape[1] == 3
        assert data[0, 1] == pytest.approx(0.5)  # g(0) = v0


class TestSolve:
    def test_happy_path_with_csv(self, tmp_path):
        out, csv = tmp_path / "r.json", tmp_path / "u.csv"
        rc = run(["solve", "--width", "0.8", "--nx", "33", "--ny", "32",
                  "--out", str(out), "--csv", str(csv)])
        assert rc == 0
        rep = load(out)
        assert rep["residual"] <= 1e-10
        # solve raises on divergence and judges nothing else: no verdict
        assert "passed" not in rep
        from minsurf.fields import ScalarField
        u = ScalarField.from_csv(csv)
        assert u.spec.nx == 33 and u.spec.ny == 32

    def test_width_beyond_maximal_strip_is_usage_error(self, tmp_path,
                                                       capsys):
        assert run(["solve", "--width", "3.0",
                    "--out", str(tmp_path / "r.json")]) == 64
        assert "DomainExceedsDelta" in capsys.readouterr().err

    def test_strip_edge_past_095_delta_is_solved(self, tmp_path):
        # width/2 = 1.25 lies between 0.95 delta(0) = 1.2455 and delta(0) =
        # 1.3110: the profile is integrated out to the strip's edge
        out = tmp_path / "r.json"
        assert run(["solve", "--width", "2.5", "--nx", "65", "--ny", "64",
                    "--out", str(out)]) == 0
        assert load(out)["residual"] <= 1e-10

    def test_minres_breakdown_exits_2(self, tmp_path, monkeypatch, capsys):
        # an indefinite preconditioner breaks MINRES down: a numerical
        # breakdown, not a bad request
        from minsurf import pde
        inner = pde._poisson_solve
        monkeypatch.setattr(pde, "_poisson_solve",
                            lambda spec, r, lam: -inner(spec, r, lam))
        out = tmp_path / "r.json"
        assert run(["solve", "--width", "0.8", "--nx", "33", "--ny", "32",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert "SingularJacobian" in capsys.readouterr().err


@pytest.fixture(scope="module")
def solved_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("zl")
    csv = d / "u.csv"
    assert run(["solve", "--width", "0.8", "--nx", "33", "--ny", "32",
                "--out", str(d / "r.json"), "--csv", str(csv)]) == 0
    return csv


def chart_csv(path, zeros):
    """A 65 x 65 chart, u = 1 except u = 0 at the given nodes."""
    from minsurf.fields import GridSpec, ScalarField
    spec = GridSpec(nx=65, ny=65, hx=1 / 64, hy=1 / 64, origin=(-0.5, -0.5),
                    periodic_y=False)
    u = np.ones(spec.shape)
    for idx in zeros:
        u[idx] = 0.0
    ScalarField(spec, u).to_csv(path)
    return path


# a T-shaped zero set: one curve whose chain walk covers 45 of 67 nodes
T_ZEROS = [(32, np.s_[10:55]), (np.s_[10:32], 32)]


class TestZlocus:
    def test_detects_axis_curve_at_discretization_tolerance(
            self, solved_csv, tmp_path):
        out = tmp_path / "z.json"
        # the solved chart sits O(h^2) off the continuum profile, so the
        # locus thickness tolerance must scale with it
        assert run(["zlocus", "--input", str(solved_csv), "--tol-z", "1e-4",
                    "--out", str(out)]) == 0
        rep = load(out)
        assert len(rep["components"]) == 1
        comp = rep["components"][0]
        assert comp["kind"] == "Curve" and comp["closed"]
        assert comp["generic"] is False

    def test_built_chart_edge_past_095_delta(self, tmp_path):
        # the built invariant chart reaches |x| = 1.25 > 0.95 delta(0)
        out = tmp_path / "z.json"
        assert run(["zlocus", "--width", "2.5", "--out", str(out)]) == 0
        rep = load(out)
        assert rep["count"] == 1 and rep["components"][0]["kind"] == "Curve"

    def test_built_chart_past_delta_is_usage_error(self, capsys):
        assert run(["zlocus", "--width", "2.7"]) == 64
        assert "DomainExceedsDelta" in capsys.readouterr().err

    def test_strict_tolerance_sees_nothing(self, solved_csv, tmp_path):
        out = tmp_path / "z.json"
        assert run(["zlocus", "--input", str(solved_csv),
                    "--out", str(out)]) == 0
        assert load(out)["components"] == []

    def test_corrupted_input_names_the_invariant(self, solved_csv,
                                                 tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        text = solved_csv.read_text().splitlines()
        head, rows = text[:2], text[2:]
        parts = rows[40].split(",")
        parts[-1] = "nan"
        rows[40] = ",".join(parts)
        bad.write_text("\n".join(head + rows) + "\n")
        assert run(["zlocus", "--input", str(bad)]) == 64
        assert "non-finite" in capsys.readouterr().err

    def test_shuffled_rows_are_rejected(self, solved_csv, tmp_path, capsys):
        # a valid header over rows out of grid order must not load as a
        # silently different chart
        bad = tmp_path / "shuffled.csv"
        lines = solved_csv.read_text().splitlines()
        lines[10], lines[50] = lines[50], lines[10]
        bad.write_text("\n".join(lines) + "\n")
        assert run(["zlocus", "--input", str(bad)]) == 64
        assert "off the header grid" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda head: {k: v for k, v in head.items() if k != "nx"},
        lambda head: list(head.values()),
        lambda head: {k: v for k, v in head.items() if k != "periodic_y"},
        lambda head: {k: v for k, v in head.items() if k != "origin"},
        lambda head: {**head, "periodic_y": "false"},
        lambda head: {**head, "periodic_y": "no"},
        lambda head: {**head, "periodic_y": 0},
        lambda head: {**head, "nx": 5.9},
        lambda head: {**head, "nx": float(head["nx"])},
        lambda head: {**head, "ny": True},
        lambda head: {**head, "hx": str(head["hx"])},
        lambda head: {**head, "origin": head["origin"][:1]},
        lambda head: {**head, "origin": [False, 0.0]},
        lambda head: {**head, "hx": float("inf")},
        lambda head: {**head, "hy": float("nan")},
        lambda head: {**head, "origin": [float("-inf"), 0.0]},
    ], ids=["missing-key", "json-list", "missing-periodic", "missing-origin",
            "periodic-string-false", "periodic-string-no", "periodic-int",
            "nx-fraction", "nx-float", "ny-bool", "hx-string",
            "origin-short", "origin-bool", "hx-infinity", "hy-nan",
            "origin-infinity"])
    def test_bad_grid_header_is_usage_error(self, solved_csv, tmp_path,
                                            capsys, edit):
        # valid JSON that is not a grid must not escape as a traceback
        # (exit 1 is the verification-failure code), and no value is
        # coerced: "false" is not false, 5.9 is not 5
        bad = tmp_path / "header.csv"
        lines = solved_csv.read_text().splitlines()
        lines[0] = "# " + json.dumps(edit(json.loads(lines[0][2:])))
        bad.write_text("\n".join(lines) + "\n")
        assert run(["zlocus", "--input", str(bad)]) == 64
        err = capsys.readouterr().err
        assert str(bad) in err and "bad grid header" in err

    def test_branched_curve_reports_dropped_nodes(self, tmp_path):
        out = tmp_path / "z.json"
        csv = chart_csv(tmp_path / "t.csv", T_ZEROS)
        assert run(["zlocus", "--input", str(csv), "--out", str(out)]) == 0
        (comp,) = load(out)["components"]
        assert comp["nodes"] == 45 and comp["dropped_nodes"] == 22
        assert comp["thinned_nodes"] == 0  # the T is one node wide

    def test_enclosed_zero_set_is_refused(self, tmp_path, capsys):
        # a circle of zeros around (0, 0.5): u = 5 (|p - c| - 0.2)^2 > 0
        # inside it has an interior maximum, which no solution has
        from minsurf.fields import GridSpec, ScalarField
        spec = GridSpec.strip(1.0, 65, 64)
        X, Y = spec.nodes()
        csv = tmp_path / "circle.csv"
        ScalarField(spec, 5.0 * (np.hypot(X, Y - 0.5) - 0.2) ** 2).to_csv(csv)
        out = tmp_path / "z.json"
        assert run(["zlocus", "--input", str(csv), "--tol-z", "3e-4",
                    "--out", str(out)]) == 64
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("minsurf zlocus: ClosedZeroCurve:")
        assert "481 nodes" in err and err.count("\n") == 1


class TestDeform:
    def test_branched_curve_is_skipped(self, tmp_path):
        out = tmp_path / "d.json"
        csv = chart_csv(tmp_path / "t.csv", T_ZEROS)
        assert run(["deform", "--input", str(csv), "--r", "0.1",
                    "--out", str(out)]) == 0
        (comp,) = load(out)["components"]
        assert comp["status"] == "skipped"
        assert comp["error"] == "NonGenericCurve"
        assert load(out)["built"] == 0

    def test_items_are_the_zlocus_items_with_a_status(self, tmp_path):
        csv = chart_csv(tmp_path / "t.csv", T_ZEROS)
        z, d = tmp_path / "z.json", tmp_path / "d.json"
        assert run(["zlocus", "--input", str(csv), "--out", str(z)]) == 0
        assert run(["deform", "--input", str(csv), "--r", "0.1",
                    "--out", str(d)]) == 0
        (item,) = load(d)["components"]
        assert (item.pop("status"), item.pop("error")) == (
            "skipped", "NonGenericCurve")
        assert "dropped 22 nodes" in item.pop("detail")
        assert [item] == load(z)["components"]

    def test_overlapping_components_are_refused(self, tmp_path, capsys):
        # two zeros 10 steps apart, r = 0.2: built one at a time, each field
        # would pass and their sum would be wrong at both zeros
        csv = chart_csv(tmp_path / "two.csv", [(32, 27), (32, 37)])
        out = tmp_path / "d.json"
        assert run(["deform", "--input", str(csv), "--r", "0.2",
                    "--out", str(out)]) == 64
        assert not out.exists()
        err = capsys.readouterr().err
        assert "OverlappingNeighbourhoods" in err
        assert "components 0 and 1" in err

    def test_field_csv_holds_the_built_fields(self, tmp_path):
        from minsurf.fields import ScalarField
        csv = chart_csv(tmp_path / "one.csv", [(32, 27)])
        out, field = tmp_path / "d.json", tmp_path / "f.csv"
        assert run(["deform", "--input", str(csv), "--r", "0.1",
                    "--field-csv", str(field), "--out", str(out)]) == 0
        rep = load(out)
        assert [c["status"] for c in rep["components"]] == ["built"]
        assert rep["built"] == 1
        assert ScalarField.from_csv(field).sup() == rep["field_sup"] > 0.0

    def test_straight_curve_is_skipped_not_fatal(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["deform", "--out", str(out)]) == 0
        rep = load(out)
        assert rep["components"], "invariant chart must expose its axis"
        assert all(c["status"] == "skipped" for c in rep["components"])
        assert all(c["error"] == "NonGenericCurve"
                   for c in rep["components"])


class TestFlow:
    def test_reports_contracted_curvatures(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["flow", "--t", "1e-3", "--out", str(out)]) == 0
        rep = load(out)
        assert rep["constraint_drift"] <= 1e-9
        assert rep["lambda_plus"]["plateau_max"] < 1.0
        # flow computes no verdict, so it claims none
        assert "passed" not in rep

    def test_unflowed_immersion_is_freed_before_forms(self, tmp_path,
                                                      monkeypatch):
        # only the flowed grid may be alive while forms_from_immersion
        # allocates; the immersion it was flowed from is dead by then
        from minsurf import immersion

        refs, dead = [], []
        immerse, forms = immersion.immerse, immersion.forms_from_immersion

        def immerse_spy(s):
            g = immerse(s)
            refs.append(weakref.ref(g))
            return g

        def forms_spy(g):
            dead.append(refs[0]() is None)
            return forms(g)

        monkeypatch.setattr(immersion, "immerse", immerse_spy)
        monkeypatch.setattr(immersion, "forms_from_immersion", forms_spy)
        assert run(["flow", "--nx", "33", "--ny", "32", "--t", "1e-3",
                    "--out", str(tmp_path / "f.json")]) == 0
        assert dead == [True]

    def test_negative_time_opens_curvatures(self, tmp_path):
        out = tmp_path / "f.json"
        # "=" form keeps argparse from reading the negative value as a flag
        assert run(["flow", "--t=-1e-3", "--out", str(out)]) == 0
        assert load(out)["lambda_plus"]["plateau_max"] > 1.0

    def test_reports_lambda_minus_leaving_the_unit_interval(self, tmp_path):
        # at t = 1e-2 the bump's transition ring pushes lambda- below -1 on
        # the zero line, off the plateau that lambda+ is checked on
        out = tmp_path / "f.json"
        assert run(["flow", "--nx", "65", "--ny", "64", "--t", "1e-2",
                    "--out", str(out)]) == 0
        rep = load(out)
        assert rep["outside_unit_interval"] > 0
        assert rep["lambda_minus"]["interior_min"] < -1.0
        assert rep["lambda_minus"]["interior_max"] <= rep["lambda_plus"]["interior_min"]


class TestVerify:
    def test_single_criterion(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--only", "01-ode-first-integral",
                    "--out", str(out)]) == 0
        rep = load(out)
        assert rep["all_passed"] is True
        assert len(rep["criteria"]) == 1
        assert rep["criteria"][0]["passed"] is True

    def test_unknown_criterion_is_usage_error(self):
        assert run(["verify", "--only", "bogus-name"]) == 64

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            assert run(["verify", "--only", "01-ode-first-integral",
                        "--only", "09-moment-conditions",
                        "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["ode", "--v0", "0.5"],
    ["solve", "--width", "0.8", "--nx", "33", "--ny", "32"],
    ["zlocus", "--nx", "65", "--ny", "64"],
    ["deform", "--nx", "65", "--ny", "64"],
    ["flow", "--nx", "65", "--ny", "64", "--t", "1e-3"],
], ids=lambda argv: argv[0])
def test_reports_carry_the_envelope_and_repeat_bytewise(tmp_path, argv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        assert run([*argv, "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = load(a)
    assert (rep["schema"], rep["command"]) == ("minsurf-report/1", argv[0])


lanes = pytest.mark.skipif(
    not hasattr(os, "fork") or cli._usable_cpus() < 2,
    reason="verify runs its lanes on 2 or more usable CPUs")

SRC = str(Path(cli.__file__).resolve().parents[1])


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def stand_in(action=None):
    def criterion():
        if action is not None:
            action()
        pools = {var: os.environ.get(var) for var in cli._POOL_VARS}
        return True, {"pid": os.getpid(), "pools": pools}
    return criterion


def raising(e):
    def action():
        raise e
    return action


@pytest.fixture
def stand_ins(monkeypatch):
    """Replace the registry by four stand-in criteria, alternating lanes;
    returns a function that sets what each one does."""
    names = ["01-p", "02-c", "03-p", "04-c"]
    monkeypatch.setattr(acceptance, "LANES", {"chart": ("02-c", "04-c"),
                                              "profile": ("01-p", "03-p")})
    # _main(..., lanes=True) lowers the pool sizes in this process's
    # environment; setting them here lets monkeypatch restore them
    for var in cli._POOL_VARS:
        monkeypatch.setenv(var, "2")

    def install(actions=None):
        actions = actions or {}
        monkeypatch.setattr(acceptance, "REGISTRY", tuple(
            (n, stand_in(actions.get(n))) for n in names))
        return names
    return install


@lanes
class TestVerifyLanes:
    def test_profile_lane_runs_in_a_worker(self, stand_ins):
        names = stand_ins()
        results = cli._verify_in_lanes(names)
        no_child_left()
        assert [r.name for r in results] == names
        pids = {r.name: r.details["pid"] for r in results}
        assert pids["02-c"] == pids["04-c"] == os.getpid()
        assert pids["01-p"] == pids["03-p"] != os.getpid()

    def test_worker_error_is_raised_here(self, stand_ins):
        e = NewtonDiverged(12, 4.2e-3)
        names = stand_ins({"03-p": raising(e)})
        with pytest.raises(NewtonDiverged) as info:
            cli._verify_in_lanes(names)
        no_child_left()
        assert str(info.value) == str(e)
        assert (info.value.iterations, info.value.residual) == (12, 4.2e-3)

    @pytest.mark.parametrize("first", ["01-p", "02-c"])
    def test_first_error_in_registry_order_is_raised(self, stand_ins, first):
        # as in the serial run, whichever lane it falls in
        later = "04-c" if first == "01-p" else "03-p"
        names = stand_ins({first: raising(SingularMetric(first)),
                           later: raising(ValueError(later))})
        with pytest.raises(SingularMetric, match=first):
            cli._verify_in_lanes(names)
        no_child_left()

    def test_dead_worker_is_a_typed_failure(self, stand_ins):
        names = stand_ins({"01-p": lambda: os._exit(3)})
        with pytest.raises(WorkerFailure) as info:
            cli._verify_in_lanes(names)
        no_child_left()
        assert info.value.lane == "profile"
        assert os.waitstatus_to_exitcode(info.value.status) == 3

    def test_program_exits_1_on_a_dead_worker(self, stand_ins, monkeypatch,
                                              tmp_path, capsys):
        monkeypatch.delenv("MINSURF_THREADS", raising=False)
        stand_ins({"03-p": lambda: os._exit(3)})
        out = tmp_path / "v.json"
        assert cli._main(["verify", "--out", str(out)], lanes=True) == 1
        no_child_left()
        assert not out.exists()
        err = capsys.readouterr().err
        assert "lane 'profile'" in err and "wait status 768" in err

    def test_main_runs_every_criterion_here(self, stand_ins, tmp_path):
        stand_ins()
        out = tmp_path / "v.json"
        assert run(["verify", "--out", str(out)]) == 0
        assert gc.isenabled()
        pids = {c["details"]["pid"] for c in load(out)["criteria"]}
        assert pids == {os.getpid()}

    @pytest.mark.parametrize("cpus,preset,lowered", [
        (2, "2", "1"), (3, "2", "1"), (4, "8", "2"), (4, "1", "1"),
        (4, "0", "2"), (4, None, "2")])
    def test_each_lane_gets_its_share_of_blas_threads(
            self, stand_ins, monkeypatch, tmp_path, cpus, preset, lowered):
        # a larger value set beforehand is lowered, not kept
        stand_ins()
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        for var in cli._POOL_VARS:
            if preset is None:
                monkeypatch.delenv(var)
            else:
                monkeypatch.setenv(var, preset)
        out = tmp_path / "v.json"
        assert cli._main(["verify", "--out", str(out)], lanes=True) == 0
        no_child_left()
        details = [c["details"] for c in load(out)["criteria"]]
        assert len({d["pid"] for d in details}) == 2
        want = {var: lowered for var in cli._POOL_VARS}
        assert all(d["pools"] == want for d in details)

    def test_main_leaves_the_blas_threads_alone(self, stand_ins, tmp_path):
        stand_ins()
        before = dict(os.environ)
        out = tmp_path / "v.json"
        assert run(["verify", "--out", str(out)]) == 0
        assert dict(os.environ) == before
        details = [c["details"] for c in load(out)["criteria"]]
        assert all(d["pools"] == {var: "2" for var in cli._POOL_VARS}
                   for d in details)

    def test_reports_match_the_serial_run(self, tmp_path):
        # 06 is in the chart lane, 01 and 09 in the profile lane
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"v{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "minsurf.cli", "verify",
                 "--only", "01-ode-first-integral",
                 "--only", "06-rate-product-rule",
                 "--only", "09-moment-conditions", "--out", str(out)],
                env=dict(os.environ, MINSURF_THREADS=threads, PYTHONPATH=SRC),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


@pytest.mark.parametrize("argv,cpus,in_lanes", [
    (["verify"], 2, True),
    (["verify"], 1, False),
    (["verify", "--only", "03-pde-vs-ode-convergence",
      "--only", "06-rate-product-rule"], 2, True),
    (["verify", "--only", "01-ode-first-integral",
      "--only", "09-moment-conditions"], 2, False),
    (["verify", "--only", "bogus"], 2, False),
    (["flow", "--t", "1e-3"], 2, False),
])
def test_lanes_are_decided_from_the_arguments(monkeypatch, argv, cpus,
                                              in_lanes):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    args = cli._build_parser().parse_args(argv)
    assert cli._runs_in_lanes(args) is in_lanes


@pytest.mark.parametrize("argv", [
    ["verify", "--only", "01-ode-first-integral"],
    ["ode", "--v0", "0"],
])
def test_serial_program_leaves_the_blas_threads_alone(monkeypatch, tmp_path,
                                                      argv):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for var in cli._POOL_VARS:
        monkeypatch.setenv(var, "2")
    before = dict(os.environ)
    assert cli._main(argv + ["--out", str(tmp_path / "r.json")],
                     lanes=True) == 0
    assert dict(os.environ) == before


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # criterion 03 is pde.solve's MINRES; 06 puts the other lane in play.
    # The last run keeps two BLAS threads: serial runs lower nothing.
    runs = {"blas1": {"OPENBLAS_NUM_THREADS": "1"},
            "blas2": {"OPENBLAS_NUM_THREADS": "2"},
            "serial": {"MINSURF_THREADS": "1"},
            "serial-blas2": {"MINSURF_THREADS": "1",
                             "OPENBLAS_NUM_THREADS": "2"}}
    base = {k: v for k, v in os.environ.items()
            if k not in cli._POOL_VARS and k != "MINSURF_THREADS"}
    reports = {}
    for label, env in runs.items():
        out = tmp_path / f"{label}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "minsurf.cli", "verify",
             "--only", "03-pde-vs-ode-convergence",
             "--only", "06-rate-product-rule", "--out", str(out)],
            env=dict(base, PYTHONPATH=SRC, **env), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        reports[label] = out.read_bytes()
    assert len(set(reports.values())) == 1, sorted(reports)


def test_program_leaves_gc_off_and_the_heap_frozen(tmp_path):
    code = ("import gc, sys; from minsurf import cli; "
            "sys.argv = ['minsurf', 'ode', '--v0', '0', '--out', sys.argv[1]]; "
            "rc = cli.program(); "
            "print(rc, gc.isenabled(), gc.get_freeze_count() > 0)")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r.json")],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120)
    assert proc.stdout.split() == ["0", "False", "True"], proc.stderr


# every subcommand that computes, in one fresh interpreter; scipy is a
# test-only dependency, and numpy.random would load libcrypto for nothing
# (the CI workflow also runs this test on its own)
NO_SCIPY = """
import os, sys
from minsurf.cli import main
for argv in (["verify"],
             ["solve", "--width", "0.8", "--nx", "33", "--ny", "32"],
             ["flow", "--nx", "33", "--ny", "32", "--t", "1e-3"],
             ["zlocus"], ["deform"]):
    out = os.path.join(sys.argv[1], argv[0] + ".json")
    assert main([*argv, "--out", out]) == 0, argv
    assert "numpy.random" not in sys.modules, argv
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not scipy, scipy
"""


def test_no_subcommand_imports_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_loads_no_numpy():
    # the console script caps the BLAS pools before numpy loads; the
    # package level holds the error classes only
    code = ("import sys, minsurf; assert 'numpy' not in sys.modules; "
            "assert minsurf.ClosedZeroCurve.exit_code == 64")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


class TestUsage:
    def test_no_arguments(self):
        assert run([]) == 64

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 64

    @pytest.mark.parametrize("argv", [
        ["solve", "--width", "1", "--nx", "33", "--ny", "32", "--period",
         "inf"],
        ["solve", "--width", "1", "--nx", "33", "--ny", "32", "--tol", "inf"],
        ["solve", "--width", "1", "--v0", "nan"],
        ["ode", "--v0", "nan"],
        ["flow", "--t", "inf"],
        ["flow", "--t", "1e-3", "--bump-center", "nan,0.5"],
    ])
    def test_non_finite_numbers_are_refused_at_parse_time(
            self, argv, tmp_path, capsys, recwarn):
        out = tmp_path / "r.json"
        assert run(argv + ["--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "must be finite" in err
        assert not out.exists()
        assert not [w for w in recwarn if w.category is RuntimeWarning]
