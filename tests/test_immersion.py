"""Frame integration into the hyperboloid model and the normal flow."""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import RectBivariateSpline

from minsurf import fields
from minsurf.fields import GridSpec, OperatorField, ScalarField, diff1
from minsurf import immersion as imm
from minsurf import invariant_ode as iode
from minsurf import pde
from minsurf.geometry import SurfaceData, embedding_data
from minsurf.errors import ConstraintDrift, DegenerateTangents, SingularMetric
from minsurf.kernels import spline_slopes


def geodesic_plane_grid(nx=17, ny=13):
    """Hand-built grid inside the plane x3 = 0; totally geodesic."""
    spec = GridSpec(nx=nx, ny=ny, hx=0.5 / (nx - 1), hy=0.5 / (ny - 1),
                    origin=(1.0, 0.0), periodic_y=False)
    X, Y = spec.nodes()
    sigma = np.stack([np.cosh(X) * np.cosh(Y), np.sinh(X) * np.cosh(Y),
                      np.sinh(Y), np.zeros_like(X)], axis=-1)
    nu = np.zeros_like(sigma)
    nu[..., 3] = 1.0
    return imm.ImmersionGrid(spec=spec, sigma=sigma, nu=nu)


ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def boost(rapidity: float, axis: int = 1) -> np.ndarray:
    """Lorentz boost mixing t with spatial axis (1, 2 or 3)."""
    L = np.eye(4)
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    L[0, 0] = ch
    L[0, axis] = sh
    L[axis, 0] = sh
    L[axis, axis] = ch
    return L


def rotation(angle: float, i: int = 1, j: int = 2) -> np.ndarray:
    """Spatial rotation in the (i, j) plane, i, j in {1, 2, 3}."""
    R = np.eye(4)
    c, s = np.cos(angle), np.sin(angle)
    R[i, i] = c
    R[j, j] = c
    R[i, j] = -s
    R[j, i] = s
    return R


def apply_isometry(g: imm.ImmersionGrid, L: np.ndarray) -> imm.ImmersionGrid:
    """Apply a time-orientation-preserving ambient isometry to the samples."""
    assert np.allclose(L.T @ ETA @ L, ETA, atol=1e-12)
    sigma = np.einsum("ab,ijb->ija", L, g.sigma)
    nu = np.einsum("ab,ijb->ija", L, g.nu)
    return imm.ImmersionGrid(spec=g.spec, sigma=sigma, nu=nu)


def periodic_chart(sol, n):
    spec = GridSpec.strip(1.0, n + 1, n)
    return iode.to_surface(sol, spec)


def solved_rectangle(k=1):
    """Dirichlet solution on a 0.8 x 0.6 rectangle with (32k+1, 24k+1) nodes."""
    return solved_rectangle_on(32 * k + 1, 24 * k + 1)


def solved_rectangle_on(nx, ny):
    """Dirichlet solution on a 0.8 x 0.6 rectangle with nx x ny nodes."""
    spec = GridSpec(nx=nx, ny=ny, hx=0.8 / (nx - 1), hy=0.6 / (ny - 1),
                    origin=(-0.4, -0.3), periodic_y=False)
    X, Y = spec.nodes()
    data = ScalarField(spec, 0.2 + 0.1 * np.cos(3 * X + 2 * Y))
    return pde.solve(pde.PdeProblem(spec=spec, boundary=data))


def stages(ts, k):
    """The points of k RK4 substeps per cell of ts: substep nodes and the
    midpoints between them."""
    return np.interp(np.arange(2 * k * (ts.size - 1) + 1) / (2 * k),
                     np.arange(ts.size), ts)


class TestCoeffTables:
    """Each sweep's (u, u_m, u_c) table equals pointwise spline evaluation
    at the substep nodes and midpoints of its grid lines."""

    @staticmethod
    def pointwise(s, xs, ys):
        # the fit as the sweeps need it: three wrap columns on each side of
        # a periodic chart, and every point mapped into the base period
        spec, u, yk = s.spec, s.u.values, s.spec.ys
        if spec.periodic_y:
            yk = spec.origin[1] + spec.hy * np.arange(-3, spec.ny + 3)
            u = np.concatenate([u[:, -3:], u, u[:, :3]], axis=1)
        sp = RectBivariateSpline(spec.xs, yk, u, kx=min(3, spec.nx - 1),
                                 ky=min(3, yk.size - 1))
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        if spec.periodic_y:
            Y = spec.origin[1] + np.mod(Y - spec.origin[1], spec.period_y)
        return [sp.ev(X, Y, dx=dx, dy=dy)
                for dx, dy in ((0, 0), (1, 0), (0, 1))]

    def worst_errors(self, s, order):
        """(largest error, max(1, largest value)) of each table of
        `order`'s line and sheet sweeps, and their substep counts."""
        spec = s.spec
        xs, ys = spec.xs, spec.ys
        i0, j0 = (spec.nx - 1) // 2, spec.ny // 2
        (k_line, line), (k_sheet, sheet) = imm._coeff_tables(s, order)
        # each sweep's grid, and whether it marches along y
        if order == "rows_then_columns":
            grids = ((stages(xs, k_line), ys[j0:j0 + 1], False),
                     (xs, stages(ys, k_sheet), True))
        else:
            grids = ((xs[i0:i0 + 1], stages(ys, k_line), True),
                     (stages(xs, k_sheet), ys, False))
        errs = []
        for table, (gx, gy, along_y) in zip((line, sheet), grids):
            u, u_x, u_y = self.pointwise(s, gx, gy)
            # marched axis first, its derivative second
            want = [u.T, u_y.T, u_x.T] if along_y else [u, u_x, u_y]
            for got, w in zip(table, want):
                assert got.size == w.size
                errs.append((np.max(np.abs(got.reshape(w.shape) - w)),
                             max(1.0, float(np.max(np.abs(w))))))
        return errs, (k_line, k_sheet)

    @pytest.mark.parametrize("case", ["periodic", "rectangle"])
    def test_matches_spline_at_nodes_and_midpoints(self, chart32, case):
        s = chart32 if case == "periodic" else solved_rectangle()
        for order in ("rows_then_columns", "columns_then_rows"):
            errs, ks = self.worst_errors(s, order)
            assert ks == (1, 1)
            assert max(err for err, _ in errs) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(nx=st.integers(3, 9), ny=st.integers(3, 9), periodic=st.booleans(),
           order=st.sampled_from(["rows_then_columns", "columns_then_rows"]),
           data=st.data())
    def test_matches_fitpack_on_small_grids(self, nx, ny, periodic, order,
                                            data):
        # 3-node axes fit a parabola; periodic charts fit over wrap columns;
        # steep u takes several substeps per cell
        spec = GridSpec(nx=nx, ny=ny, hx=0.7 / (nx - 1), hy=0.4 / ny,
                        origin=(-0.3, 0.1), periodic_y=periodic)
        u = data.draw(arrays(float, (nx, ny),
                             elements=st.floats(-1.0, 1.0)))
        s = SurfaceData(ScalarField(spec, u))
        errs, _ = self.worst_errors(s, order)
        assert all(err <= 1e-12 * scale for err, scale in errs)

    @pytest.mark.parametrize("order", ["rows_then_columns",
                                       "columns_then_rows"])
    def test_spline_evaluations_do_not_grow_with_the_grid(
            self, sol0, order, monkeypatch):
        # one value pass and one derivative pass per sweep table
        calls = []
        real = imm.hermite

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(imm, "hermite", counted)
        counts = []
        for n in (16, 64):
            s = periodic_chart(sol0, n)
            calls.clear()
            imm.immerse(s, order=order)
            counts.append(len(calls))
        assert counts == [4, 4]

    def test_immerse_peak_memory(self, sol0):
        # the tables of both sweeps, each sweep's stacked halves and the
        # 4.2 MB output peak near 12.6 MB; the spline arrays are freed
        # before the sweeps start
        s = periodic_chart(sol0, 256)
        tracemalloc.start()
        try:
            imm.immerse(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13.5 * 2 ** 20


class TestImmerse:
    def test_constraints_hold(self, imm64):
        assert imm64.constraint_drift() <= 1e-9

    def test_row_speed_matches_profile(self, sol0, imm64):
        # first-fundamental-form speed of a coordinate row is e^{g(|x|)}
        spec = imm64.spec
        sx = (imm64.sigma[1:, :, :] - imm64.sigma[:-1, :, :]) / spec.hx
        speed = np.sqrt(imm.minkowski_dot(sx, sx))
        mid = (spec.xs[1:] + spec.xs[:-1]) / 2
        pred = np.exp(np.asarray(sol0.g_at(np.abs(mid))))[:, None]
        rel = np.max(np.abs(speed - pred) / pred)
        assert rel <= 3.0 * spec.hx ** 2

    def test_round_trip_second_order(self, chart32, chart64, imm32, imm64):
        sups = {}
        for s, g, n in ((chart32, imm32, 32), (chart64, imm64, 64)):
            Ie, IIe, Be = embedding_data(s)
            Ir, IIr, Br = imm.forms_from_immersion(g)
            sups[n] = max((Ie - Ir).sup(interior_only=True),
                          (IIe - IIr).sup(interior_only=True),
                          (Be - Br).sup(interior_only=True))
        assert 3.0 <= sups[32] / sups[64] <= 5.0

    def test_axis_shape_operator(self, imm64):
        # on the u = 0 axis the shape operator is diag(1, -1) up to O(h^2)
        _, _, B = imm.forms_from_immersion(imm64)
        i0 = 32  # x = 0 column of the 65-node axis
        tgt = np.array([[1.0, 0.0], [0.0, -1.0]])
        dev = np.max(np.abs(B.mat[i0, 1:-1] - tgt))
        assert dev <= 30.0 / 64 ** 2

    def test_path_independence_at_truncation_level(self, chart64, imm64):
        alt = imm.immerse(chart64, order="columns_then_rows")
        assert np.max(np.abs(alt.sigma - imm64.sigma)) <= 1e-4

    def test_sweep_orders_agree_on_a_rectangle(self):
        # the gap between the two routes is the O(h^2) truncation of the
        # chart, so it falls about 4x per grid doubling
        gaps = []
        for k in (1, 2):
            s = solved_rectangle(k)
            a = imm.immerse(s)
            b = imm.immerse(s, order="columns_then_rows")
            assert a.constraint_drift() <= 1e-9
            assert b.constraint_drift() <= 1e-9
            gaps.append(np.max(np.abs(a.sigma - b.sigma)))
        assert gaps[0] <= 5e-3
        assert 3.0 <= gaps[0] / gaps[1] <= 5.0

    def test_sweeps_are_logged(self, chart32, caplog):
        with caplog.at_level(logging.DEBUG, logger="minsurf.immersion"):
            g = imm.immerse(chart32)
            imm.normal_flow(g, ScalarField.zeros(g.spec), 0.1)
        recs = [r.args for r in caplog.records
                if r.name == "minsurf.immersion"]
        assert all(r.levelno == logging.DEBUG for r in caplog.records
                   if r.name == "minsurf.immersion")
        (rel,), line, sheet, (gram_min,) = recs
        assert 0 < rel < 1e-2
        assert line[0] == "line" and sheet[0] == "sheet"
        assert 0 < line[1] <= 1e-6 and 0 < sheet[1] <= 1e-6
        # h e^u is at most 0.04 here: one RK4 step per cell
        assert line[2] == sheet[2] == 1
        assert gram_min > 0

    def test_layer_is_silent_by_default(self, chart32, capfd):
        log = logging.getLogger("minsurf.immersion")
        assert not log.handlers and not log.isEnabledFor(logging.DEBUG)
        g = imm.immerse(chart32)
        imm.normal_flow(g, ScalarField.zeros(g.spec), 0.1)
        assert capfd.readouterr() == ("", "")

    def test_frame_starts_at_the_centre_node(self, chart32, monkeypatch):
        starts = []
        real = imm._sweep

        def spy(frame0, ts, i0, *args, **kwargs):
            starts.append((np.array(frame0), i0))
            return real(frame0, ts, i0, *args, **kwargs)

        monkeypatch.setattr(imm, "_sweep", spy)
        g = imm.immerse(chart32)
        spec = chart32.spec
        i0, j0 = (spec.nx - 1) // 2, spec.ny // 2
        assert (i0, j0) == (16, 16)
        e = np.exp(chart32.u.values[i0, j0])
        (base, line_i0), (_, sheet_j0) = starts
        assert (line_i0, sheet_j0) == (i0, j0)
        assert np.array_equal(base, np.diag([1.0, e, e, 1.0]))
        assert np.array_equal(g.sigma[i0, j0], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(g.nu[i0, j0], [0.0, 0.0, 0.0, 1.0])

    def test_lockstep_backward_half_matches_a_negative_step_march(self, chart64,
                                                                  imm64):
        # the line sweep's backward half, marched alone from the centre down
        # to node 0 on negative steps; stacking with the forward half changes
        # only how BLAS rounds the Minkowski dots
        spec = chart64.spec
        xs = spec.xs
        i0, j0 = (spec.nx - 1) // 2, spec.ny // 2
        # the row's table from its own fit: the y-slopes of the periodic
        # spline over three wrap columns, then the x-slopes along the row
        u = chart64.u.values[:, np.r_[-3:spec.ny, :3]]
        yk = spec.origin[1] + spec.hy * np.arange(-3, spec.ny + 3)
        row, row_y = u[:, j0 + 3], spline_slopes(yk, u.T)[j0 + 3]
        k, line = imm._line_tables(xs, xs, row, row_y, spline_slopes(xs, row),
                                   spline_slopes(xs, row_y))
        assert k == 1
        e = np.exp(chart64.u.values[i0, j0])
        base = np.diag([1.0, e, e, 1.0])
        out = np.empty((i0 + 1, 4, 4))
        out[0] = base
        imm._march(base[:, None], xs[i0::-1, None],
                   tuple(c[2 * i0::-1] for c in line), [out], k, imm._rhs_x,
                   "line")
        assert np.max(np.abs(out[:, 0] - imm64.sigma[i0::-1, j0])) <= 1e-14
        assert np.max(np.abs(out[:, 3] - imm64.nu[i0::-1, j0])) <= 1e-14

    @pytest.mark.parametrize("order", ["rows_then_columns",
                                       "columns_then_rows"])
    @pytest.mark.parametrize("shape", [(32, 25), (33, 24)])
    def test_halves_one_step_apart_reach_every_node(self, shape, order,
                                                    caplog):
        # an even nx or ny puts the centre off the middle, so one half of
        # that sweep takes its last step alone; every node still holds a
        # marched frame: unit-speed coordinate lines in the metric e^{2u}
        s = solved_rectangle_on(*shape)
        with caplog.at_level(logging.DEBUG, logger="minsurf.immersion"):
            g = imm.immerse(s, order=order)
        sweeps = [r.args[0] for r in caplog.records
                  if r.name == "minsurf.immersion" and len(r.args) == 3]
        assert sweeps == ["line", "sheet"]
        assert g.constraint_drift() <= 1e-9
        spec, eu = s.spec, np.exp(s.u.values)
        for axis, h in ((0, spec.hx), (1, spec.hy)):
            d = np.diff(g.sigma, axis=axis) / h
            speed = np.sqrt(imm.minkowski_dot(d, d))
            mid = np.sqrt(eu[:-1] * eu[1:] if axis == 0
                          else eu[:, :-1] * eu[:, 1:])
            assert np.max(np.abs(speed / mid - 1.0)) <= 1e-2

    def test_backward_half_failure_names_the_true_node(self, sol0,
                                                       monkeypatch, caplog):
        # off-centre chart: x runs over [-0.8, 0.2], so the line sweep's
        # backward half (x < -0.3) climbs to the largest u and drifts most,
        # at its last node; a reflected coordinate would read +0.8
        spec = GridSpec(nx=65, ny=64, hx=1 / 64, hy=1 / 64,
                        origin=(-0.8, 0.0), periodic_y=True)
        s = iode.to_surface(sol0, spec)
        with caplog.at_level(logging.DEBUG, logger="minsurf.immersion"):
            imm.immerse(s)
        drift = {r.args[0]: r.args[1] for r in caplog.records
                 if r.name == "minsurf.immersion" and len(r.args) == 3}
        monkeypatch.setattr(imm, "_DRIFT_HARD", 0.9 * drift["line"])
        with pytest.raises(ConstraintDrift,
                           match=r"line sweep at t = -0\.8\)") as exc:
            imm.immerse(s)
        assert 0.9 * drift["line"] < exc.value.drift <= drift["line"]

    def test_centre_start_recovers_forms_within_budget(self, sol0):
        # starting at the hyperboloid's vertex keeps ambient coordinates,
        # and so the O(h^2) error of form recovery, small: 9.2e-5 here,
        # against 2.6e-4 for a frame started at the chart's first node
        s = periodic_chart(sol0, 256)
        got = imm.forms_from_immersion(imm.immerse(s))
        err = max((a - b).sup(interior_only=True)
                  for a, b in zip(got, embedding_data(s)))
        assert err <= 1.2e-4

    def test_rejects_unknown_order(self, chart32):
        with pytest.raises(ValueError, match="order"):
            imm.immerse(chart32, order="diagonal")

    @pytest.mark.parametrize("order", ["rows_then_columns",
                                       "columns_then_rows"])
    def test_drift_past_hard_limit_raises(self, chart32, caplog, monkeypatch,
                                          order):
        with caplog.at_level(logging.DEBUG, logger="minsurf.immersion"):
            imm.immerse(chart32, order=order)
        drifts = {r.args[0]: r.args[1] for r in caplog.records
                  if r.name == "minsurf.immersion" and len(r.args) == 3}
        sweep = max(drifts, key=drifts.get)
        monkeypatch.setattr(imm, "_DRIFT_HARD", drifts[sweep] / 2)
        with pytest.raises(ConstraintDrift, match=f"{sweep} sweep") as exc:
            imm.immerse(chart32, order=order)
        assert drifts[sweep] / 2 < exc.value.drift <= drifts[sweep]

    def test_substeps_agree_with_one_step_per_cell_to_fourth_order(
            self, sol0, caplog, monkeypatch):
        # _STEP_MAX lowered below max h e^u, so both sweeps take 2 RK4
        # substeps per cell; the gap to 1 step is the O(h^4) RK4 error
        gaps = []
        for n in (32, 64):
            s = periodic_chart(sol0, n)
            one = imm.immerse(s)
            with monkeypatch.context() as mp:
                mp.setattr(imm, "_STEP_MAX",
                           0.75 * float(np.exp(s.u.values.max())) / n)
                with caplog.at_level(logging.DEBUG, logger="minsurf.immersion"):
                    caplog.clear()
                    two = imm.immerse(s)
            ks = [r.args[2] for r in caplog.records
                  if r.name == "minsurf.immersion" and len(r.args) == 3]
            assert ks == [2, 2]
            assert two.constraint_drift() <= 1e-9
            gaps.append(np.max(np.abs(two.sigma - one.sigma)))
        assert 0 < gaps[0] <= 1e-7
        assert 12.0 <= gaps[0] / gaps[1] <= 20.0

    def test_incompatible_chart_raises(self):
        spec = GridSpec.strip(1.0, 65, 64)
        junk = SurfaceData(ScalarField.from_function(
            spec, lambda x, y: 3.0 * np.sin(40 * x) * np.cos(31 * y)))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ConstraintDrift):
                imm.immerse(junk)


class TestNormalFlow:
    def test_zero_time_is_identity(self, imm64):
        out = imm.normal_flow(imm64, ScalarField.zeros(imm64.spec), 0.0)
        assert np.max(np.abs(out.sigma - imm64.sigma)) <= 1e-14

    def test_position_constraint_after_flow(self, imm64):
        f = ScalarField.from_function(imm64.spec,
                                      lambda x, y: 0.2 + 0.1 * np.sin(2 * np.pi * y))
        out = imm.normal_flow(imm64, f, 0.5)
        assert out.constraint_drift() <= 1e-12

    def test_equidistant_surface_relation(self, imm64):
        # constant f: flowed shape operator is the parallel-surface image
        # (B - tanh a)(1 - tanh a B)^{-1} of the original one
        spec = imm64.spec
        a = 0.3
        fc = ScalarField(spec, np.full(spec.shape, a))
        flowed = imm.normal_flow(imm64, fc, 1.0)
        _, _, B0 = imm.forms_from_immersion(imm64)
        _, _, B1 = imm.forms_from_immersion(flowed)
        th = np.tanh(a)
        eye = OperatorField.identity(spec)
        pred = (B0 - eye * th) @ (eye - B0 * th).inverse()
        dev = (B1 - pred).sup(interior_only=True)
        assert dev <= 2.0 / 64 ** 2

    def test_degenerate_tangents(self):
        # constant in x: the "surface" is a curve, so the x-tangent vanishes
        g = geodesic_plane_grid()
        sigma = np.broadcast_to(g.sigma[:1], g.sigma.shape).copy()
        nu = np.broadcast_to(g.nu[:1], g.nu.shape).copy()
        broken = imm.ImmersionGrid(spec=g.spec, sigma=sigma, nu=nu)
        with pytest.raises(DegenerateTangents):
            imm.normal_flow(broken, ScalarField.zeros(g.spec), 0.0)

    def test_spec_mismatch(self, imm64, flat_chart):
        with pytest.raises(ValueError):
            imm.normal_flow(imm64, ScalarField.zeros(flat_chart.spec), 0.1)

    @pytest.mark.parametrize("t", [1e-2, -1e-2, 1e-4])
    def test_flowed_normal_is_normal_to_flowed_tangents(self, imm64, t):
        # the normal is not Gram-projected against the tangents: the cross
        # product must leave it orthogonal to them by itself
        spec = imm64.spec
        f = ScalarField.from_function(
            spec, lambda x, y: 0.2 + 0.1 * np.sin(2 * np.pi * y) * np.cos(x))
        out = imm.normal_flow(imm64, f, t)
        assert out.constraint_drift() <= 1e-12
        for axis, h in ((0, spec.hx), (1, spec.hy)):
            tan = np.gradient(out.sigma, h, axis=axis, edge_order=2)
            rel = (np.abs(imm.minkowski_dot(out.nu, tan))
                   / np.sqrt(imm.minkowski_dot(tan, tan)))
            assert rel.max() <= 1e-11


def normal_by_det(a, b, c):
    """Minors of (a; b; c) by np.linalg.det, index raised with eta."""
    M = np.stack([a, b, c], axis=-2)
    w = [(-1.0) ** mu * np.linalg.det(np.delete(M, mu, axis=-1))
         for mu in range(4)]
    return np.stack(w, axis=-1) * np.array([-1.0, 1.0, 1.0, 1.0])


# entries of size 0 or above 1e-6, so that the error scale cannot underflow
entries = st.floats(-10.0, 10.0).map(lambda v: v if abs(v) >= 1e-6 else 0.0)


class TestMinkowskiDot:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_einsum_definition(self, data):
        # leading axes of any length, including none (single 4-vectors)
        shape = (*data.draw(st.lists(st.integers(1, 5), max_size=3)), 4)
        a, b = (data.draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)))
                for _ in range(2))
        ref = np.einsum("...i,...i->...", a * np.array([-1.0, 1.0, 1.0, 1.0]),
                        b)
        got = imm.minkowski_dot(a, b)
        assert np.shape(got) == np.shape(ref)
        # equal up to the order of a 4-term sum
        bound = 4 * np.finfo(float).eps * np.sum(np.abs(a * b), axis=-1)
        assert np.all(np.abs(got - ref) <= bound)


class TestMinkowskiNormal:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_determinant_definition(self, data):
        n = data.draw(st.integers(1, 5))
        a, b, c = (data.draw(arrays(float, (n, 4), elements=entries))
                   for _ in range(3))
        w = imm.minkowski_normal(a, b, c)
        norms = [np.linalg.norm(v, axis=-1) for v in (a, b, c)]
        scale = norms[0] * norms[1] * norms[2]
        err = np.linalg.norm(w - normal_by_det(a, b, c), axis=-1)
        assert np.all(err <= 1e-12 * scale)
        for v, nv in zip((a, b, c), norms):
            assert np.all(np.abs(imm.minkowski_dot(w, v)) <= 1e-12 * scale * nv)


class TestFormsFromImmersion:
    def test_totally_geodesic_plane(self):
        g = geodesic_plane_grid()
        I, II, B = imm.forms_from_immersion(g)
        assert II.sup(interior_only=True) <= 1e-12
        assert B.sup(interior_only=True) <= 1e-12
        assert np.all(I.det()[g.spec.interior_mask()] > 0)

    def test_isometry_invariance(self, imm64):
        L = boost(0.3, axis=1) @ rotation(0.7, 1, 2)
        moved = apply_isometry(imm64, L)
        IA, IIA, BA = imm.forms_from_immersion(imm64)
        IB, IIB, BB = imm.forms_from_immersion(moved)
        assert (IA - IB).sup() <= 1e-12
        assert (IIA - IIB).sup() <= 1e-12
        assert (BA - BB).sup() <= 1e-12


    @pytest.mark.parametrize("t", [0.0, 1e-2])
    def test_shape_operator_is_inverse_metric_times_second_form(self, imm64, t):
        f = ScalarField.from_function(imm64.spec, lambda x, y: np.cos(x))
        g = imm.normal_flow(imm64, f, t) if t else imm64
        I, II, B = imm.forms_from_immersion(g)
        ref = (I.inverse() @ II).mat
        assert np.max(np.abs(B.mat - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_degenerate_metric_raises(self):
        # constant in y: sigma_y = 0, so I_11 > 0 but det I = 0
        g = geodesic_plane_grid()
        sigma = np.broadcast_to(g.sigma[:, :1], g.sigma.shape).copy()
        nu = np.broadcast_to(g.nu[:, :1], g.nu.shape).copy()
        flat = imm.ImmersionGrid(spec=g.spec, sigma=sigma, nu=nu)
        with pytest.raises(SingularMetric):
            imm.forms_from_immersion(flat)


class TestSerialization:
    def test_csv_round_trip(self, imm32, tmp_path):
        p = tmp_path / "g.csv"
        imm32.to_csv(p)
        back = imm.ImmersionGrid.from_csv(p)
        assert back.spec == imm32.spec
        assert np.array_equal(back.sigma, imm32.sigma)
        assert np.array_equal(back.nu, imm32.nu)

    def test_rejects_header_tampering(self, imm32, tmp_path):
        p = tmp_path / "g.csv"
        imm32.to_csv(p)
        lines = p.read_text().splitlines()
        lines[1] = lines[1].replace("sigma_t", "sigma_q")
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="column"):
            imm.ImmersionGrid.from_csv(p)

    def test_rejects_short_file(self, imm32, tmp_path):
        p = tmp_path / "g.csv"
        imm32.to_csv(p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match=r"g\.csv: .* rows"):
            imm.ImmersionGrid.from_csv(p)


class TestIsometries:
    def test_boost_preserves_minkowski_form(self):
        L = boost(0.4, axis=2)
        assert np.allclose(L.T @ ETA @ L, ETA, atol=1e-14)

    def test_rotation_preserves_minkowski_form(self):
        L = rotation(1.1, 2, 3)
        assert np.allclose(L.T @ ETA @ L, ETA, atol=1e-14)


# ---------------------------------------------------------------------------
# the row-slab kernels against the whole-grid passes they replace


def whole_grid_normal_flow(g, f, t):
    """Reference: normal_flow as one whole-grid pass; (sigma', nu')."""
    spec = g.spec
    a = t * f.values[..., None]
    ch, sh = np.cosh(a), np.sinh(a)
    sigma1 = ch * g.sigma + sh * g.nu
    tx = diff1(sigma1, spec.hx, axis=0)
    ty = diff1(sigma1, spec.hy, axis=1)
    g11 = imm.minkowski_dot(tx, tx)
    g12 = imm.minkowski_dot(tx, ty)
    g22 = imm.minkowski_dot(ty, ty)
    gram_min = float((g11 * g22 - g12 * g12).min())
    if np.any(g11 <= 0) or gram_min <= 0:
        raise DegenerateTangents(f"min tangent Gram determinant {gram_min:.3e}")
    sigma1 /= np.sqrt(-imm.minkowski_dot(sigma1, sigma1))[..., None]
    n = imm.minkowski_normal(sigma1, tx, ty)
    n += imm.minkowski_dot(n, sigma1)[..., None] * sigma1
    nn = imm.minkowski_dot(n, n)
    if np.any(nn <= 0):
        raise DegenerateTangents("recovered normal is not spacelike")
    orient = np.sign(imm.minkowski_dot(n, sh * g.sigma + ch * g.nu))
    if np.any(orient == 0):
        raise DegenerateTangents("recovered normal orthogonal to transported normal")
    n *= (orient / np.sqrt(nn))[..., None]
    return sigma1, n


def whole_grid_forms(g):
    """Reference: forms_from_immersion as one whole-grid pass; the (nx, ny,
    2, 2) arrays of I, II and B."""
    spec = g.spec
    sx = diff1(g.sigma, spec.hx, axis=0)
    sy = diff1(g.sigma, spec.hy, axis=1)
    g12 = imm.minkowski_dot(sx, sy)
    I = OperatorField.from_components(
        spec, imm.minkowski_dot(sx, sx), g12, g12, imm.minkowski_dot(sy, sy))
    det = I.det()
    if np.any(I.a11 <= 0) or np.any(det <= 0):
        raise SingularMetric("recovered metric not positive definite "
                             f"(min det {float(det.min()):.3e})")
    dnu = (diff1(g.nu, spec.hx, axis=0), diff1(g.nu, spec.hy, axis=1))
    ii = np.empty((*spec.shape, 2, 2))
    for r, c in np.ndindex(2, 2):
        ii[..., r, c] = -imm.minkowski_dot(dnu[r], (sx, sy)[c])
    i, b = I.mat, np.empty_like(ii)
    for r, c in np.ndindex(2, 2):
        s = 1 - r
        b[..., r, c] = i[..., s, s] * ii[..., r, c] - i[..., r, s] * ii[..., s, c]
    b /= det[..., None, None]
    return I.mat, ii, b


def smooth_immersion(spec, rng):
    """A graph over the plane x3 = 0, lifted to H^3, with a little noise,
    and unit normals near E3; not minimal, but every kernel check passes."""
    X, Y = spec.nodes()
    p = np.stack([X, Y, 0.3 * np.sin(2 * X + Y)], axis=-1)
    p += 1e-3 * rng.uniform(-1.0, 1.0, p.shape)
    sigma = np.concatenate([np.sqrt(1.0 + np.sum(p * p, -1))[..., None], p], -1)
    nu = np.zeros_like(sigma)
    nu[..., 3] = 1.0
    nu += imm.minkowski_dot(nu, sigma)[..., None] * sigma
    nu /= np.sqrt(imm.minkowski_dot(nu, nu))[..., None]
    return imm.ImmersionGrid(spec, sigma, nu)


def bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def broken_plane_grid():
    """17 x 13 geodesic plane grid that fails every kernel check after its
    first slab of three rows: sigma is constant in x over rows 5-8, so rows
    6 and 7 have zero x-tangents and zero Gram determinant, and node (13, 6)
    is moved far out, so that chords through it span timelike planes and
    the grid's minimum determinant, -356.5, falls in a later slab."""
    g = geodesic_plane_grid()
    sigma = g.sigma.copy()
    sigma[5:9] = sigma[5]
    sigma[13, 6] = [np.cosh(3.0), np.sinh(3.0), 0.0, 0.0]
    return imm.ImmersionGrid(spec=g.spec, sigma=sigma, nu=g.nu)


@pytest.fixture(scope="module")
def imm256(sol0):
    return imm.immerse(periodic_chart(sol0, 256))


class TestRowSlabs:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), nx=st.integers(3, 70), ny=st.integers(3, 40),
           periodic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           t=st.sampled_from([1e-4, 1e-2, -1e-2, 0.2]))
    def test_kernels_match_the_whole_grid_pass_bit_for_bit(
            self, data, nx, ny, periodic, seed, t):
        # one slab, one-row slabs, tails of one and two rows, and any other
        # slab height; the constant is a node count, so add a partial row
        step = data.draw(st.sampled_from(sorted({1, 2, max(1, nx - 2),
                                                 max(1, nx - 1), nx, nx + 3}))
                         | st.integers(1, nx), label="rows per slab")
        spec = GridSpec(nx=nx, ny=ny, hx=0.8 / (nx - 1), hy=0.6 / ny,
                        origin=(-0.4, -0.3), periodic_y=periodic)
        rng = np.random.default_rng(seed)
        g = smooth_immersion(spec, rng)
        X, Y = spec.nodes()
        f = ScalarField(spec, np.cos(X + 2 * Y)
                        + 1e-2 * rng.uniform(-1.0, 1.0, spec.shape))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(imm, "_SLAB_NODES", step * ny + int(rng.integers(ny)))
            got = imm.normal_flow(g, f, t)
            forms = imm.forms_from_immersion(got)
        assert bits(got.sigma, got.nu) == bits(*whole_grid_normal_flow(g, f, t))
        assert bits(*(m.mat for m in forms)) == bits(*whole_grid_forms(got))

    def test_default_slabs_match_at_257x256(self, imm256):
        # 32-row slabs, and a one-row tail slab at the last row
        spec = imm256.spec
        assert imm._SLAB_NODES // spec.ny == 32 and spec.nx % 32 == 1
        f = ScalarField.from_function(spec, lambda x, y: np.cos(x) * np.sin(
            2 * np.pi * y))
        got = imm.normal_flow(imm256, f, 1e-2)
        assert bits(got.sigma, got.nu) == bits(
            *whole_grid_normal_flow(imm256, f, 1e-2))
        forms = imm.forms_from_immersion(got)
        assert bits(*(m.mat for m in forms)) == bits(*whole_grid_forms(got))

    def test_outputs_are_adopted_not_copied(self, imm64, monkeypatch):
        adopted = []
        real = imm._as_grid_array

        def spy(values, shape, name):
            a = real(values, shape, name)
            adopted.append(a is values)
            return a

        # ImmersionGrid and OperatorField each validate through their own
        # module's name for it
        f = ScalarField.zeros(imm64.spec)
        monkeypatch.setattr(imm, "_as_grid_array", spy)
        monkeypatch.setattr(fields, "_as_grid_array", spy)
        imm.forms_from_immersion(imm.normal_flow(imm64, f, 1e-3))
        assert adopted == [True] * 5

    def test_degenerate_tangents_past_the_first_slab(self, monkeypatch):
        g = broken_plane_grid()
        f = ScalarField.zeros(g.spec)
        monkeypatch.setattr(imm, "_SLAB_NODES", 3 * g.spec.ny)
        with pytest.raises(DegenerateTangents) as ref:
            whole_grid_normal_flow(g, f, 0.0)
        with pytest.raises(DegenerateTangents) as got:
            imm.normal_flow(g, f, 0.0)
        assert str(got.value) == str(ref.value)
        assert str(got.value) == "min tangent Gram determinant -3.565e+02"

    def test_singular_metric_past_the_first_slab(self, monkeypatch):
        g = broken_plane_grid()
        monkeypatch.setattr(imm, "_SLAB_NODES", 3 * g.spec.ny)
        with pytest.raises(SingularMetric) as ref:
            whole_grid_forms(g)
        with pytest.raises(SingularMetric) as got:
            imm.forms_from_immersion(g)
        assert str(got.value) == str(ref.value)
        assert str(got.value).endswith("(min det -3.565e+02)")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), nx=st.integers(3, 40), ny=st.integers(3, 24),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_constraint_check_matches_the_whole_grid_check_bit_for_bit(
            self, data, nx, ny, seed):
        # one slab, one-row slabs, a one-row tail, and any other height
        step = data.draw(st.sampled_from(sorted({1, 2, max(1, nx - 1), nx,
                                                 nx + 3}))
                         | st.integers(1, nx), label="rows per slab")
        spec = GridSpec(nx=nx, ny=ny, hx=0.8 / (nx - 1), hy=0.6 / ny,
                        origin=(-0.4, -0.3), periodic_y=False)
        rng = np.random.default_rng(seed)
        g = smooth_immersion(spec, rng)
        # the largest drift, about 4e-10, at a node in any slab
        sigma = g.sigma.copy()
        sigma[int(rng.integers(nx)), int(rng.integers(ny))] *= 1 + 2e-10
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(imm, "_SLAB_NODES", step * ny + int(rng.integers(ny)))
            got = imm.ImmersionGrid(spec, sigma, g.nu).constraint_drift()
        want = imm._drift(sigma, g.nu)[0]
        assert 3e-10 < want < imm._DRIFT_POST
        assert got == want

    def test_constraint_check_peak_memory(self, imm256):
        # from adopted arrays; the whole-grid check's three (nx, ny, 4)
        # products peaked at 3.0 MB here
        sigma, nu = imm256.sigma.copy(), imm256.nu.copy()
        sigma.setflags(write=False)
        nu.setflags(write=False)
        tracemalloc.start()
        try:
            g = imm.ImmersionGrid(imm256.spec, sigma, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.sigma is sigma and g.nu is nu
        assert peak <= 2 ** 20

    @pytest.mark.parametrize("kernel", ["normal_flow", "forms_from_immersion"])
    def test_peak_memory_beyond_the_outputs(self, imm256, kernel):
        # the whole-grid passes held 15 MB (normal_flow) and 9 MB
        # (forms_from_immersion) of temporaries beside their outputs here
        args = ((imm256, ScalarField.zeros(imm256.spec), 1e-3)
                if kernel == "normal_flow" else (imm256,))
        tracemalloc.start()
        try:
            out = getattr(imm, kernel)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = ((out.sigma, out.nu) if kernel == "normal_flow"
                  else tuple(m.mat for m in out))
        assert peak - sum(a.nbytes for a in arrays) <= 6 * 2 ** 20
