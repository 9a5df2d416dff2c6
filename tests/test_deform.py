"""Zero-locus detection and the curvature-opening field constructions."""

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minsurf.fields import GridSpec, ScalarField
from minsurf import deform
from minsurf.geometry import SurfaceData
from minsurf.errors import (
    BallExceedsChart,
    ClosedZeroCurve,
    ClosednessViolation,
    NonGenericCurve,
    OverlappingNeighbourhoods,
    WrongHolonomyClass,
    ZeroHolonomyInTranslationCase,
)


# ---------------------------------------------------------------------------
# primitives


class TestSmoothstep:
    def test_endpoint_plateaus_exact(self):
        assert deform.smoothstep(-0.2) == 0.0
        assert deform.smoothstep(0.0) == 0.0
        assert deform.smoothstep(1.0) == 1.0
        assert deform.smoothstep(1.3) == 1.0

    def test_midpoint_and_monotonicity(self):
        t = np.linspace(0, 1, 101)
        s = deform.smoothstep(t)
        assert s[50] == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.diff(s) >= 0)

    def test_flat_derivatives_at_ends(self):
        h = 1e-4
        for a in (0.0, 1.0):
            d = (deform.smoothstep(a + h) - deform.smoothstep(a - h)) / (2 * h)
            assert abs(d) <= 1e-6


class TestBumpProfile:
    def test_plateau_and_support(self):
        r = 0.4
        d = np.array([0.0, 0.19, 0.2, 0.3, 0.4, 0.5])
        v = deform.bump_profile(d, r)
        assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
        assert 0.0 < v[3] < 1.0
        assert v[4] == 0.0 and v[5] == 0.0


class TestPointDistance:
    def test_periodic_wrap(self):
        spec = GridSpec(nx=5, ny=10, hx=0.1, hy=0.1, origin=(0.0, 0.0),
                        periodic_y=True)
        d = deform.point_distance(spec, (0.2, 0.05))
        # node y = 0.95 is 0.1 away through the wrap, not 0.9
        j = 9  # y = 0.9
        i = 2  # x = 0.2
        assert d[i, j] == pytest.approx(0.15, abs=1e-12)


# ---------------------------------------------------------------------------
# zero locus


def t_chart():
    spec = GridSpec(nx=65, ny=65, hx=1 / 64, hy=1 / 64, origin=(-0.5, -0.5),
                    periodic_y=False)
    u = np.ones(spec.shape)
    u[32, 10:55] = u[10:32, 32] = 0.0
    return SurfaceData(ScalarField(spec, u))


def flood_fill_groups(mask, periodic_y, diagonal=True):
    """8-connected (4-connected unless diagonal) components by breadth-first
    search, in row-major order of their first node, each sorted row-major."""
    nx, ny = mask.shape
    seen = np.zeros_like(mask)
    groups = []
    for i in range(nx):
        for j in range(ny):
            if not mask[i, j] or seen[i, j]:
                continue
            seen[i, j] = True
            queue, group = deque([(i, j)]), []
            while queue:
                a, b = queue.popleft()
                group.append((a, b))
                for da in (-1, 0, 1):
                    for db in (-1, 0, 1):
                        if da and db and not diagonal:
                            continue
                        p, q = a + da, b + db
                        if periodic_y:
                            q %= ny
                        if (0 <= p < nx and 0 <= q < ny and mask[p, q]
                                and not seen[p, q]):
                            seen[p, q] = True
                            queue.append((p, q))
            groups.append(sorted(group))
    return groups


def mask_chart(rows):
    """u = 0 on the 1s of rows ("0110/..." with row i at x = 0.1 i) and 1
    elsewhere, on a cylinder of step 0.1."""
    mask = np.array([[ch == "1" for ch in row] for row in rows.split("/")])
    spec = GridSpec(nx=mask.shape[0], ny=mask.shape[1], hx=0.1, hy=0.1,
                    periodic_y=True)
    return SurfaceData(ScalarField(spec, np.where(mask, 0.0, 1.0)))


def chain_winding(c):
    """How often a curve's chain winds around the cylinder: the sum of its
    j steps and of the step from its last node back to its first, each
    reduced to the nearest multiple of ny, over ny.  0 on a rectangle and
    when the last node is no neighbour of the first."""
    spec = c.spec
    i, j = c.nodes.T
    di, dj = np.diff(i, append=i[0]), np.diff(j, append=j[0])
    if spec.periodic_y:
        dj = dj - spec.ny * np.round(dj / spec.ny).astype(int)
    if abs(di[-1]) > 1 or abs(dj[-1]) > 1:
        return 0
    return int(dj.sum()) // spec.ny


class TestDetectZ:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_groups_match_flood_fill(self, data):
        nx = data.draw(st.integers(3, 11))
        ny = data.draw(st.integers(3, 11))
        periodic = data.draw(st.booleans())
        mask = data.draw(arrays(bool, (nx, ny)))
        assume(mask.any())
        expected = flood_fill_groups(mask, periodic)
        got = deform._components(mask, periodic, diagonal=True)
        assert [g.tolist() for g in got] == [list(map(list, g))
                                             for g in expected]
        # the groups of ~mask, 4-connected as the 5-point stencil is; one
        # off the Dirichlet edges (x, and y on a rectangle) is enclosed.
        # detect_z labels ~mask only when it has nodes
        outside = flood_fill_groups(~mask, periodic, diagonal=False)
        if outside:
            got = deform._components(~mask, periodic, diagonal=False)
            assert [g.tolist() for g in got] == [list(map(list, g))
                                                 for g in outside]
        dirichlet = {(i, j) for i in range(nx) for j in range(ny)
                     if i in (0, nx - 1) or not periodic and j in (0, ny - 1)}
        enclosed = sum(len(g) for g in outside if not dirichlet & set(g))
        spec = GridSpec(nx=nx, ny=ny, hx=0.1, hy=0.1, origin=(0.0, 0.0),
                        periodic_y=periodic)
        u = ScalarField(spec, np.where(mask, 0.0, 1.0))
        if enclosed:
            with pytest.raises(ClosedZeroCurve, match=f"encloses {enclosed} "):
                deform.detect_z(SurfaceData(u), tol_z=0.5)
            return
        # detect_z builds one component per group from that group's nodes
        # (a curve keeps its thinned chain only)
        comps = deform.detect_z(SurfaceData(u), tol_z=0.5)
        owner = {node: k for k, g in enumerate(expected) for node in g}
        hit = []
        for c in comps:
            nodes = list(map(tuple, c.nodes.tolist()))
            k = owner[nodes[0]]
            assert all(owner[node] == k for node in nodes)
            if c.kind == "Point":
                assert nodes == expected[k]
            hit.append(k)
        assert sorted(hit) == list(range(len(expected)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_labels_match_csgraph(self, data):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        nx = data.draw(st.integers(3, 16))
        ny = data.draw(st.integers(3, 16))
        periodic = data.draw(st.booleans())
        mask = data.draw(arrays(bool, (nx, ny)))
        assume(mask.any())
        flat = np.flatnonzero(mask)
        pos = {int(k): n for n, k in enumerate(flat)}
        rows, cols = [], []
        for k in flat:
            i, j = divmod(int(k), ny)
            for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
                p, q = i + di, j + dj
                if periodic:
                    q %= ny
                if p < nx and 0 <= q < ny and mask[p, q]:
                    rows.append(pos[int(k)])
                    cols.append(pos[p * ny + q])
        graph = coo_matrix((np.ones(len(rows)), (rows, cols)),
                           shape=(flat.size,) * 2)
        count, labels = connected_components(graph, directed=False)
        got = deform._components(mask, periodic, diagonal=True)
        assert len(got) == count
        for k, nodes in enumerate(got):
            members = np.flatnonzero(labels == k)
            assert nodes.tolist() == np.column_stack(
                np.divmod(flat[members], ny)).tolist()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_closed_means_the_chain_winds(self, data):
        # random masks, half of them crossed by a walk through every j
        nx = data.draw(st.integers(3, 11))
        ny = data.draw(st.integers(3, 11))
        periodic = data.draw(st.booleans())
        mask = data.draw(arrays(bool, (nx, ny)))
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, nx - 1))
            steps = data.draw(st.lists(st.integers(-1, 1), min_size=ny,
                                       max_size=ny))
            for j, di in enumerate(steps):
                i = min(max(i + di, 0), nx - 1)
                mask[i, j] = True
        assume(mask.any())
        spec = GridSpec(nx=nx, ny=ny, hx=0.1, hy=0.1, periodic_y=periodic)
        s = SurfaceData(ScalarField(spec, np.where(mask, 0.0, 1.0)))
        try:
            comps = deform.detect_z(s, tol_z=0.5)
        except ClosedZeroCurve:
            return
        for c in comps:
            if c.kind != "Curve":
                continue
            assert c.closed == (chain_winding(c) != 0)
            if c.closed and not c.dropped:
                with pytest.raises(WrongHolonomyClass, match="winds"):
                    deform.assemble_f(s, [c], r=0.01)

    def test_invariant_chart_axis_curve(self, chart64):
        comps = deform.detect_z(chart64)
        assert len(comps) == 1
        c = comps[0]
        assert c.kind == "Curve" and c.closed
        assert len(c.nodes) == 64  # one full periodic column
        assert c.center[0] == pytest.approx(0.0, abs=1e-12)
        assert c.line_deviation == pytest.approx(0.0, abs=1e-12)

    def test_coarse_tolerance_band_is_thinned(self, chart64):
        # tol far above the node values of the neighbouring columns turns
        # the locus into a band several nodes wide; classification must
        # still see one closed straight circle, not the band
        comps = deform.detect_z(chart64, tol_z=1e-3)
        assert len(comps) == 1
        c = comps[0]
        assert c.kind == "Curve" and c.closed
        assert len(c.nodes) == 64
        assert c.thinned > 0
        assert c.line_deviation == pytest.approx(0.0, abs=1e-12)
        assert 0.0 <= c.center[1] < 1.0

    @pytest.mark.parametrize("tol_z", [1e-8, 1e-4, 1e-2])
    def test_invariant_chart_drops_no_nodes(self, chart64, tol_z):
        assert [c.dropped for c in deform.detect_z(chart64, tol_z)] == [0]

    def test_enclosed_region_is_refused(self):
        # a circle of radius 0.2 at tol_z 3e-4 is a band of 72 nodes around
        # 481 nodes of u > tol_z: an interior maximum, which no solution has
        spec = GridSpec.strip(1.0, 65, 64)
        X, Y = spec.nodes()
        u = 5.0 * (np.hypot(X, Y - 0.5) - 0.2) ** 2
        assert np.count_nonzero(u <= 3e-4) == 72
        with pytest.raises(ClosedZeroCurve, match="encloses 481 nodes"):
            deform.detect_z(SurfaceData(ScalarField(spec, u)), tol_z=3e-4)

    def test_thin_curves_and_points_thin_nothing(self, chart64):
        assert [c.thinned for c in deform.detect_z(chart64)] == [0]
        spec = GridSpec(nx=33, ny=33, hx=1 / 32, hy=1 / 32, periodic_y=False)
        X, Y = spec.nodes()
        u = (X - 0.5) ** 2 + (Y - 0.5) ** 2
        comps = deform.detect_z(SurfaceData(ScalarField(spec, u)), tol_z=1e-3)
        assert [(c.kind, c.thinned) for c in comps] == [("Point", 0)]

    def test_branched_curve_reports_dropped_nodes(self):
        # a T: the chain walk follows one path of 45 nodes; the other 22
        # must be counted, not lost
        s = t_chart()
        comps = deform.detect_z(s)
        assert len(comps) == 1
        c = comps[0]
        assert c.kind == "Curve"
        assert len(c.nodes) == 45 and c.dropped == 22

    def test_positive_profile_has_empty_locus(self, sol05):
        from minsurf.invariant_ode import to_surface
        spec = GridSpec.strip(1.0, 33, 32)
        s = to_surface(sol05, spec)
        assert deform.detect_z(s) == []

    def test_isolated_point(self):
        spec = GridSpec.strip(1.0, 65, 64)
        u = ScalarField.from_function(
            spec, lambda x, y: 2.0 * (x ** 2 + (y - 0.5) ** 2))
        comps = deform.detect_z(SurfaceData(u))
        assert len(comps) == 1
        c = comps[0]
        assert c.kind == "Point"
        assert np.allclose(c.center, (0.0, 0.5))
        assert c.diameter == 0.0

    def test_point_on_the_periodic_seam_is_centred_where_it_lies(self):
        # five nodes at y = 0, one of them across the seam at y = 63/64
        spec = GridSpec.strip(1.0, 65, 64)
        X, Y = spec.nodes()
        s = SurfaceData(ScalarField(spec, X ** 2 + spec.wrap_dy(Y) ** 2))
        comps = deform.detect_z(s, tol_z=1.01 / 64 ** 2)
        assert [(c.kind, len(c.nodes)) for c in comps] == [("Point", 5)]
        assert comps[0].center.tolist() == [0.0, 0.0]
        f = deform.assemble_f(s, comps, 0.2)
        ref = deform.build_point_f((0.0, 0.0), 0.2, spec)
        assert np.max(np.abs(f.values - ref.values)) <= 1e-15

    def test_column_of_four_nodes_is_a_point_at_every_row(self):
        # 3 hy is the threshold 3 max(hx, hy) itself: the label must not
        # depend on how the row's coordinates round
        from minsurf.invariant_ode import estimate_delta
        spec = GridSpec.strip(0.8 * estimate_delta(0.0), 33, 122, 4.0)
        assert spec.hx < spec.hy
        for j in range(spec.ny):
            u = np.ones(spec.shape)
            u[16, (j + np.arange(4)) % spec.ny] = 0.0
            comps = deform.detect_z(SurfaceData(ScalarField(spec, u)),
                                    tol_z=1e-12)
            assert [c.kind for c in comps] == ["Point"], j
            assert comps[0].diameter == 3 * spec.hy

    def test_straight_curve_fails_genericity(self, chart64):
        c = deform.detect_z(chart64)[0]
        verdict = deform.genericity_check(c)
        assert not verdict
        assert verdict.line_deviation <= verdict.tol_line

    def test_genericity_rejects_points(self):
        spec = GridSpec.strip(1.0, 65, 64)
        u = ScalarField.from_function(
            spec, lambda x, y: 2.0 * (x ** 2 + (y - 0.5) ** 2))
        c = deform.detect_z(SurfaceData(u))[0]
        with pytest.raises(ValueError):
            deform.genericity_check(c)


# ---------------------------------------------------------------------------
# point construction


class TestBuildPointF:
    def test_plateau_is_exact_quadratic(self, chart64):
        spec = chart64.spec
        center, r = (0.0, 0.5), 0.45
        f = deform.build_point_f(center, r, spec)
        X, Y = spec.nodes()
        quad = (-(X - 0.0) ** 2 + (Y - 0.5) ** 2) / 2.0
        d = deform.point_distance(spec, center)
        inner = d <= r / 2
        assert np.array_equal(f.values[inner], quad[inner])

    def test_support_is_the_ball(self, chart64):
        f = deform.build_point_f((0.0, 0.5), 0.45, chart64.spec)
        d = deform.point_distance(chart64.spec, (0.0, 0.5))
        assert np.all(f.values[d >= 0.45] == 0.0)

    def test_center_hessian(self, chart64):
        spec = chart64.spec
        f = deform.build_point_f((0.0, 0.5), 0.45, spec)
        i, j = 32, 32  # node at the center
        h2 = spec.hx ** 2
        fxx = (f.values[i + 1, j] - 2 * f.values[i, j] + f.values[i - 1, j]) / h2
        fyy = (f.values[i, j + 1] - 2 * f.values[i, j] + f.values[i, j - 1]) / h2
        assert fxx == pytest.approx(-1.0, abs=1e-10)
        assert fyy == pytest.approx(1.0, abs=1e-10)

    def test_ball_must_fit(self, chart64):
        with pytest.raises(BallExceedsChart):
            deform.build_point_f((0.4, 0.5), 0.2, chart64.spec)


# ---------------------------------------------------------------------------
# moment system


def graph_samples(n=4097):
    xs = np.linspace(0.0, 1.0, n)
    return xs, 0.3 * xs * (1.0 - xs)


class TestSolveXi:
    def test_moment_conditions(self):
        xs, hs = graph_samples()
        res = deform.solve_xi(xs, hs, 0.2, -0.1)
        assert np.max(np.abs(res.residual_sample)) <= 1e-10
        assert np.max(np.abs(res.residual_refined)) <= 1e-8

    def test_frozen_coefficients(self):
        xs, hs = graph_samples()
        res = deform.solve_xi(xs, hs, 0.2, -0.1)
        assert res.coefficients == pytest.approx((18.919182, -17.117356),
                                                 abs=1e-5)
        assert res.placement_index == 0
        assert res.centers == pytest.approx((1 / 3, 2 / 3))

    def test_support(self):
        xs, hs = graph_samples()
        res = deform.solve_xi(xs, hs, 0.2, -0.1)
        assert res.support == (0.0, 1.0)
        assert res.xi(-0.01) == 0.0
        assert res.xi(1.01) == 0.0
        assert res.xi_prime(-0.01) == 0.0
        assert res.xi_prime(1.01) == 0.0

    def test_result_holds_numbers_only(self):
        # xi and xi' come from the coefficients, centres and width; the
        # dense table is build_G's, so the result keeps no array of it
        xs, hs = graph_samples()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = deform.solve_xi(xs, hs, 0.2, -0.1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 0.1 * 2 ** 20
        for name, value in vars(res).items():
            assert not callable(value), name
            assert np.size(value) <= 2, name

    def test_zero_targets_give_zero_xi(self):
        xs, hs = graph_samples()
        res = deform.solve_xi(xs, hs, 0.0, 0.0)
        assert np.allclose(res.coefficients, 0.0)
        assert np.max(np.abs(res.xi(xs))) == 0.0

    def test_affine_graph_is_degenerate(self):
        xs = np.linspace(0.0, 1.0, 4097)
        hs = 0.1 + 0.05 * xs
        with pytest.raises(NonGenericCurve):
            deform.solve_xi(xs, hs, 0.2, -0.1)


# ---------------------------------------------------------------------------
# prescribed-Hessian interpolant


def xi_for_tests():
    xs, hs = graph_samples()
    return (xs, hs), deform.solve_xi(xs, hs, 0.2, -0.1)


class TestBuildG:
    def test_certificate(self):
        h_samples, xi = xi_for_tests()
        dom = GridSpec(nx=141, ny=81, hx=1.4 / 140, hy=2.0 / 80,
                       origin=(-0.2, -1.0), periodic_y=False)
        g = deform.build_G(h_samples, xi, dom)
        cert = g.certificate
        assert cert["left_slab_residual"] == 0.0
        assert cert["right_slab_constancy"] <= 1e-10
        assert cert["byparts_residual"] <= 1e-10
        # the on-curve probe certifies the Hessian to 10 h^2 of its own step
        assert cert["curve_hessian_residual"] <= 10.0 * cert["curve_hessian_step"] ** 2

    def test_probe_step_is_a_4096th_of_the_window(self):
        # one step for every graph: on this gentle one it leaves the
        # residual at least 10x under 10 h^2
        h_samples, xi = xi_for_tests()
        dom = GridSpec(nx=141, ny=81, hx=1.4 / 140, hy=2.0 / 80,
                       origin=(-0.2, -1.0), periodic_y=False)
        cert = deform.build_G(h_samples, xi, dom).certificate
        x_lo, x_hi = xi.support
        h = cert["curve_hessian_step"]
        assert h == (x_hi - x_lo) / 4096
        assert cert["curve_hessian_residual"] <= h ** 2

    def test_right_slab_is_shifted_template(self):
        h_samples, xi = xi_for_tests()
        dom = GridSpec(nx=141, ny=81, hx=1.4 / 140, hy=2.0 / 80,
                       origin=(-0.2, -1.0), periodic_y=False)
        g = deform.build_G(h_samples, xi, dom)
        ys = np.linspace(-0.9, 0.9, 7)
        xs = np.full_like(ys, 1.25)
        vals = g.G(xs, ys)
        template = (-(xs - 0.2) ** 2 + (ys + 0.1) ** 2) / 2.0
        dev = vals - template - g.constant
        assert np.max(np.abs(dev)) <= 1e-10

    def test_y_slope_is_the_primitive_of_xi(self):
        # G - saddle = y Xi(x) - V(x), so the y-slope is Xi = int_0^x xi:
        # exactly 0 at the window's left end and -y0 = 0.1 at its right end
        h_samples, xi = xi_for_tests()
        dom = GridSpec(nx=41, ny=21, hx=1.4 / 40, hy=2.0 / 20,
                       origin=(-0.2, -1.0), periodic_y=False)
        g = deform.build_G(h_samples, xi, dom)
        slope = lambda x: g.G(x, 1.0) - g.G(x, 0.0) - (
            deform._saddle(x, 1.0) - deform._saddle(x, 0.0))
        assert slope(0.0) == 0.0
        assert slope(1.0) == pytest.approx(0.1, abs=1e-10)
        assert slope(1.25) == pytest.approx(0.1, abs=1e-10)

    def test_inconsistent_antiderivative_rejected(self):
        (h_samples, xi) = xi_for_tests()

        class Skewed(deform.XiResult):
            def xi_prime(self, x):
                return 0.9 * super().xi_prime(x)

        broken = Skewed(**vars(xi))
        dom = GridSpec(nx=41, ny=21, hx=1.4 / 40, hy=2.0 / 20,
                       origin=(-0.2, -1.0), periodic_y=False)
        with pytest.raises(ClosednessViolation):
            deform.build_G(h_samples, broken, dom)


# ---------------------------------------------------------------------------
# tube constructions


def halfturn_tube():
    w = np.pi

    def curve(t):
        t = np.asarray(t, dtype=float)
        return 0.3 * np.stack([np.cos(w * t), np.sin(w * t)], axis=-1)

    def curve_deriv(t):
        t = np.asarray(t, dtype=float)
        return 0.3 * w * np.stack([-np.sin(w * t), np.cos(w * t)], axis=-1)

    return deform.CurveTube(period=1.0, s_bar=0.12, holonomy="halfturn",
                            curve=curve, curve_deriv=curve_deriv)


def translation_tube():
    hol = (1.0, -0.2)

    def curve(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t + 0.02 * np.sin(2 * np.pi * t),
                         -0.2 * t + 0.02 * np.cos(2 * np.pi * t)], axis=-1)

    def curve_deriv(t):
        t = np.asarray(t, dtype=float)
        return np.stack([1.0 + 0.04 * np.pi * np.cos(2 * np.pi * t),
                         -0.2 - 0.04 * np.pi * np.sin(2 * np.pi * t)],
                        axis=-1)

    return deform.CurveTube(period=1.0, s_bar=0.1, holonomy="translation",
                            curve=curve, curve_deriv=curve_deriv,
                            hol_vector=hol)


def tube_spec(ny=128):
    return GridSpec.strip(0.16, 17, ny)


class TestCurveTube:
    def test_rejects_unknown_holonomy(self):
        with pytest.raises(ValueError):
            deform.CurveTube(period=1.0, s_bar=0.1, holonomy="glide",
                             curve=lambda t: t, curve_deriv=lambda t: t)

    def test_equivariance_residuals(self):
        assert halfturn_tube().equivariance_residual() <= 1e-12
        assert translation_tube().equivariance_residual() <= 1e-12


class TestBuildHalfturnF:
    def test_certificate_and_periodicity(self):
        tf = deform.build_halfturn_f(halfturn_tube(), tube_spec(), r=0.06)
        cert = tf.certificate
        assert cert["glue_residual"] <= 1e-12
        assert cert["hessian_residual"] <= 1e-8
        ts = np.linspace(0.0, 1.0, 13)
        dev = np.abs(tf.evaluate(ts + 1.0, 0.03) - tf.evaluate(ts, 0.03))
        assert np.max(dev) <= 1e-12

    def test_transverse_support(self):
        tf = deform.build_halfturn_f(halfturn_tube(), tube_spec(), r=0.06)
        assert np.max(np.abs(tf.evaluate(0.3, 0.07))) == 0.0

    def test_wrong_holonomy_rejected(self):
        with pytest.raises(WrongHolonomyClass):
            deform.build_halfturn_f(translation_tube(), tube_spec(), r=0.06)


@pytest.fixture(scope="module")
def tf():
    return deform.build_translation_f(translation_tube(), tube_spec(256),
                                      r=0.06)


class TestBuildTranslationF:
    def test_periodicity(self, tf):
        ts = np.linspace(0.0, 1.0, 17)
        for s in (0.0, 0.03, -0.05):
            dev = np.abs(tf.evaluate(ts + 1.0, s) - tf.evaluate(ts, s))
            assert np.max(dev) <= 1e-12

    def test_certificate(self, tf):
        cert = tf.certificate
        assert cert["periodicity_residual"] <= 1e-12
        assert cert["curve_hessian_residual"] <= 10.0 * cert["curve_hessian_step"] ** 2
        assert max(abs(v) for v in cert["seam_value_residuals"]) <= 1e-10
        assert max(abs(v) for v in cert["seam_slope_residuals"]) <= 1e-10

    def test_on_curve_hessian_via_flat_core(self, tf):
        # 4th-order probe of the un-bumped plane field along the developing
        # curve, crossing both branch cuts; flat_core's frame puts the graph
        # window at x in [0, delta_c], so undo the shift/flip it applied
        tube = tf.tube
        cert = tf.certificate
        a, b = cert["window"]
        sgn = -1.0 if cert["flipped"] else 1.0
        za = sgn * np.asarray(tube.curve(a), dtype=float)
        margin = 0.45 * min(a, tube.period - b)
        ts = np.linspace(a - margin, b + margin, 33)
        pts = sgn * np.asarray(tube.curve(ts), dtype=float) - za
        hfd = cert["delta_c"] / 4096.0
        gxx = deform._fd4_second(tf.flat_core, pts, hfd, axis=0)
        gyy = deform._fd4_second(tf.flat_core, pts, hfd, axis=1)
        tol = 10.0 * hfd ** 2
        assert np.max(np.abs(gxx + 1.0)) <= tol
        assert np.max(np.abs(gyy - 1.0)) <= tol

    def test_wrong_class_and_zero_holonomy(self):
        with pytest.raises(WrongHolonomyClass):
            deform.build_translation_f(halfturn_tube(), tube_spec(256),
                                       r=0.06)
        t = translation_tube()
        zero = deform.CurveTube(period=1.0, s_bar=0.1, holonomy="translation",
                                curve=lambda s: np.zeros(
                                    np.shape(s) + (2,)) if np.ndim(s) else np.zeros(2),
                                curve_deriv=t.curve_deriv,
                                hol_vector=(0.0, 0.0))
        with pytest.raises(ZeroHolonomyInTranslationCase):
            deform.build_translation_f(zero, tube_spec(256), r=0.06)

    def test_broken_equivariance_rejected(self):
        t = translation_tube()
        lying = deform.CurveTube(period=1.0, s_bar=0.1,
                                 holonomy="translation", curve=t.curve,
                                 curve_deriv=t.curve_deriv,
                                 hol_vector=(0.5, -0.2))
        with pytest.raises(WrongHolonomyClass, match="equivariance"):
            deform.build_translation_f(lying, tube_spec(256), r=0.06)


# ---------------------------------------------------------------------------
# chart-level assembly


class TestAssembleF:
    def point_chart(self):
        spec = GridSpec.strip(1.0, 65, 64)
        u = ScalarField.from_function(
            spec, lambda x, y: 2.0 * (x ** 2 + (y - 0.5) ** 2))
        return SurfaceData(u)

    def test_point_component_field(self):
        s = self.point_chart()
        comps = deform.detect_z(s)
        f = deform.assemble_f(s, comps, r=0.3)
        direct = deform.build_point_f((0.0, 0.5), 0.3, s.spec)
        assert np.array_equal(f.values, direct.values)

    def test_open_arc_field(self):
        # a wavy open arc across a rectangle: thinned to one node per
        # column, it gets the saddle about its centroid times the bump of
        # the distance to its polyline
        spec = GridSpec(nx=65, ny=65, hx=1 / 64, hy=1 / 64,
                        origin=(-0.5, -0.5), periodic_y=False)
        u = ScalarField.from_function(
            spec, lambda x, y: 5.0 * (y - 0.08 * np.sin(2 * np.pi * x)) ** 2)
        s = SurfaceData(u)
        comps = deform.detect_z(s, tol_z=1e-3)
        assert len(comps) == 1
        c = comps[0]
        assert (c.kind, c.closed, len(c.nodes)) == ("Curve", False, 65)
        # thinning cut 46 of the band's 111 nodes, and every node is counted
        band = np.argwhere(u.values <= 1e-3)
        assert len(band) - len(deform._thin_band(band, u.values, spec)) == 46
        assert (c.thinned, c.dropped) == (46, 0)
        assert len(c.nodes) + c.dropped + c.thinned == len(band) == 111

        r, h = 0.1, 1 / 64
        f = deform.assemble_f(s, comps, r=r).values
        # distance from every node to the chain's segments
        X, Y = spec.nodes()
        p, q = c.points[:-1], c.points[1:]
        d = q - p
        px, py = X[..., None] - p[:, 0], Y[..., None] - p[:, 1]
        t = np.clip((px * d[:, 0] + py * d[:, 1]) / np.sum(d * d, axis=1),
                    0.0, 1.0)
        dist = np.hypot(px - t * d[:, 0], py - t * d[:, 1]).min(axis=-1)
        assert np.all(f[dist >= r] == 0.0)

        inner = np.zeros(spec.shape, dtype=bool)
        inner[1:-1, 1:-1] = dist[1:-1, 1:-1] <= r / 2 - 2 * h
        fxx = (f[2:, 1:-1] - 2 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / h ** 2
        fyy = (f[1:-1, 2:] - 2 * f[1:-1, 1:-1] + f[1:-1, :-2]) / h ** 2
        near = inner[1:-1, 1:-1]
        assert near.sum() == 189
        assert np.all(fxx[near] == -1.0) and np.all(fyy[near] == 1.0)

    def test_branched_curve_is_refused(self):
        s = t_chart()
        with pytest.raises(NonGenericCurve, match="dropped 22 nodes"):
            deform.assemble_f(s, deform.detect_z(s), r=0.1)

    def test_winding_curve_needs_tube_construction(self, chart64):
        comps = deform.detect_z(chart64)
        with pytest.raises(WrongHolonomyClass):
            deform.assemble_f(chart64, comps, r=0.2)

    def test_winding_chain_on_four_rows_is_refused(self):
        # the chain's unwrapped y spans 3 of the 4 rows, yet it winds
        s = mask_chart("1101/0110/0011/0001")
        comps = deform.detect_z(s, tol_z=0.5)
        assert [(c.kind, c.nodes.tolist(), c.closed) for c in comps] == [
            ("Curve", [[0, 0], [0, 1], [1, 2], [0, 3]], True)]
        assert chain_winding(comps[0]) == 1
        with pytest.raises(WrongHolonomyClass, match="winds"):
            deform.assemble_f(s, comps, r=0.01)

    def test_neighbouring_ends_without_winding_make_an_open_arc(self):
        # a U of 6 nodes: its last node is a neighbour of its first, but
        # its j steps sum to 0.  Node (0, 0) is 0.1 from the chain but
        # 0.0707 from the segment that would close it, so at r = 0.1 the
        # open arc leaves it at 0
        s = mask_chart("011100/111000/000010/101000/111000")
        spec, r = s.spec, 0.1
        curves = [c for c in deform.detect_z(s, tol_z=0.5)
                  if c.kind == "Curve"]
        assert [(c.nodes.tolist(), c.closed) for c in curves] == [
            ([[0, 1], [0, 2], [0, 3], [1, 2], [1, 1], [1, 0]], False)]
        c = curves[0]
        assert chain_winding(c) == 0
        f = deform.assemble_f(s, [c], r=r).values
        X, Y = spec.nodes()
        p, q = c.points[:-1], c.points[1:]
        d = q - p
        dist = np.full(spec.shape, np.inf)
        for off in (-spec.period_y, 0.0, spec.period_y):
            px, py = X[..., None] - p[:, 0], Y[..., None] - off - p[:, 1]
            t = np.clip((px * d[:, 0] + py * d[:, 1]) / np.sum(d * d, axis=1),
                        0.0, 1.0)
            dist = np.minimum(dist, np.hypot(px - t * d[:, 0],
                                             py - t * d[:, 1]).min(axis=-1))
        dx, dy = X - c.center[0], spec.wrap_dy(Y - c.center[1])
        expect = deform.bump_profile(dist, r) * (-dx ** 2 + dy ** 2) / 2
        assert np.allclose(f, expect, rtol=0.0, atol=1e-15)
        assert f[0, 0] == 0.0 and dist[0, 0] == pytest.approx(0.1)
        # the segment that would close the chain passes within r of (0, 0)
        assert np.hypot(*(c.points[0] + c.points[-1]) / 2) < r

    def test_overlap_rejected(self):
        spec = GridSpec.strip(1.0, 65, 64)
        u = ScalarField.from_function(
            spec,
            lambda x, y: 20.0 * (x ** 2 + (y - 0.25) ** 2)
            * (x ** 2 + (y - 0.5) ** 2))
        comps = deform.detect_z(SurfaceData(u))
        assert len(comps) == 2
        # centers sit 0.25 apart; r = 0.15 needs a gap of 0.3
        with pytest.raises(OverlappingNeighbourhoods):
            deform.assemble_f(SurfaceData(u), comps, r=0.15)
