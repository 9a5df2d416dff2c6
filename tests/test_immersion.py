"""Frame integration into the hyperboloid model and the normal flow."""

import numpy as np
import pytest

from minsurf.fields import GridSpec, OperatorField, ScalarField
from minsurf import immersion as imm
from minsurf.geometry import SurfaceData, embedding_data
from minsurf.errors import ConstraintDrift, DegenerateTangents


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

    def test_rejects_unknown_order(self, chart32):
        with pytest.raises(ValueError, match="order"):
            imm.immerse(chart32, order="diagonal")

    def test_incompatible_chart_raises(self):
        spec = GridSpec(nx=65, ny=64, hx=1 / 64, hy=1 / 64,
                        origin=(-0.5, 0.0), periodic_y=True)
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


class TestFormsFromImmersion:
    def test_totally_geodesic_plane(self):
        g = geodesic_plane_grid()
        I, II, B = imm.forms_from_immersion(g)
        assert II.sup(interior_only=True) <= 1e-12
        assert B.sup(interior_only=True) <= 1e-12
        assert np.all(I.det()[g.spec.interior_mask()] > 0)

    def test_isometry_invariance(self, imm64):
        L = imm.boost(0.3, axis=1) @ imm.rotation(0.7, 1, 2)
        moved = imm.apply_isometry(imm64, L)
        IA, IIA, BA = imm.forms_from_immersion(imm64)
        IB, IIB, BB = imm.forms_from_immersion(moved)
        assert (IA - IB).sup() <= 1e-12
        assert (IIA - IIB).sup() <= 1e-12
        assert (BA - BB).sup() <= 1e-12


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
        L = imm.boost(0.4, axis=2)
        eta = np.diag([-1.0, 1.0, 1.0, 1.0])
        assert np.allclose(L.T @ eta @ L, eta, atol=1e-14)

    def test_rotation_preserves_minkowski_form(self):
        L = imm.rotation(1.1, 2, 3)
        eta = np.diag([-1.0, 1.0, 1.0, 1.0])
        assert np.allclose(L.T @ eta @ L, eta, atol=1e-14)
