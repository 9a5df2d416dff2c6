"""Fundamental forms, principal curvatures, Christoffel symbols."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minsurf.fields import GridSpec, OperatorField, ScalarField
from minsurf.geometry import (
    SurfaceData,
    christoffel,
    embedding_data,
    gauss_residual,
    principal_curvatures,
    third_form,
)
from minsurf.errors import ComplexEigenvalues


class TestEmbeddingData:
    def test_conformal_forms(self, chart64):
        I, II, B = embedding_data(chart64)
        e2u = np.exp(2.0 * chart64.u.values)
        assert np.allclose(I.a11, e2u) and np.allclose(I.a22, e2u)
        assert np.allclose(I.a12, 0.0)
        assert np.allclose(II.a11, 1.0) and np.allclose(II.a22, -1.0)
        assert np.allclose(B.a11, 1.0 / e2u)
        assert np.allclose(B.a22, -1.0 / e2u)
        # B = I^{-1} II as operators
        assert ((I.inverse() @ II) - B).sup() <= 1e-14

    def test_third_form(self, chart64):
        III = third_form(chart64)
        _, _, B = embedding_data(chart64)
        I, _, _ = embedding_data(chart64)
        # III(X, Y) = I(BX, BY); conformal data makes it e^{-2u} delta
        e2u = np.exp(2.0 * chart64.u.values)
        assert np.allclose(III.a11, 1.0 / e2u)
        assert np.allclose(III.a22, 1.0 / e2u)
        assert np.allclose(III.a12, 0.0)

    def test_gauss_residual_small_for_solution(self, chart64):
        res = gauss_residual(chart64).sup(interior_only=True)
        # pure truncation of the 5-point laplacian on an exact profile
        assert res <= 10.0 / 64 ** 2

    def test_gauss_residual_large_for_junk(self):
        spec = GridSpec(nx=33, ny=32, hx=1 / 32, hy=1 / 32,
                        origin=(-0.5, 0.0), periodic_y=True)
        junk = SurfaceData(ScalarField.from_function(
            spec, lambda x, y: 0.5 * np.sin(6 * np.pi * y)))
        assert gauss_residual(junk).sup(interior_only=True) > 1.0

    def test_weakly_bounded_certificate(self):
        spec = GridSpec(nx=5, ny=5, hx=0.1, hy=0.1, origin=(0, 0),
                        periodic_y=False)
        vals = np.full(spec.shape, -0.2)
        with pytest.raises(ValueError, match="weakly_bounded"):
            SurfaceData(ScalarField(spec, vals), weakly_bounded=True)


class TestPrincipalCurvatures:
    def spec(self):
        return GridSpec(nx=9, ny=9, hx=0.1, hy=0.1, origin=(0, 0),
                        periodic_y=False)

    def test_diagonal(self):
        B = OperatorField.from_diag(self.spec(), 2.0, 1.0)
        pc = principal_curvatures(B)
        assert np.allclose(pc.lambda_plus.values, 2.0)
        assert np.allclose(pc.lambda_minus.values, 1.0)
        assert pc.defined.all()
        assert np.allclose(np.abs(pc.e_plus[..., 0]), 1.0)
        assert np.allclose(pc.e_plus[..., 1], 0.0)

    def test_rotated_operator(self):
        th = 0.3
        c, s = np.cos(th), np.sin(th)
        R = np.array([[c, -s], [s, c]])
        D = np.diag([1.5, -0.5])
        M = R @ D @ R.T
        B = OperatorField.from_components(self.spec(), M[0, 0], M[0, 1],
                                          M[1, 0], M[1, 1])
        pc = principal_curvatures(B)
        assert np.allclose(pc.lambda_plus.values, 1.5)
        assert np.allclose(pc.lambda_minus.values, -0.5)
        # eigenvector defined up to sign
        v = pc.e_plus[0, 0]
        assert min(np.linalg.norm(v - R[:, 0]),
                   np.linalg.norm(v + R[:, 0])) <= 1e-12

    def test_metric_normalization(self, chart64):
        I, _, B = embedding_data(chart64)
        pc = principal_curvatures(B, metric=I)
        v = pc.e_plus
        quad = (I.a11 * v[..., 0] ** 2 + 2 * I.a12 * v[..., 0] * v[..., 1]
                + I.a22 * v[..., 1] ** 2)
        assert np.allclose(quad, 1.0)

    def test_invariant_chart_curvatures(self, chart64):
        _, _, B = embedding_data(chart64)
        pc = principal_curvatures(B)
        e2u = np.exp(2.0 * chart64.u.values)
        assert np.allclose(pc.lambda_plus.values, 1.0 / e2u)
        assert np.allclose(pc.lambda_minus.values, -1.0 / e2u)
        # product is the extrinsic curvature -e^{-4u}, always in (-1, 0]
        assert np.all(pc.lambda_plus.values * pc.lambda_minus.values >= -1.0)

    def test_near_umbilic_flagged(self):
        B = OperatorField.from_diag(self.spec(), 1.0, 1.0 + 1e-9)
        pc = principal_curvatures(B)
        assert not pc.defined.any()

    def test_complex_eigenvalues_raise(self):
        B = OperatorField.from_components(self.spec(), 0.0, -1.0, 1.0, 0.0)
        with pytest.raises(ComplexEigenvalues):
            principal_curvatures(B)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ordered_for_self_adjoint_operators(self, data):
        # I positive definite (eigenvalues in [0.5, 2]) and II symmetric make
        # B = I^-1 II self-adjoint for I, so its eigenvalues are real
        spec = GridSpec(nx=3, ny=4, hx=0.1, hy=0.1, periodic_y=False)

        def draw(lo, hi):
            return data.draw(arrays(float, spec.shape,
                                    elements=st.floats(lo, hi)))

        th, l1, l2 = draw(0.0, np.pi), draw(0.5, 2.0), draw(0.5, 2.0)
        c, s = np.cos(th), np.sin(th)
        I = OperatorField.from_components(
            spec, c * c * l1 + s * s * l2, c * s * (l1 - l2),
            c * s * (l1 - l2), s * s * l1 + c * c * l2)
        p, q, r = draw(-1.0, 1.0), draw(-1.0, 1.0), draw(-1.0, 1.0)
        II = OperatorField.from_components(spec, p, q, q, r)
        pc = principal_curvatures(I.inverse() @ II, metric=I)
        assert np.all(pc.lambda_minus.values <= pc.lambda_plus.values)


class TestChristoffel:
    def test_conformal_symbols(self, sol0):
        # compare against the closed form in terms of du for the profile
        # u = g(|x|); stay on x > 0 to avoid the axis kink in d|x|/dx
        n = 64
        spec = GridSpec(nx=n + 1, ny=17, hx=0.3 / n, hy=0.05,
                        origin=(0.1, 0.0), periodic_y=False)
        from minsurf.invariant_ode import to_surface
        s = to_surface(sol0, spec)
        ch = christoffel(s)
        X, _ = spec.nodes()
        ux = np.asarray(sol0.gp_at(X))
        inner = spec.interior_mask()
        h2 = 10.0 * max(spec.hx, spec.hy) ** 2
        assert np.max(np.abs(ch.x_xx - ux)[inner]) <= h2
        assert np.max(np.abs(ch.y_xy - ux)[inner]) <= h2
        assert np.max(np.abs(ch.x_yy + ux)[inner]) <= h2
        # u has no y-dependence on this chart
        assert np.max(np.abs(ch.x_xy)[inner]) <= h2
        assert np.max(np.abs(ch.y_xx)[inner]) <= h2
        assert np.max(np.abs(ch.y_yy)[inner]) <= h2

    def test_flat_chart_symbols_vanish(self, flat_chart):
        ch = christoffel(flat_chart)
        for a in (ch.x_xx, ch.y_xx, ch.x_xy, ch.y_xy, ch.x_yy, ch.y_yy):
            assert np.max(np.abs(a)) == 0.0
