"""Fundamental forms, shape operator, principal curvatures."""

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minsurf.fields import GridSpec, OperatorField, ScalarField
from minsurf.geometry import (
    SurfaceData,
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
        spec = GridSpec.strip(1.0, 33, 32)
        junk = SurfaceData(ScalarField.from_function(
            spec, lambda x, y: 0.5 * np.sin(6 * np.pi * y)))
        assert gauss_residual(junk).sup(interior_only=True) > 1.0

    @settings(max_examples=100, deadline=None)
    @given(nx=st.integers(4, 12), ny=st.integers(4, 12),
           hx=st.floats(0.01, 0.2), hy=st.floats(0.01, 0.2),
           ox=st.floats(-1.0, 1.0), oy=st.floats(-1.0, 1.0),
           k=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    def test_gauss_residual_exact_on_quadratics(self, nx, ny, hx, hy, ox, oy,
                                                k):
        # the 3-point and one-sided 4-point stencils are exact on quadratics,
        # so Delta_h u = 2 (a + b) at every node, edges included
        a, b, c, d, e, f = k
        spec = GridSpec(nx=nx, ny=ny, hx=hx, hy=hy, origin=(ox, oy),
                        periodic_y=False)
        X, Y = spec.nodes()
        terms = (a * X * X, b * Y * Y, c * X * Y, d * X, e * Y,
                 np.full(spec.shape, f))
        s = SurfaceData(ScalarField(spec, sum(terms)))
        cosh = 2.0 * np.cosh(2.0 * s.u.values)
        scale = np.max(sum(np.abs(t) for t in terms))
        eps = np.finfo(float).eps
        tol = 64 * eps * (scale / min(hx, hy) ** 2 + np.max(cosh))
        res = gauss_residual(s).values
        assert np.max(np.abs(res - (2.0 * (a + b) - cosh))) <= tol


class TestPrincipalCurvatures:
    def spec(self):
        return GridSpec(nx=9, ny=9, hx=0.1, hy=0.1, origin=(0, 0),
                        periodic_y=False)

    def test_diagonal(self):
        B = OperatorField.from_diag(self.spec(), 2.0, 1.0)
        pc = principal_curvatures(B)
        assert np.allclose(pc.lambda_plus.values, 2.0)
        assert np.allclose(pc.lambda_minus.values, 1.0)

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

    def test_invariant_chart_curvatures(self, chart64):
        _, _, B = embedding_data(chart64)
        pc = principal_curvatures(B)
        e2u = np.exp(2.0 * chart64.u.values)
        assert np.allclose(pc.lambda_plus.values, 1.0 / e2u)
        assert np.allclose(pc.lambda_minus.values, -1.0 / e2u)
        # product is the extrinsic curvature -e^{-4u}, always in (-1, 0]
        assert np.all(pc.lambda_plus.values * pc.lambda_minus.values >= -1.0)

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
        pc = principal_curvatures(I.inverse() @ II)
        assert np.all(pc.lambda_minus.values <= pc.lambda_plus.values)

    def test_record_holds_only_eigenvalues(self, chart64):
        _, _, B = embedding_data(chart64)
        pc = principal_curvatures(B)
        assert ([f.name for f in dataclasses.fields(pc)]
                == ["lambda_plus", "lambda_minus"])
        assert pc.lambda_plus.values.shape == chart64.spec.shape
        # the record does not keep the shape operator alive
        mat = weakref.ref(B.mat)
        del B
        assert mat() is None
        assert pc.lambda_minus.values.shape == chart64.spec.shape
