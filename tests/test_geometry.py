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
    principal_frames,
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
        e_plus, _, defined = principal_frames(B.mat)
        assert defined.all()
        assert np.allclose(np.abs(e_plus[..., 0]), 1.0)
        assert np.allclose(e_plus[..., 1], 0.0)

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
        v = principal_frames(B.mat)[0][0, 0]
        assert min(np.linalg.norm(v - R[:, 0]),
                   np.linalg.norm(v + R[:, 0])) <= 1e-12

    def test_metric_normalization(self, chart64):
        I, _, B = embedding_data(chart64)
        v, _, _ = principal_frames(B.mat, I.mat)
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
        _, _, defined = principal_frames(B.mat)
        assert not defined.any()

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


def eager_frame(B, lam, metric, axis, defined):
    """Reference eigenframe, written out on OperatorFields: norm-based row
    pick, metric normalization, sign fix, axis fallback."""
    a, b, c, d = B.a11, B.a12, B.a21, B.a22
    v1 = np.stack([b, lam - a], axis=-1)
    v2 = np.stack([lam - d, c], axis=-1)
    n1 = np.linalg.norm(v1, axis=-1)
    n2 = np.linalg.norm(v2, axis=-1)
    v = np.where((n1 >= n2)[..., None], v1, v2)
    n = np.linalg.norm(v, axis=-1)
    deg = n < 1e-300
    v = np.where(deg[..., None], np.array([1.0, 0.0]),
                 v / np.where(deg, 1.0, n)[..., None])

    def normalize(w):
        if metric is None:
            return w / np.linalg.norm(w, axis=-1, keepdims=True)
        g = metric.mat
        q = (g[..., 0, 0] * w[..., 0] ** 2
             + (g[..., 0, 1] + g[..., 1, 0]) * w[..., 0] * w[..., 1]
             + g[..., 1, 1] * w[..., 1] ** 2)
        return w / np.sqrt(q)[..., None]

    v = normalize(v)
    flip = (v[..., 0] < 0) | ((v[..., 0] == 0) & (v[..., 1] < 0))
    v = np.where(flip[..., None], -v, v)
    fallback = normalize(np.broadcast_to(np.array(axis), v.shape).copy())
    return np.where(defined[..., None], v, fallback)


class TestPrincipalFrames:
    def spec(self):
        return GridSpec(nx=4, ny=5, hx=0.1, hy=0.1, periodic_y=False)

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

    def test_one_node_matches_the_grid(self):
        # curvature_rate_at_Z builds the frame of one node's matrices
        rng = np.random.default_rng(7)
        spec = self.spec()
        g = rng.uniform(0.5, 2.0, spec.shape)
        p, q, r = (rng.uniform(-1.0, 1.0, spec.shape) for _ in range(3))
        I = OperatorField.from_components(spec, g, 0.1 * g, 0.1 * g, 1.5 * g)
        B = I.inverse() @ OperatorField.from_components(spec, p, q, q, r)
        for metric in (None, I.mat):
            grid = principal_frames(B.mat, metric)
            for i, j in np.ndindex(spec.shape):
                node = principal_frames(
                    B.mat[i, j], None if metric is None else metric[i, j])
                for a, b in zip(node, grid):
                    assert np.array_equal(a, b[i, j])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), with_metric=st.booleans())
    def test_frames_equal_eager_construction(self, data, with_metric):
        # B = I^-1 II with I positive definite and II symmetric has real
        # eigenvalues; II = k I on the drawn umbilic nodes
        spec = self.spec()

        def draw(lo, hi, dtype=float):
            elements = (st.booleans() if dtype is bool
                        else st.floats(lo, hi))
            return data.draw(arrays(dtype, spec.shape, elements=elements))

        th, l1, l2 = draw(0.0, np.pi), draw(0.5, 2.0), draw(0.5, 2.0)
        c, s = np.cos(th), np.sin(th)
        g = (c * c * l1 + s * s * l2, c * s * (l1 - l2), s * s * l1 + c * c * l2)
        I = OperatorField.from_components(spec, g[0], g[1], g[1], g[2])
        p, q, r, k = (draw(-1.0, 1.0) for _ in range(4))
        umbilic = draw(None, None, bool)
        II = OperatorField.from_components(
            spec, np.where(umbilic, k * g[0], p), np.where(umbilic, k * g[1], q),
            np.where(umbilic, k * g[1], q), np.where(umbilic, k * g[2], r))
        B = I.inverse() @ II
        metric = I if with_metric else None
        pc = principal_curvatures(B)
        e_plus, e_minus, defined = principal_frames(
            B.mat, None if metric is None else metric.mat)
        assert not defined[umbilic].any()
        disc = (B.a11 + B.a22) ** 2 - 4.0 * B.det()
        separated = disc > 1e-6
        for frame, lam, axis in ((e_plus, pc.lambda_plus, (1.0, 0.0)),
                                 (e_minus, pc.lambda_minus, (0.0, 1.0))):
            eager = eager_frame(B, lam.values, metric, axis, defined)
            # undefined nodes take the same axis fallback, bit for bit
            assert np.array_equal(frame[~defined], eager[~defined])
            # separated nodes agree to rounding; the sign convention can
            # only differ where the x-component itself is at rounding level
            diff = np.minimum(np.abs(frame - eager).max(axis=-1),
                              np.abs(frame + eager).max(axis=-1))
            assert np.all(diff[separated] <= 1e-9)
            clear = separated & (np.abs(eager[..., 0]) > 1e-6)
            assert np.allclose(frame[clear], eager[clear], rtol=0, atol=1e-9)

