"""The numpy kernels against scipy, their reference implementations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from minsurf import kernels


@st.composite
def samples(draw, min_size=2, max_size=40):
    """Strictly increasing abscissae with spacing ratios up to 10, and
    values of order 1."""
    n = draw(st.integers(min_size, max_size))
    steps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1,
                                   max_size=n - 1)))
    x = draw(st.floats(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                               max_size=n)))
    return x, y


def close(got, want, rel):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.asarray(got) - want))) <= rel * scale


class TestSpline:
    @settings(max_examples=200, deadline=None)
    @given(data=samples())
    def test_matches_cubic_spline(self, data):
        x, y = data
        m = kernels.spline_slopes(x, y)
        ref = CubicSpline(x, y)
        q = np.linspace(x[0], x[-1], 97)
        assert close(m, ref(x, 1), 1e-12)
        for nu in (0, 1, 2):
            assert close(kernels.hermite(x, y, m, q, nu), ref(q, nu), 1e-11)

    def test_columns_are_independent_splines(self):
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.uniform(0.5, 1.0, 12))
        y = rng.standard_normal((12, 4))
        m = kernels.spline_slopes(x, y)
        for j in range(4):
            assert np.allclose(m[:, j], kernels.spline_slopes(x, y[:, j]),
                               rtol=0, atol=1e-14)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            kernels.spline_slopes([0.0], [1.0])


class TestHermite:
    @settings(max_examples=100, deadline=None)
    @given(data=samples(), slopes=st.data())
    def test_matches_cubic_hermite_spline(self, data, slopes):
        x, y = data
        m = np.array(slopes.draw(st.lists(st.floats(-2.0, 2.0),
                                          min_size=x.size, max_size=x.size)))
        ref = CubicHermiteSpline(x, y, m)
        q = np.linspace(x[0], x[-1], 61)
        for nu in (0, 1, 2):
            assert close(kernels.hermite(x, y, m, q, nu), ref(q, nu), 1e-12)
        # the primitive at every node
        assert close(kernels.hermite_primitive(x, y, m),
                     ref.antiderivative()(x), 1e-12)

    def test_nodes_return_the_data(self):
        x = np.array([0.0, 0.3, 1.0, 1.2])
        y, m = np.array([1.0, -2.0, 0.5, 3.0]), np.array([0.1, 4.0, -1.0, 2.0])
        assert np.array_equal(kernels.hermite(x, y, m, x), y)
        assert np.array_equal(kernels.hermite(x, y, m, x, nu=1), m)

    def test_unknown_derivative_order(self):
        with pytest.raises(ValueError, match="derivative order"):
            kernels.hermite([0.0, 1.0], [0.0, 1.0], [1.0, 1.0], 0.5, nu=3)


def one_pass_hermite(xk, yk, mk, x, nu=0):
    """Reference: hermite as one pass over all the points, as it was before
    the points were taken in chunks."""
    xk, yk, mk, x = (np.asarray(a, dtype=float) for a in (xk, yk, mk, x))
    i = np.clip(np.searchsorted(xk, x, side="right") - 1, 0, xk.size - 2)
    h = xk[i + 1] - xk[i]
    t = (x - xk[i]) / h
    if nu == 0:
        w = ((1 + 2 * t) * (1 - t) ** 2, t * t * (3 - 2 * t),
             h * t * (1 - t) ** 2, h * t * t * (t - 1))
    elif nu == 1:
        w = (6 * t * (t - 1) / h, 6 * t * (1 - t) / h,
             (1 - t) * (1 - 3 * t), t * (3 * t - 2))
    else:
        w = ((12 * t - 6) / h ** 2, (6 - 12 * t) / h ** 2,
             (6 * t - 4) / h, (6 * t - 2) / h)
    curves = (...,) + (None,) * (yk.ndim - 1)
    out = np.empty(x.shape + yk.shape[1:])
    term = np.empty_like(out)
    terms = ((yk, i), (yk, i + 1), (mk, i), (mk, i + 1))
    for k, (data, j) in enumerate(terms):
        np.take(data, j, axis=0, out=term if k else out, mode="clip")
        if k:
            term *= w[k][curves]
            out += term
        else:
            out *= w[0][curves]
    return out


class TestHermiteChunks:
    @settings(max_examples=150, deadline=None)
    @given(data=samples(), extra=st.data(),
           curves=st.sampled_from([(), (3,), (2, 3)]),
           nu=st.sampled_from([0, 1, 2]))
    def test_matches_the_one_pass_reference_bit_for_bit(
            self, data, extra, curves, nu):
        xk, _ = data
        rng = np.random.default_rng(extra.draw(st.integers(0, 2 ** 32 - 1),
                                               label="seed"))
        yk = rng.uniform(-1.0, 1.0, (xk.size, *curves))
        mk = rng.uniform(-2.0, 2.0, (xk.size, *curves))
        # 1-D or 2-D points, some beyond the ends
        shape = extra.draw(st.sampled_from([(1,), (7,), (40,), (5, 9),
                                            (13, 3)]), label="points")
        x = rng.uniform(xk[0] - 0.5, xk[-1] + 0.5, shape)
        # one chunk, exactly one, two or many, and tails of one point
        n = x.size
        chunk = extra.draw(st.sampled_from(sorted({1, 2, max(1, n - 1), n,
                                                   n + 5}))
                           | st.integers(1, n), label="chunk")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_CHUNK", chunk)
            got = kernels.hermite(xk, yk, mk, x, nu)
        want = one_pass_hermite(xk, yk, mk, x, nu)
        assert got.shape == want.shape == x.shape + curves
        assert got.tobytes() == want.tobytes()

    def test_long_evaluation_peaks_near_its_output(self):
        # one pass held about 5 MB of per-point temporaries here
        xk = np.linspace(0.0, 1.0, 129)
        yk, mk = np.sin(3 * xk), 3 * np.cos(3 * xk)
        x = np.linspace(-0.1, 1.1, 65537)
        tracemalloc.start()
        try:
            out = kernels.hermite(xk, yk, mk, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2 ** 20
        assert out.tobytes() == one_pass_hermite(xk, yk, mk, x).tobytes()


class TestSimpson:
    @settings(max_examples=200, deadline=None)
    @given(data=samples(min_size=3))
    def test_matches_scipy(self, data):
        x, y = data
        assert kernels.simpson(y, x) == pytest.approx(
            float(simpson(y, x=x)), rel=1e-13, abs=1e-13)
        assert close(kernels.cumulative_simpson(y, x),
                     cumulative_simpson(y, x=x, initial=0.0), 1e-13)

    def test_two_samples_take_the_trapezoid(self):
        assert kernels.simpson([1.0, 3.0], [0.0, 0.5]) == 1.0

    def test_cumulative_needs_three_samples(self):
        with pytest.raises(ValueError, match="three samples"):
            kernels.cumulative_simpson([1.0, 3.0], [0.0, 0.5])
