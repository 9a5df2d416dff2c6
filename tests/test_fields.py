"""Grid bookkeeping, finite differences, and field serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minsurf import fields
from minsurf.fields import (
    GridSpec,
    OperatorField,
    ScalarField,
    diff1,
    diff2,
    laplacian,
)
from minsurf.immersion import ImmersionGrid, minkowski_dot


def spec_np(nx=21, ny=17):
    return GridSpec(nx=nx, ny=ny, hx=0.05, hy=0.05, origin=(-0.5, -0.4),
                    periodic_y=False)


def spec_per(nx=21, ny=32):
    return GridSpec(nx=nx, ny=ny, hx=0.05, hy=1.0 / ny, origin=(-0.5, 0.0),
                    periodic_y=True)


class TestGridSpec:
    def test_axes(self):
        s = spec_np()
        assert s.xs[0] == -0.5 and s.shape == (21, 17)
        assert np.allclose(np.diff(s.xs), 0.05)

    def test_period(self):
        s = spec_per()
        assert s.period_y == pytest.approx(1.0)
        # last node sits one step short of the wrap
        assert s.ys[-1] == pytest.approx(1.0 - s.hy)

    def test_interior_mask(self):
        s = spec_np(5, 4)
        m = s.interior_mask()
        assert not m[0].any() and not m[-1].any()
        assert not m[:, 0].any() and not m[:, -1].any()
        assert m[1:-1, 1:-1].all()

    def test_interior_mask_periodic(self):
        s = spec_per(5, 8)
        m = s.interior_mask()
        # periodic direction has no boundary
        assert not m[0].any() and not m[-1].any()
        assert m[1:-1, :].all()

    def test_json_round_trip(self):
        s = spec_per()
        assert GridSpec.from_json_dict(s.to_json_dict()) == s

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(nx=1, ny=8, hx=0.1, hy=0.1, origin=(0, 0),
                     periodic_y=False)
        with pytest.raises(ValueError):
            GridSpec(nx=8, ny=8, hx=-0.1, hy=0.1, origin=(0, 0),
                     periodic_y=False)

    @pytest.mark.parametrize("kw", [
        {"hx": float("inf")}, {"hy": float("inf")}, {"hx": float("nan")},
        {"origin": (float("-inf"), 0.0)}, {"origin": (0.0, float("nan"))},
    ], ids=["hx-inf", "hy-inf", "hx-nan", "origin-x-inf", "origin-y-nan"])
    def test_non_finite_is_refused(self, kw):
        # an infinite step would put nan into xs
        with pytest.raises(ValueError):
            GridSpec(**{"nx": 5, "ny": 5, "hx": 0.1, "hy": 0.1, **kw})


class TestDifferences:
    def _f(self, s):
        X, Y = s.nodes()
        return np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)

    def test_diff1_second_order(self):
        errs = []
        for n in (32, 64):
            s = GridSpec(nx=n + 1, ny=n + 1, hx=1.0 / n, hy=1.0 / n,
                         origin=(0.0, 0.0), periodic_y=False)
            X, Y = s.nodes()
            v = np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
            d = diff1(v, s.hx, axis=0)
            exact = 2 * np.pi * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
            errs.append(np.max(np.abs(d - exact)[1:-1, :]))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(3, 70), other=st.integers(3, 9),
           vector=st.booleans(), axis=st.sampled_from([0, 1]),
           h=st.floats(1e-3, 10.0))
    def test_diff1_is_numpy_gradient_bit_for_bit(self, data, n, other,
                                                 vector, axis, h):
        shape = [other, other] + [4] * vector
        shape[axis] = n
        v = data.draw(arrays(float, tuple(shape),
                             elements=st.floats(-1e3, 1e3)))
        want = np.gradient(v, h, axis=axis, edge_order=2)
        assert np.array_equal(diff1(v, h, axis=axis), want)

    def test_diff2_periodic_wraps(self):
        n = 64
        s = GridSpec(nx=9, ny=n, hx=0.1, hy=1.0 / n, origin=(0.0, 0.0),
                     periodic_y=True)
        X, Y = s.nodes()
        v = np.cos(2 * np.pi * Y) + 0.0 * X
        d = diff2(v, s.hy, axis=1, periodic=True)
        exact = -(2 * np.pi) ** 2 * np.cos(2 * np.pi * Y)
        # wraps cleanly: the error is uniform in j, including j = 0
        err = np.abs(d - exact)
        assert err.max() <= 10.0 / n ** 2 * (2 * np.pi) ** 4
        assert err[:, 0].max() <= 2 * err[:, n // 2].max() + 1e-12

    def test_laplacian_matches_analytic(self):
        n = 64
        s = GridSpec(nx=n + 1, ny=n, hx=1.0 / n, hy=1.0 / n,
                     origin=(0.0, 0.0), periodic_y=True)
        f = ScalarField.from_function(
            s, lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y))
        lap = laplacian(f)
        exact = -(np.pi ** 2 + 4 * np.pi ** 2) * f.values
        err = np.abs(lap.values - exact)[s.interior_mask()]
        # truncation constant (f_xxxx + f_yyyy)/12 = 17 pi^4 / 12 ~ 138
        assert err.max() <= 150.0 / n ** 2


class TestScalarField:
    def test_from_function_and_sup(self):
        s = spec_np(5, 5)
        f = ScalarField.from_function(s, lambda x, y: x + 2 * y)
        assert f.values.shape == s.shape
        assert f.sup() == np.abs(f.values).max()
        assert f.sup(interior_only=True) == np.abs(
            f.values[s.interior_mask()]).max()

    def test_rejects_nonfinite(self):
        s = spec_np(4, 4)
        vals = np.zeros(s.shape)
        vals[2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(s, vals)

    def test_rejects_wrong_shape(self):
        s = spec_np(4, 4)
        with pytest.raises(ValueError):
            ScalarField(s, np.zeros((3, 4)))

    def test_csv_round_trip(self, tmp_path):
        s = spec_per(7, 8)
        f = ScalarField.from_function(s, lambda x, y: np.sin(x) * y + 0.1)
        p = tmp_path / "f.csv"
        f.to_csv(p)
        g = ScalarField.from_csv(p)
        assert g.spec == s
        assert np.array_equal(g.values, f.values)


def frozen(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class TestGridArrays:
    """Fields adopt an owned, read-only C-ordered float64 array of the
    grid's shape; they copy anything else."""

    def test_owned_read_only_array_is_kept(self):
        s = spec_np(4, 5)
        a = frozen(np.arange(20.0).reshape(4, 5))
        assert ScalarField(s, a).values is a
        m = frozen(np.ones((4, 5, 2, 2)))
        assert OperatorField(s, m).mat is m

    @pytest.mark.parametrize("make", [
        lambda a: a,                                  # writable
        lambda a: frozen(a)[:, :],                    # a view
        lambda a: frozen(np.asfortranarray(a)),       # not C-ordered
        lambda a: frozen(a).astype(np.float32),       # not float64
    ], ids=["writable", "view", "fortran", "float32"])
    def test_anything_else_is_copied(self, make):
        s = spec_np(4, 5)
        a = make(np.arange(20.0).reshape(4, 5))
        f = ScalarField(s, a)
        assert f.values is not a and not np.shares_memory(f.values, a)
        assert not f.values.flags.writeable
        assert np.array_equal(f.values, np.arange(20.0).reshape(4, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_kept_array_is_still_scanned(self, bad):
        s = spec_np(4, 5)
        a = np.zeros(s.shape)
        a[3, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(s, frozen(a))

    def test_kept_array_is_still_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            ScalarField(spec_np(4, 5), frozen(np.zeros((5, 4))))


class TestOperatorField:
    def test_algebra(self):
        s = spec_np(6, 6)
        A = OperatorField.from_components(s, 2.0, 1.0, 0.0, 3.0)
        B = OperatorField.from_components(s, 1.0, 0.0, 1.0, 1.0)
        C = A @ B
        assert np.allclose(C.a11, 3.0) and np.allclose(C.a12, 1.0)
        assert np.allclose(C.a21, 3.0) and np.allclose(C.a22, 3.0)
        assert np.allclose(A.det(), 6.0)
        assert np.allclose((A - A).sup(), 0.0)
        assert np.allclose((2.0 * A).a11, 4.0)

    def test_inverse(self):
        s = spec_np(6, 6)
        A = OperatorField.from_components(s, 2.0, 1.0, 0.5, 3.0)
        P = A @ A.inverse()
        assert (P - OperatorField.identity(s)).sup() <= 1e-14

    def test_singular_inverse_raises(self):
        s = spec_np(4, 4)
        A = OperatorField.from_components(s, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ZeroDivisionError):
            A.inverse()

    def test_scalarfield_multiplication(self):
        s = spec_np(6, 6)
        f = ScalarField.from_function(s, lambda x, y: x)
        A = OperatorField.identity(s) * f
        assert np.allclose(A.a11, f.values)
        assert np.allclose(A.a12, 0.0)

    def test_arithmetic_refuses_another_grid(self):
        # same shape, different spacing: as ScalarField arithmetic and @ do
        a, b = (GridSpec(nx=4, ny=4, hx=h, hy=0.1, periodic_y=False)
                for h in (0.1, 0.2))
        A, B = OperatorField.identity(a), OperatorField.identity(b)
        for combine in (lambda: A @ B, lambda: A + B, lambda: A - B,
                        lambda: A * ScalarField.zeros(b),
                        lambda: ScalarField.zeros(b) * A):
            with pytest.raises(ValueError, match="grids differ"):
                combine()

    @pytest.mark.parametrize("left", ["array", "ScalarField", "numpy scalar"])
    def test_multiplication_from_the_left(self, left):
        # the product is A's own, bit for bit, not an object array of fields
        s = spec_np(6, 5)
        A = OperatorField.from_components(s, 2.0, 1.0, 0.5, 3.0)
        f = ScalarField.from_function(s, lambda x, y: 1.0 + x * x - 0.3 * y)
        other = {"array": f.values, "ScalarField": f,
                 "numpy scalar": np.float64(0.7)}[left]
        P = other * A
        assert type(P) is OperatorField and P.spec == s
        assert np.array_equal(P.mat, (A * other).mat)


# ---------------------------------------------------------------------------
# properties of the shared codec and of the periodic wrap


@st.composite
def grid_specs(draw, periodic=st.booleans()):
    return GridSpec(
        nx=draw(st.integers(3, 9)),
        ny=draw(st.integers(3, 9)),
        hx=draw(st.floats(1e-3, 10.0)),
        hy=draw(st.floats(1e-3, 10.0)),
        origin=(draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))),
        periodic_y=draw(periodic),
    )


# every finite magnitude up to 1e300, subnormals and both signed zeros
node_values = st.floats(-1e300, 1e300) | st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300])


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scalar_round_trip_is_bitwise(self, data, tmp_path_factory):
        spec = data.draw(grid_specs())
        f = ScalarField(spec, data.draw(arrays(float, spec.shape,
                                               elements=node_values)))
        p = tmp_path_factory.mktemp("codec") / "f.csv"
        f.to_csv(p)
        g = ScalarField.from_csv(p)
        assert g.spec == spec and bits(g.values) == bits(f.values)


def reference_csv(spec: GridSpec, names, columns) -> bytes:
    """The grid CSV format written one value at a time: the header, then
    x, y and every column at "%.17g" per node, j fastest."""
    X, Y = spec.nodes()
    lines = ["# " + json.dumps(spec.to_json_dict(), sort_keys=True),
             ",".join(["x", "y", *names])]
    for row in zip(X.ravel(), Y.ravel(), *columns):
        lines.append(",".join("%.17g" % float(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def random_immersion(data, spec: GridSpec) -> ImmersionGrid:
    """Points of H^3 with unit normals, drawn node by node."""
    coords = arrays(float, (*spec.shape, 3), elements=st.floats(-30.0, 30.0))
    p, q = data.draw(coords), data.draw(coords)
    sigma = np.concatenate([np.sqrt(1.0 + np.sum(p * p, -1))[..., None], p], -1)
    nu = np.concatenate([np.zeros((*spec.shape, 1)), q], -1)
    nu[..., 3] += 1.0 + np.abs(q[..., 2])  # spatial, never parallel to sigma
    nu += minkowski_dot(nu, sigma)[..., None] * sigma
    nu /= np.sqrt(minkowski_dot(nu, nu))[..., None]
    return ImmersionGrid(spec, sigma, nu)


class TestWriterMatchesReference:
    """Every grid writer produces exactly the bytes of reference_csv, also
    when rows straddle the writer's chunks."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), chunk=st.sampled_from([7, fields._CSV_CHUNK_ROWS]))
    def test_scalar_field(self, data, chunk, tmp_path_factory):
        spec = data.draw(grid_specs())
        f = ScalarField(spec, data.draw(arrays(float, spec.shape,
                                               elements=node_values)))
        p = tmp_path_factory.mktemp("writer") / "f.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "_CSV_CHUNK_ROWS", chunk)
            f.to_csv(p)
        assert p.read_bytes() == reference_csv(spec, ["v"], [f.values.ravel()])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), chunk=st.sampled_from([7, fields._CSV_CHUNK_ROWS]))
    def test_immersion_grid(self, data, chunk, tmp_path_factory):
        spec = data.draw(grid_specs())
        g = random_immersion(data, spec)
        p = tmp_path_factory.mktemp("writer") / "g.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "_CSV_CHUNK_ROWS", chunk)
            g.to_csv(p)
        cols = np.concatenate([g.sigma, g.nu], -1).reshape(-1, 8).T
        assert p.read_bytes() == reference_csv(spec, ImmersionGrid._CSV_NAMES,
                                               cols)

    def test_extreme_axes(self, tmp_path):
        # axis values near both ends of the float range; -0.0 among the values
        spec = GridSpec(nx=4, ny=3, hx=1e300, hy=1e-300,
                        origin=(-1e300, -0.0), periodic_y=True)
        f = ScalarField(spec, np.array([[-0.0, 1e-300, -1e300]] * 4))
        f.to_csv(tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_bytes() == reference_csv(
            spec, ["v"], [f.values.ravel()])


class TestWrapProperties:
    @given(spec=grid_specs(periodic=st.just(True)),
           k=st.floats(-1e3, 1e3))
    def test_minimum_image(self, spec, k):
        p = spec.period_y
        dy = k * p
        w = spec.wrap_dy(dy)
        assert -p / 2 <= w <= p / 2
        turns = (w - dy) / p
        eps = np.finfo(float).eps
        assert abs(turns - round(turns)) <= 8 * eps * (abs(k) + 1)

    @given(spec=grid_specs(periodic=st.just(False)),
           dy=st.floats(allow_nan=False))
    def test_identity_without_period(self, spec, dy):
        assert spec.wrap_dy(dy) == dy

    def test_arrays_wrap_elementwise(self):
        s = spec_per(5, 10)
        dy = np.array([-0.6, -0.5, 0.0, 0.4, 0.6, 1.7])
        assert np.allclose(s.wrap_dy(dy), [0.4, -0.5, 0.0, 0.4, -0.4, -0.3])
