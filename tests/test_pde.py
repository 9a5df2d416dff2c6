"""Newton solver for the conformal-factor equation on strips and squares."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minsurf.fields import GridSpec, ScalarField, diff2, laplacian
from minsurf import pde
from minsurf.errors import NewtonDiverged


def square_problem(width: float, c: float, n: int = 33) -> pde.PdeProblem:
    spec = GridSpec(nx=n, ny=n, hx=width / (n - 1), hy=width / (n - 1),
                    origin=(-width / 2, -width / 2), periodic_y=False)
    return pde.PdeProblem(spec=spec,
                          boundary=ScalarField(spec, np.full(spec.shape, c)))


def strip_problem(width: float, c: float, nx: int = 49,
                  ny: int = 32) -> pde.PdeProblem:
    spec = GridSpec(nx=nx, ny=ny, hx=width / (nx - 1), hy=1.0 / ny,
                    origin=(-width / 2, 0.0), periodic_y=True)
    vals = np.zeros(spec.shape)
    vals[0, :] = c
    vals[-1, :] = c
    return pde.PdeProblem(spec=spec, boundary=ScalarField(spec, vals))


def sign_changing_square(n: int = 33) -> pde.PdeProblem:
    # boundary data spanning [-0.5, 0.3], so u < 0 inside and the Newton
    # Jacobian is indefinite there
    spec = GridSpec(nx=n, ny=n, hx=1 / (n - 1), hy=1 / (n - 1),
                    periodic_y=False)
    X, Y = spec.nodes()
    v = np.cos(2 * np.pi * X + 0.3) + 0.5 * np.cos(4 * np.pi * Y + 1.1)
    edge = ~spec.interior_mask()
    lo, hi = v[edge].min(), v[edge].max()
    v = -0.5 + 0.8 * (v - lo) / (hi - lo)
    return pde.PdeProblem(spec=spec, boundary=ScalarField(spec, v))


class TestSolve:
    def test_invariant_strip_convergence(self, sol0):
        errs = {}
        for n in (32, 64):
            p = pde.invariant_strip_problem(sol0, 0.8, nx=n + 1, ny=n)
            s = pde.solve(p)
            assert pde.residual(s) <= 1e-10
            exact = np.asarray(sol0.g_at(np.abs(s.spec.xs)))[:, None]
            errs[n] = np.max(np.abs(s.u.values - exact))
        assert 3.5 <= errs[32] / errs[64] <= 4.5

    def test_boundary_matches_exactly(self, sol0):
        p = pde.invariant_strip_problem(sol0, 0.8, nx=33, ny=32)
        s = pde.solve(p)
        assert np.array_equal(s.u.values[0, :], p.boundary.values[0, :])
        assert np.array_equal(s.u.values[-1, :], p.boundary.values[-1, :])

    @pytest.mark.parametrize("width,c", [(0.05, 0.3), (0.02, 0.3),
                                         (0.1, 0.0)])
    def test_tiny_square_stays_near_constant(self, width, c):
        s = pde.solve(square_problem(width, c))
        dev = np.max(np.abs(s.u.values - c))
        assert dev <= 10.0 * width ** 2 * np.cosh(2 * c)

    def test_no_interior_maximum(self):
        # the forcing is strictly positive, so the discrete maximum sits on
        # the boundary; the minimum may be interior (and is, for constant
        # data: the solution dips below it)
        s = pde.solve(square_problem(0.4, 0.2))
        u = s.u.values
        boundary_max = max(u[0, :].max(), u[-1, :].max(),
                           u[:, 0].max(), u[:, -1].max())
        assert u[1:-1, 1:-1].max() < boundary_max
        assert u[1:-1, 1:-1].min() < 0.2  # interior dip

    def test_comparison_of_nested_boundary_data(self):
        s1 = pde.solve(square_problem(0.4, 0.2))
        s2 = pde.solve(square_problem(0.4, 0.3))
        assert np.all(s2.u.values - s1.u.values >= -1e-12)

    def test_wide_zero_boundary_diverges(self):
        # symmetric zero-boundary profiles cease to exist near width 1.2497
        with pytest.raises(NewtonDiverged):
            pde.solve(strip_problem(1.4, 0.0))

    @pytest.mark.parametrize("c", [0.0, 3.0])
    def test_beyond_universal_width_diverges(self, c):
        # width 2.9 exceeds the widest strip any profile admits (about
        # 2.858, attained by a symmetric profile with center value -0.39),
        # and in particular 2 delta(0) = 2.622
        with pytest.raises(NewtonDiverged):
            pde.solve(strip_problem(2.9, c))

    def test_indefinite_regime_converges(self):
        p = sign_changing_square()
        s = pde.solve(p)
        assert pde.residual(s) <= 1e-10
        assert np.array_equal(s.u.values[~p.spec.interior_mask()],
                              p.boundary.values[~p.spec.interior_mask()])
        assert s.u.values[p.spec.interior_mask()].min() < 0
        assert not s.weakly_bounded

    def test_repeated_solves_are_bitwise_equal(self, sol0):
        # byte-identical reports rest on this
        for p in (pde.invariant_strip_problem(sol0, 0.8, nx=33, ny=32),
                  sign_changing_square()):
            assert np.array_equal(pde.solve(p).u.values,
                                  pde.solve(p).u.values)

    def test_newton_steps_are_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="minsurf"):
            pde.solve(sign_changing_square())
        steps = [r for r in caplog.records if r.name == "minsurf.pde"]
        assert steps and all(r.levelno == logging.DEBUG for r in steps)
        # (iteration, sup residual, damping, MINRES iterations, forcing,
        # MINRES info)
        its, res, damping, n_lin, eta, info = zip(*(r.args for r in steps))
        assert its == tuple(range(1, len(steps) + 1))
        assert all(a > b for a, b in zip(res, res[1:]))
        assert res[-1] <= 1e-10
        assert all(0 < d <= 1 for d in damping)
        assert all(k >= 1 for k in n_lin)
        assert all(0 < e < 1 for e in eta)
        assert all(i == 0 for i in info)

    @pytest.mark.parametrize("case", ["strip", "indefinite"])
    def test_minres_cap_never_returns_an_unconverged_chart(
            self, sol0, case, monkeypatch, caplog):
        # at the cap the unconverged MINRES step is used as an inexact
        # Newton step; the true-residual test must still decide
        monkeypatch.setattr(pde, "_MINRES_MAXITER", 1)
        p = (pde.invariant_strip_problem(sol0, 0.8, nx=33, ny=32)
             if case == "strip" else sign_changing_square())
        with caplog.at_level(logging.DEBUG, logger="minsurf.pde"):
            try:
                s = pde.solve(p)
            except NewtonDiverged:
                return
        assert pde.residual(s) <= 1e-10
        capped = [r.args for r in caplog.records
                  if r.name == "minsurf.pde" and r.args[5] > 0]
        assert capped and all(a[3] == 1 for a in capped)

    def test_package_logger_is_silent_by_default(self):
        handlers = logging.getLogger("minsurf").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)


class TestComparisonPrinciple:
    # Width 0.5: every such problem is solvable (wider strips with negative
    # data are not), and the first Dirichlet eigenvalue of -Delta_h (at
    # least 32) exceeds |4 sinh 2u| for |u| <= 1, so the discrete problem is
    # monotone in its boundary data.
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_ordered_data_give_ordered_solutions(self, data):
        nx = data.draw(st.integers(3, 24), label="nx")
        ny = data.draw(st.integers(3, 24), label="ny")
        periodic = data.draw(st.booleans(), label="periodic")
        spec = GridSpec(nx=nx, ny=ny, hx=0.5 / (nx - 1),
                        hy=0.5 / ny if periodic else 0.5 / (ny - 1),
                        periodic_y=periodic)
        g1 = data.draw(arrays(float, spec.shape,
                              elements=st.floats(-0.5, 0.5)))
        gap = data.draw(arrays(float, spec.shape,
                               elements=st.floats(0.0, 0.5)))
        u1, u2 = (pde.solve(pde.PdeProblem(spec, ScalarField(spec, g))).u.values
                  for g in (g1, g1 + gap))
        assert np.all(u1 <= u2 + 1e-12)


class TestMaximumPrinciple:
    # Delta_h u = 2 cosh 2u > 0, so no interior node can reach the boundary
    # maximum; sign-changing data make the Newton Jacobian indefinite
    @settings(max_examples=12, deadline=None)
    @given(nx=st.integers(17, 33), ny=st.integers(17, 33),
           width=st.floats(0.5, 1.0), height=st.floats(0.5, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_interior_max_below_boundary_max(self, nx, ny, width, height, seed):
        spec = GridSpec(nx=nx, ny=ny, hx=width / (nx - 1), hy=height / (ny - 1),
                        periodic_y=False)
        edge = ~spec.interior_mask()
        g = np.zeros(spec.shape)
        g[edge] = np.random.default_rng(seed).uniform(-0.5, 0.3, edge.sum())
        g[0, ny // 2], g[-1, ny // 2] = -0.5, 0.3
        s = pde.solve(pde.PdeProblem(spec, ScalarField(spec, g)))
        assert pde.residual(s) <= 1e-10
        # corners have no interior neighbour; leave them out of the bound
        coupled = edge.copy()
        coupled[[0, 0, -1, -1], [0, -1, 0, -1]] = False
        u = s.u.values
        assert u[~edge].max() < u[coupled].max()


GRID_SHAPES = [(17, 16), (17, 15), (3, 8), (3, 7), (12, 3)]


def interior_spec(nx, ny, periodic):
    return GridSpec(nx=nx, ny=ny, hx=0.13, hy=0.05, periodic_y=periodic)


def random_interior(spec, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(pde._interior_shape(spec))


class TestApplyLaplacian:
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("nx,ny", GRID_SHAPES)
    def test_matches_fields_laplacian_on_zero_padded_data(self, periodic, nx, ny):
        spec = interior_spec(nx, ny, periodic)
        v = random_interior(spec, nx * ny)
        inner = spec.interior_mask()
        g = np.zeros(spec.shape)
        g[inner] = v.ravel()
        ref = laplacian(ScalarField(spec, g)).values[inner].reshape(v.shape)
        got = pde._apply_laplacian(spec, v.ravel()).reshape(v.shape)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("nx,ny", GRID_SHAPES)
    def test_absolute_coefficients(self, periodic, nx, ny):
        spec = interior_spec(nx, ny, periodic)
        v = random_interior(spec, nx + ny)
        mx, my = v.shape
        cx, cy = spec.hx**-2, spec.hy**-2
        ref = np.empty_like(v)
        for i in range(mx):
            for j in range(my):
                total = 2.0 * (cx + cy) * abs(v[i, j])
                for di, dj, c in ((-1, 0, cx), (1, 0, cx), (0, -1, cy), (0, 1, cy)):
                    a, b = i + di, j + dj
                    if periodic:
                        b %= my
                    if 0 <= a < mx and 0 <= b < my:
                        total += c * abs(v[a, b])
                ref[i, j] = total
        got = pde._apply_laplacian(spec, np.abs(v).ravel(), absolute=True)
        assert np.allclose(got.reshape(v.shape), ref, rtol=1e-14, atol=0.0)


class TestPoissonSolve:
    # inverts the stencil that pde.solve applies
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("nx,ny", GRID_SHAPES)
    @pytest.mark.parametrize("shift", [0.0, 7.5])
    def test_inverts_the_assembled_laplacian(self, periodic, nx, ny, shift):
        spec = interior_spec(nx, ny, periodic)
        x = random_interior(spec, nx * ny).ravel()
        rhs = shift * x - pde._apply_laplacian(spec, x)
        y = pde._poisson_solve(spec, rhs, pde._poisson_eigs(spec) + shift)
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)


class TestResidual:
    def test_matches_definition(self, sol0):
        s = pde.solve(pde.invariant_strip_problem(sol0, 0.8, nx=33, ny=32))
        spec = s.spec
        lap = (diff2(s.u.values, spec.hx, axis=0)
               + diff2(s.u.values, spec.hy, axis=1, periodic=True))
        r = np.abs(lap - 2.0 * np.cosh(2.0 * s.u.values))
        assert pde.residual(s) == np.max(r[spec.interior_mask()])


class TestHarmonicExtension:
    def test_reproduces_linear_data(self):
        spec = GridSpec(nx=17, ny=17, hx=1 / 16, hy=1 / 16, origin=(0, 0),
                        periodic_y=False)
        lin = ScalarField.from_function(spec, lambda x, y: 0.3 * x - 0.2 * y + 0.1)
        he = pde.harmonic_extension(spec, lin)
        assert np.max(np.abs(he.values - lin.values)) <= 1e-11

    def test_reproduces_data_linear_in_x_on_a_strip(self):
        spec = GridSpec(nx=33, ny=20, hx=0.9 / 32, hy=1 / 20,
                        origin=(-0.45, 0.0), periodic_y=True)
        lin = ScalarField.from_function(spec, lambda x, y: 0.7 * x - 0.1)
        he = pde.harmonic_extension(spec, lin)
        assert np.max(np.abs(he.values - lin.values)) <= 1e-12

    def test_rejects_boundary_on_another_grid(self):
        # same node count, other spacing: unchecked, the result was off by
        # 0.40 from the linear data it should reproduce
        grid = GridSpec(nx=17, ny=17, hx=1 / 16, hy=1 / 16, origin=(0, 0),
                        periodic_y=False)
        spec = GridSpec(nx=17, ny=17, hx=1 / 8, hy=1 / 32, origin=(0, 0),
                        periodic_y=False)
        lin = ScalarField.from_function(grid, lambda x, y: 0.3 * x - 0.2 * y + 0.1)
        with pytest.raises(ValueError, match="different grid"):
            pde.harmonic_extension(spec, lin)


class TestInvariantStripProblem:
    def test_rejects_width_at_maximal_strip(self, sol0):
        with pytest.raises(ValueError):
            pde.invariant_strip_problem(sol0, 2.0 * sol0.delta_est + 0.1,
                                        nx=33, ny=32)

    def test_newton_params_validation(self):
        with pytest.raises(ValueError):
            pde.NewtonParams(tol_residual=-1.0)
        with pytest.raises(ValueError):
            pde.NewtonParams(damping=1.5)
