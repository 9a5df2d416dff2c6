"""Newton solver for the conformal-factor equation on strips and squares."""

import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minsurf.fields import GridSpec, ScalarField, diff2, laplacian
from minsurf import invariant_ode as iode
from minsurf import pde
from minsurf.errors import NewtonDiverged, SingularJacobian


def square_problem(width: float, c: float, n: int = 33) -> pde.PdeProblem:
    spec = GridSpec(nx=n, ny=n, hx=width / (n - 1), hy=width / (n - 1),
                    origin=(-width / 2, -width / 2), periodic_y=False)
    return pde.PdeProblem(spec=spec,
                          boundary=ScalarField(spec, np.full(spec.shape, c)))


def strip_problem(width: float, c: float, nx: int = 49,
                  ny: int = 32) -> pde.PdeProblem:
    spec = GridSpec.strip(width, nx, ny)
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


class TestDstMatrix:
    # 537 = 3 * 179 and 1021 (prime) are the lengths scipy's FFT-based
    # DST-I handles slowest
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 127, 537, 1021])
    def test_matches_scipy_dst(self, m):
        from scipy.fft import dst
        s = pde._dst_matrix(m)
        x = np.random.default_rng(m).standard_normal((m, 3))
        ref = dst(x, type=1, axis=0, norm="ortho")
        assert np.max(np.abs(s @ x - ref)) <= 1e-14 * np.sqrt(m) * np.max(
            np.abs(ref))
        assert np.array_equal(s, s.T) and not s.flags.writeable
        assert np.max(np.abs(s @ s - np.eye(m))) <= 1e-13


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


def symmetric_system(n, seed, indefinite, spread=10.0):
    """A = Q diag(d) Q^T with |d| in [1, spread] (both signs when indefinite
    and n >= 2), a diagonal SPD preconditioner M^-1 in [0.5, 2], and b."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(1.0, spread, n)
    if indefinite:
        d[::2] *= -1.0
    m_inv = rng.uniform(0.5, 2.0, n)
    return (q * d) @ q.T, m_inv, rng.standard_normal(n)


def scipy_minres(A, b, m_inv, rtol, maxiter):
    """(x, info, iterations) of scipy.sparse.linalg.minres on the same
    operators."""
    from scipy.sparse.linalg import LinearOperator, minres
    its = []
    x, info = minres(
        LinearOperator((b.size,) * 2, matvec=A, dtype=float), b, rtol=rtol,
        maxiter=maxiter, callback=lambda _: its.append(None),
        M=LinearOperator((b.size,) * 2, matvec=m_inv, dtype=float))
    return x, info, len(its)


def jacobian_operators(p):
    """-J and pde.solve's preconditioner at p's solution, where 4 sinh 2u
    varies over the chart (it takes both signs when u does)."""
    spec = p.spec
    v = pde.solve(p).u.values[spec.interior_mask()]
    dg = 4.0 * np.sinh(2.0 * v)
    lam = pde._poisson_eigs(spec) + max(float(np.mean(dg)), 0.0)
    return (lambda x: dg * x - pde._apply_laplacian(spec, x),
            lambda r: pde._poisson_solve(spec, r, lam))


class TestMinres:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           indefinite=st.booleans(), precondition=st.booleans())
    def test_solves_small_symmetric_systems(self, n, seed, indefinite,
                                            precondition):
        A, m_inv, b = symmetric_system(n, seed, indefinite)
        psolve = (lambda r: m_inv * r) if precondition else (lambda r: r)
        x, info, its = pde._minres(lambda v: A @ v, b, psolve, 1e-12, 10 * n)
        ref = np.linalg.solve(A, b)
        assert info == 0 and 1 <= its <= 10 * n
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_iteration_cap_returns_maxiter(self):
        A, m_inv, b = symmetric_system(40, 7, indefinite=True)
        x, info, its = pde._minres(lambda v: A @ v, b, lambda r: m_inv * r,
                                   1e-14, 3)
        assert (info, its) == (3, 3)
        assert np.all(np.isfinite(x))

    # the same iterations as scipy's while the Lanczos vectors stay close to
    # orthogonal; near n iterations the two round apart, as any two
    # summation orders do
    @pytest.mark.parametrize("indefinite", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("rtol,maxiter", [(1e-6, 200), (1e-14, 5)])
    def test_matches_scipy_on_dense_systems(self, seed, indefinite, rtol,
                                            maxiter):
        A, m_inv, b = symmetric_system(60, seed, indefinite, spread=3.0)
        ours = pde._minres(lambda v: A @ v, b, lambda r: m_inv * r, rtol,
                           maxiter)
        theirs = scipy_minres(lambda v: A @ v, b, lambda r: m_inv * r, rtol,
                              maxiter)
        assert ours[1:] == theirs[1:]
        assert np.linalg.norm(ours[0] - theirs[0]) <= (
            max(rtol, 1e-12) * np.linalg.norm(theirs[0]))

    @pytest.mark.parametrize("case", ["strip", "indefinite"])
    @pytest.mark.parametrize("rtol", [0.5, 1e-4, 1e-10])
    def test_matches_scipy_on_newton_jacobians(self, sol0, case, rtol):
        p = (pde.invariant_strip_problem(sol0, 0.8, nx=65, ny=64)
             if case == "strip" else sign_changing_square(65))
        minus_J, precond = jacobian_operators(p)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(p.spec.interior_mask().sum())
        ours = pde._minres(minus_J, b, precond, rtol, 200)
        theirs = scipy_minres(minus_J, b, precond, rtol, 200)
        assert ours[1:] == theirs[1:]
        assert np.linalg.norm(ours[0] - theirs[0]) <= (
            max(rtol, 1e-12) * np.linalg.norm(theirs[0]))

    @pytest.mark.parametrize("case", ["eigenvector", "near-singular"])
    def test_early_exits_match_scipy(self, case):
        # rtol below eps: only the eigenvector exit, or the rounding floor
        # epsx and the condition estimate Acond, can stop the iteration
        if case == "eigenvector":  # M^-1 A b = b to rounding
            A, b = np.diag([1.0, 2.0]), np.array([1.0, 1e-15])
        else:  # |x| ~ 1e17 |b|: epsx stops it after n steps
            A, b = np.diag([1e-17, *range(1, 30)]), np.ones(30)
        ours = pde._minres(lambda v: A @ v, b, lambda r: r, 1e-20, 100)
        theirs = scipy_minres(lambda v: A @ v, b, lambda r: r, 1e-20, 100)
        # x is rounding noise along the 1e-17 eigenvector; only the stop is
        # compared
        assert ours[1:] == theirs[1:] and ours[1] == 0

    def test_zero_right_hand_side_returns_zero(self):
        x, info, its = pde._minres(lambda v: v, np.zeros(4), lambda r: r,
                                   1e-8, 10)
        assert (info, its) == (0, 0) and not x.any()

    def test_indefinite_preconditioner_is_a_breakdown(self):
        A, _, b = symmetric_system(6, 4, indefinite=False)
        with pytest.raises(SingularJacobian, match="not positive definite"):
            pde._minres(lambda v: A @ v, b, lambda r: -r, 1e-8, 50)

    def test_negative_beta_is_a_breakdown(self):
        # M^-1 = diag(1, -1): b^T M^-1 b = 1 > 0, but the next Lanczos
        # vector (0, 1) has M^-1-norm squared -1
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularJacobian, match="not symmetric"):
            pde._minres(lambda v: A @ v, np.array([1.0, 0.0]),
                        lambda r: r * np.array([1.0, -1.0]), 1e-8, 50)

    def test_non_finite_reduction_is_a_breakdown(self):
        with pytest.raises(SingularJacobian, match="non-finite"):
            pde._minres(lambda v: np.full_like(v, np.nan), np.ones(3),
                        lambda r: r, 1e-8, 50)

    def test_solve_raises_on_an_indefinite_preconditioner(self, sol0,
                                                          monkeypatch):
        inner = pde._poisson_solve
        monkeypatch.setattr(pde, "_poisson_solve",
                            lambda spec, r, lam: -inner(spec, r, lam))
        with pytest.raises(SingularJacobian):
            pde.solve(pde.invariant_strip_problem(sol0, 0.8, nx=33, ny=32))


def bench_rectangle(rng, n=128):
    """The benchmark's sign-changing unit square: three random Fourier
    modes per axis, boundary data rescaled onto [-0.5, 0.3]."""
    spec = GridSpec(nx=n + 1, ny=n + 1, hx=1.0 / n, hy=1.0 / n)
    X, Y = spec.nodes()
    v = np.zeros(spec.shape)
    for k in (1, 2, 3):
        a, b = rng.uniform(-1.0, 1.0, 2)
        px, py = rng.uniform(0.0, 2 * np.pi, 2)
        v += (a * np.cos(2 * np.pi * k * X + px)
              + b * np.cos(2 * np.pi * k * Y + py)) / k
    edge = ~spec.interior_mask()
    lo, hi = v[edge].min(), v[edge].max()
    v = -0.5 + 0.8 * (v - lo) / (hi - lo)
    return pde.PdeProblem(spec=spec, boundary=ScalarField(spec, v))


# (iteration, damping, MINRES iterations, MINRES info) of each Newton step,
# as scipy.sparse.linalg.minres gave them
SCIPY_STEPS = [(1, 1.0, 1, 0), (2, 1.0, 1, 0), (3, 1.0, 2, 0), (4, 1.0, 4, 0)]
SCIPY_RECT_STEPS = {
    (0, 0): SCIPY_STEPS,
    (0, 1): SCIPY_STEPS,
    (1, 0): [(1, 1.0, 1, 0), (2, 1.0, 1, 0), (3, 1.0, 3, 0), (4, 1.0, 6, 0)],
    (1, 1): [(1, 1.0, 1, 0), (2, 1.0, 1, 0), (3, 1.0, 2, 0), (4, 1.0, 5, 0)],
}


class TestNewtonStepLog:
    """The benchmark's solve problems take the Newton and MINRES steps they
    took with scipy's MINRES."""

    def steps(self, p, caplog):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="minsurf.pde"):
            pde.solve(p)
        return [(a[0], a[2], a[3], a[5]) for a in
                (r.args for r in caplog.records if r.name == "minsurf.pde")]

    @pytest.mark.parametrize("n", [128, 256])
    def test_strips(self, sol0, n, caplog):
        delta = iode.estimate_delta(0.0)
        p = pde.invariant_strip_problem(sol0, 0.8 * delta, nx=n + 1, ny=n)
        assert self.steps(p, caplog) == SCIPY_STEPS

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sign_changing_rectangles(self, seed, caplog):
        rng = np.random.default_rng(seed)
        for k in range(2):
            p = bench_rectangle(rng)
            assert self.steps(p, caplog) == SCIPY_RECT_STEPS[seed, k]


def c03_strip(sol, level):
    """Criterion 03's strip: width 0.8 delta(0), ny = level."""
    width = 0.8 * iode.estimate_delta(0.0)
    return pde.invariant_strip_problem(sol, width, nx=round(width * level) + 1,
                                       ny=level)


def run_logged(fn, p, caplog):
    """u from fn(p), and the (iteration, sup residual, damping, MINRES
    iterations, forcing, MINRES info) of each Newton step it logged."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="minsurf.pde"):
        u = fn(p)
    return u, [r.args for r in caplog.records if r.name == "minsurf.pde"]


def newton_outcome(fn):
    """fn()'s u, or the iteration count of the NewtonDiverged it raised."""
    try:
        return fn()
    except NewtonDiverged as e:
        return e.iterations


class TestYInvariantReduction:
    """solve runs a cylinder with y-constant edge rows on 3 columns and
    tiles the result; _newton on the full grid is the reference."""

    @pytest.mark.parametrize("case", ["c03-64", "c03-128", "negative-edges"])
    def test_matches_the_full_grid_newton(self, sol0, case, caplog):
        # negative constant data: u < 0 inside, so -J is indefinite there
        p = (strip_problem(0.6, -0.4, nx=65, ny=64) if case == "negative-edges"
             else c03_strip(sol0, int(case[4:])))
        s, reduced = run_logged(pde.solve, p, caplog)
        u_full, full = run_logged(pde._newton, p, caplog)
        u = s.u.values
        assert np.max(np.abs(u - u_full)) <= 1e-13
        assert np.all(u == u[:, :1])  # every column bitwise equal
        assert np.array_equal(u[[0, -1]], p.boundary.values[[0, -1]])
        # the same steps; the last residual sits at rounding level
        assert ([(a[0], a[2], a[3], a[5]) for a in reduced]
                == [(a[0], a[2], a[3], a[5]) for a in full])
        for i in (1, 4):
            assert np.allclose([a[i] for a in reduced], [a[i] for a in full],
                               rtol=1e-6, atol=p.tol_residual)
        assert pde.residual(s) <= p.tol_residual
        if case == "negative-edges":
            assert u.max() < 0

    @staticmethod
    def edge_strip(nx, ny, width, edges):
        """The periodic strip with constant data edges[0] at x = -width/2
        and edges[1] at x = width/2."""
        p = strip_problem(width, 0.0, nx=nx, ny=ny)
        g = p.boundary.values.copy()
        g[0], g[-1] = edges
        return pde.PdeProblem(p.spec, ScalarField(p.spec, g))

    def test_column_and_full_grid_diverge_alike(self):
        # MINRES's |A| estimate starts from |b|: handed F at unit norm, the
        # 3 columns and the full grid give up at the same Newton step (a
        # 3-column |b| made the column run on to step 7)
        p = self.edge_strip(12, 26, 1.3206720443906426,
                            (0.16498424636196074, -0.04407103695625114))
        spec = replace(p.spec, ny=3)
        column = pde.PdeProblem(spec,
                                ScalarField(spec, p.boundary.values[:, :3]))
        assert newton_outcome(lambda: pde._newton(column)) == 4
        assert newton_outcome(lambda: pde._newton(p)) == 4

    # the example is test_column_and_full_grid_diverge_alike's strip
    @settings(max_examples=25, deadline=None)
    @given(nx=st.integers(5, 65), ny=st.integers(4, 64),
           width=st.floats(0.1, 3.0),
           edges=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    @example(nx=12, ny=26, width=1.3206720443906426,
             edges=(0.16498424636196074, -0.04407103695625114))
    def test_random_strips_get_the_full_grid_verdict(self, nx, ny, width,
                                                     edges):
        # widths up to 3.0 reach past every solvable strip (2.858)
        p = self.edge_strip(nx, ny, width, edges)
        reduced = newton_outcome(lambda: pde.solve(p).u.values)
        full = newton_outcome(lambda: pde._newton(p))
        if isinstance(full, int):
            assert reduced == full
        else:
            assert not isinstance(reduced, int)
            assert np.max(np.abs(reduced - full)) <= 1e-12

    @pytest.mark.parametrize("edge", [None, 0, -1])
    def test_only_y_constant_edges_are_reduced(self, sol0, edge, monkeypatch):
        p = pde.invariant_strip_problem(sol0, 0.8, nx=33, ny=32)
        g = p.boundary.values.copy()
        if edge is not None:
            g[edge] += 1e-12 * np.cos(2 * np.pi * p.spec.ys)
        p = pde.PdeProblem(p.spec, ScalarField(p.spec, g))
        grids = []
        inner = pde._newton

        def spy(q):
            grids.append(q.spec.ny)
            return inner(q)

        monkeypatch.setattr(pde, "_newton", spy)
        pde.solve(p)
        assert grids == [3 if edge is None else 32]

    def test_rectangles_take_the_full_grid(self):
        p = sign_changing_square()
        assert np.array_equal(pde.solve(p).u.values, pde._newton(p))


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
        spec = GridSpec.strip(0.9, 33, 20)
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

    def test_tol_residual_validation(self, sol0):
        with pytest.raises(ValueError, match="tol_residual"):
            pde.invariant_strip_problem(sol0, 0.8, nx=33, ny=32,
                                        tol_residual=-1.0)
