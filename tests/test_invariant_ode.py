"""Invariant profile: integration, blow-up width, length growth."""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf.fields import GridSpec
from minsurf import invariant_ode as iode
from minsurf.cli import main
from minsurf.errors import (BlowUp, DomainExceedsDelta, IntegratorFailure,
                            QuadratureFailure)

# half-widths of the maximal strips, frozen from the closed-form quadrature
DELTA = {
    0.0: 1.31102877714606,
    0.25: 1.129454683583423,
    0.5: 0.9227462499499922,
}


class TestEstimateDelta:
    @pytest.mark.parametrize("v0", sorted(DELTA))
    def test_frozen_values(self, v0):
        assert iode.estimate_delta(v0) == pytest.approx(DELTA[v0], abs=1e-9)

    def test_decreasing_in_v0(self):
        ds = [iode.estimate_delta(v) for v in (0.0, 0.25, 0.5, 1.0)]
        assert all(a > b for a, b in zip(ds, ds[1:]))


    @pytest.mark.parametrize("v0", [0.0, 0.5, 3.0, 14.0, 30.0, 60.0])
    def test_matches_quadpack_without_cancellation(self, v0):
        # 2 sinh 2g - 2 sinh 2v0 = 4 cosh(2 v0 + w) sinh w at g = v0 + w:
        # no cancelling difference, so QUADPACK resolves delta to 1e-13
        # relative even once delta is far below any absolute tolerance
        from scipy.integrate import quad

        def inner(s):  # w = s^2 on [0, 1]
            if s == 0.0:
                return 1.0 / np.sqrt(np.cosh(2.0 * v0))
            return s / np.sqrt(np.cosh(2.0 * v0 + s * s) * np.sinh(s * s))

        def tail(w):
            return 1.0 / np.sqrt(4.0 * np.cosh(2.0 * v0 + w) * np.sinh(w))

        with np.errstate(over="ignore"):
            ref = (quad(inner, 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
                        limit=200)[0]
                   + quad(tail, 1.0, np.inf, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0])
        assert iode.estimate_delta(v0) == pytest.approx(ref, rel=1e-14,
                                                        abs=0.0)

    @pytest.mark.parametrize("v0, ref", [(200.0, 2.1738195808622828e-87),
                                         (335.0, 5.0988054276423242e-146)])
    def test_relative_accuracy_up_to_the_overflow_bound(self, v0, ref):
        # frozen from 30-digit Gauss-Legendre quadrature of e^{v0} times the
        # integrand, which stays O(1); QUADPACK itself drifts to 1e-9 here
        assert iode.estimate_delta(v0) == pytest.approx(ref, rel=1e-14,
                                                        abs=0.0)

    def test_too_few_nodes_is_a_typed_failure(self, monkeypatch):
        monkeypatch.setattr(iode, "_DELTA_NODES", 5)
        with pytest.raises(QuadratureFailure, match="estimated error"):
            iode.estimate_delta(0.0)

    @pytest.mark.parametrize("v0", [360.0, 400.0, 1e6])
    def test_overflowing_v0_fails_without_warnings(self, v0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure, match="overflows"):
                iode.estimate_delta(v0)


class TestIntegrate:
    def test_initial_conditions(self, sol0, sol05):
        assert sol0.g_at(0.0) == pytest.approx(0.0, abs=1e-13)
        assert sol0.gp_at(0.0) == pytest.approx(0.0, abs=1e-13)
        assert sol05.g_at(0.0) == pytest.approx(0.5, abs=1e-13)

    def test_taylor_expansion_near_zero(self, sol0):
        # g = x^2 + (2/15) x^6 + O(x^10) for v0 = 0
        x = 0.05
        pred = x ** 2 + (2.0 / 15.0) * x ** 6
        assert sol0.g_at(x) == pytest.approx(pred, abs=1e-10)

    def test_monotone_and_convex(self, sol0):
        xs = np.linspace(0.0, sol0.x_max, 200)
        g = sol0.g_at(xs)
        gp = sol0.gp_at(xs)
        assert np.all(np.diff(g) > 0)
        assert np.all(gp[1:] > 0)

    def test_even_extension(self, sol0):
        xs = np.array([0.3, 0.7])
        assert np.allclose(sol0.g_at(-xs), sol0.g_at(xs))
        assert np.allclose(sol0.gp_at(-xs), -np.asarray(sol0.gp_at(xs)))

    def test_first_integral(self, sol0, sol05):
        # (g')^2 - 2 sinh(2g) is conserved at the integrator's accuracy
        assert iode.first_integral_residual(sol0) <= 1e-8
        assert iode.first_integral_residual(sol05) <= 1e-8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            iode.integrate(-0.1, 1.0)
        with pytest.raises(ValueError):
            iode.integrate(0.0, 0.0)

    def test_evaluation_outside_range(self, sol0):
        with pytest.raises(ValueError, match="outside"):
            sol0.g_at(sol0.x_max + 0.1)


class TestBlowUp:
    @pytest.mark.parametrize("v0", sorted(DELTA))
    def test_abscissa_matches_quadrature(self, v0):
        with pytest.raises(BlowUp) as exc:
            iode.integrate(v0, DELTA[v0] + 0.1)
        assert exc.value.x_reached == pytest.approx(DELTA[v0], abs=1e-6)
        assert exc.value.g_reached > 10.0


    @settings(max_examples=25, deadline=None)
    @given(v0=st.floats(0.0, 1.0))
    def test_profile_invariants_over_v0(self, v0):
        d = iode.estimate_delta(v0)
        sol = iode.integrate(v0, 0.9 * d, rtol=1e-10)
        # the residual is absolute and grows like sinh 2g: at v0 = 1 it
        # reaches 1.9e-8 by 0.9 delta, so it is bounded relative to that scale
        scale = np.maximum(1.0, 2.0 * np.sinh(2.0 * sol.g))
        assert np.all(iode.first_integral_residuals(sol) <= 1e-9 * scale)
        with pytest.raises(BlowUp) as exc:
            iode.integrate(v0, d + 0.1)
        assert abs(exc.value.x_reached - d) <= 1e-6
        assert exc.value.g_reached > 10.0


    def test_blowups_retain_no_step_samples(self):
        # each blow-up accepts about 1e3 steps; none of them may outlive
        # the call that made them
        def blow_up():
            with pytest.raises(BlowUp):
                iode.integrate(0.0, DELTA[0.0] + 0.1)

        blow_up()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                blow_up()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 50_000


def scipy_dopri5(v0, x_max, rtol=1e-10):
    """(return code, accepted (x, g, g') rows) from scipy's compiled DOPRI5
    with integrate's tolerances, step cap and guard."""
    import warnings
    from scipy.integrate import ode

    rows = []

    def accept(x, y):
        rows.append((x, y[0], y[1]))
        return -1 if y[0] > iode._GUARD_G else 0

    r = ode(lambda x, y: [y[1], 2.0 * np.cosh(2.0 * y[0])])
    r.set_integrator("dopri5", rtol=rtol, atol=rtol * 1e-2,
                     nsteps=iode._MAX_STEPS)
    r.set_solout(accept)
    r.set_initial_value([v0, 0.0], 0.0)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r.integrate(x_max)
    code = r.get_return_code()
    r.set_solout(None)
    return code, np.array(rows)


class TestAgainstScipy:
    """The port against scipy's compiled DOPRI5.  That build fuses
    multiplies and adds, so step sizes agree to about 1e-8 relative, not
    bitwise, and the samples sit at slightly different abscissae: they are
    compared through the dense output.  Blow-ups take 1024-1033 steps and
    may differ by one or two."""

    @pytest.mark.parametrize("v0", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("frac", [0.9, 0.99])
    def test_same_steps_and_samples(self, v0, frac):
        x_max = frac * iode.estimate_delta(v0)
        code, ref = scipy_dopri5(v0, x_max)
        sol = iode.integrate(v0, x_max)
        assert code == 1 and sol.xs.size == len(ref)
        x, g, gp = ref.T
        assert np.max(np.abs(sol.g_at(x) - g)) <= 1e-12 * np.max(g)
        assert np.max(np.abs(sol.gp_at(x) - gp)) <= 1e-11 * np.max(gp)

    @pytest.mark.parametrize("v0", [0.0, 0.25, 0.5, 1.0])
    def test_blows_up_at_the_same_abscissa(self, v0):
        code, ref = scipy_dopri5(v0, 2.0)
        with pytest.raises(BlowUp) as exc:
            iode.integrate(v0, 2.0)
        assert code == -3
        assert exc.value.x_reached == pytest.approx(ref[-1, 0], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(v0=st.floats(0.0, 3.0))
    def test_delta_matches_quadpack(self, v0):
        from scipy.integrate import quad
        s2v0 = np.sinh(2.0 * v0)

        def inner(s):
            if s == 0.0:
                return 1.0 / np.sqrt(np.cosh(2.0 * v0))
            d = np.sinh(2.0 * (v0 + s * s)) - s2v0
            return 2.0 * s / np.sqrt(2.0 * d)

        def tail(g):
            return 1.0 / np.sqrt(2.0 * (np.sinh(2.0 * g) - s2v0))

        with np.errstate(over="ignore"):
            ref = (quad(inner, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12,
                        limit=200)[0]
                   + quad(tail, v0 + 1.0, np.inf, epsabs=1e-12, epsrel=1e-12,
                          limit=200)[0])
        assert iode.estimate_delta(v0) == pytest.approx(ref, rel=1e-13, abs=0)


class TestIntegratorFailure:
    def test_step_cap_is_a_typed_failure(self, monkeypatch, recwarn):
        # DOPRI5's message rides on the error, and nothing warns
        monkeypatch.setattr(iode, "_MAX_STEPS", 5)
        with pytest.raises(IntegratorFailure, match=r"larger nsteps is needed "
                           r"\(return code -2\)"):
            iode.integrate(0.0, 1.0)
        assert not recwarn.list

    @pytest.mark.parametrize("v0", [163.7, 200.0], ids=["163_7", "200"])
    def test_profile_past_the_squares_overflow(self, v0):
        # 2 cosh 2v0 / atol, squared, passes float64's range from v0 ~ 163.6:
        # DOPRI5's norms take math.hypot there
        x = 0.5 * iode.estimate_delta(v0)
        sol = iode.integrate(v0, x)
        assert sol.x_max == x
        assert iode.first_integral_residual(sol) <= 1e-8 * np.cosh(2 * v0)

    def test_largest_v0_is_a_typed_failure(self, recwarn):
        # v0 = 335, the largest delta(v0) accepts, and v0 = 400, where
        # g'' = 2 cosh 2v0 overflows, start past the blow-up guard g = 300:
        # both are refused before the first step
        for v0, x in ((335.0, 0.5 * iode.estimate_delta(335.0)),
                      (400.0, 1e-200)):
            with pytest.raises(IntegratorFailure, match="guard g = 300"):
                iode.integrate(v0, x)
        assert not recwarn.list

    def test_blowup_past_the_squares_overflow(self):
        # DOPRI5's stiffness test squares g'' differences, which overflowed
        # float64 here and ended the run as IntegratorFailure
        with pytest.raises(BlowUp):
            iode.integrate(160.0, 1.05 * iode.estimate_delta(160.0))

    def test_cli_exits_with_diverged_code(self, monkeypatch, tmp_path, capsys,
                                          recwarn):
        # one stderr line names the failure and DOPRI5's message
        monkeypatch.setattr(iode, "_MAX_STEPS", 5)
        rc = main(["ode", "--v0", "0", "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "IntegratorFailure" in err[0]
        assert "larger nsteps is needed" in err[0]
        assert not recwarn.list


class TestLengthLowerBound:
    def test_holds_with_margin(self, sol0):
        lc = iode.length_lower_bound_check(sol0)
        assert lc.ok and lc.first_violation_x is None
        assert lc.length > lc.rhs

    def test_frozen_length_near_blowup(self):
        d = iode.estimate_delta(0.0)
        sol = iode.integrate(0.0, 0.99 * d, rtol=1e-10)
        lc = iode.length_lower_bound_check(sol)
        # trapezoid over accepted steps; value frozen from an rtol sweep
        assert lc.length == pytest.approx(4.6810, abs=2e-3)
        assert lc.ok


class TestToSurface:
    def test_symmetric_and_nonnegative(self, sol0, chart64):
        u = chart64.u.values
        assert u.min() >= 0.0  # v0 = 0 and g increasing in |x|
        assert np.allclose(u, u[::-1, :])  # even in x on a centered grid
        assert np.allclose(u[:, 0], u[:, 1])  # constant along y

    def test_domain_exceeds_delta(self, sol0):
        w = 2.0 * sol0.delta_est + 0.1
        spec = GridSpec.strip(w, 33, 8)
        with pytest.raises(DomainExceedsDelta):
            iode.to_surface(sol0, spec)

    def test_beyond_integrated_range(self, sol0):
        # inside the maximal strip (|x| < 0.95 delta) but past the
        # integrated range x_max = 0.9 delta: a usage error
        w = 1.9 * sol0.delta_est
        spec = GridSpec.strip(w, 33, 8)
        with pytest.raises(ValueError, match="integrate further"):
            iode.to_surface(sol0, spec)
