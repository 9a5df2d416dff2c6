"""First-order rate formulas against closed forms and the immersion oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf.fields import GridSpec, OperatorField, ScalarField, laplacian
from minsurf import variation as var
from minsurf import deform
from minsurf.geometry import SurfaceData, embedding_data
from minsurf.invariant_ode import to_surface
from minsurf.errors import NotOnZ


def smooth_field(spec, k=1, phase=0.0):
    return ScalarField.from_function(
        spec,
        lambda x, y: np.sin(2 * np.pi * k * y + phase) * np.exp(-x)
        + 0.3 * np.cos(np.pi * x),
    )


def metric_rate(s, f):
    """dI/dt = -2 f II: the rate metric_inverse_rate is derived from, kept
    here as the reference that metric_inverse_rate and the immersion oracle
    are checked against."""
    _, II, _ = embedding_data(s)
    return II * (-2.0 * f.values)


@pytest.fixture(scope="module")
def bump64(chart64):
    return deform.build_point_f((0.0, 0.5), 0.45, chart64.spec)


class TestHessian11:
    def test_flat_quadratic(self, flat_chart):
        spec = flat_chart.spec
        f = ScalarField.from_function(spec, lambda x, y: (-x ** 2 + y ** 2) / 2)
        H = var.hessian_11(flat_chart, f)
        tgt = OperatorField.from_diag(spec, -1.0, 1.0)
        assert (H - tgt).sup(interior_only=True) == 0.0

    def test_affine_against_symbol_contraction(self, sol0):
        # affine f kills the raw second differences; what remains is the
        # Christoffel contraction, known in closed form off the axis
        n = 64
        spec = GridSpec(nx=n + 1, ny=17, hx=0.3 / n, hy=0.05,
                        origin=(0.1, 0.0), periodic_y=False)
        s = to_surface(sol0, spec)
        f1, f2 = 0.3, 0.2
        f = ScalarField.from_function(spec, lambda x, y: f1 * x + f2 * y + 0.1)
        H = var.hessian_11(s, f)
        X, _ = spec.nodes()
        ux = np.asarray(sol0.gp_at(X))
        e2u = np.exp(2.0 * np.asarray(sol0.g_at(X)))
        pred = OperatorField.from_components(
            spec, -ux * f1 / e2u, -ux * f2 / e2u, -ux * f2 / e2u,
            ux * f1 / e2u)
        assert (H - pred).sup(interior_only=True) <= 10.0 * spec.hx ** 2


class TestClosedForms:
    def test_second_form_rate_flat_unit(self, flat_chart):
        one = ScalarField(flat_chart.spec, np.ones(flat_chart.spec.shape))
        sfr = var.second_form_rate(flat_chart, one)
        tgt = OperatorField.from_diag(flat_chart.spec, -2.0, -2.0)
        assert (sfr - tgt).sup(interior_only=True) == 0.0

    def test_zero_profile_gives_zero_rates(self, chart64):
        z = ScalarField.zeros(chart64.spec)
        assert var.shape_rate(chart64, z).sup() == 0.0
        assert var.second_form_rate(chart64, z).sup() == 0.0


class TestAlgebraicIdentities:
    def test_linearity(self, chart64):
        spec = chart64.spec
        f1 = smooth_field(spec, k=1)
        f2 = smooth_field(spec, k=2, phase=0.7)
        a, b = 1.3, -0.7
        combo = ScalarField(spec, a * f1.values + b * f2.values)
        for rate in (var.shape_rate, var.second_form_rate, var.hessian_11):
            lhs = rate(chart64, combo)
            rhs = a * rate(chart64, f1) + b * rate(chart64, f2)
            # exact identity; slack covers the h^-2 scale of the FD entries
            assert (lhs - rhs).sup(interior_only=True) <= 1e-11

    def test_symmetry(self, chart64):
        f = smooth_field(chart64.spec)
        sfr = var.second_form_rate(chart64, f)
        assert np.max(np.abs(sfr.a12 - sfr.a21)) <= 1e-12

    def test_metric_inverse_rate_consistency(self, chart64):
        f = smooth_field(chart64.spec)
        I, _, _ = embedding_data(chart64)
        lhs = var.metric_inverse_rate(chart64, f)
        rhs = -1.0 * (I.inverse() @ metric_rate(chart64, f) @ I.inverse())
        assert (lhs - rhs).sup(interior_only=True) <= 1e-12

    def test_product_rule(self, chart64):
        f = smooth_field(chart64.spec)
        I, II, _ = embedding_data(chart64)
        lhs = var.shape_rate(chart64, f)
        rhs = (var.metric_inverse_rate(chart64, f) @ II
               + I.inverse() @ var.second_form_rate(chart64, f))
        assert (lhs - rhs).sup(interior_only=True) <= 1e-12

    def test_shape_rate_reduces_on_axis(self, chart64, bump64):
        # where u = 0 the correction f(B^2 - 1) vanishes identically
        sr = var.shape_rate(chart64, bump64)
        h11 = var.hessian_11(chart64, bump64)
        i0 = 32
        assert np.max(np.abs(sr.mat[i0] - h11.mat[i0])) <= 1e-13

    def test_trace_identity_on_axis(self, chart64, bump64):
        # the axis has u = 0 and grad u = 0, so the rate trace collapses to
        # the euclidean laplacian of f
        sr = var.shape_rate(chart64, bump64)
        lap = laplacian(bump64)
        i0 = 32
        assert np.max(np.abs((sr.a11 + sr.a22)[i0] - lap.values[i0])) <= 1e-12


class TestImmersionOracle:
    def test_shape_rate_matches_fd(self, chart64, imm64, bump64):
        rate = var.shape_rate(chart64, bump64)
        fd = var.immersion_fd_rate(imm64, bump64, t=1e-3, which="B")
        spec = chart64.spec
        d = deform.point_distance(spec, (0.0, 0.5))
        mask = (d <= 0.45 / 2 - 2 * max(spec.hx, spec.hy)) \
            & spec.interior_mask()
        assert np.max(np.abs((rate - fd).mat[mask])) <= 1e-3

    def test_t_refinement_is_second_order(self, imm64, bump64):
        # paired differences cancel the h-dependent part of the oracle
        # error, isolating the O(t^2) term
        r4 = var.immersion_fd_rate(imm64, bump64, t=4e-3, which="B")
        r2 = var.immersion_fd_rate(imm64, bump64, t=2e-3, which="B")
        r1 = var.immersion_fd_rate(imm64, bump64, t=1e-3, which="B")
        d42 = (r4 - r2).sup(interior_only=True)
        d21 = (r2 - r1).sup(interior_only=True)
        assert 3.5 <= d42 / d21 <= 4.5

    @pytest.mark.parametrize("which,rate", [("I", metric_rate),
                                            ("II", var.second_form_rate)])
    def test_form_rate_gap_shrinks_at_second_order(self, chart32, chart64,
                                                   imm32, imm64, which, rate):
        # on the bump plateau f is an exact quadratic, so what separates
        # the formula from the oracle is the oracle's own O(h^2) error
        center, r = (0.0, 0.5), 0.45
        gaps = []
        for s, g in ((chart32, imm32), (chart64, imm64)):
            f = deform.build_point_f(center, r, s.spec)
            fd = var.immersion_fd_rate(g, f, t=1e-3, which=which)
            plateau = deform.plateau_mask(s.spec, center, r)
            gaps.append(np.max(np.abs((rate(s, f) - fd).mat[plateau])))
        assert gaps[1] <= 1e-3
        assert gaps[0] / gaps[1] >= 3.5


class TestCurvatureRateAtZ:
    def test_quadratic_profile_gives_unit_rates(self, chart64, bump64):
        rp, rm = var.curvature_rate_at_Z(chart64, bump64, (32, 32))
        assert rp == pytest.approx(-1.0, abs=1e-10)
        assert rm == pytest.approx(1.0, abs=1e-10)

    def test_affine_profile_gives_zero(self, chart64):
        f = ScalarField.from_function(chart64.spec,
                                      lambda x, y: 0.3 * x + 0.1)
        rp, rm = var.curvature_rate_at_Z(chart64, f, (32, 16))
        assert abs(rp) <= 1e-10 and abs(rm) <= 1e-10

    def test_off_axis_rejected(self, chart64, bump64):
        with pytest.raises(NotOnZ):
            var.curvature_rate_at_Z(chart64, bump64, (10, 16))

    def test_rates_are_the_shape_rate_diagonal_on_the_locus(self, chart64,
                                                            bump64):
        # B is diagonal on the chart and B^2 = Id on Z, so the rates are the
        # diagonal of dB/dt, the field criterion 05 checks against the
        # flowed immersion
        rate = var.shape_rate(chart64, bump64).mat
        for j in range(chart64.spec.ny):
            assert hexes(var.curvature_rate_at_Z(chart64, bump64, (32, j))) \
                == hexes((float(rate[32, j, 0, 0]), float(rate[32, j, 1, 1])))


def hexes(rates):
    return [r.hex() for r in rates]


def whole_grid_rate_at(s, f, node):
    """Reference: curvature_rate_at_Z's formula read off the whole-grid
    hessian_11 diagonal."""
    h = var.hessian_11(s, f).mat[node]
    return float(h[0, 0]), float(h[1, 1])


class TestCurvatureRateWindow:
    """The rate at a node, evaluated on the node's neighbourhood, is bitwise
    the whole-grid route's."""

    @pytest.mark.parametrize("j", [0, 1, 31, 62, 63])
    def test_zero_locus_nodes_next_to_the_seam(self, chart64, bump64, j):
        node = (32, j)
        assert hexes(var.curvature_rate_at_Z(chart64, bump64, node)) == \
            hexes(whole_grid_rate_at(chart64, bump64, node))

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(3, 12), ny=st.integers(3, 12),
           periodic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_node_of_small_grids(self, nx, ny, periodic, seed):
        # with the locus check lifted, every node counts, edges and corners
        # included, and grids narrower than the neighbourhood
        spec = GridSpec(nx=nx, ny=ny, hx=0.7 / (nx - 1), hy=0.5 / ny,
                        origin=(-0.3, 0.1), periodic_y=periodic)
        rng = np.random.default_rng(seed)
        s = SurfaceData(ScalarField(spec, rng.uniform(-0.5, 0.5, spec.shape)))
        f = ScalarField(spec, rng.uniform(-1.0, 1.0, spec.shape))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(var, "_TOL_Z", np.inf)
            for node in np.ndindex(*spec.shape):
                assert hexes(var.curvature_rate_at_Z(s, f, node)) == \
                    hexes(whole_grid_rate_at(s, f, node))
