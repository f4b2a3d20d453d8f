"""Observation operators: projections, filter, and their estimates."""

import math

import numpy as np
import pytest

from modnudge import observers as obs
from modnudge import spectral as sp
from modnudge import stepping as st

from spectral_helpers import mode_coefficient, single_mode_scalar


@pytest.fixture
def grid():
    return sp.get_grid(32)


def cell_average_oracle(op, c):
    """The cell average through the transforms: block means of the grid values."""
    grid, m = op.grid, op.fold[0].shape[0]  # E_x is m x n
    b = grid.n // m
    vals = grid.to_values(c)
    blocks = vals.reshape(vals.shape[:-2] + (m, b, m, b))
    means = blocks.mean(axis=(-3, -1), keepdims=True)
    return grid.to_coeffs(np.broadcast_to(means, blocks.shape).reshape(vals.shape))


def random_coeffs(grid, rng, lead=(2,)):
    """Arbitrary complex coefficients: the edge columns are not Hermitian."""
    shape = lead + grid.coeff_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def all_operators(grid):
    return [
        obs.make_spectral_projection(grid, 4),
        obs.make_cell_average(grid, 8),
        obs.make_differential_filter(grid, 0.4),
    ]


class TestSpectralProjection:
    def test_identity_when_cutoff_covers_grid(self, grid):
        op = obs.make_spectral_projection(grid, grid.n // 2)
        w = sp.random_divfree_field(grid, np.random.default_rng(0), kmax=grid.n // 2 - 1)
        assert sp.l2_norm(op.apply(w) - w) < 1e-13

    def test_zeroes_high_modes_only(self, grid):
        op = obs.make_spectral_projection(grid, 4)
        low = single_mode_scalar(grid, 3, 2)
        high = single_mode_scalar(grid, 9, 0)
        assert sp.l2_norm(op.apply(low) - low) < 1e-14
        assert sp.l2_norm(op.apply(high)) < 1e-14

    def test_resolution_length(self, grid):
        op = obs.make_spectral_projection(grid, 8)
        assert op.h == pytest.approx(math.pi / 8.0)

    def test_commutes_with_gradient(self, grid):
        op = obs.make_spectral_projection(grid, 5)
        f = sp.random_smooth_scalar(grid, np.random.default_rng(1))
        a = sp.gradient(op.apply(f))
        b_c = sp.gradient(f).coeffs * op.multiplier
        assert np.max(np.abs(a.coeffs - b_c)) < 1e-14


class TestCellAverage:
    def test_requires_divisibility(self, grid):
        with pytest.raises(ValueError):
            obs.make_cell_average(grid, 7)

    def test_piecewise_constant_fixed_point(self, grid):
        op = obs.make_cell_average(grid, 4)
        rng = np.random.default_rng(2)
        coarse = rng.standard_normal((4, 4))
        vals = np.kron(coarse, np.ones((8, 8)))
        f = sp.ScalarField.from_grid(grid, vals)
        assert np.max(np.abs(op.apply(f).values - vals)) < 1e-14

    def test_means_match_reshape_oracle(self, grid):
        op = obs.make_cell_average(grid, 8)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((32, 32))
        f = sp.ScalarField.from_grid(grid, vals)
        got = op.apply(f).values
        want = vals.reshape(8, 4, 8, 4).mean(axis=(1, 3))
        for i in range(8):
            for j in range(8):
                block = got[4 * i : 4 * i + 4, 4 * j : 4 * j + 4]
                assert np.max(np.abs(block - want[i, j])) < 1e-14

    def test_vector_field_averaged_componentwise(self, grid):
        op = obs.make_cell_average(grid, 8)
        v = sp.random_divfree_field(grid, np.random.default_rng(4))
        out = op.apply(v)
        for comp_out, comp_in in zip(out.values, v.values):
            want = comp_in.reshape(8, 4, 8, 4).mean(axis=(1, 3))
            got = comp_out.reshape(8, 4, 8, 4).mean(axis=(1, 3))
            assert np.max(np.abs(got - want)) < 1e-13


class TestCellAverageFold:
    """`apply_coeffs` folds the half-spectrum onto the cell lattice and back,
    without transforms; the block mean of the grid values is the oracle."""

    @pytest.mark.parametrize("n, m", [(32, 8), (64, 16), (96, 32), (64, 64), (64, 1)])
    def test_matches_the_transform_oracle(self, n, m):
        grid = sp.get_grid(n)
        op = obs.make_cell_average(grid, m)
        rng = np.random.default_rng(n + m)
        for lead in [(2,), ()]:
            c = random_coeffs(grid, rng, lead)
            want = cell_average_oracle(op, c)
            err = np.linalg.norm(op.apply_coeffs(c) - want) / np.linalg.norm(want)
            assert err <= 5e-14

    def test_one_cell_keeps_exactly_the_mean(self):
        # the box symbol vanishes exactly on nonzero multiples of m, so no
        # roundoff leaks into the other modes
        grid = sp.get_grid(64)
        c = random_coeffs(grid, np.random.default_rng(15))
        want = np.zeros_like(c)
        want[:, 0, 0] = c[:, 0, 0].real
        assert np.array_equal(obs.make_cell_average(grid, 1).apply_coeffs(c), want)

    def test_self_adjoint_in_coeff_dot(self, grid):
        op = obs.make_cell_average(grid, 8)
        rng = np.random.default_rng(12)
        a, b = random_coeffs(grid, rng), random_coeffs(grid, rng)
        lhs = sp.coeff_dot(grid, op.apply_coeffs(a), b)
        rhs = sp.coeff_dot(grid, a, op.apply_coeffs(b))
        scale = math.sqrt(sp.coeff_dot(grid, a, a) * sp.coeff_dot(grid, b, b))
        assert abs(lhs - rhs) <= 1e-14 * scale

    def test_idempotent_on_a_real_field(self, grid):
        op = obs.make_cell_average(grid, 8)
        vals = np.random.default_rng(13).standard_normal((2, 32, 32))
        w = sp.SpectralVectorField.from_grid(grid, vals)
        once = op.apply(w)
        assert sp.l2_norm(op.apply(once) - once) <= 1e-14 * sp.l2_norm(w)

    def test_fused_solve_takes_the_oracle_krylov_path(self, monkeypatch):
        grid = sp.get_grid(32)
        rng = np.random.default_rng(14)
        v, u, f = (sp.random_divfree_field(grid, rng) for _ in range(3))
        op = obs.make_cell_average(grid, 8)
        cfg = st.SchemeConfig(k=0.01, nu=1e-3, chi=1e4, scheme="standard")
        state = st.ForecastState(0.0, v, cfg)
        u_obs = op.apply(u)
        fold = st.step_standard_nudging(state, f, u_obs, op)
        monkeypatch.setattr(obs.ObservationOperator, "apply_coeffs", cell_average_oracle)
        oracle = st.step_standard_nudging(state, f, u_obs, op)
        assert fold.iterations == oracle.iterations > 20
        assert sp.l2_norm(fold.v - oracle.v) <= 1e-12 * sp.l2_norm(oracle.v)


class TestDifferentialFilter:
    def test_single_mode_multiplier(self, grid):
        h = 0.37
        op = obs.make_differential_filter(grid, h)
        w = single_mode_scalar(grid, 2, 3)
        expected = 1.0 / (1.0 + h**2 * 13.0)
        out = op.apply(w)
        assert mode_coefficient(out.coeffs, 2, 3) == pytest.approx(expected, rel=1e-14)

    def test_solves_helmholtz_problem(self, grid):
        # -H^2 lap(w_bar) + w_bar = w, checked as an operator identity
        h = 0.25
        op = obs.make_differential_filter(grid, h)
        w = sp.random_smooth_scalar(grid, np.random.default_rng(5))
        wb = op.apply(w)
        resid = (-(h**2)) * sp.laplacian(wb) + wb - w
        assert sp.l2_norm(resid) < 1e-12 * sp.l2_norm(w)

    def test_not_idempotent_single_mode_defect(self, grid):
        h = 0.5
        op = obs.make_differential_filter(grid, h)
        w = single_mode_scalar(grid, 2, 0)
        a = 1.0 / (1.0 + h**2 * 4.0)
        assert not op.idempotent
        assert obs.idempotency_defect(op, w) == pytest.approx(a - a**2, rel=1e-12)

    def test_property_report_on_ensemble(self, grid):
        op = obs.make_differential_filter(grid, 0.3)
        rng = np.random.default_rng(6)
        for _ in range(100):
            w = sp.random_divfree_field(grid, rng, decay=rng.uniform(0.2, 1.0))
            rep = obs.filter_property_report(op, w)
            assert rep.ok(slack=1e-12)

    def test_approximation_ratio_peaks_at_unit_hk(self):
        # single mode: ||w - w_bar|| / ||grad w|| = H^2 k / (1 + H^2 k^2),
        # i.e. (H/2) exactly when H k = 1
        grid = sp.get_grid(32)
        k = 4
        op = obs.make_differential_filter(grid, 1.0 / k)
        w = single_mode_scalar(grid, k, 0)
        lhs = sp.l2_norm(w - op.apply(w))
        assert lhs == pytest.approx(0.5 * op.h * sp.h1_seminorm(w), rel=1e-12)

    def test_near_nullspace_attenuation(self, grid):
        op = obs.make_differential_filter(grid, 2.0)
        w = single_mode_scalar(grid, 5, 0)
        ratio = sp.l2_norm(op.apply(w)) / sp.l2_norm(w)
        assert ratio == pytest.approx(1.0 / (1.0 + 4.0 * 25.0), rel=1e-12)

    def test_rejects_property_report_for_projections(self, grid):
        op = obs.make_spectral_projection(grid, 4)
        w = sp.random_divfree_field(grid, np.random.default_rng(7))
        with pytest.raises(ValueError):
            obs.filter_property_report(op, w)


class TestSharedContracts:
    def test_projections_idempotent(self, grid):
        rng = np.random.default_rng(8)
        for op in all_operators(grid):
            w = sp.random_divfree_field(grid, rng)
            defect = obs.idempotency_defect(op, w)
            if op.idempotent:
                assert defect < 1e-12
            else:
                assert defect > 1e-6

    def test_self_adjointness(self, grid):
        rng = np.random.default_rng(9)
        for op in all_operators(grid):
            v = sp.random_divfree_field(grid, rng)
            w = sp.random_divfree_field(grid, rng)
            lhs = sp.inner(op.apply(v), w)
            rhs = sp.inner(v, op.apply(w))
            scale = sp.l2_norm(v) * sp.l2_norm(w)
            assert abs(lhs - rhs) < 1e-12 * scale

    def test_l2_contraction(self, grid):
        rng = np.random.default_rng(10)
        for op in all_operators(grid):
            for _ in range(10):
                w = sp.random_divfree_field(grid, rng, decay=rng.uniform(0.2, 1.0))
                assert sp.l2_norm(op.apply(w)) <= sp.l2_norm(w) * (1 + 1e-12)

    def test_shifted_diagonal_is_base_plus_scale_times_the_multiplier(self, grid):
        base = 1.0 + 0.3 * grid.k2
        for op in all_operators(grid):
            diag = op.shifted_diagonal(base, 2.5)
            assert op.diagonal == (op.kind != obs.CELL_AVERAGE) == op.commutes_with_gradient
            if not op.diagonal:
                assert diag is base  # the cell average leaves the preconditioner alone
                continue
            for kx, ky in ((0, 1), (3, 2), (-5, 4), (9, 0)):
                w = single_mode_scalar(grid, kx, ky)
                want = mode_coefficient(base * w.coeffs + 2.5 * op.apply(w).coeffs, kx, ky)
                got = mode_coefficient(diag * w.coeffs, kx, ky)
                assert got == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_factory_round_trip(self, grid):
        op = obs.make_operator(grid, "cell-average", 8)
        assert op.kind == obs.CELL_AVERAGE and op.fold[0].shape == (8, grid.n)
        with pytest.raises(ValueError):
            obs.make_operator(grid, "nearest-neighbor", 4)


class TestC1Estimates:
    def test_spectral_single_mode_ratio(self, grid):
        # just-unobserved mode: ratio = 1 / (H |k|) with |k| = K_c + 1
        kc = 4
        op = obs.make_spectral_projection(grid, kc)
        w = single_mode_scalar(grid, kc + 1, 0)
        ratio = sp.l2_norm(w - op.apply(w)) / (op.h * sp.h1_seminorm(w))
        assert ratio == pytest.approx(1.0 / (op.h * (kc + 1)), rel=1e-12)
        assert ratio < 1.0 / math.pi

    def test_estimates_within_analytic_bounds(self, grid):
        rng = np.random.default_rng(11)
        for op in all_operators(grid):
            est = obs.estimate_c1(op, rng, ensemble=32)
            assert 0 < est.c1 <= est.analytic_bound * (1 + 1e-10), op.kind

    def test_cell_average_linear_profile_poincare(self):
        # brute-force 1D oracle on one cell: the centered linear ramp has
        # ||w||_cell / (H ||w'||_cell) = 1/sqrt(12), below 1/pi
        H = 0.7
        xs = np.linspace(0.0, H, 20001)
        ramp = xs - H / 2
        l2 = math.sqrt(np.trapezoid(ramp**2, xs))
        grad = math.sqrt(np.trapezoid(np.ones_like(xs), xs))
        ratio = l2 / (H * grad)
        assert ratio == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-6)
        assert ratio < 1.0 / math.pi

    def test_ensemble_floor(self, grid):
        op = obs.make_spectral_projection(grid, 4)
        with pytest.raises(ValueError):
            obs.estimate_c1(op, np.random.default_rng(0), ensemble=3)
