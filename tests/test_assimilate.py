"""Analysis updates: explicit/implicit agreement, update identity, balances."""

import math

import numpy as np
import pytest

from modnudge import assimilate as da
from modnudge import observers as obs
from modnudge import spectral as sp

from spectral_helpers import leray_project, mode_coefficient, single_mode_scalar


@pytest.fixture
def grid():
    return sp.get_grid(32)


def random_pair(grid, rng):
    vtilde = sp.random_divfree_field(grid, rng, decay=rng.uniform(0.3, 0.8))
    u = sp.random_divfree_field(grid, rng, decay=rng.uniform(0.3, 0.8))
    return vtilde, u


class TestExplicit:
    def test_unit_kchi_has_half_gain(self, grid):
        op = obs.make_spectral_projection(grid, 4)
        rng = np.random.default_rng(0)
        vtilde, u = random_pair(grid, rng)
        res = da.step2a_explicit(vtilde, op.apply(u), op, k=0.5, chi=2.0)
        want = vtilde.coeffs + 0.5 * (op.apply(u).coeffs - op.apply(vtilde).coeffs)
        assert np.max(np.abs(res.v.coeffs - want)) < 1e-14

    def test_zero_chi_returns_input_exactly(self, grid):
        op = obs.make_spectral_projection(grid, 4)
        vtilde, _ = random_pair(grid, np.random.default_rng(1))
        res = da.step2a_explicit(vtilde, sp.SpectralVectorField.zero(grid), op, k=0.1, chi=0.0)
        assert res.v is vtilde

    def test_huge_kchi_pins_observed_modes(self, grid):
        op = obs.make_spectral_projection(grid, 5)
        rng = np.random.default_rng(2)
        vtilde, u = random_pair(grid, rng)
        res = da.step2a_explicit(vtilde, op.apply(u), op, k=1.0, chi=1e8)
        gap = op.apply(res.v - u)
        assert sp.l2_norm(gap) < 1e-6 * sp.l2_norm(op.apply(u))

    def test_applies_observation_to_forecast_exactly_once(self, grid):
        # the closed form hinges on I_H touching vtilde a single time
        import unittest.mock as mock

        op = obs.make_spectral_projection(grid, 4)
        calls = {"n": 0}
        orig = obs.ObservationOperator.apply_coeffs

        def counted(self, c):
            calls["n"] += 1
            return orig(self, c)

        rng = np.random.default_rng(3)
        vtilde, u = random_pair(grid, rng)
        u_obs = op.apply(u)
        with mock.patch.object(obs.ObservationOperator, "apply_coeffs", counted):
            da.step2a_explicit(vtilde, u_obs, op, k=0.2, chi=3.0)
        assert calls["n"] == 1

    def test_refuses_non_idempotent_operator(self, grid):
        op = obs.make_differential_filter(grid, 0.4)
        vtilde, u = random_pair(grid, np.random.default_rng(4))
        with pytest.raises(ValueError, match="step2a_implicit"):
            da.step2a_explicit(vtilde, op.apply(u), op, k=0.1, chi=1.0)

    def test_parameter_validation(self, grid):
        op = obs.make_spectral_projection(grid, 4)
        vtilde, u = random_pair(grid, np.random.default_rng(5))
        with pytest.raises(ValueError):
            da.step2a_explicit(vtilde, u, op, k=-0.1, chi=1.0)
        with pytest.raises(ValueError):
            da.step2a_explicit(vtilde, u, op, k=0.1, chi=-1.0)


class TestImplicitAgreement:
    @pytest.mark.parametrize("make_op", [
        lambda g, rng: obs.make_spectral_projection(g, int(rng.integers(2, g.n // 2))),
        lambda g, rng: obs.make_cell_average(g, int(rng.choice([2, 4, 8]))),
    ])
    def test_matches_explicit_for_projections(self, grid, make_op):
        rng = np.random.default_rng(6)
        for _ in range(25):
            op = make_op(grid, rng)
            k = float(rng.uniform(0.01, 0.5))
            chi = float(10 ** rng.uniform(-1, 3))
            vtilde, u = random_pair(grid, rng)
            u_obs = op.apply(u)
            ex = da.step2a_explicit(vtilde, u_obs, op, k, chi)
            im = da.step2a_implicit(vtilde, u_obs, op, k, chi, tol=1e-12)
            rel = sp.l2_norm(im.v - ex.v) / sp.l2_norm(ex.v)
            assert rel < 1e-12

    def test_filter_diagonal_path_solves_the_system(self, grid):
        op = obs.make_differential_filter(grid, 0.3)
        rng = np.random.default_rng(7)
        vtilde, u = random_pair(grid, rng)
        k, chi = 0.1, 50.0
        u_obs = op.apply(u)
        res = da.step2a_implicit(vtilde, u_obs, op, k, chi)
        assert res.iterations == 0  # a divide, no CG
        lhs = res.v.coeffs + k * chi * op.apply_coeffs(res.v.coeffs)
        rhs = vtilde.coeffs + k * chi * u_obs.coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_filter_cg_agrees_with_diagonal_path(self, grid):
        op = obs.make_differential_filter(grid, 0.3)
        rng = np.random.default_rng(8)
        vtilde, u = random_pair(grid, rng)
        u_obs = op.apply(u)
        fast = da.step2a_implicit(vtilde, u_obs, op, 0.2, 30.0)
        slow = da.step2a_implicit(vtilde, u_obs, op, 0.2, 30.0, force_iterative=True)
        assert fast.iterations == 0 and slow.iterations > 0
        assert sp.l2_norm(fast.v - slow.v) < 1e-11 * sp.l2_norm(fast.v)

    def test_single_observed_mode_closed_form(self, grid):
        # filter: each mode relaxes by  (vt + k chi a u) / (1 + k chi a)
        op = obs.make_differential_filter(grid, 0.5)
        k, chi = 0.25, 8.0
        vt = single_mode_scalar(grid, 3, 1, 0.7 + 0.2j)
        uu = single_mode_scalar(grid, 3, 1, -0.1 + 0.9j)
        vt_v = sp.SpectralVectorField.from_coeffs(grid, np.stack([vt.coeffs, 0 * vt.coeffs]))
        u_v = sp.SpectralVectorField.from_coeffs(grid, np.stack([uu.coeffs, 0 * uu.coeffs]))
        a = 1.0 / (1.0 + 0.25 * 10.0)
        res = da.step2a_implicit(vt_v, op.apply(u_v), op, k, chi)
        got = mode_coefficient(res.v.coeffs[0], 3, 1)
        # system: (1 + k chi a) v = vt + k chi * (a u)
        want = (0.7 + 0.2j + k * chi * a * (-0.1 + 0.9j)) / (1 + k * chi * a)
        assert got == pytest.approx(want, rel=1e-12)


class TestFormB:
    def test_projection_correction_vanishes(self, grid):
        op = obs.make_spectral_projection(grid, 6)
        rng = np.random.default_rng(9)
        vtilde, u = random_pair(grid, rng)
        res = da.step2a_implicit(vtilde, op.apply(u), op, 0.1, 100.0)
        rep = da.verify_form_b(vtilde, res.v, u, op, 0.1, 100.0)
        assert rep.correction_rel < 1e-13
        assert rep.residual_rel < 1e-11

    def test_filter_correction_is_structural(self, grid):
        op = obs.make_differential_filter(grid, 0.4)
        rng = np.random.default_rng(10)
        hits = 0
        for _ in range(100):
            k = float(rng.uniform(0.05, 1.0))
            chi = float(10 ** rng.uniform(-0.5, 1.5))
            vtilde, u = random_pair(grid, rng)
            res = da.step2a_implicit(vtilde, op.apply(u), op, k, chi, tol=1e-12)
            rep = da.verify_form_b(vtilde, res.v, u, op, k, chi)
            assert rep.residual_rel <= 10 * 1e-12
            if rep.correction_rel > 1e-6:
                hits += 1
        assert hits >= 90

    def test_single_mode_correction_magnitude(self, grid):
        # for one mode with filter weight a, the tail term is
        # (k chi)^2/(1+k chi) (a - a^2) (u - v) on that mode
        op = obs.make_differential_filter(grid, 0.5)
        k, chi = 0.5, 4.0
        vt = single_mode_scalar(grid, 2, 2, 1.0)
        uu = single_mode_scalar(grid, 2, 2, -1.0)
        vt_v = sp.SpectralVectorField.from_coeffs(grid, np.stack([vt.coeffs, 0 * vt.coeffs]))
        u_v = sp.SpectralVectorField.from_coeffs(grid, np.stack([uu.coeffs, 0 * uu.coeffs]))
        res = da.step2a_implicit(vt_v, op.apply(u_v), op, k, chi)
        a = 1.0 / (1.0 + 0.25 * 8.0)
        kchi = k * chi
        # mode-wise solve: v = (vt + kchi a u) / (1 + kchi a)
        v_mode = (1.0 + kchi * a * (-1.0)) / (1.0 + kchi * a)
        got = mode_coefficient(res.v.coeffs[0], 2, 2)
        assert got == pytest.approx(v_mode, rel=1e-12)
        rep = da.verify_form_b(vt_v, res.v, u_v, op, k, chi)
        expected_corr = abs(kchi**2 / (1 + kchi) * (a - a**2) * (-1.0 - v_mode))
        norm_v = sp.l2_norm(res.v)
        got_corr = rep.correction_rel * norm_v
        # the stored mode represents a conjugate pair; both carry the tail
        pair_norm = expected_corr * math.sqrt(2.0) * 2.0 * math.pi
        assert got_corr == pytest.approx(pair_norm, rel=1e-10)


class TestStep2B:
    def test_diagonal_formula_observed_and_unobserved(self, grid):
        op = obs.make_spectral_projection(grid, 4)
        k, chi, nu = 0.2, 10.0, 0.05
        rng = np.random.default_rng(11)
        vtilde, u = random_pair(grid, rng)
        res = da.step2b(vtilde, op.apply(u), op, k, chi, nu)
        assert res.iterations == 0  # a divide, no CG
        helm = 1.0 + k * nu * grid.k2
        mask = op.multiplier.astype(bool)
        want_obs = (helm * vtilde.coeffs + k * chi * u.coeffs * op.multiplier) / (helm + k * chi)
        assert np.max(np.abs((res.v.coeffs - want_obs) * mask)) < 1e-12
        assert np.max(np.abs((res.v.coeffs - vtilde.coeffs) * ~mask)) < 1e-14

    def test_zero_chi_is_identity(self, grid):
        op = obs.make_spectral_projection(grid, 4)
        vtilde, _ = random_pair(grid, np.random.default_rng(12))
        res = da.step2b(vtilde, sp.SpectralVectorField.zero(grid), op, 0.1, 0.0, 1.0)
        assert res.v is vtilde

    def test_cg_matches_diagonal_for_projection(self, grid):
        op = obs.make_spectral_projection(grid, 5)
        rng = np.random.default_rng(13)
        vtilde, u = random_pair(grid, rng)
        fast = da.step2b(vtilde, op.apply(u), op, 0.1, 25.0, 0.01)
        slow = da.step2b(vtilde, op.apply(u), op, 0.1, 25.0, 0.01, force_iterative=True)
        assert fast.iterations == 0 and slow.iterations > 0
        assert sp.l2_norm(fast.v - slow.v) < 1e-11 * sp.l2_norm(fast.v)

    def test_cell_average_solve_and_energy_identity(self, grid):
        op = obs.make_cell_average(grid, 4)
        rng = np.random.default_rng(14)
        vtilde, u = random_pair(grid, rng)
        k, chi, nu = 0.1, 40.0, 0.02
        res = da.step2b(vtilde, op.apply(u), op, k, chi, nu)
        # residual of the defining system
        lhs = (1 + k * nu * grid.k2) * res.v.coeffs + k * chi * op.apply_coeffs(res.v.coeffs)
        rhs = (1 + k * nu * grid.k2) * vtilde.coeffs + k * chi * op.apply_coeffs(u.coeffs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))
        resid = da.check_energy_identity_2b(u - res.v, u - vtilde, op, k, chi, nu)
        assert resid < 1e-10

    def test_energy_identity_spectral(self, grid):
        op = obs.make_spectral_projection(grid, 6)
        rng = np.random.default_rng(15)
        for _ in range(20):
            vtilde, u = random_pair(grid, rng)
            k = float(rng.uniform(0.01, 0.5))
            chi = float(10 ** rng.uniform(0, 3))
            nu = float(10 ** rng.uniform(-3, 0))
            res = da.step2b(vtilde, op.apply(u), op, k, chi, nu)
            resid = da.check_energy_identity_2b(u - res.v, u - vtilde, op, k, chi, nu)
            assert resid < 1e-10


class TestIdentities:
    def test_polarization_full_space_half_gain(self, grid):
        # I_H = identity, k chi = 1: e = etilde / 2 and the balance closes
        op = obs.make_spectral_projection(grid, grid.n // 2)
        rng = np.random.default_rng(16)
        vtilde, u = random_pair(grid, rng)
        res = da.step2a_implicit(vtilde, op.apply(u), op, 1.0, 1.0)
        e, etilde = u - res.v, u - vtilde
        assert sp.l2_norm(e) == pytest.approx(0.5 * sp.l2_norm(etilde), rel=1e-10)
        assert da.check_polarization_identity(e, etilde, op, 1.0, 1.0) < 1e-12

    def test_polarization_random_ensemble(self, grid):
        rng = np.random.default_rng(17)
        for make in (lambda: obs.make_spectral_projection(grid, int(rng.integers(2, 12))),
                     lambda: obs.make_cell_average(grid, int(rng.choice([2, 4, 8])))):
            for _ in range(20):
                op = make()
                k = float(rng.uniform(0.01, 1.0))
                chi = float(10 ** rng.uniform(-1, 3))
                vtilde, u = random_pair(grid, rng)
                res = da.step2a_explicit(vtilde, op.apply(u), op, k, chi)
                e, etilde = u - res.v, u - vtilde
                assert da.check_polarization_identity(e, etilde, op, k, chi) < 1e-12
                if sp.l2_norm(op.apply(e)) > 1e-14:
                    assert sp.l2_norm(e) < sp.l2_norm(etilde)

    def test_error_norm_strictly_decreases(self, grid):
        op = obs.make_spectral_projection(grid, 8)
        rng = np.random.default_rng(18)
        vtilde, u = random_pair(grid, rng)
        res = da.step2a_explicit(vtilde, op.apply(u), op, 0.1, 100.0)
        assert sp.l2_norm(u - res.v) < sp.l2_norm(u - vtilde)

    def test_gradient_monotonicity_spectral(self, grid):
        op = obs.make_spectral_projection(grid, 6)
        rng = np.random.default_rng(19)
        for _ in range(20):
            k = float(rng.uniform(0.01, 1.0))
            chi = float(10 ** rng.uniform(-1, 3))
            vtilde, u = random_pair(grid, rng)
            res = da.step2a_explicit(vtilde, op.apply(u), op, k, chi)
            e, etilde = u - res.v, u - vtilde
            assert da.check_gradient_monotonicity(e, etilde, op, k, chi) < 1e-12

    def test_gradient_monotonicity_chi_zero_trivial(self, grid):
        op = obs.make_spectral_projection(grid, 6)
        vtilde, u = random_pair(grid, np.random.default_rng(20))
        e = u - vtilde
        assert da.check_gradient_monotonicity(e, e, op, 0.1, 0.0) < 1e-14

    def test_cell_average_identities_hold_on_the_unprojected_state(self, grid):
        # the cell average breaks solenoidality and no run re-projects: a
        # Leray projection would restore it, and the identities hold on the
        # raw analysis state, which is what the run stores
        op = obs.make_cell_average(grid, 8)
        rng = np.random.default_rng(21)
        vtilde, u = random_pair(grid, rng)
        res = da.step2a_explicit(vtilde, op.apply(u), op, 0.1, 50.0)
        assert res.v.max_divergence() > 1e-10  # genuinely broken
        assert leray_project(res.v).max_divergence() < 1e-12
        e, etilde = u - res.v, u - vtilde
        assert da.check_polarization_identity(e, etilde, op, 0.1, 50.0) < 1e-12


OPERATORS = {
    "spectral-projection": lambda g: obs.make_spectral_projection(g, 6),
    "cell-average": lambda g: obs.make_cell_average(g, 8),
    "differential-filter": lambda g: obs.make_differential_filter(g, 0.4),
}


def vector_mode(grid, kx, ky, amplitude=1.0):
    c = single_mode_scalar(grid, kx, ky, amplitude).coeffs
    return sp.SpectralVectorField.from_coeffs(grid, np.stack([c, 0.5 * c]))


class TestAnalysisRecord:
    """The record against the textbook definitions, written out field by field."""

    @staticmethod
    def textbook(vtilde, v, u, op, k, chi):
        grid = u.grid
        kchi = k * chi
        e, etilde = u - v, u - vtilde
        diff = e - etilde
        pol_lhs = (0.5 * sp.l2_norm(e) ** 2 - 0.5 * sp.l2_norm(etilde) ** 2
                   + 0.5 * sp.l2_norm(diff) ** 2 + kchi * sp.inner(op.apply(e), e))
        grad_e = np.stack([1j * grid.kx * e.coeffs[0], 1j * grid.ky * e.coeffs[0],
                           1j * grid.kx * e.coeffs[1], 1j * grid.ky * e.coeffs[1]])
        grad_dot = sp.coeff_dot(grid, op.apply_coeffs(grad_e), grad_e)
        grad_lhs = (sp.h1_seminorm(e) ** 2 + sp.h1_seminorm(diff) ** 2 + 2 * kchi * grad_dot
                    - sp.h1_seminorm(etilde) ** 2)
        gain = kchi / (1 + kchi)
        once = op.apply(e)
        tail = (kchi * gain) * (once - op.apply(once))
        recon = vtilde + gain * op.apply(etilde) + tail
        observed = sp.l2_norm(op.apply(e)) > da.OBS_ERROR_FLOOR
        return dict(
            err=sp.l2_norm(e),
            err_tilde=sp.l2_norm(etilde),
            grad_err=sp.h1_seminorm(e),
            grad_err_tilde=sp.h1_seminorm(etilde),
            polarization_rel=abs(pol_lhs) / sp.l2_norm(etilde) ** 2,
            gradient_rel=abs(grad_lhs) / sp.h1_seminorm(etilde) ** 2,
            residual_rel=sp.l2_norm(v - recon) / sp.l2_norm(v),
            correction_rel=sp.l2_norm(tail) / sp.l2_norm(v),
            decreased=sp.l2_norm(e) < sp.l2_norm(etilde) if observed else None,
        )

    @pytest.mark.parametrize("kind", sorted(OPERATORS))
    def test_matches_textbook_on_random_fields(self, grid, kind):
        # v is not the analysis of vtilde, so every residual is of order one
        op = OPERATORS[kind](grid)
        rng = np.random.default_rng(22)
        verdicts = set()
        for _ in range(10):
            vtilde, u = random_pair(grid, rng)
            v = sp.random_divfree_field(grid, rng, normalize=rng.uniform(0.2, 2.0))
            k, chi = float(rng.uniform(0.01, 1.0)), float(10 ** rng.uniform(-1, 3))
            rec = da.verify_form_b(vtilde, v, u, op, k, chi)
            want = self.textbook(vtilde, v, u, op, k, chi)
            if not op.commutes_with_gradient:
                assert math.isnan(rec.gradient_rel)
                del want["gradient_rel"]
            for name, value in want.items():
                if name == "decreased":
                    assert rec.decreased is value
                else:
                    assert getattr(rec, name) == pytest.approx(value, rel=1e-13), name
            e, etilde = u - v, u - vtilde
            pol = da.check_polarization_identity(e, etilde, op, k, chi)
            assert pol == pytest.approx(rec.polarization_rel, rel=1e-14)
            gm = da.check_gradient_monotonicity(e, etilde, op, k, chi)
            assert gm == pytest.approx(rec.gradient_rel, rel=1e-14, nan_ok=True)
            verdicts.add(rec.decreased)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kind", sorted(OPERATORS))
    def test_energy_identity_2b_matches_textbook(self, grid, kind):
        op = OPERATORS[kind](grid)
        rng = np.random.default_rng(23)
        vtilde, u = random_pair(grid, rng)
        v = 0.5 * sp.random_divfree_field(grid, rng)
        k, chi, nu = 0.2, 30.0, 0.05
        e, etilde = u - v, u - vtilde
        diff = e - etilde
        lhs = (sp.l2_norm(e) ** 2 + k * nu * sp.h1_seminorm(e) ** 2 + sp.l2_norm(diff) ** 2
               + k * nu * sp.h1_seminorm(diff) ** 2 + 2 * k * chi * sp.inner(op.apply(e), e))
        rhs = sp.l2_norm(etilde) ** 2 + k * nu * sp.h1_seminorm(etilde) ** 2
        got = da.check_energy_identity_2b(e, etilde, op, k, chi, nu)
        assert got == pytest.approx(abs(lhs - rhs) / rhs, rel=1e-13)

    def test_applies_the_operator_three_times(self, grid):
        # one I_H e for every term, then I_H^2 e and I_H etilde for form B
        import unittest.mock as mock

        op = obs.make_spectral_projection(grid, 4)
        vtilde, u = random_pair(grid, np.random.default_rng(24))
        v = da.step2a_explicit(vtilde, op.apply(u), op, 0.1, 10.0).v
        calls = {"n": 0}
        orig = obs.ObservationOperator.apply_coeffs

        def counted(self, c):
            calls["n"] += 1
            return orig(self, c)

        with mock.patch.object(obs.ObservationOperator, "apply_coeffs", counted):
            da.verify_form_b(vtilde, v, u, op, 0.1, 10.0)
        assert calls["n"] == 3

    def test_unobserved_error_has_no_decrease_verdict(self, grid):
        # e lives outside the observed band, so I_H e = 0 exactly
        op = obs.make_spectral_projection(grid, 2)
        vtilde, u = random_pair(grid, np.random.default_rng(25))
        v = u - vector_mode(grid, 5, 3, 0.3 + 0.1j)
        assert sp.l2_norm(op.apply(u - v)) == 0.0
        rec = da.verify_form_b(vtilde, v, u, op, 0.1, 10.0)
        assert rec.decreased is None
        assert rec.err > 0

    def test_cell_average_gradient_residual_is_nan(self, grid):
        op = obs.make_cell_average(grid, 8)
        vtilde, u = random_pair(grid, np.random.default_rng(26))
        res = da.step2a_explicit(vtilde, op.apply(u), op, 0.1, 50.0)
        rec = da.verify_form_b(vtilde, res.v, u, op, 0.1, 50.0)
        assert math.isnan(rec.gradient_rel)
        assert math.isnan(da.check_gradient_monotonicity(u - res.v, u - vtilde, op, 0.1, 50.0))
        assert rec.polarization_rel < 1e-12 and rec.residual_rel < 1e-12

    @pytest.mark.parametrize("kind", sorted(OPERATORS))
    def test_zero_denominator_conventions(self, grid, kind):
        # 0 when every term vanishes, inf when only the normalizing norm does
        op = OPERATORS[kind](grid)
        zero = sp.SpectralVectorField.zero(grid)
        e = vector_mode(grid, 1, 2)
        assert da.check_polarization_identity(zero, zero, op, 0.1, 5.0) == 0.0
        assert da.check_polarization_identity(e, zero, op, 0.1, 5.0) == math.inf
        assert da.check_energy_identity_2b(zero, zero, op, 0.1, 5.0, 0.1) == 0.0
        assert da.check_energy_identity_2b(e, zero, op, 0.1, 5.0, 0.1) == math.inf
        if op.commutes_with_gradient:
            assert da.check_gradient_monotonicity(zero, zero, op, 0.1, 5.0) == 0.0
            assert da.check_gradient_monotonicity(e, zero, op, 0.1, 5.0) == math.inf
        rec = da.verify_form_b(zero, zero, zero, op, 0.1, 5.0)
        assert (rec.residual_rel, rec.correction_rel, rec.polarization_rel) == (0.0, 0.0, 0.0)
        assert rec.decreased is None


class TestHypotheses:
    def test_margin_arithmetic(self, grid):
        op = obs.make_spectral_projection(grid, 8)  # H = pi/8
        checks = {c.name: c for c in da.validate_hypotheses(
            k=0.1, nu=1.0, chi=1.0, op=op, c1=1.0 / math.pi, grad_u_norm=0.0)}
        stab = checks["finite-time-stability"]
        # nu - 6 chi c1^2 H^2 = 1 - 6 / 64
        assert stab.satisfied and stab.margin == pytest.approx(1.0 - 6.0 / 64.0, rel=1e-12)
        res = checks["error-decay-resolution"]
        assert res.satisfied and res.margin == pytest.approx(1.0 - 8.0 / 64.0, rel=1e-12)

    def test_chi_zero_fails_strength_condition(self, grid):
        op = obs.make_spectral_projection(grid, 8)
        checks = {c.name: c for c in da.validate_hypotheses(
            k=0.1, nu=1.0, chi=0.0, op=op, c1=0.3, grad_u_norm=1.0)}
        assert not checks["error-decay-strength"].satisfied

    def test_large_step_fails_step_size_condition(self, grid):
        op = obs.make_spectral_projection(grid, 8)
        checks = {c.name: c for c in da.validate_hypotheses(
            k=3.0, nu=1.0, chi=1.0, op=op, c1=0.3, grad_u_norm=0.0)}
        assert not checks["step-size"].satisfied
        checks = {c.name: c for c in da.validate_hypotheses(
            k=1.9, nu=1.0, chi=1.0, op=op, c1=0.3, grad_u_norm=0.0)}
        assert checks["step-size"].satisfied
