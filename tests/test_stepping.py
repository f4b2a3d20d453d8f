"""Stepper checks: manufactured-solution accuracy, energy behavior, BDF2, Krylov starts."""

import math

import numpy as np
import pytest

from modnudge import assimilate as da
from modnudge import experiments as ex
from modnudge import manufactured as mfg
from modnudge import observers as obs
from modnudge import spectral as sp
from modnudge import stepping as st
from modnudge.config import RunConfig

from spectral_helpers import manufactured_forcing_fn


def make_state(grid, v, k=0.1, nu=1.0, chi=0.0, scheme="none", **kw):
    cfg = st.SchemeConfig(k=k, nu=nu, chi=chi, scheme=scheme, **kw)
    return st.ForecastState(time=v.time, velocity=v, config=cfg)


def truth_fields(u0, forcing, k, T, nu):
    """u0 and every BDF2 truth state up to T."""
    stepper = st.TruthIntegrator(u0, forcing, k, nu)
    return [u0] + [stepper.step() for _ in range(round(T / k))]


class TestForecast:
    def test_zero_state_zero_forcing_stays_zero(self):
        grid = sp.get_grid(16)
        state = make_state(grid, sp.SpectralVectorField.zero(grid))
        res = st.step1_forecast(state, sp.SpectralVectorField.zero(grid, 0.1))
        assert sp.l2_norm(res.v) == 0.0

    def test_manufactured_single_step_closed_form(self):
        # the discrete system keeps the solution in the span of the
        # forcing shape, so the Krylov answer has a pencil-and-paper value
        grid = sp.get_grid(16)
        k, nu, t0 = 0.05, 0.7, 0.3
        state = make_state(grid, mfg.exact_solution(grid, t0), k=k, nu=nu)
        res = st.step1_forecast(state, mfg.forcing(grid, t0 + k, nu))
        coef = (math.exp(t0) + k * (1.0 + nu) * math.exp(t0 + k)) / (1.0 + k * nu)
        want = coef * mfg.exact_solution(grid, 0.0)  # unit-amplitude shape
        rel = sp.l2_norm(res.v - want) / sp.l2_norm(want)
        assert rel < 1e-8

    def test_manufactured_local_error_is_second_order(self):
        grid = sp.get_grid(16)
        nu, t0 = 1.0, 0.0
        errs = []
        for k in (0.1, 0.05, 0.025):
            state = make_state(grid, mfg.exact_solution(grid, t0), k=k, nu=nu)
            res = st.step1_forecast(state, mfg.forcing(grid, t0 + k, nu))
            errs.append(sp.l2_norm(res.v - mfg.exact_solution(grid, t0 + k)))
        for a, b in zip(errs, errs[1:]):
            assert 3.4 < a / b < 4.6

    def test_output_divergence_free(self):
        grid = sp.get_grid(32)
        rng = np.random.default_rng(0)
        v = sp.random_divfree_field(grid, rng)
        state = make_state(grid, v, k=0.05, nu=0.1)
        f = sp.random_divfree_field(grid, rng)
        res = st.step1_forecast(state, f)
        assert res.v.max_divergence() < 1e-10 * sp.l2_norm(res.v)

    def test_chi_plays_no_role_in_step1(self):
        grid = sp.get_grid(16)
        rng = np.random.default_rng(1)
        v = sp.random_divfree_field(grid, rng)
        f = sp.random_divfree_field(grid, rng)
        a = st.step1_forecast(make_state(grid, v, chi=0.0), f)
        b = st.step1_forecast(make_state(grid, v, chi=7.0), f)
        assert np.array_equal(a.v.coeffs, b.v.coeffs)

    def test_rejects_forcing_with_mean(self):
        grid = sp.get_grid(16)
        state = make_state(grid, sp.SpectralVectorField.zero(grid))
        c = np.zeros((2,) + grid.coeff_shape, dtype=complex)
        c[0, 0, 0] = 1.0
        bad = sp.SpectralVectorField.from_coeffs(grid, c)
        with pytest.raises(ValueError, match="zero mean"):
            st.step1_forecast(state, bad)

    def test_true_residual_meets_tolerance(self):
        grid = sp.get_grid(32)
        rng = np.random.default_rng(2)
        v = sp.random_divfree_field(grid, rng)
        f = sp.random_divfree_field(grid, rng)
        state = make_state(grid, v, k=0.1, nu=0.5, solver_tol=1e-10)
        res = st.step1_forecast(state, f)
        assert st.verify_momentum_residual(v, res.v, f, 0.1, 0.5) <= state.config.solver_tol
        assert res.residual <= state.config.solver_tol

    def test_unconditional_energy_stability(self):
        # no forcing: one step never increases the L2 norm, however big k is
        grid = sp.get_grid(32)
        rng = np.random.default_rng(3)
        zero = sp.SpectralVectorField.zero(grid)
        for _ in range(50):
            v = sp.random_divfree_field(grid, rng, decay=rng.uniform(0.2, 1.0))
            k = float(10 ** rng.uniform(-2, 2))
            nu = float(10 ** rng.uniform(-3, 0))
            state = make_state(grid, v, k=k, nu=nu)
            res = st.step1_forecast(state, zero)
            assert sp.l2_norm(res.v) <= sp.l2_norm(v) * (1.0 + 1e-12)


class TestStandardNudging:
    def test_chi_zero_reduces_to_forecast(self):
        grid = sp.get_grid(16)
        rng = np.random.default_rng(4)
        v = sp.random_divfree_field(grid, rng)
        f = sp.random_divfree_field(grid, rng)
        op = obs.make_spectral_projection(grid, 4)
        state = make_state(grid, v, chi=0.0, scheme="standard")
        res = st.step_standard_nudging(state, f, sp.SpectralVectorField.zero(grid), op)
        ref = st.step1_forecast(make_state(grid, v), f)
        assert np.array_equal(res.v.coeffs, ref.v.coeffs)

    def test_huge_gain_pins_observed_modes(self):
        grid = sp.get_grid(32)
        rng = np.random.default_rng(5)
        op = obs.make_spectral_projection(grid, 4)
        v = sp.random_divfree_field(grid, rng)
        u = sp.random_divfree_field(grid, rng)
        f = sp.random_divfree_field(grid, rng)
        k = 0.1
        state = make_state(grid, v, k=k, nu=0.01, chi=1e8 / k, scheme="standard")
        res = st.step_standard_nudging(state, f, op.apply(u), op)
        gap = op.apply(res.v - u)
        assert sp.l2_norm(gap) <= 1e-6 * sp.l2_norm(op.apply(u))

    def test_solves_the_fused_system(self):
        grid = sp.get_grid(16)
        rng = np.random.default_rng(6)
        op = obs.make_spectral_projection(grid, 3)
        v = sp.random_divfree_field(grid, rng)
        u = sp.random_divfree_field(grid, rng)
        f = sp.random_divfree_field(grid, rng)
        k, nu, chi = 0.2, 0.3, 5.0
        state = make_state(grid, v, k=k, nu=nu, chi=chi, scheme="standard")
        res = st.step_standard_nudging(state, f, op.apply(u), op)
        # the operator built from the skew form, independently of the solver's kernel
        mask = grid.dealias_mask
        advection = sp._advect_skew_coeffs(grid, v.coeffs * mask, res.v.coeffs * mask)
        lhs = (
            (1.0 / k + nu * grid.k2) * res.v.coeffs
            + sp._leray_coeffs(grid, advection)
            + chi * sp._leray_coeffs(grid, op.apply_coeffs(res.v.coeffs))
        )
        rhs = (
            sp._leray_coeffs(grid, f.coeffs)
            + v.coeffs / k
            + chi * sp._leray_coeffs(grid, op.apply_coeffs(u.coeffs))
        )
        assert np.linalg.norm((lhs - rhs).ravel()) < 1e-7 * np.linalg.norm(rhs.ravel())


class TestTruth:
    def test_zero_everything_stays_zero(self):
        grid = sp.get_grid(16)
        zero = sp.SpectralVectorField.zero(grid)
        fields = truth_fields(zero, lambda t: zero.at_time(t), 0.1, 1.0, nu=1.0)
        assert all(sp.l2_norm(f) == 0.0 for f in fields)
        assert fields[0].time == 0.0 and fields[-1].time == pytest.approx(1.0)

    def test_first_step_is_backward_euler(self):
        grid = sp.get_grid(16)
        rng = np.random.default_rng(7)
        v = sp.random_divfree_field(grid, rng)
        ffn = manufactured_forcing_fn(grid, 1.0)
        stepper = st.TruthIntegrator(v, ffn, 0.1, 1.0)
        first = stepper.step()
        ref = st.step1_forecast(make_state(grid, v, k=0.1, nu=1.0), ffn(0.1))
        assert sp.l2_norm(first - ref.v) < 1e-12 * sp.l2_norm(ref.v)

    def test_bdf2_is_second_order(self):
        grid = sp.get_grid(16)
        nu, T = 1.0, 1.0
        errs = []
        for k in (0.1, 0.05, 0.025):
            u0 = mfg.exact_solution(grid, 0.0)
            fields = truth_fields(u0, manufactured_forcing_fn(grid, nu), k, T, nu=nu)
            errs.append(sp.l2_norm(fields[-1] - mfg.exact_solution(grid, T)))
        rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        for r in rates:
            assert 1.7 < r < 2.3

    def test_backward_euler_chain_is_first_order(self):
        grid = sp.get_grid(16)
        nu, T = 1.0, 1.0
        errs = []
        for k in (1.0 / 8, 1.0 / 16, 1.0 / 32):
            state = make_state(grid, mfg.exact_solution(grid, 0.0), k=k, nu=nu)
            t = 0.0
            while t < T - 1e-12:
                res = st.step1_forecast(state, mfg.forcing(grid, t + k, nu))
                state = st.ForecastState(t + k, res.v, state.config)
                t += k
            errs.append(sp.l2_norm(state.velocity - mfg.exact_solution(grid, T)))
        rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        for r in rates:
            assert 0.8 < r < 1.2

    def test_unforced_energy_never_grows(self):
        grid = sp.get_grid(32)
        rng = np.random.default_rng(8)
        u0 = sp.random_divfree_field(grid, rng)
        zero = sp.SpectralVectorField.zero(grid)
        fields = truth_fields(u0, lambda t: zero.at_time(t), 0.05, 1.0, nu=0.1)
        norms = [sp.l2_norm(f) for f in fields]
        for a, b in zip(norms, norms[1:]):
            assert b <= a * (1.0 + 1e-12)


class TestKrylovStarts:
    @staticmethod
    def advanced_state(grid, steps=3, chi=0.0, scheme="none"):
        """A state that has run `steps` forecasts, so it carries history."""
        rng = np.random.default_rng(11)
        v = sp.random_divfree_field(grid, rng, kmax=6)
        f = sp.random_divfree_field(grid, rng, kmax=3, normalize=0.5)
        state = make_state(grid, v, k=0.02, nu=0.02, chi=chi, scheme=scheme)
        for _ in range(steps):
            res = st.step1_forecast(state, f)
            state.time, state.velocity = res.v.time, res.v
        return state, f

    def test_applications_per_truth_substep_and_forecast(self, monkeypatch):
        truth, forecast = [], []
        step = st.TruthIntegrator.step

        def counted_step(self):
            out = step(self)
            truth.append(self.last_iterations)
            return out

        def counted_forecast(state, forcing, _forecast=ex.step1_forecast):
            res = _forecast(state, forcing)
            forecast.append(res.iterations)
            return res

        monkeypatch.setattr(st.TruthIntegrator, "step", counted_step)
        monkeypatch.setattr(ex, "step1_forecast", counted_forecast)
        cfg = RunConfig(n=32, T=0.1, operator_scale=4)
        ex.run_twin(cfg, ex.twin_variants(cfg, include_alternates=True))
        # cold starts (v^n, and 2u^n - u^{n-1} for the truth) take 4.0 and 6.0
        assert len(truth) == 40 and np.mean(truth) <= 3.2
        assert len(forecast) == 40 and np.mean(forecast) <= 4.5

    def test_fused_solve_ignores_forecast_history(self):
        grid = sp.get_grid(32)
        op = obs.make_spectral_projection(grid, 4)
        state, f = self.advanced_state(grid, chi=1e4, scheme="standard")
        assert state.history.count == 2
        cold = st.ForecastState(state.time, state.velocity, state.config)
        u_obs = op.apply(sp.random_divfree_field(grid, np.random.default_rng(12)))
        warm_res = st.step_standard_nudging(state, f, u_obs, op)
        cold_res = st.step_standard_nudging(cold, f, u_obs, op)
        assert np.array_equal(warm_res.v.coeffs, cold_res.v.coeffs)
        assert cold.history is None

    def test_warm_and_cold_forecasts_agree(self):
        grid = sp.get_grid(32)
        state, f = self.advanced_state(grid)
        tol = state.config.solver_tol
        cold = st.ForecastState(state.time, state.velocity, state.config)
        v = state.velocity
        warm_res = st.step1_forecast(state, f)
        cold_res = st.step1_forecast(cold, f)
        assert warm_res.iterations < cold_res.iterations
        for res in (warm_res, cold_res):
            assert st.verify_momentum_residual(v, res.v, f, 0.02, 0.02) <= tol
        gap = sp.l2_norm(warm_res.v - cold_res.v) / sp.l2_norm(cold_res.v)
        assert gap <= 10 * tol


class TestStabilityLedger:
    def run_ledger(self, scheme, chi, nsteps=25):
        grid = sp.get_grid(32)
        rng = np.random.default_rng(10)
        op = obs.make_spectral_projection(grid, 5)
        k, nu = 0.05, 0.1
        forcing = sp.random_divfree_field(grid, rng, normalize=True)
        truth = st.TruthIntegrator(
            sp.random_divfree_field(grid, rng), lambda t: forcing.at_time(t), k, nu
        )
        v = sp.random_divfree_field(grid, rng)
        state = make_state(grid, v, k=k, nu=nu, chi=chi, scheme=scheme)
        ledger = st.StabilityLedger.start(v)
        for _ in range(nsteps):
            u_next = truth.step()
            u_obs = op.apply(u_next)
            f = forcing.at_time(truth.time)
            if scheme == "standard":
                res = st.step_standard_nudging(state, f, u_obs, op)
                ledger.record_forecast(state.velocity, res.v, f, k, nu)
                ledger.record_analysis(res.v, res.v, u_obs, op, k, chi)
                v_new = res.v
            else:
                res = st.step1_forecast(state, f)
                ledger.record_forecast(state.velocity, res.v, f, k, nu)
                ana = da.step2a_explicit(res.v, u_obs, op, k, chi)
                ledger.record_analysis(res.v, ana.v, u_obs, op, k, chi)
                v_new = ana.v
            assert ledger.satisfied(), f"energy budget violated at step {ledger.steps}"
            state = st.ForecastState(state.time + k, v_new, state.config)
        return ledger

    def test_two_step_budget_holds(self):
        ledger = self.run_ledger("2a-explicit", chi=10.0)
        assert ledger.steps == 25
        assert ledger.margin() >= 0.0

    def test_standard_budget_holds(self):
        self.run_ledger("standard", chi=10.0)

    def test_chi_zero_budget_holds(self):
        self.run_ledger("none", chi=0.0)
