"""Stepper checks: manufactured-solution accuracy, energy behavior, BDF2, Krylov starts."""

import ast
import importlib
import inspect
import math
from pathlib import Path
from types import SimpleNamespace

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
    return st.ForecastState(time=0.0, velocity=v, config=cfg)


def truth_fields(u0, forcing, k, T, nu):
    """u0 and every BDF2 truth state up to T."""
    stepper = st.TruthIntegrator(u0, forcing, k, nu)
    return [u0] + [stepper.step() for _ in range(round(T / k))]


class TestForecast:
    def test_zero_state_zero_forcing_stays_zero(self):
        grid = sp.get_grid(16)
        state = make_state(grid, sp.SpectralVectorField.zero(grid))
        res = st.step1_forecast(state, sp.SpectralVectorField.zero(grid))
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

    @pytest.mark.parametrize("mean,accepted", [(5e-13, True), (5e-12, False)])
    def test_step_and_ledger_agree_on_a_small_mean(self, mean, accepted):
        # one bound for both: a forcing the step takes is one the ledger measures
        grid = sp.get_grid(16)
        rng = np.random.default_rng(3)
        v = sp.random_divfree_field(grid, rng)
        c = sp.random_divfree_field(grid, rng).coeffs.copy()
        c[0, 0, 0] = mean * np.max(np.abs(c))
        f = sp.SpectralVectorField.from_coeffs(grid, c)
        state = make_state(grid, v)
        ledger = st.StabilityLedger.start(v)
        verdicts = []
        for record in (lambda: st.step1_forecast(state, f),
                       lambda: ledger.record_forecast(v, v, f, 0.1, 1.0)):
            try:
                record()
                verdicts.append(True)
            except ValueError as exc:
                assert "zero mean" in str(exc) or "zero-mean" in str(exc)
                verdicts.append(False)
        assert verdicts == [accepted, accepted]

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
        stepper = st.TruthIntegrator(zero, lambda t: zero, 0.1, 1.0)
        assert stepper.time == 0.0
        fields = [stepper.step() for _ in range(10)]
        assert all(sp.l2_norm(f) == 0.0 for f in fields)
        assert stepper.time == pytest.approx(1.0)

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
        fields = truth_fields(u0, lambda t: zero, 0.05, 1.0, nu=0.1)
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
            state.velocity = st.step1_forecast(state, f).v
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
        # per truth substep and per forecast: cold starts (2u^n - u^{n-1}
        # for the truth, v^n for the forecast) take 6.0 and 4.0, quadratic
        # extrapolation 3.125 and 4.35, the cubic starts 2.425 and 3.8
        assert len(truth) == 40 and np.mean(truth) <= 2.5
        assert len(forecast) == 40 and np.mean(forecast) <= 3.9

    def test_operator_applications_per_n128_twin_step(self, monkeypatch):
        # every GMRES application of a twin step: four truth substeps, four
        # forecasts and the fused solve.  Measured 26.0 per step (32.9 with
        # quadratic starts); the count does not depend on machine speed.
        applications = []
        solve = st.solve_gmres

        def counted(*args, **kw):
            x, info = solve(*args, **kw)
            applications.append(info.iterations)
            return x, info

        monkeypatch.setattr(st, "solve_gmres", counted)
        cfg = RunConfig(n=128, T=0.3)
        ex.run_twin(cfg, ex.twin_variants(cfg, include_alternates=True))
        assert len(applications) == 9 * cfg.steps
        assert sum(applications) / cfg.steps <= 26.5

    @pytest.mark.parametrize("recorded", range(6))
    def test_guess_extrapolates_a_cubic_sequence(self, recorded):
        # x_j = a + b j + c j^2 + e j^3: after three or more increments the
        # guess is the next term; after fewer, the extrapolation of lower
        # order through the terms seen so far
        rng = np.random.default_rng(recorded)
        a, b, c, e = rng.standard_normal((4, 2, 8, 5)) + 1j * rng.standard_normal((4, 2, 8, 5))
        xs = [a + b * j + c * j**2 + e * j**3 for j in range(recorded + 2)]
        history = st.IncrementHistory(a.shape, np.complex128)
        for j in range(recorded):
            history.record(xs[j + 1], xs[j])
        m, order = recorded, min(recorded, 3)
        # the extrapolation of degree `order` through x_{m-order}, ..., x_m
        expected = sum((-1) ** i * math.comb(order + 1, i + 1) * xs[m - i] for i in range(order + 1))
        guess = history.guess(xs[m])
        scale = np.abs(xs[m + 1]).max()
        assert history.count == order
        assert np.abs(guess - expected).max() <= 1e-13 * scale
        if order == 3:
            assert np.abs(guess - xs[m + 1]).max() <= 1e-13 * scale

    def test_truth_history_is_double_and_forecast_history_single(self):
        grid = sp.get_grid(16)
        rng = np.random.default_rng(13)
        u0 = sp.random_divfree_field(grid, rng)
        f = sp.random_divfree_field(grid, rng, normalize=0.5)
        truth = st.TruthIntegrator(u0, lambda t: f, 0.02, 0.02)
        truth.step()
        state, _ = self.advanced_state(grid, steps=1)
        # float64 real and imaginary parts for the truth, float32 for forecasts
        assert truth.history.dtype == np.complex128
        assert state.history.dtype == np.complex64

    def test_fused_solve_ignores_forecast_history(self):
        grid = sp.get_grid(32)
        op = obs.make_spectral_projection(grid, 4)
        state, f = self.advanced_state(grid, chi=1e4, scheme="standard")
        assert state.history.count == 3
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
        f = sp.random_divfree_field(grid, rng, normalize=True)
        truth = st.TruthIntegrator(sp.random_divfree_field(grid, rng), lambda t: f, k, nu)
        v = sp.random_divfree_field(grid, rng)
        state = make_state(grid, v, k=k, nu=nu, chi=chi, scheme=scheme)
        ledger = st.StabilityLedger.start(v)
        for _ in range(nsteps):
            u_next = truth.step()
            u_obs = op.apply(u_next)
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


SCHEME_NAMES = {s.name for s in st.SCHEMES}
KIND_NAMES = {obs.SPECTRAL_PROJECTION, obs.CELL_AVERAGE, obs.DIFFERENTIAL_FILTER}


def constants_holding(names) -> set[str]:
    """Module-level names in the package bound to one of `names`, or to a
    tuple, list, set or frozenset of them."""
    package = Path(st.__file__).parent
    out = set()
    for path in package.rglob("*.py"):
        module = importlib.import_module(f"modnudge.{path.stem}" if path.stem != "__init__"
                                         else "modnudge")
        for attr, value in vars(module).items():
            items = value if isinstance(value, (tuple, list, set, frozenset)) else [value]
            if items and all(isinstance(v, str) and v in names for v in items):
                out.add(attr)
    return out


def decisions(source: str, names) -> list[int]:
    """The lines that compare a value with one of `names` (==, !=, in, not in),
    as a literal or through a package constant that holds it, or build a
    tuple, list, set or dict of them."""
    constants = constants_holding(names)

    def named(node):
        if isinstance(node, ast.Name):
            return node.id in constants
        return isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value in names

    def holds_name(node):
        return isinstance(node, (ast.Tuple, ast.List, ast.Set)) and any(map(named, node.elts))

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            bad = any(isinstance(o, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for o in node.ops) \
                and any(named(x) or holds_name(x) for x in (node.left, *node.comparators))
        elif isinstance(node, ast.Dict):
            bad = any(k is not None and named(k) for k in node.keys)
        else:
            bad = holds_name(node)
        if bad:
            lines.append(node.lineno)
    return sorted(set(lines))


def package_decisions(names, exempt=lambda path, line: False) -> list[str]:
    package = Path(st.__file__).parent
    return [f"{path.name}:{line}" for path in sorted(package.rglob("*.py"))
            for line in decisions(path.read_text(), names) if not exempt(path, line)]


def test_no_module_decides_by_scheme_name():
    """Every scheme decision reads `stepping.SCHEMES`; the table's own records
    hold the names as call arguments, which the guard does not flag."""
    assert package_decisions(SCHEME_NAMES) == []


def test_no_module_outside_the_kind_table_decides_by_operator_kind():
    """`observers._FACTORIES` is the one kind -> factory table; every other
    operator decision reads a fact its factory set on the operator
    (`idempotent`, `c1_bound`, `diagonal`).  The condlab coarse kinds are
    different assembly algorithms and not among these names."""
    source = Path(obs.__file__).read_text()
    table = next(node for node in ast.parse(source).body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_FACTORIES"])

    def in_table(path, line):
        return path.name == "observers.py" and table.lineno <= line <= table.end_lineno

    assert decisions(source, KIND_NAMES) != []  # the table itself is seen
    assert package_decisions(KIND_NAMES, exempt=in_table) == []


def test_scheme_guard_flags_each_kind_of_decision():
    planted = (
        'a = scheme == "2b"\n'
        'b = "standard" != scheme\n'
        'c = scheme in ("2a-explicit", "2a-implicit")\n'
        'd = ["none"]\n'
        'e = {"2b": 1}\n'
        'f = Scheme("2b", fused=False)\n'
        'g = kind == "cell-average"\n'
        'h = op.kind != DIFFERENTIAL_FILTER\n'
        'i = kind in (SPECTRAL_PROJECTION, CELL_AVERAGE)\n'
        'j = {CELL_AVERAGE: 1.0}\n'
        'k = ObservationOperator(kind=CELL_AVERAGE)\n'
    )
    assert decisions(planted, SCHEME_NAMES | KIND_NAMES) == [1, 2, 3, 4, 5, 7, 8, 9, 10]
    assert decisions(planted, SCHEME_NAMES) == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# one step-parameter check
# ---------------------------------------------------------------------------

GOOD_STEP = {"k": 0.1, "chi": 1.0, "nu": 0.5, "tol": 1e-10}
BAD_STEP = {"k": (0.0, -0.1, math.nan), "chi": (-1.0, math.nan), "nu": (0.0, -1.0, math.nan),
            "tol": (0.0, 1e-3, math.nan)}

# every entry point that takes step parameters, called with the ones it accepts
STEP_ENTRIES = {
    "SchemeConfig": lambda f, k, chi, nu, tol: st.SchemeConfig(k=k, nu=nu, chi=chi, solver_tol=tol),
    "TruthIntegrator": lambda f, k, nu, tol: st.TruthIntegrator(f.u, f.forcing, k, nu,
                                                                solver_tol=tol),
    "step2a_explicit": lambda f, k, chi: da.step2a_explicit(f.vt, f.obs, f.op, k, chi),
    "step2a_implicit": lambda f, k, chi, tol: da.step2a_implicit(f.vt, f.obs, f.op, k, chi,
                                                                 tol=tol),
    "step2b": lambda f, k, chi, nu, tol: da.step2b(f.vt, f.obs, f.op, k, chi, nu, tol=tol),
    "verify_form_b": lambda f, k, chi: da.verify_form_b(f.vt, f.u, f.u, f.op, k, chi),
}


def accepted_params(entry) -> list[str]:
    return list(inspect.signature(STEP_ENTRIES[entry]).parameters)[1:]


@pytest.fixture(scope="module")
def step_fields():
    grid = sp.get_grid(8)
    rng = np.random.default_rng(3)
    u, vt = sp.random_divfree_field(grid, rng), sp.random_divfree_field(grid, rng)
    op = obs.make_spectral_projection(grid, 2)
    return SimpleNamespace(u=u, vt=vt, op=op, obs=op.apply(u),
                           forcing=lambda t: sp.SpectralVectorField.zero(grid))


@pytest.mark.parametrize("entry,param,bad", [
    (entry, param, bad) for entry in STEP_ENTRIES for param in accepted_params(entry)
    for bad in BAD_STEP[param]
])
def test_every_entry_refuses_a_bad_step_parameter_with_the_shared_message(
        step_fields, entry, param, bad):
    call = STEP_ENTRIES[entry]
    good = {p: GOOD_STEP[p] for p in accepted_params(entry)}
    call(step_fields, **good)
    with pytest.raises(ValueError) as shared:
        st.check_step_params(**{**GOOD_STEP, param: bad})
    with pytest.raises(ValueError) as refused:
        call(step_fields, **{**good, param: bad})
    assert str(refused.value) == str(shared.value)
