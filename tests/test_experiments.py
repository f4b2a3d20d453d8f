import math

import numpy as np
import pytest

from modnudge import experiments as ex
from modnudge import solvers
from modnudge import stepping
from modnudge.assimilate import step2a_explicit
from modnudge.config import RunConfig
from modnudge.observers import make_operator, make_spectral_projection
from modnudge.solvers import KrylovError
from modnudge.spectral import get_grid, random_divfree_field
from modnudge.stepping import ForecastState, SchemeConfig, step1_forecast

from spectral_helpers import finest_rate


def small_twin_config(**overrides):
    base = dict(
        n=32,
        nu=1e-2,
        k=0.02,
        T=0.4,
        chi=50.0,
        operator_scale=4.0,
        chi_list=(0.0, 50.0),
        forcing_amplitude=0.1,
        windows=((0.1, 0.3),),
        seed=2,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestAdvance:
    def test_none_matches_plain_forecast(self):
        grid = get_grid(32)
        rng = np.random.default_rng(0)
        v0 = random_divfree_field(grid, rng)
        f = random_divfree_field(grid, rng, kmax=3, normalize=0.5)
        cfg = SchemeConfig(k=0.05, nu=0.1, chi=0.0, scheme="none")
        s1 = ForecastState(0.0, v0, cfg)
        s2 = ForecastState(0.0, v0, cfg)
        vtilde = ex.advance(s1, f, None, None)
        ref = step1_forecast(s2, f)
        assert np.array_equal(vtilde.coeffs, ref.v.coeffs)
        assert s1.time == pytest.approx(0.05)
        assert s1.velocity is vtilde

    def test_two_step_matches_manual_composition(self):
        grid = get_grid(32)
        rng = np.random.default_rng(1)
        v0 = random_divfree_field(grid, rng)
        u = random_divfree_field(grid, rng)
        f = random_divfree_field(grid, rng, kmax=3, normalize=0.5)
        op = make_spectral_projection(grid, 5)
        cfg = SchemeConfig(k=0.05, nu=0.1, chi=20.0, scheme="2a-explicit")
        state = ForecastState(0.0, v0, cfg)
        got_vtilde = ex.advance(state, f, op.apply(u), op)

        manual_state = ForecastState(0.0, v0, cfg)
        vtilde = step1_forecast(manual_state, f).v
        manual = step2a_explicit(vtilde, op.apply(u), op, 0.05, 20.0)
        assert np.array_equal(got_vtilde.coeffs, vtilde.coeffs)
        assert np.array_equal(state.velocity.coeffs, manual.v.coeffs)
        assert state.time == pytest.approx(0.05)


class TestManufacturedConvergence:
    def test_error_halves_with_k(self):
        e_coarse = ex.manufactured_error("2a-explicit", n=32, k=0.1, T=0.5, nu=1.0, chi=100.0)
        e_fine = ex.manufactured_error("2a-explicit", n=32, k=0.05, T=0.5, nu=1.0, chi=100.0)
        assert 1.6 < e_coarse / e_fine < 2.4

    def test_chi_zero_baseline_converges_too(self):
        e_coarse = ex.manufactured_error("none", n=32, k=0.1, T=0.5, nu=1.0, chi=0.0)
        e_fine = ex.manufactured_error("none", n=32, k=0.05, T=0.5, nu=1.0, chi=0.0)
        assert 1.6 < e_coarse / e_fine < 2.4

    def test_rejects_nonintegral_horizon(self):
        with pytest.raises(ValueError, match="integer"):
            ex.manufactured_error("none", n=16, k=0.3, T=1.0, nu=1.0, chi=0.0)

    def test_run_converge_rates_and_structure(self):
        cfg = RunConfig(n=32, nu=1.0, k=0.1, T=0.5, chi=100.0,
                        operator_scale=4.0, k_list=(0.1, 0.05, 0.025))
        tables = ex.run_converge(cfg, schemes=("2a-explicit", "standard"))
        assert set(tables) == {"2a-explicit", "standard"}
        for table in tables.values():
            ks = [r[0] for r in table.rows]
            assert ks == [0.1, 0.05, 0.025]
            assert math.isnan(table.rows[0][2])  # no rate on the first row
            assert 0.7 < finest_rate(table) < 1.3
            assert table.notes == ()

    def test_rates_skip_non_halving_neighbors(self):
        cfg = RunConfig(n=16, nu=1.0, k=0.1, T=0.4, chi=10.0,
                        operator_scale=3.0, k_list=(0.1, 0.04))
        table = ex.run_converge(cfg, schemes=("none",))["none"]
        assert all(math.isnan(r[2]) for r in table.rows)


@pytest.fixture(scope="module")
def result():
    return ex.run_twin(small_twin_config())


class TestTwin:
    def test_variant_names_and_sizes(self, result):
        assert set(result.variants) == {"chi-0", "2a-explicit-chi-50"}
        steps = small_twin_config().steps
        for vr in result.variants.values():
            assert len(vr.ledger_rows) == steps
            assert vr.series.times.shape == (steps + 1,)
        assert result.times[0] == 0.0

    def test_assimilation_beats_baseline(self, result):
        base = result.variants["chi-0"].series.norms[-1]
        nudged = result.variants["2a-explicit-chi-50"].series.norms[-1]
        assert nudged < base

    def test_identity_residuals_and_decrease(self, result):
        vr = result.variants["2a-explicit-chi-50"]
        rows = np.asarray([r[6:] for r in vr.ledger_rows], dtype=float)
        assert np.nanmax(rows) < 1e-10
        assert vr.decrease_checked > 0
        assert vr.decrease_violations == 0

    def test_baseline_rows_have_nan_residuals(self, result):
        rows = np.asarray([r[6:] for r in result.variants["chi-0"].ledger_rows], dtype=float)
        assert np.isnan(rows).all()

    def test_horizon_reports_present(self, result):
        for vr in result.variants.values():
            assert len(vr.horizons) == 1
            assert vr.horizons[0].window == (0.1, 0.3)
        assert len(result.epsilons) == 1 and result.epsilons[0] > 0

    def test_deterministic_reruns(self, result):
        again = ex.run_twin(small_twin_config())
        for name, vr in result.variants.items():
            assert np.array_equal(again.variants[name].series.norms, vr.series.norms)

    def test_mean_window_requires_samples(self, result):
        vr = result.variants["chi-0"]
        assert vr.mean_relative_error(0.2, 0.4) > 0
        with pytest.raises(ValueError, match="window"):
            vr.mean_relative_error(5.0, 6.0)

    def test_off_grid_default_windows_rejected_before_the_first_step(self, monkeypatch):
        # T=0.06 puts the default windows at 0.024, 0.036, ... which miss k=0.02
        def no_stepping(*args, **kwargs):
            raise AssertionError("the run started before its windows were checked")

        monkeypatch.setattr(ex, "TruthIntegrator", no_stepping)
        with pytest.raises(ValueError, match=r"window 0\.024:0\.036 .*k=0\.02"):
            ex.run_twin(small_twin_config(T=0.06, windows=()))

    def test_off_grid_given_window_rejected(self):
        with pytest.raises(ValueError, match=r"window 0\.1:0\.31 .*k=0\.02"):
            ex.run_twin(small_twin_config(windows=((0.1, 0.31),)))

    @pytest.mark.parametrize("scheme", ["2a-explicit", "2a-implicit"])
    def test_cell_average_twin_keeps_the_identities(self, scheme):
        cfg = RunConfig(n=32, T=0.1, operator="cell-average", operator_scale=8, scheme=scheme)
        result = ex.run_twin(cfg, variants=ex.twin_variants(cfg, include_alternates=True))
        assert {v.variant.scheme for v in result.variants.values()} == {
            "none", scheme, "standard", "2b"}
        two_step = [vr for vr in result.variants.values()
                    if vr.variant.scheme == scheme and vr.variant.chi > 0]
        assert len(two_step) == 2
        for vr in two_step:
            pol, formb, gm = np.asarray([r[6:] for r in vr.ledger_rows], dtype=float).T
            assert pol.max() <= 1e-10
            assert formb.max() <= 10 * cfg.solver_tol
            assert np.isnan(gm).all()  # the cell average does not commute with grad
            assert vr.decrease_checked > 0
            assert vr.decrease_violations == 0

    def test_filter_twin_keeps_the_identities(self):
        # the general forms (I_H e, e) and (I_H grad e, grad e) hold for the filter too
        cfg = RunConfig(n=32, T=0.1, operator="differential-filter", operator_scale=0.5,
                        scheme="2a-implicit")
        result = ex.run_twin(cfg)
        two_step = [vr for vr in result.variants.values() if vr.variant.chi > 0]
        assert len(two_step) == 2
        for vr in two_step:
            pol, formb, gm = np.asarray([r[6:] for r in vr.ledger_rows], dtype=float).T
            assert pol.max() <= 1e-10
            assert formb.max() <= 1e-10
            assert gm.max() <= 1e-10
            assert vr.decrease_checked > 0
            assert vr.decrease_violations == 0

    def test_alternate_variants_cover_other_schemes(self):
        cfg = small_twin_config()
        names = {v.name: v for v in ex.twin_variants(cfg, include_alternates=True)}
        schemes = {v.scheme for v in names.values()}
        assert {"none", "2a-explicit", "standard", "2b"} <= schemes



def _cap_gmres(monkeypatch, maxiter):
    """Make every momentum solve run out of operator applications."""
    solve = solvers.solve_gmres

    def capped(*args, **kwargs):
        return solve(*args, **{**kwargs, "maxiter": maxiter})

    monkeypatch.setattr(stepping, "solve_gmres", capped)


class TestSolverFailuresAreLocated:
    def test_twin_names_the_failing_variant_step_and_time(self, monkeypatch):
        original = KrylovError("analysis solve stalled", residual=1e-3, iterations=7)

        def fail(*args, **kwargs):
            raise original

        monkeypatch.setattr(ex, "step2a_explicit", fail)
        with pytest.raises(KrylovError) as exc:
            ex.run_twin(small_twin_config())
        msg = str(exc.value)
        assert msg.startswith("variant '2a-explicit-chi-50', step 1, t=0.02: ")
        assert msg.endswith("analysis solve stalled")
        assert (exc.value.residual, exc.value.iterations) == (1e-3, 7)
        assert exc.value.__cause__ is original

    def test_twin_names_a_failing_truth_substep(self, monkeypatch):
        _cap_gmres(monkeypatch, 2)
        with pytest.raises(KrylovError, match=r"^truth, step 1, t=0\.005: GMRES stopped"):
            ex.run_twin(small_twin_config())

    def test_converge_notes_name_scheme_step_and_time(self, monkeypatch):
        _cap_gmres(monkeypatch, 2)
        cfg = RunConfig(n=16, nu=1.0, k=0.1, T=0.2, chi=10.0,
                        operator_scale=3.0, k_list=(0.1,))
        table = ex.run_converge(cfg, schemes=("standard",))["standard"]
        assert math.isnan(table.rows[0][1])
        (note,) = table.notes
        assert note.startswith("k=0.1: solve failed (scheme 'standard', step 1, t=0.1: GMRES")


class TestProps:
    def test_default_suites_pass(self):
        report = ex.run_props(seed=3, count=12)
        assert report.ok
        names = {r.name for r in report.results}
        assert {"filter-smoothing", "explicit-implicit-equivalence", "error-decrease",
                "gradient-monotonicity", "energy-budget",
                "l4-interpolation-ratio"} <= names
        soft = [r for r in report.results if not r.hard]
        assert [r.name for r in soft] == ["l4-interpolation-ratio"]

    @pytest.mark.usefixtures("tampered_gain")
    def test_tampered_gain_is_caught(self):
        assert not ex.explicit_implicit_equivalence(np.random.default_rng(3), 12).passed
        report = ex.run_props(seed=3, count=12)
        assert not report.ok
        failed = {r.name for r in report.results if r.hard and not r.passed}
        # the identity suites that run the explicit update see it; the energy
        # budget is an inequality with room to spare
        assert failed == {"explicit-implicit-equivalence", "error-decrease",
                          "gradient-monotonicity"}

    def test_rejects_tiny_count(self):
        with pytest.raises(ValueError, match="at least 10"):
            ex.run_props(count=5)


MATRIX_SCALES = {"spectral-projection": 4, "cell-average": 4, "differential-filter": 0.25}


@pytest.mark.parametrize("operator", MATRIX_SCALES)
@pytest.mark.parametrize("scheme", [s.name for s in stepping.SCHEMES])
def test_every_scheme_operator_pair_runs_or_is_refused(scheme, operator):
    """Each admitted (scheme, operator) pair runs a two-step twin, and ledgered
    pairs keep their identities; the refused pair gets one message from the
    config, the twin and the convergence study."""
    case = dict(n=16, T=0.02, operator=operator, operator_scale=MATRIX_SCALES[operator],
                windows=((0.0, 0.02),))
    rule = stepping.scheme_rule(scheme)
    variant = ex.TwinVariant(scheme, scheme, 1e4)
    if not rule.admits(make_operator(get_grid(16), operator, MATRIX_SCALES[operator])):
        assert (scheme, operator) == ("2a-explicit", "differential-filter")
        valid = RunConfig(scheme="2a-implicit", **case)
        messages = set()
        for refuse in (lambda: RunConfig(scheme=scheme, **case),
                       lambda: ex.run_twin(valid, [variant]),
                       lambda: ex.run_converge(valid, schemes=[scheme])):
            with pytest.raises(ValueError, match="idempotent") as exc:
                refuse()
            messages.add(str(exc.value))
        assert len(messages) == 1
        return
    vr = ex.run_twin(RunConfig(scheme=scheme, **case), [variant]).variants[scheme]
    assert len(vr.ledger_rows) == 2 and np.isfinite(vr.series.norms).all()
    residuals = np.asarray([r[6:] for r in vr.ledger_rows], dtype=float)
    if rule.ledgered:
        assert np.nanmax(residuals) <= 1e-10
        assert vr.decrease_violations == 0
    else:
        assert np.isnan(residuals).all()
