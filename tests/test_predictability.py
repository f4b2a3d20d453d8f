"""Horizon arithmetic and microscale checks."""

import math

import numpy as np
import pytest

from modnudge import assimilate as da
from modnudge import observers as obs
from modnudge import predictability as pred
from modnudge import spectral as sp

from spectral_helpers import single_mode_scalar


def series(times, norms):
    return pred.ErrorSeries(np.asarray(times, float), np.asarray(norms, float))


class TestFtle:
    def test_doubling_over_unit_window(self):
        s = series([0.0, 1.0], [0.5, 1.0])
        assert pred.ftle(s, 0.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_equal_norms_give_zero(self):
        s = series([0.0, 2.0], [0.7, 0.7])
        assert pred.ftle(s, 0.0, 2.0) == 0.0

    def test_decay_is_negative_and_labeled_half_life(self):
        s = series([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
        rep = pred.horizon_report(s, 0.0, 2.0, epsilon=1.0)
        assert rep.lam < 0
        assert rep.doubling_label == "error-half-life"
        assert rep.doubling == pytest.approx(1.0, rel=1e-12)  # halves every unit

    def test_zero_endpoint_rejected(self):
        s = series([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="zero error norm"):
            pred.ftle(s, 0.0, 1.0)

    def test_scale_invariance(self):
        s1 = series([1.0, 3.0], [0.2, 0.9])
        s2 = series([1.0, 3.0], [0.2 * 17, 0.9 * 17])
        assert pred.ftle(s1, 1.0, 3.0) == pytest.approx(pred.ftle(s2, 1.0, 3.0), rel=1e-14)

    def test_composition_is_time_weighted_average(self):
        rng = np.random.default_rng(0)
        t = np.array([0.0, 0.8, 2.5])
        n = rng.uniform(0.1, 2.0, 3)
        s = series(t, n)
        lam_full = pred.ftle(s, t[0], t[2])
        lam_a = pred.ftle(s, t[0], t[1])
        lam_b = pred.ftle(s, t[1], t[2])
        weighted = (lam_a * (t[1] - t[0]) + lam_b * (t[2] - t[1])) / (t[2] - t[0])
        assert abs(lam_full - weighted) < 1e-12

    def test_lookup_requires_sampled_time(self):
        s = series([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="not a sample"):
            pred.ftle(s, 0.0, 1.4)


class TestHorizons:
    def test_doubling_time_of_ln2(self):
        assert pred.doubling_time(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_neutral_rate_sentinel(self):
        assert pred.doubling_time(0.0) == math.inf
        assert pred.epsilon_horizon(0.0, 0.01, 1.0) == math.inf

    def test_epsilon_horizon_frozen_example(self):
        got = pred.epsilon_horizon(math.log(2.0), 0.01, 1.0)
        assert got == pytest.approx(math.log(100.0) / math.log(2.0), rel=1e-12)
        assert got == pytest.approx(6.6438561897747395, rel=1e-12)

    def test_threshold_already_reached(self):
        assert pred.epsilon_horizon(0.3, 0.25, 0.25) == 0.0

    @pytest.mark.parametrize("lam", [0.5, 0.0, -0.5])
    def test_error_above_the_threshold_has_reached_it(self, lam):
        assert pred.epsilon_horizon(lam, 0.2, 0.1) == 0.0

    def test_decaying_error_below_the_threshold_never_reaches_it(self):
        assert pred.epsilon_horizon(-0.5, 0.01, 1.0) == math.inf

    def test_decaying_report_has_an_infinite_horizon(self):
        s = series([0.0, 1.0, 2.0], [0.4, 0.2, 0.1])
        rep = pred.horizon_report(s, 0.0, 2.0, epsilon=1.0)
        assert rep.lam < 0 and rep.epsilon_horizon == math.inf

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_must_be_positive_and_finite(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            pred.epsilon_horizon(0.5, 0.01, epsilon)

    def test_smaller_rate_means_longer_horizon(self):
        tau_fast = pred.epsilon_horizon(0.8, 0.01, 1.0)
        tau_slow = pred.epsilon_horizon(0.2, 0.01, 1.0)
        assert tau_slow > tau_fast

    def test_report_window_and_fields(self):
        s = series([0.0, 1.0], [0.01, 0.02])
        rep = pred.horizon_report(s, 0.0, 1.0, epsilon=1.0)
        assert rep.window == (0.0, 1.0)
        assert rep.doubling == pytest.approx(1.0)
        assert rep.doubling_label == "doubling-time"
        assert rep.epsilon_horizon == pytest.approx(math.log(100.0) / math.log(2.0))


class TestSeriesValidation:
    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            series([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    def test_rejects_negative_norms(self):
        with pytest.raises(ValueError):
            series([0.0, 1.0], [1.0, -1.0])



class TestAnalysisStepBridge:
    def test_assimilation_lowers_the_step_ftle(self):
        # one analysis application shrinks the endpoint error, hence the
        # window's growth rate, whenever the error is actually observed
        grid = sp.get_grid(32)
        rng = np.random.default_rng(1)
        op = obs.make_spectral_projection(grid, 6)
        u = sp.random_divfree_field(grid, rng)
        vtilde = sp.random_divfree_field(grid, rng)
        e_start = 0.5  # imagined error norm at the window's left edge
        res = da.step2a_explicit(vtilde, op.apply(u), op, k=0.1, chi=50.0)
        with_step2 = series([0.0, 0.1], [e_start, sp.l2_norm(u - res.v)])
        without = series([0.0, 0.1], [e_start, sp.l2_norm(u - vtilde)])
        assert sp.l2_norm(op.apply(u - res.v)) > 1e-14
        assert pred.ftle(with_step2, 0.0, 0.1) < pred.ftle(without, 0.0, 0.1)


class TestMicroscale:
    def test_single_mode_scale_is_inverse_wavenumber(self):
        grid = sp.get_grid(64)
        c = single_mode_scalar(grid, 3, 4, 1.0)
        w = sp.SpectralVectorField.from_coeffs(grid, np.stack([c.coeffs, 0 * c.coeffs]))
        assert pred.taylor_microscale(w) == pytest.approx(1.0 / 5.0, rel=1e-12)

    def test_scaling_invariance(self):
        grid = sp.get_grid(32)
        rng = np.random.default_rng(2)
        w = sp.random_divfree_field(grid, rng)
        assert pred.taylor_microscale(3.7 * w) == pytest.approx(
            pred.taylor_microscale(w), rel=1e-13
        )

    def test_constant_field_rejected(self):
        grid = sp.get_grid(16)
        with pytest.raises(ValueError, match="constant"):
            pred.taylor_microscale(sp.SpectralVectorField.zero(grid))

    def test_condition_margin_sign(self):
        grid = sp.get_grid(32)
        rng = np.random.default_rng(3)
        w = sp.random_divfree_field(grid, rng)
        lt = pred.taylor_microscale(w)
        # resolved: H far below the field's scale, no shear
        ok = pred.microscale_condition(w, chi=10.0, nu=1.0, c1=0.3, h=lt / 10, grad_u_norm=0.0)
        assert ok.satisfied and ok.margin == pytest.approx(
            10.0 * (1.0 - 0.09 / 100.0), rel=1e-12
        )
        # hopeless: strong shear, tiny gain
        bad = pred.microscale_condition(w, chi=1e-6, nu=0.01, c1=0.3, h=lt, grad_u_norm=1.0)
        assert not bad.satisfied
