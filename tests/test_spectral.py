"""Spectral core: transforms, calculus, projection, advection, norms.

The nonlinear-term tests are oracle-driven: the dealiased product is
checked against a direct convolution carried out on a doubled grid,
where it is exact by bandwidth counting.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.fft as sfft

from modnudge import spectral as sp

from spectral_helpers import curl, laplacian, leray_project, mode_coefficient, single_mode_scalar

TWO_PI = 2.0 * math.pi


def projected_advection(g, a_values, wc):
    """P div(a (x) w) from the kernel's stream scalar, `stream_weights`
    times it, placed in a full coefficient array."""
    b = g.band_width
    out = np.zeros((2,) + g.coeff_shape, dtype=complex)
    out[..., :b] = g.stream_weights[..., :b] * sp._advect_div_coeffs(g, a_values, wc)
    return out


def exact_swirl(grid, t):
    """u(x, y, t) = e^t (cos y, sin x): divergence-free, single-mode pair."""
    X, Y = grid.mesh
    vals = np.stack([np.cos(Y), np.sin(X)]) * math.exp(t)
    return sp.SpectralVectorField.from_grid(grid, vals)


class TestTransforms:
    def test_constant_field_is_pure_dc(self):
        g = sp.get_grid(16)
        f = sp.ScalarField.from_grid(g, np.full((16, 16), 3.25))
        assert f.coeffs[0, 0] == pytest.approx(3.25, abs=1e-14)
        rest = np.abs(f.coeffs).sum() - abs(f.coeffs[0, 0])
        assert rest < 1e-13

    def test_cosine_lands_on_unit_modes(self):
        g = sp.get_grid(8)
        X, _ = g.mesh
        f = sp.ScalarField.from_grid(g, np.cos(X))
        assert mode_coefficient(f.coeffs, 1, 0) == pytest.approx(0.5, abs=1e-14)
        assert mode_coefficient(f.coeffs, -1, 0) == pytest.approx(0.5, abs=1e-14)

    def test_round_trip(self):
        g = sp.get_grid(32)
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((32, 32))
        f = sp.ScalarField.from_grid(g, vals)
        back = g.to_values(f.coeffs)
        assert np.max(np.abs(back - vals)) < 1e-12

    def test_parseval(self):
        g = sp.get_grid(24)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((24, 24))
        f = sp.ScalarField.from_grid(g, vals)
        quad = np.sum(vals**2) * g.cell_area
        assert sp.l2_norm(f) ** 2 == pytest.approx(quad, rel=1e-12)

    def test_hermitian_symmetry_enforced_on_construction(self):
        g = sp.get_grid(16)
        rng = np.random.default_rng(5)
        raw = rng.standard_normal(g.coeff_shape) + 1j * rng.standard_normal(g.coeff_shape)
        f = sp.ScalarField.from_coeffs(g, raw)
        assert sp.hermitian_defect(f) < 1e-15
        # and the reconstruction is genuinely real
        w = sp.ScalarField.from_grid(g, f.values)
        assert np.max(np.abs(w.coeffs - f.coeffs)) < 1e-13

    @pytest.mark.parametrize("n", [32, 48, 64, 128])
    def test_band_transforms_match_the_full_transforms_on_the_band(self, n):
        # bitwise on power-of-two grids, where the 1/n scalings are exact
        g = sp.get_grid(n)
        rng = np.random.default_rng(n)
        b = g.band_width
        vals = rng.standard_normal((3, n, n))
        block = rng.standard_normal((2, n, b)) + 1j * rng.standard_normal((2, n, b))
        padded = np.zeros((2,) + g.coeff_shape, dtype=complex)
        padded[..., :b] = block
        pairs = [
            (g.to_coeffs(vals, band=True), sfft.rfft2(vals, norm="forward")[..., :b]),
            (g.to_values(block), sfft.irfft2(padded, s=(n, n), norm="forward")),
        ]
        for got, want in pairs:
            assert got.shape == want.shape
            if n & (n - 1) == 0:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_transforms_match_scipy_fft_bitwise_at_powers_of_two(self, n):
        # the numpy.fft passes against the scipy.fft calls they replaced:
        # a numpy whose FFT rounds differently fails here instead of
        # silently moving every trajectory.  Bitwise on power-of-two
        # grids, where the 1/n scalings are exact.
        g = sp.get_grid(n)
        rng = np.random.default_rng(n + 2)
        b = g.band_width
        vals = rng.standard_normal((3, n, n))
        shape = (2,) + g.coeff_shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        block = coeffs[..., :b]
        band_half = sfft.rfft(vals, axis=-1, norm="forward")[..., :b]
        pairs = [
            (g.to_coeffs(vals), sfft.rfft2(vals, norm="forward")),
            (g.to_coeffs(vals[0]), sfft.rfft2(vals[0], norm="forward")),
            (g.to_coeffs(vals, band=True), sfft.fft(band_half, axis=-2, norm="forward")),
            (g.to_values(coeffs), sfft.irfft2(coeffs, s=(n, n), norm="forward")),
            (g.to_values(coeffs[0]), sfft.irfft2(coeffs[0], s=(n, n), norm="forward")),
            (
                g.to_values(block),
                sfft.irfft(sfft.ifft(block, axis=-2, norm="forward"), n=n, norm="forward"),
            ),
        ]
        for got, want in pairs:
            assert got.shape == want.shape and got.dtype == want.dtype
            if n & (n - 1) == 0:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_from_grid_values_round_trip_is_exact(self):
        g = sp.get_grid(16)
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((16, 16))
        f = sp.ScalarField.from_grid(g, vals)
        assert np.array_equal(f.values, vals)


class TestCalculus:
    def test_laplacian_of_cosine(self):
        g = sp.get_grid(16)
        X, _ = g.mesh
        f = sp.ScalarField.from_grid(g, np.cos(X))
        lap = laplacian(f)
        assert np.max(np.abs(lap.values + np.cos(X))) < 1e-13

    def test_gradient_of_constant_vanishes(self):
        g = sp.get_grid(16)
        f = sp.ScalarField.from_grid(g, np.full((16, 16), 2.0))
        assert sp.l2_norm(sp.gradient(f)) < 1e-13

    def test_swirl_field_is_divergence_free(self):
        g = sp.get_grid(32)
        u = exact_swirl(g, t=0.7)
        assert u.max_divergence() < 1e-12 * sp.l2_norm(u)

    def test_div_grad_equals_laplacian(self):
        g = sp.get_grid(24)
        f = sp.random_smooth_scalar(g, np.random.default_rng(0))
        a = sp.divergence(sp.gradient(f))
        b = laplacian(f)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13

    def test_curl_of_gradient_vanishes(self):
        g = sp.get_grid(24)
        f = sp.random_smooth_scalar(g, np.random.default_rng(1))
        assert sp.l2_norm(curl(sp.gradient(f))) < 1e-12


class TestLeray:
    def test_divfree_fixed_point(self):
        g = sp.get_grid(32)
        v = sp.random_divfree_field(g, np.random.default_rng(2))
        p = leray_project(v)
        assert np.max(np.abs(p.coeffs - v.coeffs)) < 1e-13

    def test_annihilates_gradients(self):
        g = sp.get_grid(32)
        f = sp.random_smooth_scalar(g, np.random.default_rng(3))
        p = leray_project(sp.gradient(f))
        assert sp.l2_norm(p) < 1e-12 * sp.h1_seminorm(f)

    def test_idempotent(self):
        g = sp.get_grid(32)
        rng = np.random.default_rng(4)
        v = sp.SpectralVectorField.from_grid(g, rng.standard_normal((2, 32, 32)))
        p1 = leray_project(v)
        p2 = leray_project(p1)
        assert np.max(np.abs(p2.coeffs - p1.coeffs)) < 1e-13

    def test_self_adjoint(self):
        g = sp.get_grid(32)
        rng = np.random.default_rng(5)
        v = sp.SpectralVectorField.from_grid(g, rng.standard_normal((2, 32, 32)))
        w = sp.SpectralVectorField.from_grid(g, rng.standard_normal((2, 32, 32)))
        lhs = sp.inner(leray_project(v), w)
        rhs = sp.inner(v, leray_project(w))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_projection_output_divergence_free(self):
        g = sp.get_grid(32)
        rng = np.random.default_rng(6)
        v = sp.SpectralVectorField.from_grid(g, rng.standard_normal((2, 32, 32)))
        p = leray_project(v)
        assert p.max_divergence() < 1e-12 * sp.l2_norm(p)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_in_place_kernel_is_bitwise_the_term_by_term_formula(self, n):
        g = sp.get_grid(n)
        rng = np.random.default_rng(n)
        shape = (2,) + g.coeff_shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        scale = (g.kx * c[0] + g.ky * c[1]) * g.inv_k2
        want = np.stack([c[0] - g.kx * scale, c[1] - g.ky * scale])
        assert sp._leray_coeffs(g, c).tobytes() == want.tobytes()


class TestStreamMap:
    """u = T s = (i ky, -i kx) s / |k| and its adjoint T* u = curl(u) / |k|."""

    @staticmethod
    def random_block(g, rng, leading=()):
        shape = leading + g.coeff_shape
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def real_dot(a, b):
        """The inner product of the float64 views, the one GMRES uses."""
        return float(np.dot(a.view(np.float64).ravel(), b.view(np.float64).ravel()))

    @pytest.mark.parametrize("n", [8, 32])
    def test_isometry_and_adjoint_on_every_stored_mode(self, n):
        # arbitrary complex blocks: the identities hold mode by mode,
        # whatever the Hermitian symmetry of the edge columns
        g = sp.get_grid(n)
        rng = np.random.default_rng(30 + n)
        s, t = self.random_block(g, rng), self.random_block(g, rng)
        s[0, 0] = t[0, 0] = 0.0
        u = self.random_block(g, rng, (2,))
        Ts, Tt = sp._stream_to_velocity(g, s), sp._stream_to_velocity(g, t)
        assert np.allclose(np.abs(Ts[0]) ** 2 + np.abs(Ts[1]) ** 2, np.abs(s) ** 2,
                           rtol=1e-15, atol=0)
        assert self.real_dot(Ts, Tt) == pytest.approx(self.real_dot(s, t), rel=1e-14)
        assert self.real_dot(Ts, u) == pytest.approx(
            self.real_dot(s, sp._velocity_to_stream(g, u)), rel=1e-14)
        assert np.max(np.abs(sp._velocity_to_stream(g, Ts) - s)) <= 1e-15 * np.max(np.abs(s))

    @pytest.mark.parametrize("n", [8, 32])
    def test_round_trip_through_the_velocity_is_the_leray_projection(self, n):
        # T T* = P off the mean, on the Nyquist row kx = -n/2 and the
        # edge columns ky = 0 and n/2 alike; the mean goes to zero
        g = sp.get_grid(n)
        u = self.random_block(g, np.random.default_rng(40 + n), (2,))
        back = sp._stream_to_velocity(g, sp._velocity_to_stream(g, u))
        want = sp._leray_coeffs(g, u)
        want[:, 0, 0] = 0.0
        assert np.max(np.abs(back - want)) <= 1e-15 * np.max(np.abs(u))
        for block in (back[:, n // 2, :], back[:, :, 0], back[:, :, -1]):
            assert np.abs(block).max() > 0.1 * np.abs(u).max()

    def test_the_mean_and_gradients_have_no_stream_part(self):
        g = sp.get_grid(16)
        s = self.random_block(g, np.random.default_rng(50))
        assert sp._stream_to_velocity(g, s)[:, 0, 0].tolist() == [0.0, 0.0]
        mean = np.zeros((2,) + g.coeff_shape, dtype=complex)
        mean[:, 0, 0] = (1.5, -2.0)
        assert not sp._velocity_to_stream(g, mean).any()
        grad = sp.gradient(sp.random_smooth_scalar(g, np.random.default_rng(51)))
        assert np.max(np.abs(sp._velocity_to_stream(g, grad.coeffs))) <= 1e-15 * np.max(
            np.abs(grad.coeffs))

    def test_stream_scalar_is_the_curl_over_the_wavenumber(self):
        g = sp.get_grid(32)
        v = sp.random_divfree_field(g, np.random.default_rng(52))
        s = sp._velocity_to_stream(g, v.coeffs)
        assert np.max(np.abs(s - curl(v).coeffs * g.inv_k)) <= 1e-15 * np.max(np.abs(s))
        # a real field keeps its Hermitian edge columns both ways
        assert sp.hermitian_defect(sp.ScalarField(g, s)) <= 1e-16
        back = sp.SpectralVectorField(g, sp._stream_to_velocity(g, s))
        assert sp.hermitian_defect(back) <= 1e-16
        assert np.max(np.abs(back.coeffs - v.coeffs)) <= 1e-15 * np.max(np.abs(v.coeffs))


def oracle_advect_double_grid(a, w):
    """Skew advection computed alias-free on a doubled grid.

    For inputs supported on |k|_inf <= n//3 the products have bandwidth
    < 2n//3 + n//3 <= n, so a 2n grid computes the convolution exactly;
    the result is then restricted to the original retained band.
    """
    g = a.grid
    big = sp.TorusGrid(2 * g.n)

    def lift(field):
        c = np.zeros((2,) + big.coeff_shape, dtype=complex)
        n, nk = g.n, g.n // 2 + 1
        half = g.n // 2
        c[:, :half, :nk] = field.coeffs[:, :half, :]
        c[:, big.n - half :, :nk] = field.coeffs[:, half:, :]
        return sp.SpectralVectorField.from_coeffs(big, c)

    A, W = lift(a), lift(w)
    ax = big.to_values(A.coeffs)
    ikx, iky = 1j * big.kx, 1j * big.ky
    wx = big.to_values(np.stack([ikx * W.coeffs[0], iky * W.coeffs[0], ikx * W.coeffs[1], iky * W.coeffs[1]]))
    wv = big.to_values(W.coeffs)
    conv = np.stack([ax[0] * wx[0] + ax[1] * wx[1], ax[0] * wx[2] + ax[1] * wx[3]])
    prods = np.stack([ax[0] * wv[0], ax[1] * wv[0], ax[0] * wv[1], ax[1] * wv[1]])
    ph = big.to_coeffs(prods)
    div_form = np.stack([ikx * ph[0] + iky * ph[1], ikx * ph[2] + iky * ph[3]])
    total = 0.5 * (big.to_coeffs(conv) + div_form)
    # restrict to the small grid's retained band
    out = np.zeros((2,) + g.coeff_shape, dtype=complex)
    n, nk, half = g.n, g.n // 2 + 1, g.n // 2
    out[:, :half, :] = total[:, :half, :nk]
    out[:, half:, :] = total[:, big.n - half :, :nk]
    out *= g.dealias_mask
    return sp.SpectralVectorField.from_coeffs(g, out)


class TestAdvect:
    def test_zero_advecting_field(self):
        g = sp.get_grid(16)
        w = sp.random_divfree_field(g, np.random.default_rng(0))
        out = sp.advect(sp.SpectralVectorField.zero(g), w)
        assert sp.l2_norm(out) == 0.0

    def test_energy_neutrality(self):
        g = sp.get_grid(32)
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = sp.random_divfree_field(g, rng, normalize=2.0)
            w = sp.random_divfree_field(g, rng, normalize=1.5)
            pairing = sp.inner(sp.advect(a, w), w)
            scale = sp.l2_norm(a) * sp.h1_seminorm(w) * sp.l2_norm(w)
            assert abs(pairing) < 1e-12 * scale

    def test_swirl_nonlinearity_is_curl_free(self):
        g = sp.get_grid(32)
        u = exact_swirl(g, t=0.3)
        adv = sp.advect(u, u)
        assert sp.l2_norm(curl(adv)) < 1e-10
        # ... and is therefore annihilated by the Leray projection
        assert sp.l2_norm(leray_project(adv)) < 1e-10

    def test_dealiased_product_matches_double_grid_convolution(self):
        g = sp.get_grid(24)
        rng = np.random.default_rng(9)
        a = sp.random_divfree_field(g, rng, kmax=g.dealias_cutoff, decay=0.2)
        w = sp.random_divfree_field(g, rng, kmax=g.dealias_cutoff, decay=0.2)
        ours = sp.advect(a, w)
        ref = oracle_advect_double_grid(a, w)
        scale = max(sp.l2_norm(ref), 1e-30)
        assert sp.l2_norm(ours - ref) < 1e-11 * scale

    def test_divergence_form_fast_path_matches_skew_form(self):
        g = sp.get_grid(32)
        rng = np.random.default_rng(10)
        a = sp.random_divfree_field(g, rng, normalize=3.0)
        w = sp.random_divfree_field(g, rng, normalize=1.0)
        ac = a.coeffs * g.dealias_mask
        skew = sp._leray_coeffs(g, sp._advect_skew_coeffs(g, ac, w.coeffs * g.dealias_mask))
        fast = projected_advection(g, g.to_values(ac), w.coeffs)
        assert np.max(np.abs(skew - fast)) < 1e-13 * max(np.max(np.abs(skew)), 1e-30)

    @pytest.mark.parametrize("n", [32, 48, 64, 128])
    def test_divergence_form_kernel_equals_the_plain_formula(self, n):
        # the curl-form kernel against the Leray projection of the textbook
        # four-product divergence form, built from full scipy transforms;
        # w is a raw coefficient array, neither band-limited nor divergence
        # free, as the vectors GMRES applies the operator to are
        g = sp.get_grid(n)
        rng = np.random.default_rng(n)
        a = sp.random_divfree_field(g, rng, normalize=3.0)
        shape = (2,) + g.coeff_shape
        wc = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a_vals = g.to_values(a.coeffs * g.dealias_mask)
        W1, W2 = sfft.irfft2(wc * g.dealias_mask, s=(n, n), norm="forward")
        prods = np.stack([a_vals[0] * W1, a_vals[1] * W1, a_vals[0] * W2, a_vals[1] * W2])
        ph = sfft.rfft2(prods, norm="forward")
        ikx, iky = 1j * g.kx, 1j * g.ky
        plain = np.stack([ikx * ph[0] + iky * ph[1], ikx * ph[2] + iky * ph[3]]) * g.dealias_mask
        want = sp._leray_coeffs(g, plain)
        got = projected_advection(g, a_vals, wc)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [48, 64])
    def test_projected_kernel_is_band_limited_and_divergence_free(self, n):
        g = sp.get_grid(n)
        rng = np.random.default_rng(n + 1)
        a = sp.random_divfree_field(g, rng, normalize=2.0)
        shape = (2,) + g.coeff_shape
        wc = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a_vals = g.to_values(a.coeffs * g.dealias_mask)
        assert sp._advect_div_coeffs(g, a_vals, wc).shape == (n, g.band_width)
        out = projected_advection(g, a_vals, wc)
        assert np.all(out[:, ~g.dealias_mask] == 0)
        div = g.kx * out[0] + g.ky * out[1]
        assert np.max(np.abs(div)) <= 1e-14 * np.max(np.sqrt(g.k2) * np.abs(out))

    def test_projected_kernel_is_energy_neutral(self):
        # (P div(a (x) w), w) = (div(a (x) w), w) = 0 for band-limited
        # divergence-free a and w: the 2/3 rule keeps the pairing exact
        g = sp.get_grid(48)
        rng = np.random.default_rng(18)
        for _ in range(5):
            a = sp.random_divfree_field(g, rng, normalize=2.0)
            w = sp.random_divfree_field(g, rng, normalize=1.5)
            out = projected_advection(g, g.to_values(a.coeffs), w.coeffs)
            pairing = sp.coeff_dot(g, out, w.coeffs)
            scale = sp.l2_norm(a) * sp.h1_seminorm(w) * sp.l2_norm(w)
            assert abs(pairing) < 1e-15 * scale

    def test_output_confined_to_dealias_band(self):
        g = sp.get_grid(24)
        rng = np.random.default_rng(12)
        a = sp.random_divfree_field(g, rng, kmax=g.n // 2 - 1)
        w = sp.random_divfree_field(g, rng, kmax=g.n // 2 - 1)
        out = sp.advect(a, w)
        assert np.all(out.coeffs[:, ~g.dealias_mask] == 0)


class TestNorms:
    def test_hminus1_single_mode(self):
        g = sp.get_grid(16)
        f = single_mode_scalar(g, 2, 1)
        # (-lap)^(-1/2) scales the single conjugate mode pair by 1/|k|
        assert sp.hminus1_norm(f) == pytest.approx(sp.l2_norm(f) / math.sqrt(5), rel=1e-13)

    def test_hminus1_rejects_nonzero_mean(self):
        g = sp.get_grid(16)
        f = sp.ScalarField.from_grid(g, np.full((16, 16), 1.0))
        with pytest.raises(ValueError):
            sp.hminus1_norm(f)

    def test_h1_seminorm_single_mode(self):
        g = sp.get_grid(16)
        f = single_mode_scalar(g, 3, 4)
        assert sp.h1_seminorm(f) == pytest.approx(5.0 * sp.l2_norm(f), rel=1e-13)

    def test_l4_on_known_profile(self):
        # ||cos x||_L4^4 over the torus = (2 pi)^2 * 3/8
        g = sp.get_grid(64)
        X, _ = g.mesh
        f = sp.ScalarField.from_grid(g, np.cos(X))
        expected = (TWO_PI**2 * 3.0 / 8.0) ** 0.25
        assert sp.l4_norm(f) == pytest.approx(expected, rel=1e-12)

    def test_norm_bundle_consistency(self):
        g = sp.get_grid(32)
        v = sp.random_divfree_field(g, np.random.default_rng(13))
        # interpolation: ||v||^2 <= ||v||_{-1} ||grad v|| on zero-mean fields
        assert sp.l2_norm(v) ** 2 <= sp.hminus1_norm(v) * sp.h1_seminorm(v) * (1 + 1e-12)


class TestLadyzhenskaya:
    def test_scale_invariance(self):
        g = sp.get_grid(64)
        w = sp.bump_localized_field(g, np.random.default_rng(14))
        r1 = sp.check_ladyzhenskaya(w).ratio
        r2 = sp.check_ladyzhenskaya(w * 37.0).ratio
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_bump_ensemble_respects_bound(self):
        g = sp.get_grid(64)
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(25):
            w = sp.bump_localized_field(g, rng)
            worst = max(worst, sp.check_ladyzhenskaya(w).ratio)
        assert worst <= sp.LADYZHENSKAYA_CONST * 1.05

    def test_rejects_zero_field(self):
        g = sp.get_grid(16)
        with pytest.raises(ValueError):
            sp.check_ladyzhenskaya(sp.SpectralVectorField.zero(g))


class TestBuilders:
    def test_random_divfree_is_divergence_free_and_zero_mean(self):
        g = sp.get_grid(32)
        v = sp.random_divfree_field(g, np.random.default_rng(16))
        assert v.max_divergence() < 1e-12
        assert np.max(np.abs(v.mean())) < 1e-15

    def test_random_divfree_keeps_off_the_nyquist_column_whatever_kmax(self):
        # at ky = n/2 the Hermitian completion of a curl has a divergence
        g = sp.get_grid(16)
        v = sp.random_divfree_field(g, np.random.default_rng(18), kmax=8)
        assert not v.coeffs[:, :, -1].any() and not v.coeffs[:, 8, :].any()
        assert v.max_divergence() < 1e-15 and np.abs(v.coeffs[:, :, -2]).max() > 0

    def test_bump_field_vanishes_outside_disk(self):
        g = sp.get_grid(96)
        w = sp.bump_localized_field(g, np.random.default_rng(17), radius=g.length / 5)
        X, Y = g.mesh
        L = g.length
        dx = (X - L / 2 + L / 2) % L - L / 2
        dy = (Y - L / 2 + L / 2) % L - L / 2
        outside = dx**2 + dy**2 > (L / 4) ** 2
        vals = w.values
        peak = np.max(np.abs(vals))
        assert np.max(np.abs(vals[:, outside])) < 1e-9 * peak

    def test_grid_registry_shares_instances(self):
        assert sp.get_grid(32) is sp.get_grid(32)

    def test_fields_and_grids_hold_no_clock_or_length(self):
        assert [f.name for f in dataclasses.fields(sp.Field)] == ["grid", "coeffs"]
        assert [f.name for f in dataclasses.fields(sp.TorusGrid)] == ["n"]
        assert sp.get_grid(32).length == 2.0 * math.pi
