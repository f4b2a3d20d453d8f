"""FEM laboratory: assembly oracles, reduced solves, conditioning."""

import math

import numpy as np
import pytest

from modnudge import condlab as cl


def _uniform(n):
    return np.linspace(0.0, 1.0, n + 1)


def _coupling_oracle(fine_n, coarse_m, kind):
    """B by composite two-point Gauss on the uniform grid of fine_n*coarse_m
    cells, which contains every breakpoint of both meshes, so each cell
    integrates a quadratic and the rule is exact; the basis functions
    come from closed-form tent and indicator formulas, not from condlab."""
    cells = fine_n * coarse_m
    left = np.arange(cells) / cells
    g = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
    x = (left[:, None] + g / cells).ravel()
    weight = 0.5 / cells
    phi = np.maximum(0.0, 1.0 - np.abs(x[None, :] * fine_n - np.arange(1, fine_n)[:, None]))
    if kind == "nested-linear":
        psi = np.maximum(0.0, 1.0 - np.abs(x[None, :] * coarse_m
                                           - np.arange(1, coarse_m)[:, None]))
    else:
        psi = (np.floor(x * coarse_m)[None, :] == np.arange(coarse_m)[:, None]).astype(float)
    return weight * (phi @ psi.T)


class TestAssembly:
    def test_fine_mass_is_the_textbook_tridiagonal(self):
        n = 8
        h = 1.0 / n
        mh = cl.assemble(n, 4, "nested-linear", 1.0).mh.toarray()
        assert np.allclose(np.diag(mh), 2 * h / 3, atol=1e-15)
        assert np.allclose(np.diag(mh, 1), h / 6, atol=1e-15)
        assert np.max(np.abs(mh - mh.T)) < 1e-14

    def test_coarse_equal_fine_couples_as_the_mass_matrix(self):
        ops = cl.assemble(10, 10, "nested-linear", 3.0)
        assert np.max(np.abs(ops.b - ops.mh.toarray())) < 1e-14

    def test_piecewise_constant_coupling_on_same_mesh(self):
        # each hat splits h/2 into the two cells it straddles
        n = 6
        h = 1.0 / n
        ops = cl.assemble(n, n, "piecewise-constant", 1.0)
        want = np.zeros((n - 1, n))
        for i in range(n - 1):
            want[i, i] = want[i, i + 1] = h / 2
        assert np.max(np.abs(ops.b - want)) < 1e-15

    def test_piecewise_constant_column_sums_are_hat_integrals(self):
        # row sum over cells = integral of the hat = h
        n, m = 24, 8
        ops = cl.assemble(n, m, "piecewise-constant", 1.0)
        assert np.allclose(ops.b.sum(axis=1), 1.0 / n, atol=1e-15)

    @pytest.mark.parametrize("n,m,kind", [
        (48, 8, "nested-linear"), (48, 16, "piecewise-constant"),
        (50, 7, "piecewise-constant"), (20, 20, "nested-linear"),
    ])
    def test_coupling_matches_the_composite_gauss_oracle(self, n, m, kind):
        b = cl._coupling(_uniform(n), _uniform(m), kind)
        want = _coupling_oracle(n, m, kind)
        assert b.shape == want.shape
        assert np.max(np.abs(b - want)) < 1e-15

    def test_piecewise_constant_rows_sum_to_hat_integrals_on_a_non_dividing_mesh(self):
        n = 200
        b = cl._coupling(_uniform(n), _uniform(7), "piecewise-constant")
        assert np.max(np.abs(b.sum(axis=1) - 1.0 / n)) < 1e-16

    def test_uniform_masses_are_the_element_sums(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 9):
            h = 1.0 / n
            hats = np.zeros((n + 1, n + 1))
            for e in range(n):  # element mass h/6 [[2, 1], [1, 2]] on nodes e, e + 1
                hats[e:e + 2, e:e + 2] += [[h / 3.0, h / 6.0], [h / 6.0, h / 3.0]]
            cells = h * np.eye(n)  # indicators of disjoint cells
            for mass, want in ((cl.UniformMass(n - 1, h), hats[1:-1, 1:-1]),
                               (cl.UniformMass(n, h, hats=False), cells)):
                assert np.array_equal(mass.toarray(), want)
                c = rng.standard_normal((mass.size, 3))
                assert np.allclose(mass @ c, want @ c, rtol=0.0, atol=1e-15)
                assert np.allclose(mass @ c[:, 0], want @ c[:, 0], rtol=0.0, atol=1e-15)

    def test_coarse_mass_kinds(self):
        nested = cl.assemble(16, 4, "nested-linear", 1.0)
        assert np.allclose(np.diag(nested.mH.toarray()), 2 / (3 * 4), atol=1e-15)
        flat = cl.assemble(16, 4, "piecewise-constant", 1.0)
        assert np.allclose(flat.mH.toarray(), np.eye(4) / 4, atol=1e-15)

    def test_nested_requires_divisibility(self):
        with pytest.raises(ValueError, match="multiple"):
            cl.assemble(10, 3, "nested-linear", 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="coarse kind"):
            cl.assemble(8, 4, "chebyshev", 1.0)

    @pytest.mark.parametrize("k_chi", [math.nan, math.inf, -1.0])
    def test_gain_must_be_finite_and_nonnegative(self, k_chi):
        with pytest.raises(ValueError, match="k_chi must be finite and nonnegative"):
            cl.assemble(8, 4, "nested-linear", k_chi)


class TestMassSolves:
    """The sine-basis solves against LAPACK's dense solve of the same matrix."""

    @pytest.mark.parametrize("n,m", [
        (4, 2), (4, 4), (6, 2), (6, 6), (64, 2), (64, 16), (64, 64),
        (256, 16), (256, 256), (258, 2), (258, 258),
    ])
    @pytest.mark.parametrize("kind", cl.COARSE_KINDS)
    def test_fine_and_coarse_solves_match_the_dense_solve(self, n, m, kind):
        rng = np.random.default_rng(n + m)
        ops = cl.assemble(n, m, kind, 1.0)
        for mass in (ops.mh, ops.mH):
            dense = mass.toarray()
            for rhs in (rng.standard_normal(mass.size), rng.standard_normal((mass.size, 5))):
                got = mass.solve(rhs)
                want = np.linalg.solve(dense, rhs)
                assert got.shape == rhs.shape
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
                assert np.linalg.norm(dense @ got - rhs) <= 1e-14 * np.linalg.norm(rhs)


class TestReducedOperator:
    def test_zero_gain_is_the_mass_matrix(self):
        rng = np.random.default_rng(0)
        ops = cl.assemble(20, 5, "nested-linear", 0.0)
        c = rng.standard_normal(ops.dim)
        assert np.allclose(cl.reduced_apply(ops, c), ops.mh @ c, atol=1e-15)

    def test_nullspace_of_coupling_sees_only_the_mass(self):
        rng = np.random.default_rng(1)
        ops = cl.assemble(30, 5, "nested-linear", 40.0)
        c = rng.standard_normal(ops.dim)
        # remove the components B^T sees
        q, _ = np.linalg.qr(ops.b)
        c -= q @ (q.T @ c)
        assert np.max(np.abs(ops.b.T @ c)) < 1e-12
        assert np.allclose(cl.reduced_apply(ops, c), ops.mh @ c, atol=1e-11)

    @pytest.mark.parametrize("kind,m", [("nested-linear", 8), ("piecewise-constant", 13)])
    def test_matches_dense_oracle(self, kind, m):
        rng = np.random.default_rng(2)
        ops = cl.assemble(96, m, kind, 75.0)
        dense = cl.dense_matrix(ops)
        for _ in range(5):
            c = rng.standard_normal(ops.dim)
            want = dense @ c
            got = cl.reduced_apply(ops, c)
            assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(3)
        ops = cl.assemble(64, 16, "piecewise-constant", 500.0)
        for _ in range(5):
            c, d = rng.standard_normal((2, ops.dim))
            lhs = float(cl.reduced_apply(ops, c) @ d)
            rhs = float(c @ cl.reduced_apply(ops, d))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestAnalysisSolve:
    def test_zero_gain_returns_vtilde(self):
        rng = np.random.default_rng(4)
        ops = cl.assemble(32, 8, "nested-linear", 0.0)
        vt = rng.standard_normal(ops.dim)
        v = cl.solve_step2_fem(ops, vt, rng.standard_normal(ops.dim))
        assert np.max(np.abs(v - vt)) < 1e-11

    def test_nested_solve_equals_gain_formula(self):
        rng = np.random.default_rng(5)
        for k_chi in (1.0, 25.0, 1e3):
            ops = cl.assemble(64, 8, "nested-linear", k_chi)
            vt, u = rng.standard_normal((2, ops.dim))
            vi = cl.solve_step2_fem(ops, vt, u)
            ve = cl.explicit_update_fem(ops, vt, u)
            assert cl.mass_norm(ops, vi - ve) <= 1e-12

    def test_non_nested_solve_deviates(self):
        rng = np.random.default_rng(6)
        ops = cl.assemble(64, 16, "piecewise-constant", 25.0)
        vt, u = rng.standard_normal((2, ops.dim))
        vi = cl.solve_step2_fem(ops, vt, u)
        ve = cl.explicit_update_fem(ops, vt, u)
        assert cl.mass_norm(ops, vi - ve) > 1e-4

    @pytest.mark.parametrize("n,m,kind", [
        (96, 8, "nested-linear"), (96, 12, "piecewise-constant"), (200, 7, "piecewise-constant"),
    ])
    @pytest.mark.parametrize("k_chi", [0.0, 1.0, 1e4])
    def test_solve_satisfies_the_linear_system(self, n, m, kind, k_chi):
        rng = np.random.default_rng(7)
        ops = cl.assemble(n, m, kind, k_chi)
        norm_s = np.linalg.norm(cl.dense_matrix(ops), 2)
        for _ in range(5):
            vt, u = rng.standard_normal((2, ops.dim))
            v = cl.solve_step2_fem(ops, vt, u)
            rhs = ops.mh @ vt + k_chi * (ops.b @ ops.mH.solve(ops.b.T @ u))
            r = np.linalg.norm(cl.reduced_apply(ops, v) - rhs)
            # normwise backward error: at k_chi = 1e4 a plain relative residual
            # may sit at eps * cond ~ 1e-12, for a dense LU solve as well
            assert r <= 1e-14 * (norm_s * np.linalg.norm(v) + np.linalg.norm(rhs))
            if k_chi <= 1.0:
                assert r <= 1e-12 * np.linalg.norm(rhs)

    def test_nested_deviation_is_roundoff_on_every_sweep_seed(self):
        # README promises <= 1e-12 for nested-linear; a solve for v itself
        # lost about eps * k_chi and broke it on some seeds at k_chi = 1e4
        worst = max(
            cl.condition_sweep(256, 16, "nested-linear", [1e4], seed=s)[0].deviation
            for s in range(40)
        )
        assert worst <= 1e-12


class TestProjection:
    def test_idempotent_exactly_when_nested(self):
        rng = np.random.default_rng(8)
        nested = cl.assemble(48, 8, "nested-linear", 10.0)
        assert cl.idempotency_defect(nested, rng) < 1e-10
        flat = cl.assemble(48, 16, "piecewise-constant", 10.0)
        assert cl.idempotency_defect(flat, rng) > 1e-4

    def test_deviation_scales_linearly_in_coarse_width(self):
        # a smooth probe keeps ||e||_H1 fixed while H shrinks (white-noise
        # coefficients would not); for e = 0.4 sin(3 pi x) + 0.2 sin(5 pi x)
        # ||e||^2 = 0.1 and ||e'||^2 = 1.22 pi^2
        x = np.linspace(0.0, 1.0, 129)[1:-1]
        vtilde = np.sin(np.pi * x)
        obs = vtilde + 0.4 * np.sin(3 * np.pi * x) + 0.2 * np.sin(5 * np.pi * x)
        e_h1 = math.sqrt(0.1 + 1.22 * math.pi**2)
        coarse_h, deviations = [], []
        for m in (8, 16, 32):
            ops = cl.assemble(128, m, "piecewise-constant", 10.0)
            v_imp = cl.solve_step2_fem(ops, vtilde, obs)
            v_exp = cl.explicit_update_fem(ops, vtilde, obs)
            coarse_h.append(1.0 / m)
            deviations.append(cl.mass_norm(ops, v_imp - v_exp))
        ratios = np.asarray(deviations) / (np.asarray(coarse_h) * e_h1)
        assert np.all(np.diff(deviations) < 0)  # shrinks with H
        assert ratios.max() / ratios.min() < 4.0  # deviation <= C H ||e||_H1, C roughly constant


class TestConditioning:
    def test_mass_matrix_condition_closed_form(self):
        n = 40
        ops = cl.assemble(n, 4, "nested-linear", 0.0)
        est = cl.dense_condition(ops)
        analytic = (2 + math.cos(math.pi / n)) / (2 - math.cos(math.pi / n))
        assert est.cond == pytest.approx(analytic, rel=1e-12)
        assert est.cond < 3.0

    @pytest.mark.parametrize("kind", cl.COARSE_KINDS)
    @pytest.mark.parametrize("k_chi", [1.0, 1e4])
    def test_condition_matches_dense_oracle(self, kind, k_chi):
        ops = cl.assemble(100, 10, kind, k_chi)
        est = cl.estimate_condition(ops)
        dn = cl.dense_condition(ops)
        assert abs(est.cond - dn.cond) / dn.cond < 1e-11

    @pytest.mark.parametrize("kind", cl.COARSE_KINDS)
    @pytest.mark.parametrize("m", [2, 16, 64])
    @pytest.mark.parametrize("k_chi", [1e-8, 1.0, 1e4, 1e8])
    def test_extreme_eigenvalues_match_the_dense_oracle(self, kind, m, k_chi):
        ops = cl.assemble(64, m, kind, k_chi)
        est = cl.estimate_condition(ops)
        dn = cl.dense_condition(ops)
        assert abs(est.lam_max - dn.lam_max) <= 1e-11 * dn.lam_max
        # eigvalsh itself is accurate to a few eps * lam_max in absolute terms
        bound = max(1e-11, 8 * np.finfo(float).eps * dn.lam_max / dn.lam_min)
        assert abs(est.lam_min - dn.lam_min) <= bound * dn.lam_min

    @pytest.mark.parametrize("k_chi", [1e-8, 1.0, 1e4, 1e8])
    def test_coarse_equal_fine_matches_the_closed_form(self, k_chi):
        # fem_m = fem_n puts lambda_min above every fine mass eigenvalue at
        # large k_chi, where the oracle loses eps * cond; both reduced
        # matrices share the sine basis, so their spectra are known exactly
        n = 64
        h, c = 1.0 / n, np.cos(np.pi * np.arange(1, n) / n)
        s2 = math.sin(0.5 * math.pi / n) ** 2  # (1 - cos(pi / n)) / 2, without cancellation
        for kind, lam_max, lam_min in (
            # S = (1 + k_chi) Mh
            ("nested-linear", (1 + k_chi) * h * (2 + c[0]) / 3, (1 + k_chi) * h * (1 + 2 * s2) / 3),
            # S = Mh + k_chi tridiag(h/4, h/2, h/4)
            ("piecewise-constant", h * (2 + c[0]) / 3 + k_chi * h * (1 + c[0]) / 2,
             h * (1 + 2 * s2) / 3 + k_chi * h * s2),
        ):
            est = cl.estimate_condition(cl.assemble(n, n, kind, k_chi))
            assert est.lam_max == pytest.approx(lam_max, rel=1e-12, abs=0)
            assert est.lam_min == pytest.approx(lam_min, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n,m,kind,k_chi", [
        (64, 16, "piecewise-constant", 100.0), (64, 2, "nested-linear", 1e4),
        (32, 32, "nested-linear", 1.0), (24, 12, "piecewise-constant", 1e-3),
    ])
    def test_inertia_count_matches_the_dense_spectrum(self, n, m, kind, k_chi):
        ops = cl.assemble(n, m, kind, k_chi)
        vals = np.linalg.eigvalsh(cl.dense_matrix(ops))
        form = cl._SineForm(ops)
        lam_min, lam_max = vals[0], vals[-1]
        probes = [lam_min * (1 - 1e-6), lam_min * (1 + 1e-6), lam_max * (1 - 1e-6),
                  lam_max * (1 + 1e-6), 2 * lam_max, 0.5 * lam_min]
        probes += list(0.5 * (vals[1:] + vals[:-1]))  # between neighbours
        probes += list(form.d)  # at the poles of the secular matrices
        for lam in probes:
            if np.min(np.abs(vals - lam)) <= 1e-9 * lam_max:
                continue  # too close to an eigenvalue for the oracle to tell
            assert form.count_below(lam) == np.count_nonzero(vals < lam), lam

    def test_condition_above_the_oracle_cap_is_the_closed_form(self):
        # 1023 unknowns: more than dense_matrix builds, so this runs only
        # through the engine's own assembly
        n = 1024
        ops = cl.assemble(n, 16, "nested-linear", 0.0)
        analytic = (2 + math.cos(math.pi / n)) / (2 - math.cos(math.pi / n))
        assert cl.estimate_condition(ops).cond == pytest.approx(analytic, rel=1e-12)

    def test_condition_estimate_is_reproducible(self):
        # repeated estimates agree to the last bit
        ops = cl.assemble(100, 10, "nested-linear", 100.0)
        first = cl.estimate_condition(ops)
        again = cl.estimate_condition(ops)
        assert (first.lam_max, first.lam_min) == (again.lam_max, again.lam_min)

    def test_growth_tracks_the_gain_linearly(self):
        rows = cl.condition_sweep(64, 8, "nested-linear", [1.0, 10.0, 100.0])
        conds = [r.cond for r in rows]
        assert conds == sorted(conds)  # nondecreasing in k chi
        ratios = [r.cond_ratio for r in rows]
        assert max(ratios) / min(ratios) < 5.0

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            cl.assemble(6000, 10, "piecewise-constant", 1.0)


class TestMeshReuse:
    """A sweep builds its mesh once and reuses it at every k chi point."""

    @pytest.mark.parametrize("kind", cl.COARSE_KINDS)
    def test_sweep_rows_equal_a_fresh_assembly_at_each_point(self, kind):
        k_chi = [1.0, 100.0, 0.0, 10.0, 1e4]  # k chi = 0 skips the secular pieces mid-sweep
        rows = cl.condition_sweep(64, 8, kind, k_chi, seed=3)
        rng = np.random.default_rng(3)
        for row, kc in zip(rows, k_chi, strict=True):
            ops = cl.assemble(64, 8, kind, kc)
            cond = cl.estimate_condition(ops).cond
            vt, obs = rng.standard_normal(ops.dim), rng.standard_normal(ops.dim)
            gap = cl.solve_step2_fem(ops, vt, obs) - cl.explicit_update_fem(ops, vt, obs)
            fresh = cl.SweepRow(64, 8, kind, kc, cond, cond / (1.0 + kc), cl.mass_norm(ops, gap))
            assert row == fresh  # bit for bit

    def test_each_sweep_builds_its_coupling_once(self, monkeypatch):
        calls = []
        coupling = cl._coupling
        monkeypatch.setattr(cl, "_coupling", lambda *args: calls.append(args) or coupling(*args))
        for sweep in (1, 2):  # nothing is cached across sweeps
            cl.condition_sweep(32, 4, "nested-linear", [1.0, 0.0, 1e4])
            assert len(calls) == sweep

    @pytest.mark.parametrize("other", [
        (64, 4, "nested-linear"), (32, 8, "nested-linear"), (32, 4, "piecewise-constant"),
    ])
    def test_a_mesh_of_another_pair_is_refused(self, other):
        mesh = cl.FemMesh(32, 4, "nested-linear")
        assert cl.assemble(32, 4, "nested-linear", 1.0, mesh=mesh).mesh is mesh
        with pytest.raises(ValueError, match="mesh built for fem_n=32, fem_m=4"):
            cl.assemble(*other, 1.0, mesh=mesh)

    def test_shared_blocks_are_read_only(self):
        ops = cl.assemble(16, 4, "piecewise-constant", 1.0)
        mesh = ops.mesh
        for block in (mesh.b, mesh.mH_inv_bt, mesh.mh_inv_b, mesh.bt_mh_inv_b, mesh.mH_dense,
                      mesh.w):
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 0.0
