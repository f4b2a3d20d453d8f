"""Krylov solvers: convergence, preconditioning, failure reporting, and
bit-for-bit agreement of the in-house GMRES with scipy's."""

import numpy as np
import pytest
from scipy.linalg.lapack import dlartg
from scipy.sparse.linalg import LinearOperator, gmres

from modnudge import observers as obs
from modnudge import spectral as sp
from modnudge import stepping as st
from modnudge.solvers import KrylovError, givens_rotation, solve_cg, solve_gmres


def spd_matrix(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = rng.uniform(0.5, 50.0, n)
    return (q * vals) @ q.T


def test_cg_solves_spd_system():
    rng = np.random.default_rng(0)
    a = spd_matrix(rng, 40)
    x_true = rng.standard_normal(40)
    b = a @ x_true
    x, info = solve_cg(lambda v: a @ v, b, tol=1e-12)
    assert np.linalg.norm(x - x_true) < 1e-9 * np.linalg.norm(x_true)
    assert info.iterations <= 40 + 5


def test_cg_preconditioner_cuts_iterations():
    rng = np.random.default_rng(1)
    diag = np.logspace(0, 4, 200)
    b = rng.standard_normal(200)
    _, plain = solve_cg(lambda v: diag * v, b, tol=1e-12, maxiter=5000)
    _, precond = solve_cg(
        lambda v: diag * v, b, tol=1e-12, maxiter=5000, precondition=lambda r: r / diag
    )
    assert precond.iterations < plain.iterations
    assert precond.iterations <= 3


def test_cg_rejects_indefinite_operator():
    rng = np.random.default_rng(2)
    diag = np.concatenate([np.ones(10), -np.ones(10)])
    b = rng.standard_normal(20)
    with pytest.raises(KrylovError):
        solve_cg(lambda v: diag * v, b, tol=1e-12)


def test_cg_complex_arrays_with_custom_dot():
    rng = np.random.default_rng(3)
    n = 30
    diag = rng.uniform(1.0, 9.0, n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def dot(u, v):
        return float(np.real(np.sum(np.conj(u) * v)))

    x, _ = solve_cg(lambda v: diag * v, b, dot=dot, tol=1e-13)
    assert np.max(np.abs(diag * x - b)) < 1e-11


def test_cg_maxiter_raises_with_residual():
    rng = np.random.default_rng(4)
    a = spd_matrix(rng, 60)
    b = rng.standard_normal(60)
    with pytest.raises(KrylovError) as exc:
        solve_cg(lambda v: a @ v, b, tol=1e-14, maxiter=2)
    assert np.isfinite(exc.value.residual)


def test_gmres_solves_nonsymmetric_complex_system():
    rng = np.random.default_rng(5)
    n = 24
    a = np.diag(rng.uniform(1.0, 4.0, n)) + 0.3 * rng.standard_normal((n, n))
    x_true = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = a @ x_true

    x, info = solve_gmres(lambda v: a @ v, b, tol=1e-12)
    assert np.linalg.norm(x - x_true) < 1e-8 * np.linalg.norm(x_true)
    assert info.residual < 1e-10


def test_gmres_respects_initial_guess():
    rng = np.random.default_rng(6)
    diag = rng.uniform(1.0, 2.0, 50)
    x_true = rng.standard_normal(50) + 0j
    b = diag * x_true
    x, info = solve_gmres(lambda v: diag * v, b, x0=x_true.copy(), tol=1e-12)
    assert info.iterations <= 2
    assert np.linalg.norm(x - x_true) < 1e-10


def test_gmres_preconditioned_matches_plain():
    rng = np.random.default_rng(7)
    n = 32
    diag = np.logspace(0, 3, n)
    a = np.diag(diag) + 0.1 * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x_plain, _ = solve_gmres(lambda v: a @ v, b, tol=1e-12, maxiter=2000)
    x_pre, info = solve_gmres(
        lambda v: a @ v, b, tol=1e-12, maxiter=2000, precondition=lambda r: r / diag
    )
    assert np.linalg.norm(x_plain - x_pre) < 1e-8 * np.linalg.norm(x_plain)
    assert info.residual < 1e-9


def test_gmres_failure_raises():
    # tiny iteration budget on a stiff system
    diag = np.logspace(0, 8, 400)
    b = np.ones(400) + 0j
    with pytest.raises(KrylovError):
        solve_gmres(lambda v: diag * v, b, tol=1e-14, maxiter=4, restart=2)


def test_gmres_maxiter_caps_total_operator_applications():
    # restart 3, budget 7: a full first cycle (3 + residual), then two
    # Arnoldi steps and the residual; scipy's cycle count would allow 8
    diag = np.logspace(0, 8, 400)
    b = np.ones(400) + 0j
    calls = []

    def op(v):
        calls.append(1)
        return diag * v

    with pytest.raises(KrylovError, match="7 of at most 7") as exc:
        solve_gmres(op, b, tol=1e-14, maxiter=7, restart=3)
    assert exc.value.iterations == len(calls) == 7
    assert 1e-14 < exc.value.residual < 1.0


def test_gmres_reports_the_true_residual_of_the_returned_iterate():
    rng = np.random.default_rng(8)
    n = 40
    a = np.diag(rng.uniform(1.0, 3.0, n)) + 0.2 * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, info = solve_gmres(lambda v: a @ v, b, tol=1e-9, restart=5)
    true_res = np.linalg.norm((b - a @ x).view(np.float64)) / np.linalg.norm(b.view(np.float64))
    assert info.residual == true_res
    assert info.residual <= 1e-9


# -- bit-for-bit agreement with scipy.sparse.linalg.gmres -----------------


def _scipy_gmres(apply_op, b, x0=None, tol=1e-10, restart=64, precondition=None):
    """scipy's gmres on the float64 view of b, with an uncapped cycle count."""
    shape, dtype = b.shape, b.dtype
    n = b.view(np.float64).size

    def real(f):
        def g(xr):
            return np.ascontiguousarray(f(xr.view(dtype).reshape(shape))).view(np.float64).ravel()

        return g

    M = None
    if precondition is not None:
        M = LinearOperator((n, n), matvec=real(precondition), dtype=np.float64)
    xr, info = gmres(
        LinearOperator((n, n), matvec=real(apply_op), dtype=np.float64),
        b.view(np.float64).ravel(),
        x0=None if x0 is None else x0.view(np.float64).ravel(),
        rtol=tol,
        atol=0.0,
        restart=min(restart, n),
        maxiter=100,
        M=M,
    )
    assert info == 0
    return xr.view(dtype).reshape(shape)


def _assert_matches_scipy(apply_op, b, **kw):
    calls = [0]

    def counted(v):
        calls[0] += 1
        return apply_op(v)

    x_ref = _scipy_gmres(counted, b, **kw)
    scipy_calls, calls[0] = calls[0], 0
    x, info = solve_gmres(counted, b, **kw)
    assert x.tobytes() == x_ref.tobytes()
    # every application is counted, and none is spent beyond scipy's
    assert info.iterations == calls[0] == scipy_calls
    return info


def test_gmres_matches_scipy_on_a_complex_system():
    rng = np.random.default_rng(9)
    n = 30
    a = (
        np.diag(rng.uniform(1.0, 4.0, n) + 1j * rng.uniform(-1.0, 1.0, n))
        + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    )
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    info = _assert_matches_scipy(lambda v: a @ v, b, tol=1e-11, restart=8)
    assert info.iterations > 9  # restarted at least once


def test_gmres_matches_scipy_with_a_preconditioner_and_initial_guess():
    rng = np.random.default_rng(10)
    n = 32
    diag = np.logspace(0, 3, n)
    a = np.diag(diag) + 0.1 * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x0 = b / diag
    _assert_matches_scipy(lambda v: a @ v, b, x0=x0, tol=1e-12, precondition=lambda r: r / diag)


def test_gmres_matches_scipy_on_a_restarted_stiff_forecast_solve():
    # a stiff draw of test_unconditional_energy_stability (k ~ 10.9,
    # nu ~ 1.2e-3 at n = 32): 199 applications over four restart cycles,
    # a path that scipy's adaptive inner tolerance between cycles decides
    # (with the tolerance held fixed it takes 211)
    grid = sp.get_grid(32)
    rng = np.random.default_rng(3)
    for _ in range(31):
        v = sp.random_divfree_field(grid, rng, decay=rng.uniform(0.2, 1.0))
        k = float(10 ** rng.uniform(-2, 2))
        nu = float(10 ** rng.uniform(-3, 0))
    assert 10.0 < k < 12.0 and 1e-3 < nu < 1.5e-3
    apply_op, precondition = st._momentum_operator(grid, v, k, nu)
    info = _assert_matches_scipy(
        apply_op,
        v.coeffs / k,
        x0=v.coeffs.copy(),
        tol=st.DEFAULT_SOLVER_TOL,
        precondition=precondition,
    )
    assert info.iterations > 3 * 64
    assert info.residual <= st.DEFAULT_SOLVER_TOL


def test_gmres_matches_scipy_on_the_fused_cell_average_solve():
    # standard nudging with the cell average at chi = 1e4: the observer
    # inside the operator makes this the longest single-cycle solve of a
    # twin step
    grid = sp.get_grid(32)
    rng = np.random.default_rng(0)
    v = sp.random_divfree_field(grid, rng)
    u = sp.random_divfree_field(grid, rng)
    op = obs.make_cell_average(grid, 8)
    k, nu, chi = 0.01, 1e-3, 1e4
    apply_op, precondition = st._momentum_operator(grid, v, k, nu, nudge=(op, chi))
    rhs = v.coeffs / k + chi * sp._leray_coeffs(grid, op.apply_coeffs(u.coeffs))
    info = _assert_matches_scipy(
        apply_op,
        rhs,
        x0=v.coeffs.copy(),
        tol=st.DEFAULT_SOLVER_TOL,
        precondition=precondition,
    )
    assert 20 < info.iterations < 64  # one cycle


# -- the Givens rotation against LAPACK's dlartg --------------------------


def _givens_pairs():
    rng = np.random.default_rng(12)
    m = 20000
    f = rng.standard_normal(m) * 10.0 ** rng.uniform(-12, 12, m)
    g = rng.standard_normal(m) * 10.0 ** rng.uniform(-12, 12, m)
    pairs = list(zip(f.tolist(), g.tolist()))
    # a signed zero in either slot, against every sign of the other
    for z in (0.0, -0.0):
        for x in (2.5, -2.5, 0.0, -0.0):
            pairs += [(z, x), (x, z)]
    # every sign combination, unscaled and scaled
    for a, b in ((3.0, 4.0), (1e-200, 3e-201), (1e200, 7e199)):
        pairs += [(sa * a, sb * b) for sa in (1, -1) for sb in (1, -1)]
    # magnitudes near safmin and safmax, and between sqrt(safmax/2) and
    # sqrt(safmax), where only the bound of the unscaled branch decides
    tiny = 2.0 ** rng.uniform(-1074, -480, 2000)
    huge = 2.0 ** rng.uniform(480, 1023, 2000)
    edge = 2.0 ** rng.uniform(510.5, 511.0, 2000)
    signs = rng.choice([-1.0, 1.0], (3, 2000, 2))
    for mags, sgn in zip((tiny, huge, edge), signs):
        other = rng.permutation(mags) * 2.0 ** rng.uniform(-8, 0, mags.size)
        pairs += list(zip((sgn[:, 0] * mags).tolist(), (sgn[:, 1] * other).tolist()))
        pairs += list(zip((sgn[:, 1] * other).tolist(), (sgn[:, 0] * mags).tolist()))
    pairs += [(1e-160, 1e-160), (1e160, -1e160), (-1e-300, 1e300), (2.0**-1022, 2.0**1023)]
    return pairs


def test_givens_rotation_equals_lapack_dlartg_bit_for_bit():
    pairs = _givens_pairs()
    mismatched = [
        (f, g)
        for f, g in pairs
        if np.array(givens_rotation(f, g)).tobytes() != np.array(dlartg(f, g)).tobytes()
    ]
    assert not mismatched, f"{len(mismatched)} of {len(pairs)} pairs differ, e.g. {mismatched[:3]}"
