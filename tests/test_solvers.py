"""Krylov solvers: convergence, preconditioning, failure reporting, and
the in-house GMRES against scipy's as an answer oracle: the same number
of operator applications and the same answer to within 1e-13."""

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, gmres

from modnudge import observers as obs
from modnudge import spectral as sp
from modnudge import stepping as st
from modnudge.solvers import KrylovError, solve_cg, solve_gmres


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


def test_gmres_breakdown_is_an_exact_solve_or_a_loud_failure():
    # three distinct eigenvalues: the Krylov space is invariant after
    # three steps, so GMRES has the exact answer there; past roundoff it
    # can do no better and must say so well before its budget runs out
    diag = np.repeat([1.0, 2.0, 5.0], 20)
    b = np.random.default_rng(13).standard_normal(60)
    x, info = solve_gmres(lambda v: diag * v, b, tol=1e-14)
    assert info.iterations == 4
    assert np.linalg.norm(x - b / diag) <= 1e-14 * np.linalg.norm(b / diag)
    with pytest.raises(KrylovError, match="Krylov breakdown") as exc:
        solve_gmres(lambda v: diag * v, b, tol=1e-300, maxiter=500)
    assert exc.value.iterations < 100
    assert exc.value.residual <= 1e-15


# -- scipy.sparse.linalg.gmres as an answer oracle ------------------------


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
    # the same answer to well inside tol, whatever the rounding path
    assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)
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
    # twin step.  The step solves it on the stream scalar, as here.
    grid = sp.get_grid(32)
    rng = np.random.default_rng(0)
    v = sp.random_divfree_field(grid, rng)
    u = sp.random_divfree_field(grid, rng)
    op = obs.make_cell_average(grid, 8)
    k, nu, chi = 0.01, 1e-3, 1e4
    apply_op, precondition = st._fused_operator(grid, v, k, nu, op, chi)
    s0 = sp._velocity_to_stream(grid, v.coeffs)
    rhs = s0 / k + chi * sp._velocity_to_stream(grid, op.apply_coeffs(u.coeffs))
    info = _assert_matches_scipy(
        apply_op,
        rhs,
        x0=s0,
        tol=st.DEFAULT_SOLVER_TOL,
        precondition=precondition,
    )
    assert 20 < info.iterations < 64  # one cycle


def test_gmres_returns_an_initial_guess_that_meets_tol_unchanged():
    # the truth's cubic start often lands here: the initial residual test
    # accepts x0 after its one application, as scipy's does
    rng = np.random.default_rng(11)
    n = 40
    a = np.diag(rng.uniform(1.0, 3.0, n)) + 0.2 * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x0 = np.linalg.solve(a.astype(complex), b)
    residual = np.linalg.norm((b - a @ x0).view(np.float64)) / np.linalg.norm(b.view(np.float64))
    assert 0 < residual <= 1e-12
    info = _assert_matches_scipy(lambda v: a @ v, b, x0=x0, tol=1e-10)
    x, _ = solve_gmres(lambda v: a @ v, b, x0=x0, tol=1e-10)
    assert x.tobytes() == x0.tobytes()
    assert info.iterations == 1
    assert info.residual == residual
