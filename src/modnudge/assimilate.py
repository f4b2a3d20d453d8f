"""Analysis updates: fold an observation into a forecast state.

Given the forecast vtilde and the observed truth I_H u at the same
time, the plain analysis equation

    (v - vtilde) / k = chi * I_H (u - v)

is solved three ways:

* `step2a_explicit` -- the closed-form update
      v = vtilde + (k chi / (1 + k chi)) (I_H u - I_H vtilde),
  valid exactly when I_H is idempotent (a projection); refuses
  non-idempotent operators instead of silently being wrong.
* `step2a_implicit` -- the SPD system (I + k chi I_H) v = rhs, valid
  for every operator.
* `step2b` -- the variant that also carries the viscous term,
      (I - k nu lap)(v - vtilde) + k chi I_H v = k chi I_H u,
  so the increment is H^1-smoothed rather than pointwise.

Both systems are (base + k chi I_H) v = rhs with base a mode multiplier.
When I_H is a Fourier multiplier they are solved by one divide by the
operator's `shifted_diagonal`; otherwise (the cell average) by CG
preconditioned with its reciprocal.  `force_iterative` runs CG anyway,
so that a check can compare a closed form against a real solve.

`verify_form_b` checks the general-operator identity that connects the
implicit solution to the explicit formula plus a correction through
(I_H - I_H^2); for projections the correction vanishes, for the
differential filter it does not, and both facts are load-bearing tests.

The identity checks at the bottom are the per-step conservation laws
of the analysis update (L2 polarization, gradient monotonicity, and
the viscous variant's energy balance).  They are written with
(I_H e, e) rather than ||I_H e||^2, so they hold for every self-adjoint
I_H, the filter included.  They are pure functions of the error fields,
so runs can ledger them at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observers import ObservationOperator
from .solvers import SolveInfo, solve_cg
from .spectral import SpectralVectorField, _readonly, coeff_dot, h1_seminorm, inner, l2_norm
from .stepping import StepResult

DEFAULT_CG_TOL = 1e-12


def _result(vtilde: SpectralVectorField, coeffs, info: SolveInfo | None = None) -> StepResult:
    v = SpectralVectorField(vtilde.grid, _readonly(coeffs), vtilde.time)
    return StepResult(v) if info is None else StepResult(v, info.iterations, info.residual)


def step2a_explicit(
    vtilde: SpectralVectorField,
    u_obs: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
) -> StepResult:
    """Closed-form analysis update for idempotent observation operators."""
    _check_params(k, chi)
    if not op.idempotent:
        raise ValueError(
            f"the explicit update assumes I_H^2 = I_H, which fails for {op.kind!r}; "
            "use step2a_implicit instead"
        )
    if chi == 0.0:
        return StepResult(vtilde)
    gain = k * chi / (1.0 + k * chi)
    return _result(vtilde, vtilde.coeffs + gain * (u_obs.coeffs - op.apply_coeffs(vtilde.coeffs)))


def step2a_implicit(
    vtilde: SpectralVectorField,
    u_obs: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
    tol: float = DEFAULT_CG_TOL,
    force_iterative: bool = False,
) -> StepResult:
    """Solve (I + k chi I_H) v = vtilde + k chi I_H u for any operator."""
    _check_params(k, chi, tol)
    if chi == 0.0:
        return StepResult(vtilde)
    kchi = k * chi
    rhs = vtilde.coeffs + kchi * u_obs.coeffs
    return _shifted_solve(vtilde, rhs, op, 1.0, kchi, tol, force_iterative)


def step2b(
    vtilde: SpectralVectorField,
    u_obs: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
    nu: float,
    tol: float = DEFAULT_CG_TOL,
    force_iterative: bool = False,
) -> StepResult:
    """Analysis update with a viscous lift of the increment.

    Solves (I - k nu lap + k chi I_H) v = (I - k nu lap) vtilde
    + k chi I_H u, an SPD system.
    """
    _check_params(k, chi, tol)
    if not nu > 0:
        raise ValueError("viscosity must be positive")
    if chi == 0.0:
        return StepResult(vtilde)
    kchi = k * chi
    helm = 1.0 + k * nu * vtilde.grid.k2  # (I - k nu lap) in mode space
    rhs = helm * vtilde.coeffs + kchi * u_obs.coeffs
    return _shifted_solve(vtilde, rhs, op, helm, kchi, tol, force_iterative)


def _shifted_solve(vtilde, rhs, op, base, kchi, tol, force_iterative) -> StepResult:
    """Solve (base + k chi I_H) v = rhs, with base a mode multiplier.

    A divide when I_H is a Fourier multiplier, unless `force_iterative`;
    otherwise CG from vtilde, preconditioned by the reciprocal of the
    operator's shifted diagonal.
    """
    diag = op.shifted_diagonal(base, kchi)
    if op.diagonal and not force_iterative:
        return _result(vtilde, rhs / diag)
    grid = vtilde.grid
    inv_diag = 1.0 / diag
    c, info = solve_cg(
        lambda c: base * c + kchi * op.apply_coeffs(c),
        rhs,
        dot=lambda a, b: coeff_dot(grid, a, b),
        x0=vtilde.coeffs.copy(),
        tol=tol,
        precondition=lambda r: inv_diag * r,
    )
    return _result(vtilde, c, info)


def _check_params(k: float, chi: float, tol: float | None = None):
    if not k > 0:
        raise ValueError("time step must be positive")
    if chi < 0:
        raise ValueError("nudging strength must be nonnegative")
    if tol is not None and not 0 < tol <= 1e-4:
        raise ValueError("solver tolerance must lie in (0, 1e-4]")


# ---------------------------------------------------------------------------
# the general-operator update identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormBReport:
    """Residual of the two-term update identity and the size of its tail.

    residual_rel : ||v - reconstruction|| / ||v||
    correction_rel : ||(I_H - I_H^2) tail term|| / ||v||, zero exactly
        for idempotent operators.
    """

    residual_rel: float
    correction_rel: float
    gain: float


def verify_form_b(
    vtilde: SpectralVectorField,
    v: SpectralVectorField,
    u: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
) -> FormBReport:
    """Check v against  vtilde + g I_H(u - vtilde) + (k chi g)(I_H - I_H^2)(u - v).

    Any solution of the analysis equation satisfies this identity with
    g = k chi / (1 + k chi); it reduces to the explicit update when
    I_H^2 = I_H.
    """
    _check_params(k, chi)
    kchi = k * chi
    gain = kchi / (1.0 + kchi)
    du_tilde = u.coeffs - vtilde.coeffs
    du_v = u.coeffs - v.coeffs
    once = op.apply_coeffs(du_v)
    correction = (kchi * gain) * (once - op.apply_coeffs(once))
    recon = vtilde.coeffs + gain * op.apply_coeffs(du_tilde) + correction
    grid = v.grid
    vnorm = math.sqrt(max(coeff_dot(grid, v.coeffs, v.coeffs), 1e-300))
    resid = math.sqrt(max(coeff_dot(grid, v.coeffs - recon, v.coeffs - recon), 0.0))
    corr = math.sqrt(max(coeff_dot(grid, correction, correction), 0.0))
    return FormBReport(residual_rel=resid / vnorm, correction_rel=corr / vnorm, gain=gain)


# ---------------------------------------------------------------------------
# per-step identities of the analysis update
# ---------------------------------------------------------------------------


def check_polarization_identity(
    e: SpectralVectorField,
    etilde: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
) -> float:
    """Relative residual of the L2 balance of the plain analysis step.

    For any self-adjoint I_H,
        1/2 ||e||^2 - 1/2 ||etilde||^2 + 1/2 ||e - etilde||^2
            + k chi (I_H e, e) = 0,
    which in particular forces ||e|| < ||etilde|| whenever I_H is
    positive and I_H e != 0.  Normalized by ||etilde||^2.
    """
    lhs = (
        0.5 * l2_norm(e) ** 2
        - 0.5 * l2_norm(etilde) ** 2
        + 0.5 * l2_norm(e - etilde) ** 2
        + k * chi * inner(op.apply(e), e)
    )
    denom = l2_norm(etilde) ** 2
    if denom == 0.0:
        return 0.0 if abs(lhs) == 0.0 else float("inf")
    return abs(lhs) / denom


def check_gradient_monotonicity(
    e: SpectralVectorField,
    etilde: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
) -> float:
    """Relative residual of the H1-seminorm balance of the analysis step.

    Requires the operator to commute with the gradient (true for the
    mode-diagonal kinds); then
        ||grad e||^2 + ||grad(e - etilde)||^2
            + 2 k chi (I_H grad e, grad e) = ||grad etilde||^2.
    Normalized by ||grad etilde||^2.  For the cell average this is
    reported as a diagnostic, never asserted.
    """
    grid = e.grid
    ikx, iky = 1j * grid.kx, 1j * grid.ky
    grad_e = np.stack([ikx * e.coeffs[0], iky * e.coeffs[0], ikx * e.coeffs[1], iky * e.coeffs[1]])
    obs_grad = op.apply_coeffs(grad_e)
    a = h1_seminorm(e) ** 2
    b = h1_seminorm(e - etilde) ** 2
    s = coeff_dot(grid, obs_grad, grad_e)
    d = h1_seminorm(etilde) ** 2
    if d == 0.0:
        return 0.0 if a + b + s == 0.0 else float("inf")
    return abs(a + b + 2.0 * k * chi * s - d) / d


def check_energy_identity_2b(
    e: SpectralVectorField,
    etilde: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
    nu: float,
) -> float:
    """Relative residual of the viscous analysis step's energy balance.

    ||e||^2 + k nu ||grad e||^2 + ||e - etilde||^2
        + k nu ||grad(e - etilde)||^2 + 2 k chi (I_H e, e)
        = ||etilde||^2 + k nu ||grad etilde||^2.
    """
    diff = e - etilde
    lhs = (
        l2_norm(e) ** 2
        + k * nu * h1_seminorm(e) ** 2
        + l2_norm(diff) ** 2
        + k * nu * h1_seminorm(diff) ** 2
        + 2.0 * k * chi * inner(op.apply(e), e)
    )
    rhs = l2_norm(etilde) ** 2 + k * nu * h1_seminorm(etilde) ** 2
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else float("inf")
    return abs(lhs - rhs) / rhs


# ---------------------------------------------------------------------------
# hypothesis bookkeeping for the convergence theory
# ---------------------------------------------------------------------------

# 2D Ladyzhenskaya-derived constant in the trilinear bound
# (a . grad b, c) <= C2 ||grad a|| ||grad b|| ||grad c|| on zero-mean fields
# with unit Poincare constant.
TRILINEAR_C2 = math.sqrt(2.0)
POINCARE_TORUS = 1.0


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    satisfied: bool
    margin: float
    detail: str


def validate_hypotheses(
    k: float,
    nu: float,
    chi: float,
    op: ObservationOperator,
    c1: float,
    grad_u_norm: float,
    c2: float = TRILINEAR_C2,
    c_pf: float = POINCARE_TORUS,
) -> list[HypothesisCheck]:
    """Arithmetic of the sufficient conditions behind the error theory.

    These are warnings, not gates: the scheme runs fine outside them,
    the decay guarantees just no longer follow.
    """
    H = op.h
    checks = []
    m = nu - 6.0 * chi * c1**2 * H**2
    checks.append(
        HypothesisCheck(
            "finite-time-stability",
            m > 0,
            m,
            f"nu - 6 chi c1^2 H^2 = {m:.6g}",
        )
    )
    m = nu - 8.0 * c1**2 * chi * H**2
    checks.append(
        HypothesisCheck(
            "error-decay-resolution",
            m > 0,
            m,
            f"nu - 8 c1^2 chi H^2 = {m:.6g}",
        )
    )
    m = chi / 8.0 - (9.0 * c2**4 / (2.0 * nu**3)) * grad_u_norm**4
    checks.append(
        HypothesisCheck(
            "error-decay-strength",
            m > 0,
            m,
            f"chi/8 - (9 C2^4 / 2 nu^3) ||grad u||^4 = {m:.6g}",
        )
    )
    m = 2.0 * c_pf**2 / nu - k
    checks.append(
        HypothesisCheck(
            "step-size",
            m >= 0,
            m,
            f"k = {k:.6g} vs bound 2 C_PF^2 / nu = {2.0 * c_pf**2 / nu:.6g}",
        )
    )
    return checks
