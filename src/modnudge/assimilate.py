"""Analysis updates: fold an observation into a forecast state.

Given the forecast vtilde and the observed truth I_H u at the same
time, the plain analysis equation

    (v - vtilde) / k = chi * I_H (u - v)

is solved three ways:

* `step2a_explicit` -- the closed-form update
      v = vtilde + (k chi / (1 + k chi)) (I_H u - I_H vtilde),
  valid exactly when I_H is idempotent (a projection); refuses
  non-idempotent operators instead of silently being wrong.
* `step2a_implicit` -- CG on the SPD system (I + k chi I_H) v = rhs,
  valid for every operator (diagonal shortcut for the filter).
* `step2b` -- the variant that also carries the viscous term,
      (I - k nu lap)(v - vtilde) + k chi I_H v = k chi I_H u,
  so the increment is H^1-smoothed rather than pointwise.

`verify_form_b` checks the general-operator identity that connects the
implicit solution to the explicit formula plus a correction through
(I_H - I_H^2); for projections the correction vanishes, for the
differential filter it does not, and both facts are load-bearing tests.

The identity checks at the bottom are the per-step conservation laws
of the analysis update (L2 polarization, gradient monotonicity, and
the viscous variant's energy balance).  They are pure functions of the
error fields, so runs can ledger them at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observers import DIFFERENTIAL_FILTER, SPECTRAL_PROJECTION, ObservationOperator
from .solvers import SolveInfo, solve_cg
from .spectral import (
    SpectralVectorField,
    _readonly,
    coeff_dot,
    h1_seminorm,
    l2_norm,
    leray_project,
)

DEFAULT_CG_TOL = 1e-12


@dataclass
class AnalysisResult:
    v: SpectralVectorField
    path: str  # "explicit" | "cg" | "diagonal"
    iterations: int = 0
    residual: float = 0.0


def _as_result(grid, coeffs, time, path, info: SolveInfo | None = None) -> AnalysisResult:
    field = SpectralVectorField(grid, _readonly(coeffs), time)
    if info is None:
        return AnalysisResult(field, path)
    return AnalysisResult(field, path, iterations=info.iterations, residual=info.residual)


def step2a_explicit(
    vtilde: SpectralVectorField,
    u_obs: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
) -> AnalysisResult:
    """Closed-form analysis update for idempotent observation operators."""
    _check_params(k, chi)
    if not op.idempotent:
        raise ValueError(
            f"the explicit update assumes I_H^2 = I_H, which fails for {op.kind!r}; "
            "use step2a_implicit instead"
        )
    if chi == 0.0:
        return AnalysisResult(vtilde, "explicit")
    gain = k * chi / (1.0 + k * chi)
    c = vtilde.coeffs + gain * (u_obs.coeffs - op.apply_coeffs(vtilde.coeffs))
    return _as_result(vtilde.grid, c, vtilde.time, "explicit")


def step2a_implicit(
    vtilde: SpectralVectorField,
    u_obs: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
    tol: float = DEFAULT_CG_TOL,
    force_iterative: bool = False,
) -> AnalysisResult:
    """Solve (I + k chi I_H) v = vtilde + k chi I_H u for any operator."""
    _check_params(k, chi, tol)
    if chi == 0.0:
        return AnalysisResult(vtilde, "diagonal")
    grid = vtilde.grid
    kchi = k * chi
    rhs = vtilde.coeffs + kchi * u_obs.coeffs
    if op.kind == DIFFERENTIAL_FILTER and not force_iterative:
        c = rhs / (1.0 + kchi * op.multiplier)
        return _as_result(grid, c, vtilde.time, "diagonal")

    def apply_op(c):
        return c + kchi * op.apply_coeffs(c)

    precond = None
    if op.multiplier is not None:
        diag = 1.0 / (1.0 + kchi * op.multiplier)
        precond = lambda r: diag * r  # noqa: E731
    c, info = solve_cg(
        apply_op,
        rhs,
        dot=lambda a, b: coeff_dot(grid, a, b),
        x0=vtilde.coeffs.copy(),
        tol=tol,
        precondition=precond,
    )
    return _as_result(grid, c, vtilde.time, "cg", info)


def step2b(
    vtilde: SpectralVectorField,
    u_obs: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
    nu: float,
    tol: float = DEFAULT_CG_TOL,
    force_iterative: bool = False,
) -> AnalysisResult:
    """Analysis update with a viscous lift of the increment.

    Solves (I - k nu lap + k chi I_H) v = (I - k nu lap) vtilde
    + k chi I_H u, an SPD system; mode-diagonal when the observation
    operator is the spectral projection.
    """
    _check_params(k, chi, tol)
    if not nu > 0:
        raise ValueError("viscosity must be positive")
    grid = vtilde.grid
    kchi = k * chi
    helm = 1.0 + k * nu * grid.k2  # (I - k nu lap) in mode space
    rhs = helm * vtilde.coeffs + kchi * u_obs.coeffs
    if chi == 0.0:
        return AnalysisResult(vtilde, "diagonal")
    if op.kind == SPECTRAL_PROJECTION and not force_iterative:
        c = rhs / (helm + kchi * op.multiplier)
        return _as_result(grid, c, vtilde.time, "diagonal")

    def apply_op(c):
        return helm * c + kchi * op.apply_coeffs(c)

    if op.multiplier is not None:
        diag = 1.0 / (helm + kchi * op.multiplier)
    else:
        diag = 1.0 / helm
    c, info = solve_cg(
        apply_op,
        rhs,
        dot=lambda a, b: coeff_dot(grid, a, b),
        x0=vtilde.coeffs.copy(),
        tol=tol,
        precondition=lambda r: diag * r,
    )
    return _as_result(grid, c, vtilde.time, "cg", info)


def reproject(result: AnalysisResult) -> AnalysisResult:
    """Restore exact solenoidality after a divergence-breaking update.

    The cell average does not preserve divergence-freeness, so runs
    re-apply the Leray projection to the analysis state before stepping
    on.  Identity checks are made on the un-projected state.
    """
    return AnalysisResult(leray_project(result.v), result.path, result.iterations, result.residual)


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

    For a projection I_H,
        1/2 ||e||^2 - 1/2 ||etilde||^2 + 1/2 ||e - etilde||^2
            + k chi ||I_H e||^2 = 0,
    which in particular forces ||e|| < ||etilde|| whenever I_H e != 0.
    Normalized by ||etilde||^2.
    """
    obs_e = op.apply(e)
    lhs = (
        0.5 * l2_norm(e) ** 2
        - 0.5 * l2_norm(etilde) ** 2
        + 0.5 * l2_norm(e - etilde) ** 2
        + k * chi * l2_norm(obs_e) ** 2
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
    mode-diagonal kinds); with I_H a projection,
        ||grad e||^2 + ||grad(e - etilde)||^2
            + 2 k chi ||I_H grad e||^2 = ||grad etilde||^2.
    Normalized by ||grad etilde||^2.  For the cell average this is
    reported as a diagnostic, never asserted.
    """
    grid = e.grid
    ikx, iky = 1j * grid.kx, 1j * grid.ky
    grad_e = np.stack([ikx * e.coeffs[0], iky * e.coeffs[0], ikx * e.coeffs[1], iky * e.coeffs[1]])
    obs_grad = op.apply_coeffs(grad_e)
    a = h1_seminorm(e) ** 2
    b = h1_seminorm(e - etilde) ** 2
    s = coeff_dot(grid, obs_grad, obs_grad)
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
        + k nu ||grad(e - etilde)||^2 + 2 k chi ||I_H e||^2
        = ||etilde||^2 + k nu ||grad etilde||^2.
    """
    diff = e - etilde
    lhs = (
        l2_norm(e) ** 2
        + k * nu * h1_seminorm(e) ** 2
        + l2_norm(diff) ** 2
        + k * nu * h1_seminorm(diff) ** 2
        + 2.0 * k * chi * l2_norm(op.apply(e)) ** 2
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
