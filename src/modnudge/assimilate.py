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

The bottom half records one plain analysis step.  `verify_form_b`
returns an `AnalysisRecord`: the L2 norms of the errors e = u - v and
etilde = u - vtilde and of their gradients; the residuals of the step's
L2 polarization balance and gradient balance; the residual of the
general-operator update identity ("form B": the implicit solution equals
the explicit formula plus a correction through (I_H - I_H^2), which
vanishes for projections and not for the differential filter); and
whether the error strictly decreased.  All of it comes from one I_H e and
one pass of weighted sums over e, etilde and e - etilde, so runs can
ledger it at every step.  The balances are written with (I_H e, e) rather
than ||I_H e||^2, so they hold for every self-adjoint I_H, the filter
included.  `check_polarization_identity`, `check_gradient_monotonicity`
and the viscous variant's `check_energy_identity_2b` read the same sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observers import ObservationOperator
from .solvers import SolveInfo, solve_cg
from .spectral import SpectralVectorField, _readonly, coeff_dot
from .stepping import StepResult, check_step_params

DEFAULT_CG_TOL = 1e-12


def _result(vtilde: SpectralVectorField, coeffs, info: SolveInfo | None = None) -> StepResult:
    v = SpectralVectorField(vtilde.grid, _readonly(coeffs))
    return StepResult(v) if info is None else StepResult(v, info.iterations, info.residual)


def step2a_explicit(
    vtilde: SpectralVectorField,
    u_obs: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
) -> StepResult:
    """Closed-form analysis update for idempotent observation operators."""
    check_step_params(k, chi)
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
    check_step_params(k, chi, tol=tol)
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
    check_step_params(k, chi, nu, tol)
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


# ---------------------------------------------------------------------------
# the per-step record of a plain analysis step
# ---------------------------------------------------------------------------

OBS_ERROR_FLOOR = 1e-14  # below this ||I_H e||, strict error decrease is not required


@dataclass(frozen=True)
class AnalysisRecord:
    """Norms, identity residuals and decrease verdict of one analysis step.

    e = u - v and etilde = u - vtilde are the errors after and before the
    step.  The residuals are relative (see the checkers below);
    `gradient_rel` is NaN for an operator that does not commute with the
    gradient (the cell average), and the form-B fields are NaN for a
    record built from the errors alone.
    """

    err: float  # ||e||
    err_tilde: float  # ||etilde||
    grad_err: float  # ||grad e||
    grad_err_tilde: float  # ||grad etilde||
    polarization_rel: float
    gradient_rel: float
    residual_rel: float  # form B: ||v - reconstruction|| / ||v||
    correction_rel: float  # ||(I_H - I_H^2) tail term|| / ||v||, zero for projections
    decreased: bool | None  # ||e|| < ||etilde||; None while ||I_H e|| <= OBS_ERROR_FLOOR


def _sums(grid, blocks) -> list[list[float]]:
    """[||b||^2, ||grad b||^2] for each coefficient block b, then the same
    two weighted sums of Re(I_H e conj e), where the blocks start with
    e, etilde, e - etilde, I_H e.

    Each product of (re, im) values fills one block-sized scratch, which two
    small matrix products reduce: along ky against the mode multiplicity w
    and w ky^2, then along kx against 1 and kx^2 (|k|^2 = kx^2 + ky^2).
    """
    w = np.repeat(grid.hermitian_weights[0], 2)
    along_ky = np.stack([w, w * np.repeat(grid.ky[0] ** 2, 2)], axis=1)
    along_kx = np.tile(np.stack([np.ones(grid.n), grid.kx[:, 0] ** 2]), 2)
    scratch = np.empty((2 * grid.n, w.size))
    parts = [np.ascontiguousarray(b, dtype=complex).view(np.float64) for b in blocks]

    def weighted(a, b):
        np.multiply(a.reshape(scratch.shape), b.reshape(scratch.shape), out=scratch)
        m = along_kx @ (scratch @ along_ky)
        return [m[0, 0], m[0, 1] + m[1, 0]]

    rows = [weighted(x, x) for x in parts] + [weighted(parts[3], parts[0])]
    return (grid.length**2 * np.array(rows)).tolist()


def _ratio(num: float, denom: float) -> float:
    """|num| / denom, with 0/0 = 0 and x/0 = inf."""
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return abs(num) / denom


def _norm(square: float) -> float:
    return math.sqrt(max(square, 0.0))


def _record(e, etilde, op, k, chi, states=None) -> AnalysisRecord:
    """The record from coefficient arrays; form B needs `states` = (vtilde, v).

    One I_H e serves the polarization term, form B and the decrease test.
    For a Fourier multiplier, (I_H grad e, grad e) is the |k|^2-weighted
    sum of Re(I_H e conj e), so no gradient fields are formed.
    """
    kchi = k * chi
    obs_e = op.apply_coeffs(e)
    blocks = [e, etilde, e - etilde, obs_e]
    if states is not None:
        vtilde, v = states
        gain = kchi / (1.0 + kchi)
        tail = obs_e - op.apply_coeffs(obs_e)
        tail *= kchi * gain
        # v - (vtilde + g I_H etilde + tail), in place on the fresh I_H etilde
        defect = op.apply_coeffs(etilde)
        defect *= gain
        defect += vtilde
        defect += tail
        blocks += [v, np.subtract(v, defect, out=defect), tail]
    sums = _sums(op.grid, blocks)
    (e2, ge2), (t2, gt2), (d2, gd2), (obs2, _) = sums[:4]
    dot, grad_dot = sums[-1]
    formb = [math.nan, math.nan]
    if states is not None:
        vnorm = math.sqrt(max(sums[4][0], 1e-300))
        formb = [_norm(s[0]) / vnorm for s in sums[5:7]]
    gradient = math.nan
    if op.commutes_with_gradient:
        gradient = _ratio(ge2 + gd2 + 2.0 * kchi * grad_dot - gt2, gt2)
    err, err_tilde = _norm(e2), _norm(t2)
    return AnalysisRecord(
        err=err,
        err_tilde=err_tilde,
        grad_err=_norm(ge2),
        grad_err_tilde=_norm(gt2),
        polarization_rel=_ratio(0.5 * (e2 - t2 + d2) + kchi * dot, t2),
        gradient_rel=gradient,
        residual_rel=formb[0],
        correction_rel=formb[1],
        decreased=err < err_tilde if _norm(obs2) > OBS_ERROR_FLOOR else None,
    )


def verify_form_b(
    vtilde: SpectralVectorField,
    v: SpectralVectorField,
    u: SpectralVectorField,
    op: ObservationOperator,
    k: float,
    chi: float,
) -> AnalysisRecord:
    """The full record of one plain analysis step, form B included.

    Form B checks v against vtilde + g I_H(u - vtilde) + (k chi g)(I_H - I_H^2)(u - v):
    any solution of the analysis equation satisfies this identity with
    g = k chi / (1 + k chi); it reduces to the explicit update when
    I_H^2 = I_H.
    """
    check_step_params(k, chi)
    e, etilde = u.coeffs - v.coeffs, u.coeffs - vtilde.coeffs
    return _record(e, etilde, op, k, chi, (vtilde.coeffs, v.coeffs))


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
    positive and I_H e != 0.  Normalized by ||etilde||^2 (0 when both
    sides vanish, inf when only ||etilde|| does).
    """
    return _record(e.coeffs, etilde.coeffs, op, k, chi).polarization_rel


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
    Normalized by ||grad etilde||^2 (0 when every term vanishes, inf
    when only ||grad etilde|| does).  NaN for the cell average, which
    does not commute with the gradient.
    """
    return _record(e.coeffs, etilde.coeffs, op, k, chi).gradient_rel


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
    c, ct = e.coeffs, etilde.coeffs
    sums = _sums(e.grid, [c, ct, c - ct, op.apply_coeffs(c)])
    (e2, ge2), (t2, gt2), (d2, gd2), (dot, _) = sums[:3] + sums[-1:]
    rhs = t2 + k * nu * gt2
    return _ratio(e2 + k * nu * ge2 + d2 + k * nu * gd2 + 2.0 * k * chi * dot - rhs, rhs)


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
