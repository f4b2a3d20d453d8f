"""Time stepping: semi-implicit forecast, fused nudging step, BDF2 truth.

The forecast step advances the incompressible momentum equation one
backward-Euler step with the advecting velocity frozen at the old time,

    (vt - v)/k + P[ v . grad vt ] - nu lap vt = P f(t+k),

so each step is one nonsymmetric linear solve (restarted GMRES with a
diagonal preconditioner).  The Leray projector P stands in for the
pressure gradient.  `step_standard_nudging` fuses the relaxation term
chi I_H (u - v) into the same solve; the modular schemes instead call
`step1_forecast` and then one of the analysis updates from
`assimilate`.  A scheme's record in `SCHEMES` says which step it takes,
which operators it admits and whether runs ledger it.

Every Step-1 solve -- the forecast, the fused step and the truth's
substeps -- is one `_step1_solve` on the stream scalar.  The operator
D + P A + chi P I_H (D = 1/k - nu lap, A u = div(a (x) u)) maps zero-mean
divergence-free fields to themselves, and such a field is one scalar per
mode: u = T s = (i ky, -i kx) s / |k|, s = T* u = curl(u) / |k|.  T is an
isometry of the stored coefficients, the vectors GMRES works on, so on a
divergence-free state GMRES on T* (D + P A + chi P I_H) T takes the
velocity solve's Krylov path in exact arithmetic, with vectors half as
long (the n=64 cell-average twin's fused solves took 0.81 s instead of
1.07 s for the same 1,532 applications) and no Leray projection: the
advection kernel returns T* P A u, and T* P I_H u is the stream part of
I_H u.  Each application calls `_advect_div_coeffs` and, at chi > 0,
`ObservationOperator.apply_coeffs` once.

The solve is exact on divergent states too, such as the cell-average
analysis states.  With c = T s + g, g = c - T T* c the gradient and mean
part of the unknown, and the right side P f + w/k, w the old-state term
(v^n, or (4 u^n - u^{n-1})/3 for BDF2), the system is block-triangular:
P A and P I_H map into divergence-free fields (without a mean on the
zero-mean states the fused step admits), so
g = (w - T T* w)/(1 + k nu |k|^2) in closed form and
    D s + T*(P A + chi P I_H) T s = T* f + T* w/k - T*(P A + chi P I_H) g.
The coupling on the right costs one more application of the kernel (and
the observer), so it is formed only when ||w - T T* w|| exceeds
DIVFREE_RTOL ||w||, below which it is under roundoff.  The tests keep
the velocity-form operator as the oracle of these solves.

`TruthIntegrator` produces reference trajectories with the two-level
BDF2 formula (backward-Euler startup, advecting field extrapolated to
the new time level), which is second-order and keeps every step linear.

Krylov starts.  Solutions of successive steps are close, so a solve that
starts from a polynomial extrapolation of earlier solutions needs fewer
operator applications (Fischer 1998).  The truth and the forecast are
plain steps without nudging, as smooth in time as the flow, so their
stream increments d (s^{n+1} - T* u^n, or the forecast's s - T* v)
extrapolate well: both start from x^n + 3 d^n - 3 d^{n-1} + d^{n-2},
x^n = T* u^n or T* v, the cubic extrapolation over the last three
increments that one `IncrementHistory` holds.  The
truth's start often meets the tolerance outright (54 of the 120 substeps
of an n=128 twin to T=0.3), and such a substep costs only the
application of GMRES's initial residual; for that its increments are
kept in double precision.  The forecasts take as many applications from
single-precision increments, which halve the history each variant keeps
(a stream increment is itself half a velocity increment).
The guesses only set where GMRES starts; every solve is still judged on
its true residual, so results move within the solver tolerance.  The
fused nudging solve keeps the cold start, the stream scalar of v^n.
It is stiff in chi, and its right side carries chi I_H u, so the
tolerance 1e-10 ||b|| leaves room for answers far apart.  Started from
the same increment extrapolation, the chi=1e4 fused solve with the cell
average at n=64 took 23 applications instead of 51, but its twin
relative error moved by up to 1.5e-8, where the benchmark holds every
twin run to 10 solver_tol = 1e-9 of its recorded reference; with the
spectral projection at n=128 it took 3.1 instead of 4.1 and moved by up
to 7.9e-10.

`StabilityLedger` accumulates the discrete energy budget
    ||v^N||^2 + sum_n [ ||increments||^2 + k nu ||grad vt||^2
                        + k chi ||I_H v||^2 ]
      <= ||v^0||^2 + sum_n [ (k/nu) ||f||_{-1}^2 + k chi ||I_H u||^2 ],
which every projection-observed run satisfies step by step (the
advection term is energy-neutral by construction, and each Young
inequality only discards nonnegative slack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .observers import ObservationOperator
from .solvers import SolveInfo, solve_gmres
from .spectral import (
    SpectralVectorField,
    TorusGrid,
    _advect_div_coeffs,
    _leray_coeffs,
    _readonly,
    _stream_to_velocity,
    _velocity_to_stream,
    h1_seminorm,
    has_zero_mean,
    hminus1_norm,
    l2_norm,
)

DEFAULT_SOLVER_TOL = 1e-10
DEFAULT_SOLVER_MAXIT = 500
# the share ||w - T T* w|| / ||w|| of an old-state term's divergence and
# mean below which the Step-1 solve leaves out its coupling as roundoff
DIVFREE_RTOL = 1e-14


@dataclass(frozen=True)
class Scheme:
    """One step rule: `step_standard_nudging` if fused, else `step1_forecast`
    and then `analysis`, which calls the update through the caller's module
    (its first argument), so it reaches what that module holds at call time."""

    name: str
    fused: bool = False  # chi I_H (u - v) sits inside the momentum solve
    analysis: Callable | None = None  # (module, vtilde, obs, op, config) -> StepResult
    idempotent_only: bool = False  # the update is exact only for I_H^2 = I_H
    ledgered: bool = False  # solves (v - vtilde)/k = chi I_H (u - v); runs record its identities

    def admits(self, op: ObservationOperator) -> bool:
        return op.idempotent or not self.idempotent_only


# The plain forecast comes first; the nudging schemes follow in the order of
# `converge`'s default list and its CSV rows.
SCHEMES = (
    Scheme("none"),
    Scheme("2a-explicit", analysis=lambda m, vt, y, op, c: m.step2a_explicit(vt, y, op, c.k, c.chi),
           idempotent_only=True, ledgered=True),
    Scheme("2a-implicit", analysis=lambda m, vt, y, op, c: m.step2a_implicit(vt, y, op, c.k, c.chi),
           ledgered=True),
    Scheme("2b", analysis=lambda m, vt, y, op, c: m.step2b(vt, y, op, c.k, c.chi, c.nu)),
    Scheme("standard", fused=True),
)
PLAIN_FORECAST = SCHEMES[0]
_BY_NAME = {s.name: s for s in SCHEMES}


def scheme_rule(name: str) -> Scheme:
    """The table record of the scheme called `name`."""
    if name not in _BY_NAME:
        raise ValueError(f"unknown scheme {name!r}; choose from {', '.join(_BY_NAME)}")
    return _BY_NAME[name]


def check_scheme_operator(name: str, op: ObservationOperator):
    """Refuse an unknown scheme, or an operator its update is not exact for."""
    if not scheme_rule(name).admits(op):
        usable = [s.name for s in SCHEMES[1:] if s.admits(op)]
        raise ValueError(
            f"scheme {name!r} requires an idempotent observation operator "
            "(I_H applied twice must equal I_H applied once), which "
            f"{op.kind!r} is not.  Use one of {', '.join(usable)} with it."
        )


def check_step_params(k: float, chi: float = 0.0, nu: float | None = None, tol: float | None = None):
    """Refuse a time step k <= 0, a nudging strength chi < 0, a viscosity
    nu <= 0 or a Krylov tolerance outside (0, 1e-4]; nu and tol when given."""
    if not k > 0:
        raise ValueError(f"time step k must be positive, got {k!r}")
    if not chi >= 0:
        raise ValueError(f"nudging strength chi must be nonnegative, got {chi!r}")
    if nu is not None and not nu > 0:
        raise ValueError(f"viscosity nu must be positive, got {nu!r}")
    if tol is not None and not 0 < tol <= 1e-4:
        raise ValueError(f"solver tolerance must lie in (0, 1e-4], got {tol!r}")


@dataclass(frozen=True)
class SchemeConfig:
    """Parameters shared by every stepping variant.

    scheme names the step rule in `SCHEMES`; `none` runs the plain
    forecast, as does every scheme at chi = 0.  solver_tol is the Krylov
    relative tolerance of the momentum solve.
    """

    k: float
    nu: float
    chi: float = 0.0
    scheme: str = PLAIN_FORECAST.name
    solver_tol: float = DEFAULT_SOLVER_TOL

    def __post_init__(self):
        check_step_params(self.k, self.chi, self.nu, self.solver_tol)
        scheme_rule(self.scheme)

    @property
    def rule(self) -> Scheme:
        """The step this config takes: its scheme's record, the plain forecast at chi = 0."""
        return _BY_NAME[self.scheme] if self.chi > 0 else PLAIN_FORECAST


class IncrementHistory:
    """The last three increments d = x^{n+1} - x^n of one sequence of solves.

    The buffers are allocated once, in `dtype`.  The forecasts keep theirs
    in single precision (the default): a forecast solve takes the same
    number of applications from either, and a run holds one history per
    variant.  The truth keeps its one history in double precision, where
    its cubic start often meets the 1e-10 tolerance outright and single
    precision rounding would not.  Either way the start only places the
    initial GMRES iterate; the solve is judged on its true residual.
    """

    def __init__(self, shape: tuple[int, ...], dtype=np.complex64):
        # latest first: d^n, d^{n-1}, d^{n-2}
        self._d = [np.zeros(shape, dtype=dtype) for _ in range(3)]
        self.count = 0  # increments recorded so far, at most 3

    @property
    def dtype(self) -> np.dtype:
        return self._d[0].dtype

    def guess(self, x: np.ndarray) -> np.ndarray:
        """The initial iterate x + 3 d^n - 3 d^{n-1} + d^{n-2} for the solve
        after x; with fewer increments recorded, x + 2 d^n - d^{n-1},
        x + d^n, then x."""
        x0 = x.copy()
        d1, d2, d3 = self._d
        if self.count == 1:
            x0 += d1
        elif self.count == 2:
            x0 += 2.0 * d1
            x0 -= d2
        elif self.count == 3:
            x0 += 3.0 * (d1 - d2)
            x0 += d3
        return x0

    def record(self, new: np.ndarray, old: np.ndarray):
        """Make new - old the latest increment, dropping the oldest one."""
        self._d.insert(0, self._d.pop())
        np.subtract(new, old, out=self._d[0], casting="same_kind")
        self.count = min(self.count + 1, 3)


@dataclass
class ForecastState:
    """One time level of a run: the divergence-free velocity and the run's
    clock, the one time it keeps; `experiments.advance` moves both.

    `history` holds the stream increments that start the next forecast's
    solve; `step1_forecast` creates and updates it, so a state that never
    runs a forecast (the fused nudging step) holds none.
    """

    time: float
    velocity: SpectralVectorField
    config: SchemeConfig
    history: IncrementHistory | None = None


@dataclass
class StepResult:
    """A forecast or analysis state with its Krylov count and final relative
    residual (both 0 where no iterative solve ran)."""

    v: SpectralVectorField
    iterations: int = 0
    residual: float = 0.0


def _require_zero_mean(f: SpectralVectorField, what: str):
    if not has_zero_mean(f):
        raise ValueError(f"{what} must have zero mean")


def _step1_operator(
    grid: TorusGrid,
    advecting: SpectralVectorField,
    k: float,
    nu: float,
    op: ObservationOperator | None = None,
    chi: float = 0.0,
) -> tuple[Callable, Callable, Callable]:
    """The Step-1 operator s -> T*(D + P A + chi P I_H) T s on stream
    scalars (see the module docstring), its diagonal preconditioner, and
    `couple(out, u)`, which adds T*(P A + chi P I_H) u into `out` for any
    velocity u and returns it.  The nudging term is built only for chi > 0.
    """
    band = grid.band_width
    a_vals = grid.to_values(advecting.coeffs[..., :band] * grid.band_rows)
    diag = 1.0 / k + nu * grid.k2

    def couple(out, u):
        out[:, :band] += _advect_div_coeffs(grid, a_vals, u)
        if chi > 0:
            nudge = _velocity_to_stream(grid, op.apply_coeffs(u))
            nudge *= chi
            out += nudge
        return out

    def apply_op(s):
        return couple(diag * s, _stream_to_velocity(grid, s))

    inv_diag = 1.0 / (op.shifted_diagonal(diag, chi) if chi > 0 else diag)
    return apply_op, lambda r: inv_diag * r, couple


def _step1_solve(
    advecting: SpectralVectorField,
    old: np.ndarray,
    w: np.ndarray,
    drive: np.ndarray,
    k: float,
    nu: float,
    tol: float,
    history: IncrementHistory | None = None,
    op: ObservationOperator | None = None,
    chi: float = 0.0,
) -> tuple[np.ndarray, SolveInfo]:
    """The velocity c = T s + g with (D + P A + chi P I_H) c = P drive + w/k
    (see the module docstring).  GMRES starts from `history.guess(T* old)`
    and records s - T* old there; without a history it starts from T* old.
    """
    grid = advecting.grid
    apply_op, precondition, couple = _step1_operator(grid, advecting, k, nu, op, chi)
    s_w = _velocity_to_stream(grid, w)
    rest = w - _stream_to_velocity(grid, s_w)
    g = rest / (1.0 + k * nu * grid.k2)
    # T* P = T*, so the projection of the right side falls away
    rhs = _velocity_to_stream(grid, drive)
    rhs += s_w / k
    if np.linalg.norm(rest) > DIVFREE_RTOL * np.linalg.norm(w):
        couple(rhs, -g)
    s_old = _velocity_to_stream(grid, old)
    x0 = s_old if history is None else history.guess(s_old)
    s, info = solve_gmres(
        apply_op, rhs, x0=x0, tol=tol, maxiter=DEFAULT_SOLVER_MAXIT, precondition=precondition
    )
    if history is not None:
        history.record(s, s_old)
    c = _stream_to_velocity(grid, s)
    c += g
    return c, info


def step1_forecast(state: ForecastState, forcing: SpectralVectorField) -> StepResult:
    """One backward-Euler forecast step; forcing is evaluated at t + k.

    The solve starts from the state's extrapolated stream increments, and
    the new increment goes into `state.history`; velocity and clock are
    left to the caller.
    """
    cfg = state.config
    grid = state.velocity.grid
    _require_zero_mean(forcing, "forcing")
    v = state.velocity.coeffs
    if state.history is None:
        state.history = IncrementHistory(grid.coeff_shape)
    c, info = _step1_solve(
        state.velocity, v, v, forcing.coeffs, cfg.k, cfg.nu, cfg.solver_tol, state.history
    )
    return StepResult(SpectralVectorField(grid, _readonly(c)), info.iterations, info.residual)


def step_standard_nudging(
    state: ForecastState,
    forcing: SpectralVectorField,
    observation: SpectralVectorField,
    op: ObservationOperator,
) -> StepResult:
    """Fused forecast + relaxation: the nudging term sits inside the solve.

    `observation` is the already-observed truth I_H u(t + k); the
    operator is applied once per Krylov iteration to the unknown only.
    GMRES starts from the stream scalar of v^n whatever history the state
    carries (see the module docstring).  A state with a nonzero mean is
    refused: P I_H would couple that mean to chi.
    """
    cfg = state.config
    grid = state.velocity.grid
    _require_zero_mean(forcing, "forcing")
    _require_zero_mean(state.velocity, "standard nudging step: the state")
    v = state.velocity.coeffs
    drive = forcing.coeffs + cfg.chi * observation.coeffs
    c, info = _step1_solve(
        state.velocity, v, v, drive, cfg.k, cfg.nu, cfg.solver_tol, op=op, chi=cfg.chi
    )
    return StepResult(SpectralVectorField(grid, _readonly(c)), info.iterations, info.residual)


# ---------------------------------------------------------------------------
# reference (truth) trajectories
# ---------------------------------------------------------------------------


class TruthIntegrator:
    """BDF2 integrator for reference runs, advanced one step at a time.

    The advecting velocity is the second-order extrapolation
    2 u^n - u^{n-1}, so the implicit system stays linear while the
    overall scheme remains second order.  The first step is backward
    Euler from u0 at time 0; `time` is the truth run's one clock, and
    only `step` moves it.  GMRES starts from the cubic extrapolation of
    the last three stream increments, kept in double precision (see the
    module docstring).
    """

    def __init__(
        self,
        u0: SpectralVectorField,
        forcing: Callable[[float], SpectralVectorField],
        k: float,
        nu: float,
        solver_tol: float = DEFAULT_SOLVER_TOL,
    ):
        check_step_params(k, nu=nu, tol=solver_tol)
        self.grid = u0.grid
        self.forcing = forcing
        self.k = k
        self.nu = nu
        self.solver_tol = solver_tol
        self.time = 0.0
        self.current = u0
        self.previous: SpectralVectorField | None = None
        self.history = IncrementHistory(u0.grid.coeff_shape, np.complex128)
        self.last_iterations = 0

    def step(self) -> SpectralVectorField:
        grid, k, nu = self.grid, self.k, self.nu
        t_next = self.time + k
        f = self.forcing(t_next)
        _require_zero_mean(f, "forcing")
        u = self.current.coeffs
        if self.previous is None:
            adv, w, k_eff = self.current, u, k
        else:
            # (3u+ - 4u + u-)/(2k): the same solve with k -> 2k/3 and the
            # old state (4u - u-)/3
            adv = 2.0 * self.current - self.previous
            w = (4.0 * u - self.previous.coeffs) / 3.0
            k_eff = 2.0 * k / 3.0
        c, info = _step1_solve(adv, u, w, f.coeffs, k_eff, nu, self.solver_tol, self.history)
        self.previous = self.current
        self.current = SpectralVectorField(grid, _readonly(c))
        self.time = t_next
        self.last_iterations = info.iterations
        return self.current


# ---------------------------------------------------------------------------
# energy bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class StabilityLedger:
    """Cumulative two-sided energy budget of a forecast/analysis run.

    Valid as an inequality for the plain forecast and for analysis
    updates whose operator is an orthogonal projection (spectral or
    cell average); the differential filter's cross term is not a norm,
    so runs with it skip the ledger.
    """

    v0_sq: float
    latest_sq: float = 0.0
    left_sum: float = 0.0
    right_sum: float = 0.0
    steps: int = 0

    @classmethod
    def start(cls, v0: SpectralVectorField) -> "StabilityLedger":
        sq = l2_norm(v0) ** 2
        return cls(v0_sq=sq, latest_sq=sq)

    def record_forecast(
        self,
        v_prev: SpectralVectorField,
        vtilde: SpectralVectorField,
        forcing: SpectralVectorField,
        k: float,
        nu: float,
    ):
        self.left_sum += l2_norm(vtilde - v_prev) ** 2 + k * nu * h1_seminorm(vtilde) ** 2
        self.right_sum += (k / nu) * hminus1_norm(forcing) ** 2
        self.latest_sq = l2_norm(vtilde) ** 2
        self.steps += 1

    def record_analysis(
        self,
        vtilde: SpectralVectorField,
        v_new: SpectralVectorField,
        observation: SpectralVectorField,
        op: ObservationOperator,
        k: float,
        chi: float,
    ):
        """Fold one analysis update of the plain equation into the budget."""
        if chi == 0.0:
            self.latest_sq = l2_norm(v_new) ** 2
            return
        kchi = k * chi
        self.left_sum += l2_norm(v_new - vtilde) ** 2 + kchi * l2_norm(op.apply(v_new)) ** 2
        self.right_sum += kchi * l2_norm(observation) ** 2
        self.latest_sq = l2_norm(v_new) ** 2

    @property
    def left_side(self) -> float:
        return self.latest_sq + self.left_sum

    @property
    def right_side(self) -> float:
        return self.v0_sq + self.right_sum

    def margin(self) -> float:
        return self.right_side - self.left_side

    def satisfied(self, rel_slack: float = 1e-8) -> bool:
        return self.margin() >= -rel_slack * max(1.0, self.right_side)


def verify_momentum_residual(
    state_prev: SpectralVectorField,
    vtilde: SpectralVectorField,
    forcing: SpectralVectorField,
    k: float,
    nu: float,
) -> float:
    """True relative residual of the forecast system at the returned state.

    Re-applies the full Step-1 operator in velocity form, apart from the
    stream solve; used by the property suite to confirm the Krylov solve
    hit its advertised tolerance.
    """
    grid = vtilde.grid
    band = grid.band_width
    a_vals = grid.to_values(state_prev.coeffs[..., :band] * grid.band_rows)
    lhs = (1.0 / k + nu * grid.k2) * vtilde.coeffs
    kernel = _advect_div_coeffs(grid, a_vals, vtilde.coeffs)
    lhs[..., :band] += grid.stream_weights[..., :band] * kernel
    rhs = _leray_coeffs(grid, forcing.coeffs) + state_prev.coeffs / k
    num = np.linalg.norm((lhs - rhs).ravel())
    den = np.linalg.norm(rhs.ravel())
    return float(num / den) if den > 0 else float(num)
