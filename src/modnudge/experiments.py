"""Experiment drivers: convergence study, twin runs, sweeps, property suites.

Everything here is deterministic given (config, seed): random fields come
from one seeded generator, and the drivers return plain data structures
so the CLI layer can format them without recomputing anything.
What a scheme does is read from its record in `stepping.SCHEMES`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import condlab
# `advance` calls the analysis updates, and run_twin the identity checkers,
# through this module's attributes, which the benchmark tracer wraps.
from .assimilate import (  # noqa: F401
    check_energy_identity_2b,
    check_gradient_monotonicity,
    check_polarization_identity,
    step2a_explicit,
    step2a_implicit,
    step2b,
    verify_form_b,
)
from .config import RunConfig, step_count
from .manufactured import exact_solution, forcing as manufactured_forcing
from .observers import (
    ObservationOperator,
    filter_property_report,
    idempotency_defect,
    make_cell_average,
    make_differential_filter,
    make_operator,
    make_spectral_projection,
)
from .predictability import ErrorSeries, HorizonReport, horizon_report
from .solvers import KrylovError
from .spectral import (
    LADYZHENSKAYA_CONST,
    SpectralVectorField,
    bump_localized_field,
    check_ladyzhenskaya,
    get_grid,
    h1_seminorm,
    l2_norm,
    random_divfree_field,
)
from .stepping import (
    PLAIN_FORECAST,
    SCHEMES,
    ForecastState,
    SchemeConfig,
    StabilityLedger,
    TruthIntegrator,
    check_scheme_operator,
    step1_forecast,
    step_standard_nudging,
    verify_momentum_residual,
)

# ---------------------------------------------------------------------------
# one assimilation step, any scheme
# ---------------------------------------------------------------------------

def advance(
    state: ForecastState,
    forcing_field: SpectralVectorField,
    u_obs: SpectralVectorField | None,
    op: ObservationOperator | None,
) -> SpectralVectorField:
    """Advance `state` one step in place and return the pre-analysis state vtilde.

    `u_obs` is the already-observed truth I_H u(t + k); it may be None
    only for the plain forecast.  The state leaves with the new velocity
    (vtilde itself for the plain forecast and the fused `standard` step),
    its clock moved on by k, the one place a run's clock moves, and, for
    every scheme that runs a forecast, with that
    forecast's increment in its history (which starts the next forecast);
    the fused `standard` step leaves the history as it was.  The step is
    the config's `rule`, so chi = 0 runs the plain forecast.
    """
    cfg = state.config
    rule = cfg.rule
    if rule.fused:
        vtilde = v = step_standard_nudging(state, forcing_field, u_obs, op).v
    else:
        vtilde = v = step1_forecast(state, forcing_field).v
        if rule.analysis is not None:
            # the update is looked up in this module now, where patches reach it
            v = rule.analysis(sys.modules[__name__], vtilde, u_obs, op, cfg).v
    state.time += cfg.k
    state.velocity = v
    return vtilde


# ---------------------------------------------------------------------------
# temporal convergence against the closed-form solution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceTable:
    """(k, error at T, rate) rows for one scheme; rate pairs consecutive
    exact halvings only and is nan elsewhere."""

    scheme: str
    rows: tuple[tuple[float, float, float], ...]
    notes: tuple[str, ...] = ()


def manufactured_error(cfg: RunConfig, scheme: str, k: float) -> float:
    """L2 error at cfg.T of one run of `scheme` with step k, driven by the
    closed-form solution on the config's grid and operator."""
    grid = get_grid(cfg.n)
    op = make_operator(grid, cfg.operator, cfg.operator_scale)
    scheme_cfg = SchemeConfig(k=k, nu=cfg.nu, chi=cfg.chi, scheme=scheme, solver_tol=cfg.solver_tol)
    state = ForecastState(0.0, exact_solution(grid, 0.0), scheme_cfg)
    for i in range(1, step_count(cfg.T, k) + 1):
        t1 = i * k
        f = manufactured_forcing(grid, t1, cfg.nu)
        u1 = exact_solution(grid, t1)
        try:
            advance(state, f, op.apply(u1), op)
        except KrylovError as exc:
            raise exc.located(f"scheme {scheme!r}, step {i}, t={t1:.6g}") from exc
    return l2_norm(state.velocity - exact_solution(grid, cfg.T))


def check_converge_run(cfg: RunConfig, k_list: Sequence[float] | None = None,
                       schemes: Sequence[str] | None = None) -> tuple[tuple, list[str]]:
    """The steps and schemes `run_converge` runs, refused before its first
    step: each scheme must suit the configured operator, and T must be a
    whole number of each step.  By default the schemes are every nudging
    scheme the operator admits and the steps the config's `k_list`."""
    op = make_operator(get_grid(cfg.n), cfg.operator, cfg.operator_scale)
    if schemes is None:
        schemes = [s.name for s in SCHEMES[1:] if s.admits(op)]
    for scheme in schemes:
        check_scheme_operator(scheme, op)
    ks = tuple(k_list if k_list is not None else cfg.k_list)
    for k in ks:
        step_count(cfg.T, k)
    return ks, list(schemes)


def run_converge(
    cfg: RunConfig,
    k_list: Sequence[float] | None = None,
    schemes: Sequence[str] | None = None,
) -> dict[str, ConvergenceTable]:
    """One error-vs-k table per scheme, sharing the config's (n, nu, chi, T),
    over the steps and schemes of `check_converge_run`."""
    ks, schemes = check_converge_run(cfg, k_list, schemes)
    tables: dict[str, ConvergenceTable] = {}
    for scheme in schemes:
        errors: list[float] = []
        notes: list[str] = []
        for k in ks:
            try:
                errors.append(manufactured_error(cfg, scheme, k))
            except KrylovError as exc:
                errors.append(float("nan"))
                notes.append(f"k={k:g}: solve failed ({exc})")
        rows = []
        for i, (k, err) in enumerate(zip(ks, errors)):
            rate = float("nan")
            if i > 0 and abs(ks[i - 1] / k - 2.0) < 1e-9:
                prev = errors[i - 1]
                if err > 0 and math.isfinite(err) and math.isfinite(prev):
                    rate = math.log2(prev / err)
            rows.append((k, err, rate))
        tables[scheme] = ConvergenceTable(scheme, tuple(rows), tuple(notes))
    return tables


# ---------------------------------------------------------------------------
# twin experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwinVariant:
    name: str
    scheme: str
    chi: float


@dataclass
class VariantResult:
    variant: TwinVariant
    series: ErrorSeries  # relative L2 error, including t = 0
    ledger_rows: list[tuple]
    horizons: list[HorizonReport]
    decrease_checked: int = 0
    decrease_violations: int = 0

    def mean_relative_error(self, t_from: float, t_to: float) -> float:
        times = self.series.times
        mask = (times >= t_from - 1e-12) & (times <= t_to + 1e-12)
        if not mask.any():
            raise ValueError("no samples inside the averaging window")
        return float(np.mean(self.series.norms[mask]))


@dataclass
class TwinResult:
    times: np.ndarray
    variants: dict[str, VariantResult]


def _chi_tag(chi: float) -> str:
    return f"{chi:g}".replace("+", "")


def twin_variants(cfg: RunConfig, include_alternates: bool = False) -> tuple[TwinVariant, ...]:
    """chi sweep of the configured scheme, plus optional cross-scheme runs:
    at the strongest chi, every other nudging scheme whose steps are not
    ledgered as plain, the fused one first."""
    out: list[TwinVariant] = []
    for chi in cfg.chi_list:
        if chi == 0.0:
            out.append(TwinVariant("chi-0", PLAIN_FORECAST.name, 0.0))
        else:
            out.append(TwinVariant(f"{cfg.scheme}-chi-{_chi_tag(chi)}", cfg.scheme, chi))
    if include_alternates:
        strong = max((c for c in cfg.chi_list if c > 0), default=cfg.chi)
        alternates = [s for s in SCHEMES[1:] if not s.ledgered and s.name != cfg.scheme]
        for s in sorted(alternates, key=lambda s: not s.fused):
            out.append(TwinVariant(f"{s.name}-chi-{_chi_tag(strong)}", s.name, strong))
    return tuple(out)


def twin_initial_fields(
    cfg: RunConfig,
) -> tuple[SpectralVectorField, SpectralVectorField, Callable[[float], SpectralVectorField]]:
    """(truth IC, perturbed assimilation IC, ramped low-mode forcing)."""
    grid = get_grid(cfg.n)
    rng = np.random.default_rng(cfg.seed)
    u0 = random_divfree_field(grid, rng, kmax=4, decay=0.7, normalize=1.0)
    base_forcing = random_divfree_field(grid, rng, kmax=2, normalize=cfg.forcing_amplitude)
    perturbation = random_divfree_field(grid, rng, kmax=8, normalize=1.0)
    v0 = u0 + cfg.k * perturbation

    def forcing_fn(t: float) -> SpectralVectorField:
        return base_forcing * min(1.0, t)

    return u0, v0, forcing_fn


def check_twin_run(cfg: RunConfig, variants: Sequence[TwinVariant]) -> ObservationOperator:
    """Refuse a twin run before its first step, and return its operator.

    Horizon windows are read off the assimilation samples, so every
    endpoint must be a multiple of k (up to the clock's roundoff); every
    variant's scheme must suit the operator.
    """
    k = cfg.k
    for win in cfg.horizon_windows():
        if any(abs(round(t / k) * k - t) > 1e-6 * k for t in win):
            raise ValueError(
                f"horizon window {win[0]:g}:{win[1]:g} does not start and end on the "
                f"step grid; its endpoints must be multiples of k={k:g}"
            )
    op = make_operator(get_grid(cfg.n), cfg.operator, cfg.operator_scale)
    for var in variants:
        check_scheme_operator(var.scheme, op)
    return op


def run_twin(
    cfg: RunConfig,
    variants: Sequence[TwinVariant] | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> TwinResult:
    """Synthetic-truth study: integrate truth once, assimilate its
    observations into every variant, and log errors plus the per-step
    identity residuals of the two-step runs."""
    variants = tuple(variants if variants is not None else twin_variants(cfg))
    op = check_twin_run(cfg, variants)
    windows = cfg.horizon_windows()
    u0, v0, forcing_fn = twin_initial_fields(cfg)
    states = {}
    for var in variants:
        scheme_cfg = SchemeConfig(
            k=cfg.k, nu=cfg.nu, chi=var.chi, scheme=var.scheme, solver_tol=cfg.solver_tol
        )
        states[var.name] = ForecastState(0.0, v0, scheme_cfg)
    substeps = round(cfg.k / cfg.truth_step)
    truth = TruthIntegrator(u0, forcing_fn, cfg.truth_step, cfg.nu, solver_tol=cfg.solver_tol)
    rel0 = l2_norm(u0 - v0) / l2_norm(u0)
    times = [0.0]
    rels = {var.name: [rel0] for var in variants}
    ledgers: dict[str, list[tuple]] = {var.name: [] for var in variants}
    decrease = {var.name: [0, 0] for var in variants}  # [checked, violations]

    nsteps = cfg.steps
    for n in range(1, nsteps + 1):
        for _ in range(substeps):
            try:
                u_next = truth.step()
            except KrylovError as exc:
                raise exc.located(f"truth, step {n}, t={truth.time + truth.k:.6g}") from exc
        u_norm = l2_norm(u_next)
        u_obs = op.apply(u_next)
        f_next = forcing_fn(truth.time)
        for var in variants:
            state = states[var.name]
            if abs(state.time + cfg.k - truth.time) > 1e-6 * cfg.k:
                raise RuntimeError("truth and assimilation clocks diverged")
            try:
                vtilde = advance(state, f_next, u_obs, op)
            except KrylovError as exc:
                raise exc.located(f"variant {var.name!r}, step {n}, t={truth.time:.6g}") from exc
            v = state.velocity
            e = u_next - v
            err = l2_norm(e)
            rels[var.name].append(err / u_norm)
            if state.config.rule.ledgered:
                rec = verify_form_b(vtilde, v, u_next, op, cfg.k, var.chi)
                if rec.decreased is not None:
                    decrease[var.name][0] += 1
                    decrease[var.name][1] += not rec.decreased
                row = (rec.err, rec.err_tilde, rec.grad_err, rec.grad_err_tilde,
                       rec.polarization_rel, rec.residual_rel, rec.gradient_rel)
            else:
                grad_err = h1_seminorm(e)
                row = (err, err, grad_err, grad_err, math.nan, math.nan, math.nan)
            ledgers[var.name].append((cfg.n, state.time) + row)
        times.append(states[variants[0].name].time)
        if progress is not None:
            progress(n, nsteps)

    times_arr = np.asarray(times)
    results: dict[str, VariantResult] = {}
    for var in variants:
        series = ErrorSeries(times_arr, np.asarray(rels[var.name]))
        horizons = [
            horizon_report(series, t1, t2, eps) for (t1, t2) in windows for eps in cfg.epsilons
        ]
        checked, violations = decrease[var.name]
        results[var.name] = VariantResult(
            variant=var,
            series=series,
            ledger_rows=ledgers[var.name],
            horizons=horizons,
            decrease_checked=checked,
            decrease_violations=violations,
        )
    return TwinResult(times=times_arr, variants=results)


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    hard: bool  # soft results are reported but never fail the run
    detail: str


@dataclass(frozen=True)
class PropsReport:
    results: tuple[PropertyResult, ...]
    seed: int
    count: int

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results if r.hard)


def _random_pair(grid, rng) -> tuple[SpectralVectorField, SpectralVectorField]:
    vt = random_divfree_field(grid, rng, decay=rng.uniform(0.2, 0.8))
    u = random_divfree_field(grid, rng, decay=rng.uniform(0.2, 0.8))
    return vt, u


def _random_projection(grid, rng) -> ObservationOperator:
    if rng.random() < 0.5:
        return make_spectral_projection(grid, int(rng.integers(2, grid.n // 4)))
    return make_cell_average(grid, int(rng.choice([2, 4, 8, 16])))


def _random_k_chi(rng, chi_lo: float, chi_hi: float) -> tuple[float, float]:
    """k log-uniform in [1e-3, 1], chi log-uniform in [10^chi_lo, 10^chi_hi]."""
    return float(10.0 ** rng.uniform(-3, 0)), float(10.0 ** rng.uniform(chi_lo, chi_hi))


def filter_smoothing(rng: np.random.Generator, count: int) -> PropertyResult:
    """The four smoothing estimates of the differential filter on random fields."""
    grid = get_grid(32)
    held = 0
    for _ in range(count):
        op = make_differential_filter(grid, float(rng.uniform(0.1, 1.0)))
        w = random_divfree_field(grid, rng, decay=rng.uniform(0.2, 0.8))
        held += filter_property_report(op, w).ok(slack=1e-12)
    return PropertyResult(
        "filter-smoothing",
        held == count,
        True,
        f"all four estimates held on {held}/{count} random fields at slack 1e-12",
    )


def projection_idempotency(rng: np.random.Generator, count: int) -> PropertyResult:
    """The projections are idempotent to rounding."""
    grid = get_grid(32)
    worst = 0.0
    for _ in range(count):
        op = _random_projection(grid, rng)
        worst = max(worst, idempotency_defect(op, random_divfree_field(grid, rng)))
    return PropertyResult("projection-idempotency", worst <= 1e-12, True, f"max defect {worst:.3e}")


def explicit_implicit_equivalence(rng: np.random.Generator, count: int) -> PropertyResult:
    """The closed-form update equals the implicit solve for idempotent
    operators; instances alternate the spectral projection and the cell average."""
    grid = get_grid(32)
    worst = 0.0
    for i in range(count):
        if i % 2 == 0:
            op = make_spectral_projection(grid, int(rng.integers(2, grid.n // 4 + 1)))
        else:
            op = make_cell_average(grid, int(rng.choice([2, 4, 8, 16])))
        vt, u = _random_pair(grid, rng)
        k, chi = _random_k_chi(rng, -2, 4)
        u_obs = op.apply(u)
        expl = step2a_explicit(vt, u_obs, op, k, chi)
        impl = step2a_implicit(vt, u_obs, op, k, chi, tol=1e-13, force_iterative=True)
        worst = max(worst, l2_norm(expl.v - impl.v) / max(l2_norm(impl.v), 1e-300))
    return PropertyResult(
        "explicit-implicit-equivalence",
        worst <= 1e-10,
        True,
        f"max relative deviation {worst:.3e} over {count} instances",
    )


def filter_update_identity(rng: np.random.Generator, count: int) -> PropertyResult:
    """The two-term update identity for the (non-idempotent) filter.

    Its correction term grows like (k chi)^2 and is rounding-sized at small
    k chi, so it must exceed 1e-6 on every instance with k chi >= 1e-2 (it
    stays above 1e-5 there): the identity is checked where its second term
    is really there, whatever the instance count.
    """
    grid = get_grid(32)
    tol = 1e-12
    worst = 0.0
    checked = held = 0
    for _ in range(count):
        op = make_differential_filter(grid, float(rng.uniform(0.2, 1.0)))
        vt, u = _random_pair(grid, rng)
        k, chi = _random_k_chi(rng, -1, 3)
        res = step2a_implicit(vt, op.apply(u), op, k, chi, tol=tol)
        rep = verify_form_b(vt, res.v, u, op, k, chi)
        worst = max(worst, rep.residual_rel)
        if k * chi >= 1e-2:
            checked += 1
            held += rep.correction_rel > 1e-6
    return PropertyResult(
        "update-identity-filter",
        worst <= 10.0 * tol and 0 < checked == held,
        True,
        f"max residual {worst:.3e} (limit {10.0 * tol:.0e}), correction > 1e-6 on "
        f"{held}/{checked} instances with k chi >= 1e-2",
    )


def error_decrease(rng: np.random.Generator, count: int) -> PropertyResult:
    """The analysis step strictly decreases the error (polarization balance)."""
    grid = get_grid(32)
    worst = 0.0
    violations = 0
    for _ in range(count):
        op = _random_projection(grid, rng)
        vt, u = _random_pair(grid, rng)
        k, chi = _random_k_chi(rng, -2, 4)
        rec = verify_form_b(vt, step2a_explicit(vt, op.apply(u), op, k, chi).v, u, op, k, chi)
        worst = max(worst, rec.polarization_rel)
        violations += rec.decreased is False
    return PropertyResult(
        "error-decrease",
        worst <= 1e-11 and violations == 0,
        True,
        f"max identity residual {worst:.3e}, {violations} monotonicity violations",
    )


def gradient_monotonicity(rng: np.random.Generator, count: int) -> PropertyResult:
    """The gradient-norm balance under the spectral projection."""
    grid = get_grid(32)
    worst = 0.0
    for _ in range(count):
        op = make_spectral_projection(grid, int(rng.integers(2, grid.n // 4)))
        vt, u = _random_pair(grid, rng)
        k, chi = _random_k_chi(rng, -2, 4)
        v = step2a_explicit(vt, op.apply(u), op, k, chi).v
        worst = max(worst, check_gradient_monotonicity(u - v, u - vt, op, k, chi))
    return PropertyResult(
        "gradient-monotonicity", worst <= 1e-11, True, f"max identity residual {worst:.3e}"
    )


def energy_identity_2b(rng: np.random.Generator, count: int) -> PropertyResult:
    """The viscous analysis variant's energy balance."""
    grid = get_grid(32)
    worst = 0.0
    for _ in range(count):
        op = _random_projection(grid, rng)
        vt, u = _random_pair(grid, rng)
        k, chi = _random_k_chi(rng, -2, 3)
        nu = float(10.0 ** rng.uniform(-3, 0))
        res = step2b(vt, op.apply(u), op, k, chi, nu, tol=1e-13)
        worst = max(worst, check_energy_identity_2b(u - res.v, u - vt, op, k, chi, nu))
    return PropertyResult(
        "energy-identity-2b", worst <= 1e-10, True, f"max identity residual {worst:.3e}"
    )


def energy_budget(rng: np.random.Generator) -> PropertyResult:
    """The cumulative discrete energy budget over a short assimilation run."""
    grid = get_grid(32)
    u0 = random_divfree_field(grid, rng, kmax=4)
    base = random_divfree_field(grid, rng, kmax=2, normalize=0.3)
    forcing_fn = lambda t: base * min(1.0, t)
    k, nu, chi = 0.02, 0.05, 10.0
    op = make_spectral_projection(grid, 4)
    truth = TruthIntegrator(u0, forcing_fn, k, nu)
    scheme_cfg = SchemeConfig(k=k, nu=nu, chi=chi, scheme="2a-explicit")
    state = ForecastState(0.0, u0 + 0.1 * random_divfree_field(grid, rng), scheme_cfg)
    ledger = StabilityLedger.start(state.velocity)
    steps = 25
    for _ in range(steps):
        u = truth.step()
        f = forcing_fn(truth.time)
        obs = op.apply(u)
        prev = state.velocity
        vtilde = advance(state, f, obs, op)
        ledger.record_forecast(prev, vtilde, f, k, nu)
        ledger.record_analysis(vtilde, state.velocity, obs, op, k, chi)
        if not ledger.satisfied():
            detail = f"budget violated at step {ledger.steps}, margin {ledger.margin():.3e}"
            return PropertyResult("energy-budget", False, True, detail)
    return PropertyResult(
        "energy-budget", True, True, f"margin {ledger.margin():.3e} after {steps} steps"
    )


def momentum_residual(rng: np.random.Generator) -> PropertyResult:
    """The momentum solve meets its advertised tolerance."""
    grid = get_grid(32)
    worst = 0.0
    state = ForecastState(
        0.0,
        random_divfree_field(grid, rng, kmax=6),
        SchemeConfig(k=0.02, nu=0.05, solver_tol=1e-10),
    )
    f = random_divfree_field(grid, rng, kmax=3, normalize=0.5)
    for _ in range(10):
        prev = state.velocity
        v = advance(state, f, None, None)
        worst = max(worst, verify_momentum_residual(prev, v, f, 0.02, 0.05))
    return PropertyResult(
        "momentum-residual",
        worst <= 1e-9,
        True,
        f"max true relative residual {worst:.3e} over 10 steps",
    )


def l4_interpolation_ratio(rng: np.random.Generator, count: int) -> PropertyResult:
    """The L4 interpolation ratio on localized fields; reported, never fatal."""
    grid = get_grid(64)
    worst = 0.0
    for _ in range(count):
        worst = max(worst, check_ladyzhenskaya(bump_localized_field(grid, rng)).ratio)
    bound = LADYZHENSKAYA_CONST * 1.05
    return PropertyResult(
        "l4-interpolation-ratio",
        worst <= bound,
        False,
        f"max ratio {worst:.6f} vs bound {bound:.6f} (5% quadrature slack)",
    )


def fem_nested_projection(rng: np.random.Generator) -> PropertyResult:
    """The nested 1D FEM observation is a projection after Schur reduction."""
    ops = condlab.assemble(64, 8, "nested-linear", k_chi=10.0)
    defect = condlab.idempotency_defect(ops, rng)
    return PropertyResult(
        "fem-nested-projection", defect <= 1e-10, True, f"composed-projection defect {defect:.3e}"
    )


def run_props(seed: int = 0, count: int = 100) -> PropsReport:
    """Run every identity/property suite, on `count` random instances where
    the suite draws instances."""
    if count < 10:
        raise ValueError("need at least 10 instances per suite")
    rng = np.random.default_rng(seed)
    results = (
        filter_smoothing(rng, count),
        projection_idempotency(rng, count),
        explicit_implicit_equivalence(rng, count),
        filter_update_identity(rng, count),
        error_decrease(rng, count),
        gradient_monotonicity(rng, count),
        energy_identity_2b(rng, count // 2),
        energy_budget(rng),
        momentum_residual(rng),
        l4_interpolation_ratio(rng, count),
        fem_nested_projection(rng),
    )
    return PropsReport(results, seed=seed, count=count)
