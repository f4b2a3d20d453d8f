"""The benchmark tracer (perfbench/tracer.py) wraps package attributes by name.

It is installed here on a tiny twin run and a tiny condlab sweep, so that a
renamed or bypassed hook fails the test suite instead of a traced benchmark
run.  Only reads perfbench/.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from modnudge import assimilate, condlab, experiments as ex, observers, spectral, stepping
from modnudge.config import RunConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked_attributes():
    return {
        "run_twin": ex.run_twin,
        "advance": ex.advance,
        "step1_forecast": ex.step1_forecast,
        "step2b": ex.step2b,
        "solve_gmres": stepping.solve_gmres,
        "solve_cg": assimilate.solve_cg,
        "truth_step": stepping.TruthIntegrator.step,
        "apply_coeffs": observers.ObservationOperator.apply_coeffs,
        "assemble": condlab.assemble,
    }


def condlab_attributes():
    names = ("assemble", "estimate_condition", "solve_step2_fem", "reduced_apply", "solve_cg",
             "condition_sweep")
    return {name: getattr(condlab, name) for name in names}


def test_tracer_and_step_clock_reach_every_layer_and_restore():
    tracer_module = load_tracer()
    cfg = RunConfig(n=16, T=0.04, chi=1e4, operator="cell-average", operator_scale=4,
                    windows=((0.02, 0.04),))
    variants = [ex.TwinVariant("chi-0", "none", 0.0)] + [
        ex.TwinVariant(f"{scheme}-chi-10000", scheme, 1e4)
        for scheme in ("2a-explicit", "2a-implicit", "2b", "standard")
    ]
    names = {(v.scheme, v.chi): v.name for v in variants}
    before = hooked_attributes()
    patches = tracer_module.Patches()
    tracer, clock, results = tracer_module.Tracer(), tracer_module.StepClock(), []
    try:
        tracer.install(patches, names)
        clock.install(patches, "twin", results)
        clock.install(patches, "condlab", [])
        ex.run_twin(cfg, variants)
    finally:
        patches.restore()
    assert hooked_attributes() == before

    assert clock.completed() == cfg.steps and len(results) == 1
    values = {}
    for name, _, _, _, value in tracer.spans:
        values.setdefault(name, []).append(value)
    expected = {
        "spectral.fft", "spectral.advect", "solvers.gmres", "solvers.gmres.matvec",
        "solvers.gmres.precond", "solvers.cg", "stepping.truth_substep", "stepping.forecast",
        "stepping.standard", "observers.apply", "assimilate.identity",
    } | {f"assimilate.analysis.{s}" for s in ("2a-explicit", "2a-implicit", "2b")}
    expected |= {f"experiments.advance.{v.name}" for v in variants}
    assert expected <= set(values)
    for name in ("stepping.truth_substep", "solvers.cg", "assimilate.analysis.2a-implicit"):
        assert all(isinstance(v, int) and v > 0 for v in values[name]), name
    assert values["assimilate.analysis.2a-explicit"] == [0] * cfg.steps
    # the advection kernel reaches its transforms through the grid: one each way
    ffts = Counter(s[3] for s in tracer.spans if s[0] == "spectral.fft")
    advects = [i for i, s in enumerate(tracer.spans) if s[0] == "spectral.advect"]
    assert all(ffts[i] == 2 for i in advects)

    # every plain-variant step is recorded through a hooked identity checker
    plain = sum(stepping.scheme_rule(v.scheme).ledgered and v.chi > 0 for v in variants)
    for step, (t0, t1) in enumerate(zip(clock.marks, clock.marks[1:]), start=1):
        spans = [s for s in tracer.spans if s[0] == "assimilate.identity" and t0 <= s[1] < t1]
        assert len(spans) >= plain, f"step {step}: {len(spans)} identity spans"


def test_tracer_and_step_clock_time_each_condlab_point_and_restore():
    tracer_module = load_tracer()
    k_chi = [1, 100]
    before = condlab_attributes()
    patches = tracer_module.Patches()
    tracer, clock, results = tracer_module.Tracer(), tracer_module.StepClock(), []
    try:
        tracer.install(patches, {})
        clock.install(patches, "condlab", results)
        condlab.condition_sweep(16, 4, "nested-linear", k_chi)
    finally:
        patches.restore()
    assert condlab_attributes() == before

    # one mark per assemble, the first of each point, and one at the end
    assert clock.completed() == len(k_chi) and [len(r) for r in results] == [len(k_chi)]
    for point, (t0, t1) in enumerate(zip(clock.marks, clock.marks[1:]), start=1):
        spans = Counter(s[0] for s in tracer.spans if t0 <= s[1] < t1)
        for name in ("condlab.assemble", "condlab.estimate_condition", "condlab.solve_step2"):
            assert spans[name] == 1, f"point {point}: {spans[name]} {name} spans"


@pytest.mark.parametrize("kind,scale", [("cell-average", 4), ("spectral-projection", 3)])
def test_one_standard_step_reaches_the_kernel_and_the_observer_once_per_application(kind, scale):
    """The fused solve iterates on the stream scalar; every application must
    still call `stepping._advect_div_coeffs` and `apply_coeffs`, or the
    benchmark's spectral.advect_calls_per_step and
    observers.apply_calls_per_step would change without notice."""
    tracer_module = load_tracer()
    grid = spectral.get_grid(16)
    rng = np.random.default_rng(20)
    v, u, f = (spectral.random_divfree_field(grid, rng) for _ in range(3))
    op = observers.make_operator(grid, kind, scale)
    u_obs = op.apply(u)
    cfg = stepping.SchemeConfig(k=0.01, nu=1e-3, chi=1e4, scheme="standard")
    state = stepping.ForecastState(0.0, v, cfg)
    patches = tracer_module.Patches()
    tracer = tracer_module.Tracer()
    try:
        tracer.install(patches, {})
        res = ex.step_standard_nudging(state, f, u_obs, op)
    finally:
        patches.restore()
    spans = Counter(s[0] for s in tracer.spans)
    assert [s[4] for s in tracer.spans if s[0] == "solvers.gmres"] == [res.iterations]
    assert spans["stepping.standard"] == 1 and res.iterations > 3
    for name in ("solvers.gmres.matvec", "spectral.advect", "observers.apply"):
        assert spans[name] == res.iterations, name


def test_forecasts_and_truth_substeps_reach_the_kernel_once_per_application():
    """A plain Step-1 solve calls `stepping._advect_div_coeffs` once per GMRES
    application, and once more for the coupling of a divergent state's
    gradient part; the fused step also calls the observer once more.  So
    the benchmark's spectral.advect_calls_per_step has a known cause."""
    tracer_module = load_tracer()
    grid = spectral.get_grid(16)
    rng = np.random.default_rng(21)
    v, u, f = (spectral.random_divfree_field(grid, rng) for _ in range(3))
    op = observers.make_cell_average(grid, 4)
    u_obs = op.apply(u)
    divergent = assimilate.step2a_implicit(v, u_obs, op, 0.01, 1e4).v
    truth = stepping.TruthIntegrator(u, lambda t: f, 0.01, 1e-3)

    def traced(call):
        patches = tracer_module.Patches()
        tracer = tracer_module.Tracer()
        try:
            tracer.install(patches, {})
            call()
        finally:
            patches.restore()
        spans = Counter(s[0] for s in tracer.spans)
        applications = sum(s[4] for s in tracer.spans if s[0] == "solvers.gmres")
        assert spans["solvers.gmres.matvec"] == applications > 0
        return spans, applications

    def state(w, chi=0.0, scheme="none"):
        return stepping.ForecastState(0.0, w, stepping.SchemeConfig(k=0.01, nu=1e-3, chi=chi,
                                                                    scheme=scheme))

    for w, extra in ((v, 0), (divergent, 1)):
        spans, applications = traced(lambda: ex.step1_forecast(state(w), f))
        assert spans["stepping.forecast"] == 1
        assert spans["spectral.advect"] == applications + extra
        assert spans["observers.apply"] == 0
        spans, applications = traced(
            lambda: ex.step_standard_nudging(state(w, 1e4, "standard"), f, u_obs, op))
        assert spans["stepping.standard"] == 1
        for name in ("spectral.advect", "observers.apply"):
            assert spans[name] == applications + extra, name
    for _ in range(2):  # backward Euler, then BDF2
        spans, applications = traced(lambda: truth.step())
        assert spans["stepping.truth_substep"] == 1
        assert spans["spectral.advect"] == applications
