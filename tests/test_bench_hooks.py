"""The benchmark tracer (perfbench/tracer.py) wraps package attributes by name.

It is installed here on a tiny twin run and a tiny condlab sweep, so that a
renamed or bypassed hook fails the test suite instead of a traced benchmark
run.  Only reads perfbench/.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from modnudge import assimilate, condlab, experiments as ex, observers, stepping
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
    plain = sum(v.scheme in ex.PLAIN_SCHEMES and v.chi > 0 for v in variants)
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
