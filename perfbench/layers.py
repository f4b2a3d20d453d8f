"""Per-layer metrics derived from the spans of the traced runs.

"Per step" means per operation: one assimilation step in a twin
workload, one k*chi point in condlab.  Ratios whose base is zero (a layer
the workload never calls) read 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import self_times

UNITS = {
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_ms_per_step": "ms",
    "spectral.advect_calls_per_step": "count",
    "spectral.advect_ms_per_call": "ms",
    "solvers.gmres_solves_per_step": "count",
    "solvers.gmres_matvecs_per_solve": "count",
    "solvers.gmres_ms_per_solve": "ms",
    "solvers.gmres_self_ms_per_solve": "ms",
    "solvers.cg_solves": "count",
    "solvers.cg_iters_per_solve": "count",
    "solvers.cg_ms_per_iter": "ms",
    "stepping.truth_substep_ms": "ms",
    "stepping.truth_matvecs_per_substep": "count",
    "stepping.forecast_ms": "ms",
    "stepping.standard_ms": "ms",
    "observers.apply_calls_per_step": "count",
    "observers.apply_ms_per_call": "ms",
    "assimilate.analysis_ms.2a-explicit": "ms",
    "assimilate.analysis_ms.2a-implicit": "ms",
    "assimilate.analysis_ms.2b": "ms",
    "assimilate.analysis_iters.2a-explicit": "count",
    "assimilate.analysis_iters.2a-implicit": "count",
    "assimilate.analysis_iters.2b": "count",
    "assimilate.identity_ms_per_step": "ms",
    "experiments.advance_ms.chi-0": "ms",
    "experiments.advance_ms.2a-explicit-chi-1": "ms",
    "experiments.advance_ms.2a-explicit-chi-10000": "ms",
    "experiments.advance_ms.2a-implicit-chi-1": "ms",
    "experiments.advance_ms.2a-implicit-chi-10000": "ms",
    "experiments.advance_ms.standard-chi-10000": "ms",
    "experiments.advance_ms.2b-chi-10000": "ms",
    "experiments.ledger_ms_per_step": "ms",
    "fileio.write_ms": "ms",
    "fileio.bytes_written": "bytes",
    "condlab.assemble_ms": "ms",
    "condlab.estimate_condition_ms": "ms",
    "condlab.solve_step2_ms": "ms",
    "condlab.cg_iters": "count",
    "trace.coverage": "fraction",
    "trace.overhead_s": "s",
}

# direct children of a twin step that are not ledger work
_STEP_WORK = ("stepping.truth_substep", "observers.apply", "experiments.advance.")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    spans: list[list], runs: list[tuple[int, list[float]]], kind: str, untraced_walls: list[float]
) -> dict:
    """`runs` holds (root span index, step-clock marks) per traced run;
    `untraced_walls` the wall times of the untraced runs beside them."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def dur_ms(i):
        return 1e3 * (spans[i][2] - spans[i][1])

    def count(name):
        return len(by_name[name])

    def total_ms(name):
        return sum(dur_ms(i) for i in by_name[name])

    def mean_ms(name):
        return _ratio(total_ms(name), count(name))

    def values(name):  # a span whose call raised has no value
        return sum(spans[i][4] or 0 for i in by_name[name])

    ops = sum(len(marks) - 1 for _, marks in runs)
    nruns = len(runs)
    m = {
        "spectral.fft_calls_per_step": _ratio(count("spectral.fft"), ops),
        "spectral.fft_ms_per_step": _ratio(total_ms("spectral.fft"), ops),
        "spectral.advect_calls_per_step": _ratio(count("spectral.advect"), ops),
        "spectral.advect_ms_per_call": mean_ms("spectral.advect"),
        "solvers.gmres_solves_per_step": _ratio(count("solvers.gmres"), ops),
        "solvers.gmres_matvecs_per_solve": _ratio(values("solvers.gmres"), count("solvers.gmres")),
        "solvers.gmres_ms_per_solve": mean_ms("solvers.gmres"),
        "solvers.gmres_self_ms_per_solve": _ratio(
            1e3 * sum(own[i] for i in by_name["solvers.gmres"]), count("solvers.gmres")
        ),
        "stepping.truth_substep_ms": mean_ms("stepping.truth_substep"),
        "stepping.truth_matvecs_per_substep": _ratio(
            values("stepping.truth_substep"), count("stepping.truth_substep")
        ),
        "stepping.forecast_ms": mean_ms("stepping.forecast"),
        "stepping.standard_ms": mean_ms("stepping.standard"),
        "observers.apply_calls_per_step": _ratio(count("observers.apply"), ops),
        "observers.apply_ms_per_call": mean_ms("observers.apply"),
        "assimilate.identity_ms_per_step": _ratio(total_ms("assimilate.identity"), ops),
        "fileio.write_ms": _ratio(total_ms("fileio.write_csv"), nruns),
        "fileio.bytes_written": _ratio(values("fileio.write_csv"), nruns),
        "condlab.assemble_ms": mean_ms("condlab.assemble"),
        "condlab.estimate_condition_ms": mean_ms("condlab.estimate_condition"),
        "condlab.solve_step2_ms": mean_ms("condlab.solve_step2"),
        "condlab.cg_iters": _ratio(values("condlab.cg"), nruns),
    }

    # CG self time leaves out the operator applications traced as their
    # own layers (observers.apply, condlab.reduced_apply) and nested solves
    cg = by_name["solvers.cg"] + by_name["condlab.cg"]
    cg_iters = values("solvers.cg") + values("condlab.cg")
    m["solvers.cg_solves"] = _ratio(len(cg), nruns)
    m["solvers.cg_iters_per_solve"] = _ratio(cg_iters, len(cg))
    m["solvers.cg_ms_per_iter"] = _ratio(1e3 * sum(own[i] for i in cg), cg_iters)

    for scheme in ("2a-explicit", "2a-implicit", "2b"):
        name = f"assimilate.analysis.{scheme}"
        m[f"assimilate.analysis_ms.{scheme}"] = mean_ms(name)
        m[f"assimilate.analysis_iters.{scheme}"] = _ratio(values(name), count(name))
    for key in UNITS:
        if key.startswith("experiments.advance_ms."):
            m[key] = mean_ms("experiments.advance." + key.split(".", 2)[2])

    # ledger: each step's time left after its truth, observe and advance
    # children; coverage: share of run time inside the run's direct children
    ledger_ms = covered = run_time = 0.0
    for root, marks in runs:
        children = [i for i in range(root + 1, len(spans)) if spans[i][3] == root]
        covered += sum(dur_ms(i) for i in children)
        run_time += dur_ms(root)
        if kind == "twin":
            work = sum(dur_ms(i) for i in children if spans[i][0].startswith(_STEP_WORK))
            ledger_ms += 1e3 * (marks[-1] - marks[0]) - work
    m["experiments.ledger_ms_per_step"] = _ratio(ledger_ms, ops)
    m["trace.coverage"] = _ratio(covered, run_time)
    m["trace.overhead_s"] = (
        statistics.median(spans[root][2] - spans[root][1] for root, _ in runs)
        - statistics.median(untraced_walls)
        if runs
        else 0.0
    )
    return m
