"""Spans around the calls into each modnudge layer, installed from outside.

The wrappers replace the module (or class) attributes that the layers
call, e.g. ``stepping.solve_gmres`` or ``condlab.solve_cg``, so nothing
under ``src/`` changes.  Spans are kept in memory as
``[name, start, end, parent, value]`` and written once, at the end of the
benchmark run.  Step ids are assigned afterwards from the step clock's
marks, and a span's self time is its duration minus the part its direct
children cover.
"""

from __future__ import annotations

import bisect
import functools
import os
from time import perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class StepClock:
    """Operation boundaries of one subcommand run, traced or not.

    Twin: ``run_twin`` entry, then one mark per ``progress`` callback, so
    mark i closes assimilation step i.  Condlab: one mark per ``assemble``
    (the start of each k*chi point), then one when the sweep returns.
    """

    def __init__(self):
        self.marks: list[float] = []

    def install(self, patches: Patches, workload_kind: str, results: list):
        """Mark operation boundaries; the run's TwinResult or sweep rows go into `results`."""
        from modnudge import condlab, experiments

        marks = self.marks
        if workload_kind == "twin":
            run_twin = experiments.run_twin

            @functools.wraps(run_twin)
            def timed_run_twin(cfg, variants=None, progress=None):
                marks.append(perf_counter())
                result = run_twin(cfg, variants, lambda n, total: marks.append(perf_counter()))
                results.append(result)
                return result

            patches.set(experiments, "run_twin", timed_run_twin)
        else:
            assemble, sweep = condlab.assemble, condlab.condition_sweep

            @functools.wraps(assemble)
            def timed_assemble(*args, **kwargs):
                marks.append(perf_counter())
                return assemble(*args, **kwargs)

            @functools.wraps(sweep)
            def timed_sweep(*args, **kwargs):
                rows = sweep(*args, **kwargs)
                marks.append(perf_counter())
                results.append(rows)
                return rows

            patches.set(condlab, "assemble", timed_assemble)
            patches.set(condlab, "condition_sweep", timed_sweep)

    def latencies_ms(self) -> list[float]:
        return [1e3 * (b - a) for a, b in zip(self.marks, self.marks[1:])]

    def completed(self) -> int:
        return max(len(self.marks) - 1, 0)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, value=None):
        span = self.spans[idx]
        span[2] = perf_counter()
        span[4] = value
        while self._stack and self._stack.pop() != idx:
            pass

    def wrap(self, fn, name, value_of=None, name_of=None):
        """Span `name` around every call of `fn`; `value_of(args, result)`
        stores one number or label on the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name_of(args) if name_of else name)
            value = None
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(args, result)
                return result
            finally:
                tracer.close(idx, value)

        return traced

    def install(self, patches: Patches, variant_names: dict):
        """Wrap every layer boundary the benchmark reports on."""
        from modnudge import assimilate, condlab, experiments, fileio, observers, spectral, stepping

        def wrap_attr(owner, attr, name, **kw):
            patches.set(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

        wrap_attr(spectral.TorusGrid, "to_values", "spectral.fft")
        wrap_attr(spectral.TorusGrid, "to_coeffs", "spectral.fft")
        wrap_attr(stepping, "_advect_div_coeffs", "spectral.advect")

        solve_gmres = stepping.solve_gmres
        tracer = self

        @functools.wraps(solve_gmres)
        def traced_gmres(apply_op, b, *args, precondition=None, **kwargs):
            apply_op = tracer.wrap(apply_op, "solvers.gmres.matvec")
            if precondition is not None:
                precondition = tracer.wrap(precondition, "solvers.gmres.precond")
            return solve_gmres(apply_op, b, *args, precondition=precondition, **kwargs)

        patches.set(
            stepping,
            "solve_gmres",
            self.wrap(traced_gmres, "solvers.gmres", value_of=lambda a, r: r[1].iterations),
        )
        wrap_attr(assimilate, "solve_cg", "solvers.cg", value_of=lambda a, r: r[1].iterations)
        wrap_attr(condlab, "solve_cg", "condlab.cg", value_of=lambda a, r: r[1].iterations)

        wrap_attr(
            stepping.TruthIntegrator,
            "step",
            "stepping.truth_substep",
            value_of=lambda a, r: a[0].last_iterations,
        )
        wrap_attr(experiments, "step1_forecast", "stepping.forecast")
        wrap_attr(experiments, "step_standard_nudging", "stepping.standard")

        wrap_attr(observers.ObservationOperator, "apply", "observers.apply")
        wrap_attr(observers.ObservationOperator, "apply_coeffs", "observers.apply")

        for scheme, fn in (
            ("2a-explicit", "step2a_explicit"),
            ("2a-implicit", "step2a_implicit"),
            ("2b", "step2b"),
        ):
            wrap_attr(
                experiments, fn, f"assimilate.analysis.{scheme}", value_of=lambda a, r: r.iterations
            )
        for fn in ("check_polarization_identity", "verify_form_b", "check_gradient_monotonicity"):
            wrap_attr(experiments, fn, "assimilate.identity")

        def variant_of(args):
            cfg = args[0].config
            return "experiments.advance." + variant_names[(cfg.scheme, cfg.chi)]

        wrap_attr(experiments, "advance", "experiments.advance", name_of=variant_of)
        wrap_attr(
            fileio, "write_csv", "fileio.write_csv", value_of=lambda a, r: os.path.getsize(a[0])
        )
        wrap_attr(condlab, "assemble", "condlab.assemble")
        wrap_attr(condlab, "estimate_condition", "condlab.estimate_condition")
        wrap_attr(condlab, "solve_step2_fem", "condlab.solve_step2")
        wrap_attr(condlab, "reduced_apply", "condlab.reduced_apply")

    def write(self, path, marks: list[float]):
        """One tab-separated line per span; the step id counts the step
        clock's marks up to the span's start, across all traced runs."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tstep\tvalue\n")
            for i, (name, t0, t1, parent, value) in enumerate(self.spans):
                step = bisect.bisect_right(marks, t0)
                fh.write(f"{i}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{step}\t{value}\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for name, t0, t1, parent, value in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own
