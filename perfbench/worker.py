"""One workload in one fresh process: set up, run the subcommand in a
closed loop, check its outputs, and print one JSON line of raw samples.

    python3 perfbench/worker.py --workload twin-cellavg-n64 --seed 3 --seconds 30 --trace 0

`run.py` starts this script with BLAS/OpenMP threads pinned to 1 and
turns the samples into the benchmark's metrics.  `--setup-only` stops
after set-up and reports only its duration.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gates import check_condlab, check_twin, load_reference  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracer import Patches, StepClock, Tracer  # noqa: E402

# Each workload is one CLI subcommand with `--set` overrides.  `tiny`
# replaces the overrides in the smoke test.
WORKLOADS = {
    "twin-spectral-n128": {
        "command": "twin",
        "overrides": ("n=128", "T=0.3"),
        "tiny": ("n=32", "operator_scale=4", "T=0.1"),
    },
    "twin-cellavg-n64": {
        "command": "twin",
        "overrides": (
            "n=64", "scheme=2a-implicit", "operator=cell-average", "operator_scale=16", "T=0.3",
        ),
        "tiny": (
            "n=32", "scheme=2a-implicit", "operator=cell-average", "operator_scale=8", "T=0.1",
        ),
    },
    "condlab-nested": {
        "command": "condlab",
        "overrides": (),
        "tiny": ("fem_n=32", "fem_m=4", "kchi_list=1,100"),
    },
}

# reference.json holds twin outputs for config seeds 0..REFERENCE_SEEDS-1;
# `--seed` picks one of them, so every run is checked against a reference.
REFERENCE_SEEDS = 32

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def config_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def config_pairs(workload: str, seed: int, tiny: bool) -> tuple[str, ...]:
    spec = WORKLOADS[workload]
    return spec["tiny" if tiny else "overrides"] + (f"seed={config_seed(seed)}",)


def setup(workload: str, pairs) -> tuple[float, object]:
    """Seconds from before `import modnudge` to the first timed step.

    Covers the numpy/scipy imports, config parsing, and either grid,
    operator and initial fields (twin) or the first FEM assembly (condlab).
    """
    t0 = perf_counter()
    import modnudge
    from modnudge import cli  # noqa: F401  (the subcommand's whole import graph)
    from modnudge import condlab, config, experiments, observers, spectral

    if not Path(modnudge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported modnudge from {modnudge.__file__}, not from this checkout")
    cfg = config.apply_overrides(config.default_config("twin"), pairs)
    if WORKLOADS[workload]["command"] == "twin":
        grid = spectral.get_grid(cfg.n)
        observers.make_operator(grid, cfg.operator, cfg.operator_scale)
        experiments.twin_initial_fields(cfg)
    else:
        condlab.assemble(cfg.fem_n, cfg.fem_m, cfg.fem_kind, cfg.kchi_list[0])
    return perf_counter() - t0, cfg


def environment() -> dict:
    import numpy
    import scipy
    import scipy.fft

    root_parent = str(ROOT.parent)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": root_parent},
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "git_commit": commit,
    }


class Runner:
    """Runs the workload's subcommand once per call, exactly as a user would."""

    def __init__(self, workload: str, cfg, pairs, outdir: Path, reference):
        from modnudge import experiments

        self.kind = WORKLOADS[workload]["command"]
        self.cfg = cfg
        self.outdir = outdir
        self.argv = [self.kind, "--outdir", str(outdir)]
        for pair in pairs:
            self.argv += ["--set", pair]
        self.reference = reference
        self.variant_names = {
            (v.scheme, v.chi): v.name
            for v in experiments.twin_variants(cfg, include_alternates=True)
        }
        self.ops_per_run = cfg.steps if self.kind == "twin" else len(cfg.kchi_list)

    def run(self, tracer: Tracer | None = None) -> dict:
        from modnudge import cli
        from modnudge.solvers import KrylovError

        clock = StepClock()
        patches = Patches()
        result_box = []
        clock.install(patches, self.kind, result_box)
        if tracer is not None:
            tracer.install(patches, self.variant_names)
            root = tracer.open("run")
        error = None
        stderr = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(self.argv)
            if code != 0:
                error = f"subcommand exited with code {code}: {stderr.getvalue().strip()}"
        except KrylovError as exc:
            error = f"KrylovError: {exc}"
        finally:
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
            patches.restore()

        done = clock.completed()
        if error is not None:
            # the operation in progress failed; the ones after it never ran
            failed, msgs = {done + 1}, [error]
            attempted = min(done + 1, self.ops_per_run)
        else:
            attempted = self.ops_per_run
            if self.kind == "twin":
                failed, msgs = check_twin(self.outdir, result_box[0], self.cfg, self.reference)
            else:
                failed, msgs = check_condlab(self.outdir, self.cfg, self.reference)
        return {
            "traced": tracer is not None,
            "wall_s": wall,
            "step_ms": clock.latencies_ms(),
            "marks": clock.marks,
            "root": root if tracer is not None else None,
            "attempted": attempted,
            "failed": len(failed),
            "messages": msgs,
            "stop": error is not None,
        }


def measure(workload, seed, seconds, trace, tiny=False, reference=None, outdir=None) -> dict:
    """Set up, then run the subcommand back to back for about `seconds`.

    Another cycle (one run, or an untraced/traced pair with tracing)
    starts while the loop's time so far plus half a cycle is below
    `seconds`, so the loop ends as close to `seconds` as whole cycles
    allow; there is always at least one cycle.
    """
    pairs = config_pairs(workload, seed, tiny)
    setup_s, cfg = setup(workload, pairs)
    own_outdir = outdir is None
    if own_outdir:
        outdir = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, cfg, pairs, outdir, reference)
    tracer = Tracer() if trace else None

    runs = []
    cycles = []
    t_start = perf_counter()
    try:
        while True:
            c0 = perf_counter()
            runs.append(runner.run())
            if tracer is not None and not runs[-1]["stop"]:
                runs.append(runner.run(tracer))
            cycles.append(perf_counter() - c0)
            elapsed = perf_counter() - t_start
            if runs[-1]["stop"] or elapsed + statistics.median(cycles) / 2 >= seconds:
                break
    finally:
        if own_outdir:
            shutil.rmtree(outdir, ignore_errors=True)

    out = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "measured_s": perf_counter() - t_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        "runs": [{k: r[k] for k in ("traced", "wall_s", "step_ms", "attempted", "failed",
                                    "messages")} for r in runs],
    }
    if tracer is not None:
        traced = [r for r in runs if r["traced"]]
        out["per_layer"] = layer_metrics(
            tracer.spans,
            [(r["root"], r["marks"]) for r in traced],
            runner.kind,
            [r["wall_s"] for r in runs if not r["traced"]],
        )
        if not tiny:
            spans_dir = ROOT / ".perfbench_out"
            spans_dir.mkdir(exist_ok=True)
            path = spans_dir / f"spans-{workload}-seed{seed}.tsv"
            tracer.write(path, [m for r in traced for m in r["marks"]])
            out["spans_file"] = str(path.relative_to(ROOT))
    return out


def recorded_reference(workload: str, seed: int):
    """The outputs recorded for this workload (and seed, for twins)."""
    recorded = load_reference().get(workload)
    if recorded is not None and WORKLOADS[workload]["command"] == "twin":
        recorded = recorded["seeds"].get(str(config_seed(seed)))
    if recorded is None:
        raise SystemExit(f"reference.json has no outputs for {workload} at seed {seed}")
    return recorded


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes, no recorded reference")
    args = p.parse_args(argv)
    if args.setup_only:
        setup_s, _ = setup(args.workload, config_pairs(args.workload, args.seed, args.tiny))
        print(json.dumps({"setup_s": setup_s}))
        return 0
    reference = None if args.tiny else recorded_reference(args.workload, args.seed)
    out = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny, reference)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
