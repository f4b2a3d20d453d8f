"""modnudge benchmark: one workload per call, metrics as one JSON line.

    python3 perfbench/run.py --workload twin-spectral-n128 --seed 0 --seconds 38 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (one client, closed loop, BLAS/OpenMP threads pinned to 1);
`--trace 0` also starts a few set-up-only processes, because `setup_s`
is the median over fresh processes.  The last line of standard output
is the result; the line before it holds the details (environment,
sample counts, fail_frac, gate messages).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from layers import UNITS as LAYER_UNITS  # noqa: E402
import worker  # noqa: E402
from worker import THREAD_VARS, WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # set-up-only processes per untraced run, besides the worker
WORKER_TIMEOUT_S = 170

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def worker_env() -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("MODNUDGE_OUTDIR", None)  # it would redirect the subcommand's CSVs
    env.pop("PYTHONPATH", None)  # the worker imports modnudge from this checkout only
    return env


def call_worker(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(out: dict, setup_samples: list[float]) -> dict:
    runs = [r for r in out["runs"] if not r["traced"]]
    steps = [ms for r in runs for ms in r["step_ms"]]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[-1],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def per_layer(out: dict) -> dict:
    return {k: {"value": out["per_layer"][k], "unit": u} for k, u in LAYER_UNITS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes, no recorded reference")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "modnudge" / "__init__.py").is_file():
        print(f"error: no modnudge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (
        ["--tiny"] if args.tiny else []
    )
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = call_worker(common + ["--seconds", "0", "--setup-only"])
            setup_samples.append(probe["setup_s"])
    out = call_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    setup_samples.append(out["setup_s"])

    attempted = sum(r["attempted"] for r in out["runs"])
    failed = sum(r["failed"] for r in out["runs"])
    untraced = [r for r in out["runs"] if not r["traced"]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": worker.config_seed(args.seed),
        "trace": args.trace,
        "env": {**out["env"], "loadavg_at_start": load_at_start},
        "fail_frac": failed / attempted,
        "runs": len(out["runs"]),
        "wall_s_samples": [r["wall_s"] for r in untraced],
        "step_samples": sum(len(r["step_ms"]) for r in untraced),
        "setup_s_samples": setup_samples,
        "measured_s": out["measured_s"],
        "messages": [m for r in out["runs"] for m in r["messages"]][:20],
    }
    if "spans_file" in out:
        details["spans_file"] = out["spans_file"]
    print(json.dumps({"details": details}))
    metrics = per_layer(out) if args.trace else end_to_end(out, setup_samples)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
