"""Correctness gates on the files each subcommand run writes.

Every check maps its failures onto operation indices (1-based twin step
or condlab k*chi point), so a failed check counts against the operations
it concerns.  Checks about a whole run (final error ordering, the
program's own decrease counter, the cond/(1+k chi) spread) count against
the run's last operation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

IDENTITY_TOL = 1e-10  # polarization, form-b and gradient residuals
REFERENCE_STEP_FACTOR = 10.0  # per-step errors agree to this many solver_tol
COND_REL_TOL = 1e-6
COND_RATIO_SPREAD = 5.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_twin_errors(outdir) -> dict[str, list[float]]:
    """twin_errors.csv as variant -> relative errors from t = 0 on."""
    out: dict[str, list[float]] = {}
    for row in _rows(Path(outdir) / "twin_errors.csv"):
        out.setdefault(row["variant"], []).append(float(row["rel_err"]))
    return out


def read_conds(outdir) -> list[tuple[float, float, float]]:
    """condlab.csv as (k_chi, cond, cond_ratio) rows."""
    return [
        (float(r["k_chi"]), float(r["cond"]), float(r["cond_ratio"]))
        for r in _rows(Path(outdir) / "condlab.csv")
    ]


def check_twin(outdir, result, cfg, reference: dict | None) -> tuple[set[int], list[str]]:
    """(failed step indices, messages) for one twin run.

    `result` is the TwinResult the run returned; `reference` maps variant
    -> recorded relative errors, or is None when none was recorded.
    """
    from modnudge.experiments import twin_variants

    steps = cfg.steps
    failed: set[int] = set()
    msgs: list[str] = []
    errors = read_twin_errors(outdir)

    def fail(step: int, msg: str):
        failed.add(step)
        if len(msgs) < 20:
            msgs.append(msg)

    for name, vr in result.variants.items():
        series = errors.get(name, [])
        if len(series) != steps + 1:
            fail(steps, f"{name}: twin_errors.csv has {len(series)} rows, expected {steps + 1}")
            continue
        var = vr.variant
        if var.scheme in ("2a-explicit", "2a-implicit") and var.chi > 0:
            ledger = _rows(Path(outdir) / f"ledger_{name}.csv")
            columns = ["polarization_res", "formb_res"]
            if cfg.operator == "spectral-projection":
                columns.append("gradmono_res")
            for i, row in enumerate(ledger, start=1):
                for col in columns:
                    if not float(row[col]) <= IDENTITY_TOL:
                        fail(i, f"{name} step {i}: {col} = {row[col]}")
            # The program exempts steps whose observed error is at roundoff
            # (OBS_ERROR_FLOOR), which the ledger CSV does not show, so its
            # own counter is the strict-decrease check.
            if vr.decrease_violations:
                fail(steps, f"{name}: {vr.decrease_violations} strict-decrease violations")
        if reference is not None:
            ref = reference.get(name)
            if ref is None or len(ref) != len(series):
                fail(steps, f"{name}: reference has no matching series")
                continue
            tol = REFERENCE_STEP_FACTOR * cfg.solver_tol
            for i, (got, want) in enumerate(zip(series, ref)):
                if not abs(got - want) <= tol:
                    fail(max(i, 1), f"{name} step {i}: rel_err {got!r} vs reference {want!r}")

    sweep = sorted(twin_variants(cfg), key=lambda v: v.chi, reverse=True)
    finals = [errors[v.name][-1] for v in sweep if v.name in errors]
    if len(finals) != len(sweep) or not all(a < b for a, b in zip(finals, finals[1:])):
        fail(steps, f"final errors not ordered by decreasing chi: {finals}")
    return failed, msgs


def check_condlab(outdir, cfg, reference: dict | None) -> tuple[set[int], list[str]]:
    """(failed point indices, messages) for one condlab run."""
    rows = read_conds(outdir)
    npoints = len(cfg.kchi_list)
    failed: set[int] = set()
    msgs: list[str] = []
    if len(rows) != npoints:
        return set(range(len(rows) + 1, npoints + 1)), [f"condlab.csv has {len(rows)} rows"]
    if reference is not None:
        for i, ((kchi, cond, _), want_kchi, want) in enumerate(
            zip(rows, reference["k_chi"], reference["cond"]), start=1
        ):
            if kchi != want_kchi or not abs(cond - want) <= COND_REL_TOL * abs(want):
                failed.add(i)
                msgs.append(f"k_chi={kchi:g}: cond {cond!r} vs reference {want!r}")
    ratios = [r[2] for r in rows]
    finite = all(math.isfinite(r) and r > 0 for r in ratios)
    if not (finite and max(ratios) / min(ratios) < COND_RATIO_SPREAD):
        failed.add(npoints)
        msgs.append(f"cond/(1+k chi) = {ratios}: spread not below {COND_RATIO_SPREAD}x")
    return failed, msgs
