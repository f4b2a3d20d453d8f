"""End-to-end acceptance checks for the two-step nudging package.

Ten numbered tests, each printing one `[PASS]`/`[FAIL]` line with the
measured margins (visible with ``pytest -s``; pytest's own verbose output
gives the per-criterion verdict either way).  Two expensive fixtures are
shared module-wide: the manufactured convergence sweep and the long twin
run.  The whole file takes just under three minutes on a 2-vCPU machine,
dominated by the twin.
"""

import re
import time

import numpy as np
import pytest

from modnudge import condlab
from modnudge import experiments as ex
from modnudge import fileio
from modnudge.config import default_config

from spectral_helpers import finest_rate

POL_COL = fileio.LEDGER_COLUMNS.index("polarization_res")
GM_COL = fileio.LEDGER_COLUMNS.index("gradmono_res")

BASELINE = "chi-0"
NUDGED_LOW = "2a-explicit-chi-1"
NUDGED_HIGH = "2a-explicit-chi-10000"


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}", flush=True)


@pytest.fixture(scope="module")
def convergence():
    # n=64, nu=1, T=2, chi=1e3, spectral projection cutoff 8, k = 1/4 .. 1/64
    cfg = default_config("manufactured")
    t0 = time.perf_counter()
    tables = ex.run_converge(cfg)
    return tables, time.perf_counter() - t0


@pytest.fixture(scope="module")
def twin():
    # n=128, nu=1e-3, k=0.01, T=25, chi in {0, 1, 1e4}
    cfg = default_config("twin")
    t0 = time.perf_counter()
    result = ex.run_twin(cfg)
    return result, time.perf_counter() - t0


def test_01_temporal_convergence(convergence):
    tables, elapsed = convergence
    rates = {scheme: finest_rate(table) for scheme, table in tables.items()}
    ok = all(0.85 <= r <= 1.15 for r in rates.values()) and elapsed <= 180.0
    shown = ", ".join(f"{s}={r:.4f}" for s, r in rates.items())
    _line(1, "temporal convergence", ok, f"finest rates {shown}; {elapsed:.1f}s")
    assert set(rates) == {"2a-explicit", "2a-implicit", "2b", "standard"}
    for scheme, rate in rates.items():
        assert 0.85 <= rate <= 1.15, f"{scheme} rate {rate}"
    for table in tables.values():
        assert not table.notes, table.notes
    assert elapsed <= 180.0


def test_02_explicit_implicit_equivalence():
    # alternates the spectral projection and the cell average
    res = ex.explicit_implicit_equivalence(np.random.default_rng(20), count=100)
    _line(2, "explicit/implicit equivalence", res.passed, f"{res.detail} (limit 1e-10)")
    assert res.passed


def test_03_two_term_update_identity():
    res = ex.filter_update_identity(np.random.default_rng(30), count=100)
    _line(3, "two-term update identity", res.passed, res.detail)
    assert res.passed


def test_04_error_decrease_identity(twin):
    result, _ = twin
    worst = 0.0
    checked = violations = 0
    steps = None
    for name in (NUDGED_LOW, NUDGED_HIGH):
        vr = result.variants[name]
        steps = len(vr.ledger_rows)
        worst = max(worst, max(row[POL_COL] for row in vr.ledger_rows))
        checked += vr.decrease_checked
        violations += vr.decrease_violations
    ok = worst <= 1e-10 and violations == 0 and checked > 0 and steps == 2500
    _line(4, "error-decrease identity", ok,
          f"max residual {worst:.3e} over {steps} steps; strict decrease on "
          f"{checked - violations}/{checked} observable steps")
    assert steps == 2500
    assert worst <= 1e-10
    assert checked > 0 and violations == 0


def test_05_gradient_monotonicity(twin):
    result, _ = twin
    worst = 0.0
    for name in (NUDGED_LOW, NUDGED_HIGH):
        rows = result.variants[name].ledger_rows
        worst = max(worst, max(row[GM_COL] for row in rows))
    ok = worst <= 1e-10
    _line(5, "gradient monotonicity identity", ok,
          f"max residual {worst:.3e} per step, spectral projection")
    assert ok


def test_06_schur_conditioning():
    t0 = time.perf_counter()
    sweep = (1.0, 10.0, 100.0, 1000.0, 10000.0)
    rows = condlab.condition_sweep(256, 16, "nested-linear", sweep)
    ratios = [r.cond_ratio for r in rows]
    conds = [r.cond for r in rows]
    spread = max(ratios) / min(ratios)
    nondecreasing = all(b >= a * (1.0 - 1e-6) for a, b in zip(conds, conds[1:]))

    agree = 0.0
    for k_chi in (1.0, 100.0):
        ops = condlab.assemble(100, 10, "nested-linear", k_chi)
        it = condlab.estimate_condition(ops).cond
        dn = condlab.dense_condition(ops).cond
        agree = max(agree, abs(it - dn) / dn)
    elapsed = time.perf_counter() - t0

    ok = spread < 5.0 and nondecreasing and agree <= 1e-6 and elapsed <= 60.0
    _line(6, "analysis-operator conditioning", ok,
          f"cond/(1+kchi) in [{min(ratios):.4f},{max(ratios):.4f}] "
          f"(spread {spread:.3f}x), dense agreement {agree:.3e}; {elapsed:.1f}s")
    assert spread < 5.0
    assert nondecreasing, conds
    assert agree <= 1e-6
    assert elapsed <= 60.0


def test_07_twin_error_ordering(twin):
    result, elapsed = twin
    err = {
        name: result.variants[name].mean_relative_error(15.0, 25.0)
        for name in (BASELINE, NUDGED_LOW, NUDGED_HIGH)
    }
    ok = (
        err[NUDGED_HIGH] < err[NUDGED_LOW] < err[BASELINE]
        and err[NUDGED_HIGH] <= 0.1 * err[BASELINE]
        and elapsed <= 1200.0
    )
    _line(7, "twin error ordering", ok,
          f"avg[15,25]: chi=1e4 {err[NUDGED_HIGH]:.3e} < chi=1 {err[NUDGED_LOW]:.3e}"
          f" < chi=0 {err[BASELINE]:.3e}; {elapsed:.0f}s")
    assert err[NUDGED_HIGH] < err[NUDGED_LOW] < err[BASELINE]
    assert err[NUDGED_HIGH] <= 0.1 * err[BASELINE]
    assert elapsed <= 1200.0


def test_08_horizon_extension(twin):
    result, _ = twin
    off = {rep.window: rep for rep in result.variants[BASELINE].horizons}
    compared = 0
    failures = []
    for name in (NUDGED_LOW, NUDGED_HIGH):
        for rep in result.variants[name].horizons:
            base = off[rep.window]
            if rep.lam > 0.0 and base.lam > 0.0:
                compared += 1
                if rep.epsilon_horizon < base.epsilon_horizon:
                    failures.append((name, rep.window))
    ok = compared > 0 and not failures
    _line(8, "predictability-horizon extension", ok,
          f"tau_eps(on) >= tau_eps(off) on {compared - len(failures)}/{compared} "
          f"windows with both FTLEs positive")
    assert compared > 0, "no window had positive FTLEs for both runs"
    assert not failures, failures


def test_09_filter_property_suite():
    res = ex.filter_smoothing(np.random.default_rng(90), count=100)
    _line(9, "filter smoothing properties", res.passed, res.detail)
    assert res.passed


def test_10_l4_interpolation_ratio():
    res = ex.l4_interpolation_ratio(np.random.default_rng(100), count=100)
    # reported, not enforced: the ratio is informational by design
    _line(10, "L4 interpolation ratio (report)", True,
          res.detail + ("" if res.passed else " — EXCEEDED (informational)"))
    worst = float(re.search(r"max ratio (\S+)", res.detail).group(1))
    assert np.isfinite(worst) and worst > 0.0
