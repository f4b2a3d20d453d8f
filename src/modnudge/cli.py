"""Command-line front end: converge / twin / horizon / condlab / props.

Every subcommand reads an optional ``--config`` file (flat key=value
text), applies ``--set key=value`` overrides, and writes CSVs with a
one-line header into the output directory.  ``--plot-data`` additionally
emits two-column files, one curve per file.  The MODNUDGE_OUTDIR
environment variable overrides the output directory of every subcommand.

Identical config and seed produce bit-identical CSV outputs for a fixed
BLAS thread count (multithreaded reductions sum in a thread-dependent
order).  The CLI therefore runs BLAS and OpenMP on one thread unless the
caller sets one of ``BLAS_THREAD_VARS``; it sets them before numpy loads,
which is why the package's ``__init__`` imports no numpy.  The default
``condlab.csv`` does not depend on the thread count.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# BLAS and OpenMP read these once, as numpy loads; a process that has
# loaded numpy already is left as it is, environment included
if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

from . import condlab, fileio  # noqa: E402
from . import experiments as ex  # noqa: E402
from .config import (  # noqa: E402
    HORIZON_EPSILON,
    RunConfig,
    _parse_float_list,
    _parse_windows,
    apply_overrides,
    check_entries,
    default_config,
    default_windows,
    load_config,
    resolve_outdir,
)
from .predictability import ErrorSeries, horizon_report  # noqa: E402
from .solvers import KrylovError  # noqa: E402


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    parser.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override one config key (repeatable)",
    )
    parser.add_argument("--outdir", metavar="DIR", help="output directory")
    parser.add_argument(
        "--plot-data",
        action="store_true",
        help="also write two-column plot files, one curve per file",
    )


def _load(args, mode: str) -> RunConfig:
    cfg = default_config(mode)
    if args.config:
        cfg = load_config(args.config, base=cfg)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    if args.outdir:
        cfg = replace(cfg, outdir=args.outdir)
    return cfg


def cmd_converge(args) -> int:
    cfg = _load(args, "manufactured")
    schemes = args.schemes.split(",") if args.schemes else None
    ex.check_converge_run(cfg, schemes=schemes)
    outdir = resolve_outdir(cfg.outdir)
    tables = ex.run_converge(cfg, schemes=schemes)
    fileio.write_convergence_csv(
        outdir / "convergence.csv", {s: list(t.rows) for s, t in tables.items()}
    )
    for scheme, table in tables.items():
        print(f"{scheme}:")
        for k, err, rate in table.rows:
            rate_s = f"{rate:.3f}" if np.isfinite(rate) else "-"
            print(f"  k={k:<10g} error={err:.6e} rate={rate_s}")
        for note in table.notes:
            print(f"  note: {note}")
        if args.plot_data:
            ks = [r[0] for r in table.rows]
            errs = [r[1] for r in table.rows]
            fileio.write_plot_xy(
                outdir / f"plot_converge_{scheme}.dat",
                ks,
                errs,
                comment=f"L2 error at T={cfg.T:g} vs k, scheme {scheme}",
            )
    print(f"wrote {outdir / 'convergence.csv'}")
    return 0


def cmd_twin(args) -> int:
    cfg = _load(args, "twin")
    variants = ex.twin_variants(cfg, include_alternates=not args.no_alternates)
    ex.check_twin_run(cfg, variants)
    outdir = resolve_outdir(cfg.outdir)
    result = ex.run_twin(cfg, variants=variants)

    err_rows = []
    for name, vr in result.variants.items():
        for t, rel in zip(vr.series.times, vr.series.norms):
            err_rows.append((name, t, rel))
    fileio.write_csv(outdir / "twin_errors.csv", ("variant", "t", "rel_err"), err_rows)
    for name, vr in result.variants.items():
        fileio.write_csv(outdir / f"ledger_{name}.csv", fileio.LEDGER_COLUMNS, vr.ledger_rows)
        if args.plot_data:
            fileio.write_plot_xy(
                outdir / f"plot_twin_{name}.dat",
                vr.series.times,
                vr.series.norms,
                comment=f"relative L2 error vs time, {name}",
            )
    fileio.write_horizon_csv(
        outdir / "horizons.csv",
        [(name, rep) for name, vr in result.variants.items() for rep in vr.horizons],
    )

    t_tail = 0.6 * cfg.T
    print(f"twin run: n={cfg.n} nu={cfg.nu:g} k={cfg.k:g} T={cfg.T:g} seed={cfg.seed}")
    for name, vr in result.variants.items():
        avg = vr.mean_relative_error(t_tail, cfg.T)
        extra = ""
        if vr.decrease_checked:
            extra = (
                f"  analysis decreased the error on "
                f"{vr.decrease_checked - vr.decrease_violations}/{vr.decrease_checked} steps"
            )
        print(f"  {name:28s} mean rel err on [{t_tail:g},{cfg.T:g}] = {avg:.4e}{extra}")
    print(f"wrote {outdir / 'twin_errors.csv'}, per-variant ledgers, {outdir / 'horizons.csv'}")
    return 0


def _read_error_series(path) -> dict[str, ErrorSeries]:
    groups: dict[str, tuple[list, list]] = {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["variant", "t", "rel_err"]:
            raise ValueError(f"{path}: expected a twin_errors.csv with variant,t,rel_err")
        for line in fh:
            var, t, rel = line.strip().split(",")[:3]
            ts, rs = groups.setdefault(var, ([], []))
            ts.append(float(t))
            rs.append(float(rel))
    return {
        name: ErrorSeries(np.asarray(ts), np.asarray(rs)) for name, (ts, rs) in groups.items()
    }


def _snap(series: ErrorSeries, t: float) -> float:
    return float(series.times[int(np.argmin(np.abs(series.times - t)))])


def cmd_horizon(args) -> int:
    series_by_name = _read_error_series(args.series)
    if args.variant:
        missing = [v for v in args.variant if v not in series_by_name]
        if missing:
            raise ValueError(f"variants {missing} not present in {args.series}")
        series_by_name = {v: series_by_name[v] for v in args.variant}
    epsilons = _parse_float_list(args.epsilons)
    check_entries("--epsilons", epsilons)
    rows = []
    for name, series in series_by_name.items():
        windows = (
            _parse_windows(args.windows) if args.windows else default_windows(series.times[-1])
        )
        for t1, t2 in windows:
            t1s, t2s = _snap(series, t1), _snap(series, t2)
            for eps in epsilons:
                rep = horizon_report(series, t1s, t2s, eps)
                rows.append((name, rep))
                print(
                    f"{name:28s} window [{t1s:g},{t2s:g}] eps={eps:g}: "
                    f"lam={rep.lam:+.4f} {rep.doubling_label}={rep.doubling:.3f} "
                    f"tau_eps={rep.epsilon_horizon:.3f}"
                )
    outdir = resolve_outdir(args.outdir or ".")
    fileio.write_horizon_csv(outdir / "horizons.csv", rows)
    print(f"wrote {outdir / 'horizons.csv'}")
    return 0


def cmd_condlab(args) -> int:
    cfg = _load(args, "twin")
    outdir = resolve_outdir(cfg.outdir)
    rows = condlab.condition_sweep(
        cfg.fem_n, cfg.fem_m, cfg.fem_kind, cfg.kchi_list, seed=cfg.seed
    )
    fileio.write_condlab_csv(outdir / "condlab.csv", rows)
    for r in rows:
        print(
            f"n={r.fine_n} m={r.coarse_m} {r.coarse_kind:18s} kchi={r.k_chi:<8g} "
            f"cond={r.cond:.6e} cond/(1+kchi)={r.cond_ratio:.6f} deviation={r.deviation:.3e}"
        )
    if args.plot_data:
        fileio.write_plot_xy(
            outdir / f"plot_condlab_{cfg.fem_kind}.dat",
            [r.k_chi for r in rows],
            [r.cond_ratio for r in rows],
            comment=f"cond/(1+kchi) vs kchi, n={cfg.fem_n} m={cfg.fem_m} {cfg.fem_kind}",
        )
    print(f"wrote {outdir / 'condlab.csv'}")
    return 0


def cmd_props(args) -> int:
    report = ex.run_props(seed=args.seed, count=args.count)
    width = max(len(r.name) for r in report.results)
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        soft = "" if r.hard else " (informational)"
        print(f"{status}  {r.name:<{width}s}  {r.detail}{soft}")
    if args.outdir:
        outdir = resolve_outdir(args.outdir)
        fileio.write_csv(
            outdir / "props.csv",
            ("name", "passed", "hard", "detail"),
            [(r.name, r.passed, r.hard, r.detail) for r in report.results],
        )
        print(f"wrote {outdir / 'props.csv'}")
    if report.ok:
        print(f"all hard property suites passed (seed={report.seed}, count={report.count})")
        return 0
    print("HARD PROPERTY FAILURE")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modnudge",
        description="Modular nudging data assimilation for 2D incompressible flow: "
        "experiment drivers and property suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="temporal convergence study on the closed-form solution")
    _add_common(p)
    p.add_argument("--schemes", help="comma list (default: nudging schemes the operator admits)")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("twin", help="synthetic-truth assimilation experiment")
    _add_common(p)
    p.add_argument(
        "--no-alternates",
        action="store_true",
        help="only run the chi sweep of the configured scheme "
        "(skip the standard/2b comparison runs)",
    )
    p.set_defaults(func=cmd_twin)

    p = sub.add_parser("horizon", help="predictability horizons from a twin error series")
    p.add_argument("--series", required=True, metavar="CSV", help="twin_errors.csv from `twin`")
    p.add_argument("--variant", action="append", help="restrict to this variant (repeatable)")
    p.add_argument("--windows", help="FTLE windows, e.g. 10:15,15:20 (default: as for twin)")
    p.add_argument(
        "--epsilons",
        default=repr(HORIZON_EPSILON),
        help="comma list of relative-error thresholds (default %(default)s, as for twin)",
    )
    p.add_argument("--outdir", metavar="DIR", help="output directory (default .)")
    p.set_defaults(func=cmd_horizon)

    p = sub.add_parser("condlab", help="1D FEM conditioning sweep of the implicit analysis step")
    _add_common(p)
    p.set_defaults(func=cmd_condlab)

    p = sub.add_parser("props", help="run every identity/property suite; nonzero exit on failure")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100, help="instances per suite (default 100)")
    p.add_argument("--outdir", metavar="DIR", help="also write props.csv here")
    p.set_defaults(func=cmd_props)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KrylovError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, KrylovError) else 2


if __name__ == "__main__":
    sys.exit(main())
