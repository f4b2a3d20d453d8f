"""The CSV tables the experiment drivers emit.

All CSV output uses a single header line and %.17g number formatting,
which round-trips float64 exactly: rerunning a deterministic experiment
reproduces its CSVs byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .condlab import SweepRow
from .predictability import HorizonReport

LEDGER_COLUMNS = (
    "n",
    "t",
    "err_l2",
    "errtilde_l2",
    "grad_err_l2",
    "grad_errtilde_l2",
    "polarization_res",
    "formb_res",
    "gradmono_res",
)

HORIZON_COLUMNS = ("run", "T1", "T2", "epsilon", "lam", "doubling", "doubling_label",
                   "epsilon_horizon")

CONVERGENCE_COLUMNS = ("scheme", "k", "error", "rate")

CONDLAB_COLUMNS = ("n", "m", "space_kind", "k_chi", "cond", "cond_ratio", "deviation")


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def write_horizon_csv(path, rows: Iterable[tuple[str, HorizonReport]]):
    def cells():
        for run, rep in rows:
            yield (run, rep.window[0], rep.window[1], rep.epsilon, rep.lam,
                   rep.doubling, rep.doubling_label, rep.epsilon_horizon)

    write_csv(path, HORIZON_COLUMNS, cells())


def write_convergence_csv(path, tables: dict[str, list[tuple[float, float, float]]]):
    """tables: scheme -> rows of (k, error, rate); rate nan on the first row."""

    def cells():
        for scheme, rows in tables.items():
            for k, err, rate in rows:
                yield (scheme, k, err, rate)

    write_csv(path, CONVERGENCE_COLUMNS, cells())


def write_condlab_csv(path, rows: Iterable[SweepRow]):
    write_csv(
        path,
        CONDLAB_COLUMNS,
        ((r.fine_n, r.coarse_m, r.coarse_kind, r.k_chi, r.cond, r.cond_ratio, r.deviation)
         for r in rows),
    )


def write_plot_xy(path, xs, ys, comment: str | None = None):
    """Two-column plot-ready file, one curve per file."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("plot data must be two equal-length 1-d sequences")
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for x, y in zip(xs, ys):
            fh.write("%.17g %.17g\n" % (x, y))
