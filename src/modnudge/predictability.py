"""Error-growth diagnostics: FTLE, doubling time, predictability horizon.

Everything here works on a recorded series of error norms.  The
finite-time Lyapunov exponent over a window (T1, T2) is

    lambda = ln( ||e(T2)|| / ||e(T1)|| ) / (T2 - T1),

its doubling time is ln 2 / lambda (read as an error half-life when
lambda < 0), and the epsilon-horizon is the time for the error to grow
from its T1 level to a threshold epsilon at that exponential rate: zero
when the error is already at or above epsilon, infinite when it is below
and does not grow.
Smaller analysis error means smaller lambda means longer horizon; the
pairing of runs with assimilation on/off quantifies exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralVectorField, h1_seminorm, l2_norm


@dataclass(frozen=True)
class ErrorSeries:
    """Error norms sampled on a strictly increasing time grid."""

    times: np.ndarray
    norms: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        norms = np.asarray(self.norms, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "norms", norms)
        if times.ndim != 1 or times.shape != norms.shape:
            raise ValueError("times and norms must be 1-d arrays of equal length")
        if times.size < 2:
            raise ValueError("a series needs at least two samples")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(norms < 0) or not np.all(np.isfinite(norms)):
            raise ValueError("norms must be finite and nonnegative")

    def norm_at(self, t: float) -> float:
        """Value at a recorded time (tiny tolerance for accumulated roundoff)."""
        i = int(np.argmin(np.abs(self.times - t)))
        spacing = np.min(np.diff(self.times))
        if abs(self.times[i] - t) > 1e-6 * spacing:
            raise ValueError(f"time {t} is not a sample of this series")
        return float(self.norms[i])


@dataclass(frozen=True)
class HorizonReport:
    """FTLE over one window plus the horizon quantities derived from it."""

    lam: float
    doubling: float
    doubling_label: str  # "doubling-time" when growing, "error-half-life" when decaying
    epsilon: float
    epsilon_horizon: float
    window: tuple[float, float]


def ftle(series: ErrorSeries, T1: float, T2: float) -> float:
    """Finite-time Lyapunov exponent of the error over (T1, T2)."""
    if not T1 < T2:
        raise ValueError("window must satisfy T1 < T2")
    e1, e2 = series.norm_at(T1), series.norm_at(T2)
    if e1 == 0.0 or e2 == 0.0:
        raise ValueError("FTLE undefined: zero error norm at a window endpoint")
    return math.log(e2 / e1) / (T2 - T1)


def doubling_time(lam: float) -> float:
    """ln2 / |lambda|; infinite for a perfectly neutral trajectory."""
    if lam == 0.0:
        return math.inf
    return math.log(2.0) / abs(lam)


def epsilon_horizon(lam: float, err_T1: float, epsilon: float) -> float:
    """Time for the error to grow from err_T1 to epsilon at rate lam: 0 when
    it is already there, infinite when it never gets there (lam <= 0)."""
    if not 0 < epsilon < math.inf or not err_T1 > 0:
        raise ValueError("epsilon must be positive and finite, the starting error positive")
    if err_T1 >= epsilon:
        return 0.0
    if lam <= 0.0:
        return math.inf
    return math.log(epsilon / err_T1) / lam


def horizon_report(series: ErrorSeries, T1: float, T2: float, epsilon: float) -> HorizonReport:
    lam = ftle(series, T1, T2)
    label = "error-half-life" if lam < 0 else "doubling-time"
    return HorizonReport(
        lam=lam,
        doubling=doubling_time(lam),
        doubling_label=label,
        epsilon=epsilon,
        epsilon_horizon=epsilon_horizon(lam, series.norm_at(T1), epsilon),
        window=(T1, T2),
    )


# ---------------------------------------------------------------------------
# field length scales
# ---------------------------------------------------------------------------


def taylor_microscale(w: SpectralVectorField) -> float:
    """Average length scale ||w|| / ||grad w|| of a non-constant field."""
    denom = h1_seminorm(w)
    if denom == 0.0:
        raise ValueError("microscale undefined for a constant field")
    return l2_norm(w) / denom


@dataclass(frozen=True)
class MicroscaleCheck:
    lambda_t: float
    h_over_lambda: float
    satisfied: bool
    margin: float


def microscale_condition(
    w: SpectralVectorField,
    chi: float,
    nu: float,
    c1: float,
    h: float,
    grad_u_norm: float,
) -> MicroscaleCheck:
    """Gain condition with resolution measured against the error's own scale.

    Evaluates chi (1 - c1^2 (H / lambda_T)^2) - (2048/19683) nu^{-3}
    ||grad u||^4 and reports the margin; a diagnostic, not a gate.
    """
    lt = taylor_microscale(w)
    ratio = h / lt
    margin = chi * (1.0 - c1**2 * ratio**2) - (2048.0 / 19683.0) * grad_u_norm**4 / nu**3
    return MicroscaleCheck(lambda_t=lt, h_over_lambda=ratio, satisfied=margin > 0, margin=margin)
