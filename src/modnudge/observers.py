"""Interpolant/observation operators that feed the nudging terms.

Three families, all self-adjoint and non-expansive in L2:

* spectral projection -- keep modes with |k|_inf <= K_c, resolution
  H = L / (2 K_c);
* cell average -- mean over each cell of an m x m macro-grid,
  broadcast back, H = L / m;
* differential filter -- w_bar solving -H^2 lap(w_bar) + w_bar = w,
  i.e. the mode multiplier 1 / (1 + H^2 |k|^2).

The projections are idempotent; the filter is not, which is exactly
what makes the general-form analysis update differ from the shortcut
formula (see assimilate.verify_form_b).  Each factory sets that fact and
the analytic c1 bound on the operator it builds; `make_operator` picks
the factory for a run config's (kind, scale) from one table.

The spectral projection and the filter are mode multipliers.  The cell
average is not, but it is separable and shift-covariant by whole cells,
so it acts on the half-spectrum coefficients without any transform:
two small matrices fold the n x (n/2+1) block onto the m x m cell
lattice (box symbol times aliasing), the coarse block is completed with
its Hermitian mirror, and two more matrices unfold it (see
`_alias_fold`).  The result equals the block mean of the grid values,
transformed back, to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    Field,
    TorusGrid,
    _readonly,
    h1_seminorm,
    inner,
    l2_norm,
    random_divfree_field,
)

SPECTRAL_PROJECTION = "spectral-projection"
CELL_AVERAGE = "cell-average"
DIFFERENTIAL_FILTER = "differential-filter"


@dataclass(frozen=True)
class ObservationOperator:
    """One observation operator bound to a grid.

    `h` is the resolution length entering the convergence hypotheses.
    """

    kind: str
    grid: TorusGrid
    h: float
    idempotent: bool  # I_H^2 = I_H, which makes the explicit analysis update exact
    c1_bound: float  # analytic c1 in ||w - I_H w|| <= c1 H ||grad w||
    multiplier: np.ndarray | None = field(default=None, repr=False, compare=False)
    # cell average only: the factors (E_x, E_y, O_x, O_y, -q) of `_alias_fold`
    fold: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)

    # -- application -----------------------------------------------------

    def apply(self, w: Field) -> Field:
        if w.grid != self.grid:
            raise ValueError("field and observation operator live on different grids")
        return type(w)(self.grid, _readonly(self._apply(w.coeffs)))

    def apply_coeffs(self, c: np.ndarray) -> np.ndarray:
        """Array-level application on (..., n, n//2+1) coefficient blocks.

        The solver inner loops live on raw arrays; this is the same
        operator as `apply` without the field wrappers.  (`apply` does not
        call it, so a profiler that wraps both counts one call per use.)
        """
        return self._apply(c)

    def _apply(self, c: np.ndarray) -> np.ndarray:
        if self.fold is None:
            return c * self.multiplier
        ex, ey, ox, oy, neg = self.fold
        g = ex @ c @ ey
        return ox @ (g + np.conj(g[..., neg[:, None], neg])) @ oy

    def shifted_diagonal(self, base, scale: float):
        """Mode-space diagonal of base + scale I_H, where base is a mode multiplier.

        Exact when I_H is a Fourier multiplier (`diagonal`); for the cell
        average it is `base` alone, the part a preconditioner can invert.
        """
        return base + scale * self.multiplier if self.diagonal else base

    @property
    def diagonal(self) -> bool:
        """Whether I_H is a Fourier multiplier, so shifted systems solve by a divide."""
        return self.multiplier is not None

    @property
    def commutes_with_gradient(self) -> bool:
        """True when grad(I_H w) = I_H(grad w) mode by mode."""
        return self.diagonal


def make_spectral_projection(grid: TorusGrid, k_cutoff: int) -> ObservationOperator:
    if k_cutoff < 1:
        raise ValueError("spectral projection needs a cutoff of at least 1")
    mask = (np.abs(grid.kx_int)[:, None] <= k_cutoff) & (grid.ky_int[None, :] <= k_cutoff)
    h = grid.length / (2.0 * k_cutoff)
    return ObservationOperator(
        kind=SPECTRAL_PROJECTION,
        grid=grid,
        h=h,
        idempotent=True,
        c1_bound=1.0 / math.pi,
        multiplier=mask.astype(float),
    )


def make_cell_average(grid: TorusGrid, m: int) -> ObservationOperator:
    if m < 1 or grid.n % m:
        raise ValueError(f"cell count m={m} must divide the grid size n={grid.n}")
    return ObservationOperator(
        kind=CELL_AVERAGE,
        grid=grid,
        h=grid.length / m,
        idempotent=True,
        c1_bound=math.sqrt(2.0) / math.pi,  # Poincare on a square cell (diam / pi)
        fold=_alias_fold(grid, m),
    )


def _alias_fold(grid: TorusGrid, m: int) -> tuple[np.ndarray, ...]:
    """Factors of the cell average on half-spectrum coefficients.

    Averaging over b = n/m points multiplies mode k by the box symbol
    D(k) = (1/b) sum_{r<b} exp(2 pi i k r / n); sampling on the m-point
    cell lattice then aliases every k onto q = k mod m, and broadcasting
    back gives mode k the coarse coefficient of q times conj(D(k)).  Per
    axis that is E (fold, rows q) and O (unfold, columns q).  The ky
    half-spectrum holds ky = 0..n/2 only, so E_y weighs the self-conjugate
    columns ky = 0 and n/2 by 1/2 and the coarse coefficients are
    completed with their Hermitian mirror, F = G + conj(G[-q, -q]); for a
    non-Hermitian edge column this keeps its Hermitian part, which is the
    part an inverse real transform reads.
    """
    n, half = grid.n, grid.n // 2 + 1
    b = n // m
    kx = np.arange(n)
    box = np.exp(2j * np.pi * np.outer(kx, np.arange(b)) / n).mean(axis=1)
    box[(kx % m == 0) & (kx > 0)] = 0.0  # D vanishes on nonzero multiples of m
    alias = box[:, None] * (kx[:, None] % m == np.arange(m))  # D(k) at [k, k mod m]
    edge = np.ones(half)
    edge[[0, -1]] = 0.5
    ex = np.ascontiguousarray(alias.T)
    ey = edge[:, None] * alias[:half]
    ox = np.conj(alias)
    oy = np.ascontiguousarray(ox[:half].T)
    return ex, ey, ox, oy, (-np.arange(m)) % m


def make_differential_filter(grid: TorusGrid, h: float) -> ObservationOperator:
    if not h > 0:
        raise ValueError("filter length must be positive")
    mult = 1.0 / (1.0 + h**2 * grid.k2)
    return ObservationOperator(
        kind=DIFFERENTIAL_FILTER,
        grid=grid,
        h=h,
        idempotent=False,
        c1_bound=0.5,
        multiplier=mult,
    )


# kind -> (factory, whether the scale counts modes or cells and so must be whole)
_FACTORIES = {
    SPECTRAL_PROJECTION: (make_spectral_projection, True),
    CELL_AVERAGE: (make_cell_average, True),
    DIFFERENTIAL_FILTER: (make_differential_filter, False),
}


def make_operator(grid: TorusGrid, kind: str, scale: float) -> ObservationOperator:
    """Factory from (kind, scale) as they appear in run configs."""
    if kind not in _FACTORIES:
        raise ValueError(
            f"unknown observation operator kind {kind!r}; expected one of {', '.join(_FACTORIES)}"
        )
    factory, counts = _FACTORIES[kind]
    if counts and not float(scale).is_integer():
        raise ValueError(f"{kind} needs a whole-number operator_scale, got {scale!r}")
    return factory(grid, int(scale) if counts else float(scale))


def idempotency_defect(op: ObservationOperator, w: Field) -> float:
    """|| I_H(I_H w) - I_H w || / ||w||."""
    once = op.apply(w)
    twice = op.apply(once)
    denom = l2_norm(w)
    if denom == 0:
        return 0.0
    return l2_norm(twice - once) / denom


# ---------------------------------------------------------------------------
# filter regularity properties
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterPropertyReport:
    """The four smoothing estimates of the differential filter.

    Each entry is (lhs, rhs) of the inequality as measured; `ok`
    aggregates them with `slack` of headroom.
    """

    l2_contraction: tuple[float, float]
    h1_contraction: tuple[float, float]
    approximation: tuple[float, float]  # ||w - w_bar|| <= (H/2) ||grad w||
    positivity: float  # (w, w_bar), must be > 0 for w != 0

    def ok(self, slack: float = 1e-12) -> bool:
        pairs = [self.l2_contraction, self.h1_contraction, self.approximation]
        fine = all(lhs <= rhs * (1 + slack) + slack for lhs, rhs in pairs)
        return fine and self.positivity > 0.0


def filter_property_report(op: ObservationOperator, w: Field) -> FilterPropertyReport:
    if op.idempotent:
        raise ValueError(f"the smoothing estimates are for the differential filter, not {op.kind!r}")
    wb = op.apply(w)
    return FilterPropertyReport(
        l2_contraction=(l2_norm(wb), l2_norm(w)),
        h1_contraction=(h1_seminorm(wb), h1_seminorm(w)),
        approximation=(l2_norm(w - wb), 0.5 * op.h * h1_seminorm(w)),
        positivity=inner(w, wb),
    )


# ---------------------------------------------------------------------------
# interpolation-constant estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxConstants:
    """Empirical interpolation constant ||w - I_H w|| <= c1 H ||grad w||."""

    c1: float
    analytic_bound: float
    samples: int


def estimate_c1(
    op: ObservationOperator,
    rng: np.random.Generator,
    ensemble: int = 64,
) -> ApproxConstants:
    """Max of ||(I - I_H) w|| / (H ||grad w||) over random smooth fields."""
    if ensemble < 10:
        raise ValueError("need at least 10 sample fields for a meaningful estimate")
    worst = 0.0
    for _ in range(ensemble):
        w = random_divfree_field(op.grid, rng, decay=rng.uniform(0.2, 1.0))
        g = h1_seminorm(w)
        if g == 0:
            continue
        worst = max(worst, l2_norm(w - op.apply(w)) / (op.h * g))
    return ApproxConstants(c1=worst, analytic_bound=op.c1_bound, samples=ensemble)
