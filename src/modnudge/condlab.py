"""1D finite-element laboratory for the implicit analysis solve.

The analysis equation (v, phi) + k chi (I_H v, phi) = (vt, phi)
+ k chi (I_H u, phi) on a fine piecewise-linear space, with I_H the L2
projection onto a coarse space, reduces to the Schur-style SPD system

    [ Mh + k chi B (MH)^{-1} B^T ] c = rhs,

where Mh, MH are the fine/coarse mass matrices and B couples the two
bases.  This module assembles those operators exactly (two-point Gauss
on the union of element breakpoints) and factors them once per
assembly: banded Cholesky factors of Mh and MH, the coarse-by-fine
block MH^{-1} B^T, and, through the Sherman-Morrison-Woodbury identity,
a small coarse-sized Cholesky factor that applies the reduced inverse.
With those it applies the reduced operator and its inverse without an
inner iteration, estimates the condition number, and compares the
implicit solve (the factored inverse applied to the analysis right
side) to the closed-form gain update -- which is exact precisely when
the coarse space is nested in the fine one, so the composed projection
is idempotent.

Everything runs on [0, 1] with zero boundary values for the fine
space; a mesh is its sorted node array, its elements the gaps between
nodes.  Dimensions stay desk-scale so a dense eigenvalue oracle can
sit next to every iterative estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import cho_factor, cho_solve, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import LinearOperator, eigsh

from .solvers import solve_cg  # noqa: F401  (the benchmark tracer wraps condlab.solve_cg)

COARSE_KINDS = ("nested-linear", "piecewise-constant")
MAX_DIMENSION = 5000
_LANCZOS_TOL = 1e-8  # eigsh relative accuracy of each extreme eigenvalue

_GAUSS_NODES = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def _p1_mass(nodes: np.ndarray) -> sparse.csr_array:
    """Mass matrix of the zero-boundary P1 space (interior nodes only).

    Interior node i sits between elements i and i + 1, which add h/3 each
    to its diagonal entry; element i + 1 alone couples nodes i and i + 1.
    """
    w = np.diff(nodes)
    diag = w[:-1] / 3.0 + w[1:] / 3.0
    off = w[1:-1] / 6.0
    return sparse.diags_array([off, diag, off], offsets=[-1, 0, 1]).tocsr()


def _coupling(fine: np.ndarray, coarse: np.ndarray, kind: str) -> np.ndarray:
    """B_ij = (phi_i^fine, phi_j^coarse), exact two-point Gauss quadrature.

    Integrands are piecewise quadratics on the union of the two meshes'
    breakpoints, which two-point Gauss integrates exactly.  Each piece
    lies in one fine and one coarse element; it adds its integral of
    every product of the local basis functions there, piece by piece in
    increasing x.
    """
    nf = fine.size - 2
    cuts = np.union1d(fine, coarse)
    lo, hi = cuts[:-1], cuts[1:]
    xs = lo[:, None] + (hi - lo)[:, None] * np.asarray(_GAUSS_NODES)  # (pieces, 2)
    mid = 0.5 * (lo + hi)

    def local_hats(nodes):
        """Dof indices (pieces, 2) and values (pieces, 2, gauss) of the two
        hats on each piece's element: its left node falling, its right rising."""
        e = np.searchsorted(nodes, mid) - 1
        xl, xr = nodes[e][:, None], nodes[e + 1][:, None]
        values = np.stack([(xr - xs) / (xr - xl), (xs - xl) / (xr - xl)], axis=1)
        return np.stack([e - 1, e], axis=1), values

    rows, phi = local_hats(fine)
    if kind == "nested-linear":
        nc = coarse.size - 2
        cols, psi = local_hats(coarse)
    else:  # piecewise-constant: one indicator per coarse cell
        nc = coarse.size - 1
        cols = (np.searchsorted(coarse, mid) - 1)[:, None]
        psi = np.ones((lo.size, 1, 2))
    # (pieces, fine hat, coarse function): half width times the Gauss sum
    vals = 0.5 * (hi - lo)[:, None, None] * (
        phi[:, :, None, 0] * psi[:, None, :, 0] + phi[:, :, None, 1] * psi[:, None, :, 1]
    )
    i = np.broadcast_to(rows[:, :, None], vals.shape).ravel()
    j = np.broadcast_to(cols[:, None, :], vals.shape).ravel()
    keep = (i >= 0) & (i < nf) & (j >= 0) & (j < nc)
    b = np.zeros((nf, nc))
    np.add.at(b, (i[keep], j[keep]), vals.ravel()[keep])
    return b


def _banded_cholesky(m: sparse.csr_array) -> np.ndarray:
    """Upper banded Cholesky factor of a symmetric tridiagonal (or diagonal) matrix."""
    ab = np.zeros((2, m.shape[0]))
    ab[0, 1:] = m.diagonal(1)
    ab[1] = m.diagonal()
    return cholesky_banded(ab)


@dataclass
class FemOperatorSet:
    """Assembled pieces of the reduced analysis system on [0, 1]."""

    k_chi: float
    mh: sparse.csr_array
    mH: sparse.csr_array
    b: np.ndarray
    # factors, computed once per assembly and read by every apply and solve
    mh_chol: np.ndarray = field(init=False, repr=False)
    mH_chol: np.ndarray = field(init=False, repr=False)
    mH_inv_bt: np.ndarray = field(init=False, repr=False)  # MH^{-1} B^T
    mh_inv_b: np.ndarray = field(init=False, repr=False)  # Mh^{-1} B
    # cho_factor of K = MH + k chi B^T Mh^{-1} B; None when k chi = 0
    woodbury: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        self.mh_chol = _banded_cholesky(self.mh)
        self.mH_chol = _banded_cholesky(self.mH)
        self.mH_inv_bt = self.coarse_solve(self.b.T)
        self.mh_inv_b = self.fine_solve(self.b)
        self.woodbury = None
        if self.k_chi != 0.0:
            k_mat = self.mH.toarray() + self.k_chi * (self.b.T @ self.mh_inv_b)
            self.woodbury = cho_factor(k_mat)

    @property
    def dim(self) -> int:
        return self.mh.shape[0]

    def coarse_solve(self, rhs: np.ndarray) -> np.ndarray:
        """MH^{-1} rhs from the banded Cholesky factor."""
        return cho_solve_banded((self.mH_chol, False), rhs)

    def fine_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Mh^{-1} rhs from the banded Cholesky factor."""
        return cho_solve_banded((self.mh_chol, False), rhs)


def assemble(fine_n: int, coarse_m: int, kind: str, k_chi: float) -> FemOperatorSet:
    if kind not in COARSE_KINDS:
        raise ValueError(f"coarse kind must be one of {COARSE_KINDS}")
    if coarse_m > fine_n:
        raise ValueError("coarse mesh cannot be finer than the fine mesh")
    if kind == "nested-linear" and fine_n % coarse_m != 0:
        raise ValueError("nested coarse space needs the fine element count to be a multiple")
    if k_chi < 0:
        raise ValueError("k_chi must be nonnegative")
    if fine_n - 1 > MAX_DIMENSION:
        raise ValueError(f"fine dimension capped at {MAX_DIMENSION}")
    fine = np.linspace(0.0, 1.0, fine_n + 1)
    coarse = np.linspace(0.0, 1.0, coarse_m + 1)
    mh = _p1_mass(fine)
    if kind == "nested-linear":
        mH = _p1_mass(coarse)
    else:
        mH = sparse.diags_array([np.diff(coarse)], offsets=[0]).tocsr()
    b = _coupling(fine, coarse, kind)
    return FemOperatorSet(k_chi, mh, mH, b)


def reduced_apply(ops: FemOperatorSet, c: np.ndarray) -> np.ndarray:
    """[Mh + k_chi B MH^{-1} B^T] c, with MH^{-1} B^T precomputed."""
    out = ops.mh @ c
    if ops.k_chi != 0.0:
        out = out + ops.k_chi * (ops.b @ (ops.mH_inv_bt @ c))
    return out


def reduced_solve(ops: FemOperatorSet, x: np.ndarray) -> np.ndarray:
    """[Mh + k_chi B MH^{-1} B^T]^{-1} x by the Sherman-Morrison-Woodbury identity.

    S^{-1} x = Mh^{-1} x - k_chi Mh^{-1} B K^{-1} B^T Mh^{-1} x with the
    coarse-sized K = MH + k_chi B^T Mh^{-1} B, whose factor `assemble` keeps.
    """
    y = ops.fine_solve(x)
    if ops.k_chi == 0.0:
        return y
    return y - ops.k_chi * (ops.mh_inv_b @ cho_solve(ops.woodbury, ops.b.T @ y))


def solve_step2_fem(ops: FemOperatorSet, vtilde: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """The implicit analysis update in fine coefficients, by `reduced_solve`.

    `obs` holds the fine coefficients of the truth; its observation
    enters through the same coupling as the unknown.
    """
    rhs = ops.mh @ vtilde
    if ops.k_chi != 0.0:
        rhs = rhs + ops.k_chi * (ops.b @ ops.coarse_solve(ops.b.T @ obs))
    return reduced_solve(ops, rhs)


def project_to_coarse_and_back(ops: FemOperatorSet, w: np.ndarray) -> np.ndarray:
    """Fine coefficients of (fine L2 projection of) the coarse projection of w."""
    return ops.fine_solve(ops.b @ ops.coarse_solve(ops.b.T @ w))


def explicit_update_fem(ops: FemOperatorSet, vtilde: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Closed-form gain update pushed through the composed projection.

    Exact only when the composed projection is idempotent, i.e. the
    coarse space is nested; the deviation elsewhere is the object of
    study, not a bug.
    """
    gain = ops.k_chi / (1.0 + ops.k_chi)
    return vtilde + gain * project_to_coarse_and_back(ops, obs - vtilde)


def idempotency_defect(ops: FemOperatorSet, rng: np.random.Generator, probes: int = 5) -> float:
    """max ||P(Pw) - Pw||_Mh / ||Pw||_Mh over random probes, P the composed projection."""
    worst = 0.0
    for _ in range(probes):
        w = rng.standard_normal(ops.dim)
        pw = project_to_coarse_and_back(ops, w)
        ppw = project_to_coarse_and_back(ops, pw)
        num = mass_norm(ops, ppw - pw)
        den = mass_norm(ops, pw)
        if den > 0:
            worst = max(worst, num / den)
    return worst


def mass_norm(ops: FemOperatorSet, c: np.ndarray) -> float:
    """L2 norm of the fine function with coefficients c."""
    return float(np.sqrt(max(c @ (ops.mh @ c), 0.0)))


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionEstimate:
    lam_max: float
    lam_min: float

    @property
    def cond(self) -> float:
        return self.lam_max / self.lam_min


def dense_matrix(ops: FemOperatorSet) -> np.ndarray:
    """Dense reduced matrix for oracle checks; keep the dimension small."""
    if ops.dim > 600:
        raise ValueError("dense assembly is an oracle for small systems only")
    mh = ops.mh.toarray()
    if ops.k_chi == 0.0:
        return mh
    mH_inv_bt = np.linalg.solve(ops.mH.toarray(), ops.b.T)
    return mh + ops.k_chi * (ops.b @ mH_inv_bt)


def dense_condition(ops: FemOperatorSet) -> ConditionEstimate:
    vals = np.linalg.eigvalsh(dense_matrix(ops))
    return ConditionEstimate(float(vals[-1]), float(vals[0]))


def estimate_condition(ops: FemOperatorSet) -> ConditionEstimate:
    """Extreme eigenvalues of the reduced operator, hence its condition number.

    Lanczos takes the largest eigenvalue directly and the smallest as the
    inverse of the largest eigenvalue of `reduced_solve`, the factored
    inverse.  `dense_condition` is the oracle for desk-scale systems.
    """
    n = ops.dim
    fwd = LinearOperator((n, n), matvec=lambda x: reduced_apply(ops, x), dtype=float)
    inv = LinearOperator((n, n), matvec=lambda x: reduced_solve(ops, x), dtype=float)
    ncv = min(n, 64)
    # a fixed start vector: ARPACK's own random start makes the estimate
    # (and condlab.csv) differ between processes in the last digits
    v0 = np.random.default_rng(0).standard_normal(n)
    lam_max = float(eigsh(fwd, k=1, which="LA", tol=_LANCZOS_TOL, ncv=ncv, v0=v0,
                          return_eigenvectors=False)[0])
    inv_max = float(eigsh(inv, k=1, which="LA", tol=_LANCZOS_TOL, ncv=ncv, v0=v0,
                          return_eigenvectors=False)[0])
    return ConditionEstimate(lam_max, 1.0 / inv_max)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    fine_n: int
    coarse_m: int
    coarse_kind: str
    k_chi: float
    cond: float
    cond_ratio: float  # cond / (1 + k_chi)
    deviation: float  # explicit vs implicit, L2 of the fine function


def condition_sweep(
    fine_n: int,
    coarse_m: int,
    kind: str,
    k_chi_values,
    seed: int = 0,
) -> list[SweepRow]:
    rows = []
    rng = np.random.default_rng(seed)
    for k_chi in k_chi_values:
        ops = assemble(fine_n, coarse_m, kind, float(k_chi))
        est = estimate_condition(ops)
        vtilde = rng.standard_normal(ops.dim)
        obs = rng.standard_normal(ops.dim)
        v_imp = solve_step2_fem(ops, vtilde, obs)
        v_exp = explicit_update_fem(ops, vtilde, obs)
        rows.append(
            SweepRow(
                fine_n,
                coarse_m,
                kind,
                float(k_chi),
                est.cond,
                est.cond / (1.0 + float(k_chi)),
                mass_norm(ops, v_imp - v_exp),
            )
        )
    return rows
