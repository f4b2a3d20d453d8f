"""1D finite-element laboratory for the implicit analysis solve.

The analysis equation (v, phi) + k chi (I_H v, phi) = (vt, phi)
+ k chi (I_H u, phi) on a fine piecewise-linear space, with I_H the L2
projection onto a coarse space, reduces to the Schur-style SPD system

    [ Mh + k chi B (MH)^{-1} B^T ] c = rhs,

where Mh, MH are the fine/coarse mass matrices and B couples the two
bases.  This module assembles those operators exactly (two-point Gauss
on the union of element breakpoints).  On the uniform meshes it builds,
both mass matrices are diagonal in the discrete sine basis, so their
solves are sine transforms (FFTs of the odd extension) around a
division by known eigenvalues.  Once per assembly it keeps the
coarse-by-fine block MH^{-1} B^T, the fine-by-coarse block Mh^{-1} B
and, through the Sherman-Morrison-Woodbury identity, a small
coarse-sized matrix whose solve applies the reduced inverse.  With
those it applies the reduced operator without an inner iteration, takes
the condition number from the extreme eigenvalues of the reduced matrix
(assembled densely from the same pieces, one LAPACK call), and compares
the implicit solve (the analysis increment through the coarse-sized
solve) to the closed-form gain update -- which is exact precisely when
the coarse space is nested in the fine one, so the composed projection
is idempotent.

Everything runs on [0, 1] with zero boundary values for the fine
space; a mesh is its sorted node array, its elements the gaps between
nodes.  Dimensions stay desk-scale (at most MAX_DIMENSION fine
unknowns), so the dense eigenvalue problem fits in memory, and a second
dense oracle, built another way, checks it on small systems.  numpy is
the only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solvers import solve_cg  # noqa: F401  (the benchmark tracer wraps condlab.solve_cg)

COARSE_KINDS = ("nested-linear", "piecewise-constant")
MAX_DIMENSION = 5000

_GAUSS_NODES = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def _sine_transform(x: np.ndarray) -> np.ndarray:
    """-2 times the DST-I along axis 0, -2 sum_j x_j sin(pi j k / (n + 1)) for
    j, k = 1..n: the imaginary part of the FFT of the odd extension
    [0, x, 0, -reversed x], laid out so that each column's transform runs
    over contiguous memory."""
    n = x.shape[0]
    odd = np.zeros((*x.shape[1:], 2 * n + 2))
    odd[..., 1 : n + 1] = x.T
    np.negative(x.T[..., ::-1], out=odd[..., n + 2 :])
    return np.fft.rfft(odd).imag[..., 1 : n + 1].T


@dataclass(frozen=True)
class UniformMass:
    """Mass matrix of a zero-boundary space on a uniform mesh of [0, 1].

    Hats (interior nodes of P1) give width * tridiag(1/6, 2/3, 1/6); cell
    indicators give width * I.  Both are diagonal in the sine basis, with
    eigenvalues diag + 2 off cos(pi k / (size + 1)), so a solve is two
    sine transforms around a division, vectorized over the columns of a
    block.  One step of iterative refinement, its residual from the
    tridiagonal product, brings the solve to about one rounding of the
    true solution, where the transforms alone leave two to three.
    """

    size: int
    width: float
    hats: bool = True

    @property
    def diag(self) -> float:
        return 2.0 * self.width / 3.0 if self.hats else self.width

    @property
    def off(self) -> float:
        return self.width / 6.0 if self.hats else 0.0

    def __matmul__(self, c: np.ndarray) -> np.ndarray:
        out = self.diag * c
        if self.hats:
            out[1:] += self.off * c[:-1]
            out[:-1] += self.off * c[1:]
        return out

    def toarray(self) -> np.ndarray:
        """Dense matrix: oracles on small systems, and the coarse term of K."""
        n = self.size
        a = np.zeros((n, n))
        a.flat[:: n + 1] = self.diag
        a.flat[1 :: n + 1] = self.off
        a.flat[n :: n + 1] = self.off
        return a

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """This matrix's inverse applied to rhs, a vector or the columns of a block."""
        if not self.hats:
            return rhs / self.diag
        n = self.size
        k = np.arange(1, n + 1).reshape(n, *(1,) * (rhs.ndim - 1))
        # eigenvalues times 2 (n + 1), the square of the transform's norm
        scale = (self.diag + 2.0 * self.off * np.cos(np.pi * k / (n + 1))) * (2.0 * (n + 1))
        x = _sine_transform(_sine_transform(rhs) / scale)
        return x + _sine_transform(_sine_transform(rhs - self @ x) / scale)


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


@dataclass
class FemOperatorSet:
    """Assembled pieces of the reduced analysis system on [0, 1]."""

    k_chi: float
    mh: UniformMass
    mH: UniformMass
    b: np.ndarray
    # computed once per assembly and read by every apply and solve
    mH_inv_bt: np.ndarray = field(init=False, repr=False)  # MH^{-1} B^T
    mh_inv_b: np.ndarray = field(init=False, repr=False)  # Mh^{-1} B
    # K = MH + k chi B^T Mh^{-1} B; None when k chi = 0
    woodbury: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        self.mH_inv_bt = self.mH.solve(self.b.T)
        self.mh_inv_b = self.mh.solve(self.b)
        self.woodbury = None
        if self.k_chi != 0.0:
            self.woodbury = self.mH.toarray()
            self.woodbury += self.k_chi * (self.b.T @ self.mh_inv_b)

    @property
    def dim(self) -> int:
        return self.mh.size


def check_mesh(fine_n: int, coarse_m: int, kind: str):
    """Refuse a mesh pair that `assemble` cannot build, before any work."""
    if kind not in COARSE_KINDS:
        raise ValueError(f"coarse kind must be one of {COARSE_KINDS}, got {kind!r}")
    if not 2 <= coarse_m <= fine_n:
        raise ValueError(
            f"need fine elements >= coarse elements >= 2, got fem_n={fine_n}, fem_m={coarse_m}"
        )
    if kind == "nested-linear" and fine_n % coarse_m != 0:
        raise ValueError(
            "nested coarse space needs the fine element count to be a multiple of the "
            f"coarse one, got fem_n={fine_n}, fem_m={coarse_m}"
        )
    if fine_n - 1 > MAX_DIMENSION:
        raise ValueError(f"fine dimension capped at {MAX_DIMENSION}, got fem_n={fine_n}")


def assemble(fine_n: int, coarse_m: int, kind: str, k_chi: float) -> FemOperatorSet:
    check_mesh(fine_n, coarse_m, kind)
    if k_chi < 0:
        raise ValueError("k_chi must be nonnegative")
    fine = np.linspace(0.0, 1.0, fine_n + 1)
    coarse = np.linspace(0.0, 1.0, coarse_m + 1)
    mh = UniformMass(fine_n - 1, 1.0 / fine_n)
    if kind == "nested-linear":
        mH = UniformMass(coarse_m - 1, 1.0 / coarse_m)
    else:
        mH = UniformMass(coarse_m, 1.0 / coarse_m, hats=False)
    return FemOperatorSet(k_chi, mh, mH, _coupling(fine, coarse, kind))


def reduced_apply(ops: FemOperatorSet, c: np.ndarray) -> np.ndarray:
    """[Mh + k_chi B MH^{-1} B^T] c, with MH^{-1} B^T precomputed."""
    out = ops.mh @ c
    if ops.k_chi != 0.0:
        out = out + ops.k_chi * (ops.b @ (ops.mH_inv_bt @ c))
    return out


def solve_step2_fem(ops: FemOperatorSet, vtilde: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """The implicit analysis update in fine coefficients, in increment form.

    [Mh + k_chi B MH^{-1} B^T] v = Mh vtilde + k_chi B MH^{-1} B^T obs has,
    by the Sherman-Morrison-Woodbury identity with the coarse-sized
    K = MH + k_chi B^T Mh^{-1} B that `assemble` keeps, the solution
    v = vtilde + k_chi Mh^{-1} B K^{-1} B^T (obs - vtilde).  A solve for v
    itself would cancel a k_chi-sized right side and lose eps * k_chi.
    `obs` holds the fine coefficients of the truth.
    """
    if ops.k_chi == 0.0:
        return vtilde.copy()
    gap = np.linalg.solve(ops.woodbury, ops.b.T @ (obs - vtilde))
    return vtilde + ops.k_chi * (ops.mh_inv_b @ gap)


def project_to_coarse_and_back(ops: FemOperatorSet, w: np.ndarray) -> np.ndarray:
    """Fine coefficients of (fine L2 projection of) the coarse projection of w."""
    return ops.mh_inv_b @ (ops.mH_inv_bt @ w)


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


def estimate_condition(ops: FemOperatorSet, out: np.ndarray | None = None) -> ConditionEstimate:
    """Extreme eigenvalues of the reduced operator, hence its condition number.

    S = Mh + k_chi B MH^{-1} B^T is built densely from the pieces
    `reduced_apply` uses, in one n x n buffer (`out` when given), and
    LAPACK's symmetric eigenvalue solver (numpy's `eigvalsh`, which reads
    the lower triangle of a copy) returns its spectrum, exact to roundoff.
    `dense_condition` is the independently built oracle for desk-scale
    systems.
    """
    n = ops.dim
    s = np.matmul(ops.b, ops.mH_inv_bt, out=out)
    s *= ops.k_chi
    s.flat[:: n + 1] += ops.mh.diag
    s.flat[1 :: n + 1] += ops.mh.off
    s.flat[n :: n + 1] += ops.mh.off
    vals = np.linalg.eigvalsh(s)
    return ConditionEstimate(float(vals[-1]), float(vals[0]))


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
    work = None
    for k_chi in k_chi_values:
        ops = assemble(fine_n, coarse_m, kind, float(k_chi))
        # every point builds its reduced matrix in one buffer: a fresh one,
        # freed together with eigvalsh's copy, would let the allocator return
        # both to the OS and fault their pages in again at the next point
        if work is None:
            work = np.empty((ops.dim, ops.dim))
        est = estimate_condition(ops, work)
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
