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
division by known eigenvalues.  Once per mesh, shared by a sweep's
k chi points (`FemMesh`), it keeps the coupling B, the coarse-by-fine
block MH^{-1} B^T, the fine-by-coarse block Mh^{-1} B and the sine-basis
pieces of the condition estimate; once per k chi point it forms, through
the Sherman-Morrison-Woodbury identity, a small coarse-sized matrix
whose solve applies the reduced inverse.  With those it applies the
reduced operator without an inner iteration, takes the condition number
from the extreme eigenvalues of the reduced matrix (roots of small
secular equations in the fine sine basis, where the fine mass matrix is
diagonal and the coarse term a low-rank update), and compares the
implicit solve (the analysis increment through the coarse-sized solve)
to the closed-form gain update -- which is exact precisely when the
coarse space is nested in the fine one, so the composed projection is
idempotent.

Everything runs on [0, 1] with zero boundary values for the fine
space; a mesh is its sorted node array, its elements the gaps between
nodes.  Dimensions stay desk-scale (at most MAX_DIMENSION fine
unknowns): the coupling B and the blocks kept per mesh are dense
fine-by-coarse arrays, and the secular matrices grow towards fine-sized
ones as the coarse element count nears the fine one.  A dense oracle,
built another way, checks the eigenvalues on small systems.  numpy is
the only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
        """Dense matrix: oracles on small systems, and the coarse term of K and
        of the secular matrices."""
        n = self.size
        a = np.zeros((n, n))
        a.flat[:: n + 1] = self.diag
        a.flat[1 :: n + 1] = self.off
        a.flat[n :: n + 1] = self.off
        return a

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalue of sine mode k = 1..size, decreasing for hats."""
        k = np.arange(1, self.size + 1)
        return self.diag + 2.0 * self.off * np.cos(np.pi * k / (self.size + 1))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """This matrix's inverse applied to rhs, a vector or the columns of a block."""
        if not self.hats:
            return rhs / self.diag
        n = self.size
        # eigenvalues times 2 (n + 1), the square of the transform's norm
        scale = self.eigenvalues().reshape(n, *(1,) * (rhs.ndim - 1)) * (2.0 * (n + 1))
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
class FemMesh:
    """The k chi-independent half of the reduced system on one mesh pair,
    built once and shared, read-only, by a sweep's k chi points."""

    fine_n: int
    coarse_m: int
    kind: str

    def __post_init__(self):
        check_mesh(self.fine_n, self.coarse_m, self.kind)
        n, m = self.fine_n, self.coarse_m
        self.mh = UniformMass(n - 1, 1.0 / n)
        if self.kind == "nested-linear":
            self.mH = UniformMass(m - 1, 1.0 / m)
        else:
            self.mH = UniformMass(m, 1.0 / m, hats=False)
        self.b = _coupling(np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, 1.0, m + 1), self.kind)
        self.mH_inv_bt = self.mH.solve(self.b.T)  # MH^{-1} B^T
        self.mh_inv_b = self.mh.solve(self.b)  # Mh^{-1} B
        self.bt_mh_inv_b = self.b.T @ self.mh_inv_b  # K's coarse term per unit k chi
        self.mH_dense = self.mH.toarray()
        self.d = self.mh.eigenvalues()  # fine mass eigenvalues, decreasing
        for block in (self.b, self.mH_inv_bt, self.mh_inv_b, self.bt_mh_inv_b, self.mH_dense,
                      self.d):
            block.flags.writeable = False

    @cached_property
    def w(self) -> np.ndarray:
        """W = Q^T B, Q the orthonormal fine sine basis."""
        w = _sine_transform(self.b) / -math.sqrt(2.0 * self.fine_n)
        w.flags.writeable = False
        return w

    @cached_property
    def mu(self) -> float:
        """Largest eigenvalue of MH^-1/2 W^T W MH^-1/2: Weyl's bound on the
        coarse term's eigenvalues per unit k chi."""
        chol = np.linalg.cholesky(self.mH_dense)
        half = np.linalg.solve(chol, self.w.T @ self.w)
        return np.linalg.eigvalsh(np.linalg.solve(chol, half.T))[-1]


@dataclass
class FemOperatorSet:
    """One k chi point of the reduced analysis system on [0, 1]."""

    k_chi: float
    mesh: FemMesh
    # K = MH + k chi B^T Mh^{-1} B; None when k chi = 0
    woodbury: np.ndarray | None = field(init=False, repr=False)
    mh = property(lambda self: self.mesh.mh)
    mH = property(lambda self: self.mesh.mH)
    b = property(lambda self: self.mesh.b)
    mH_inv_bt = property(lambda self: self.mesh.mH_inv_bt)
    mh_inv_b = property(lambda self: self.mesh.mh_inv_b)
    dim = property(lambda self: self.mesh.fine_n - 1)

    def __post_init__(self):
        self.woodbury = None
        if self.k_chi != 0.0:
            self.woodbury = self.mesh.mH_dense + self.k_chi * self.mesh.bt_mh_inv_b


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


def assemble(
    fine_n: int, coarse_m: int, kind: str, k_chi: float, *, mesh: FemMesh | None = None
) -> FemOperatorSet:
    """The k chi point on this mesh pair; `mesh`, a FemMesh of the same
    (fine_n, coarse_m, kind), saves building one."""
    if mesh is not None and (mesh.fine_n, mesh.coarse_m, mesh.kind) != (fine_n, coarse_m, kind):
        raise ValueError(
            f"mesh built for fem_n={mesh.fine_n}, fem_m={mesh.coarse_m}, {mesh.kind}; "
            f"this point has fem_n={fine_n}, fem_m={coarse_m}, {kind}"
        )
    if not 0 <= k_chi < math.inf:
        raise ValueError(f"k_chi must be finite and nonnegative, got {k_chi!r}")
    return FemOperatorSet(k_chi, mesh or FemMesh(fine_n, coarse_m, kind))


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


_EPS = float(np.finfo(float).eps)
_ROOT_TOL = 1e-14  # relative Newton step at which a root has converged
_MAX_ROOT_STEPS = 200


class _SineForm:
    """The reduced matrix in the fine sine basis, D + k_chi W MH^{-1} W^T.

    D holds the fine mass eigenvalues d in decreasing order and W = Q^T B,
    with Q the orthonormal sine basis.  The update has rank at most m, the
    coarse dimension, so the eigenvalues of this n x n matrix are read off
    small secular matrices (Golub 1973; Bunch, Nielsen & Sorensen 1978):

    - G(lam) = MH + k_chi W^T (D - lam)^{-1} W, m x m, for lam > d[0].  It
      is singular exactly at the eigenvalues above d[0], increases with
      lam, and is positive definite once lam exceeds them all.
    - F_j(lam) = (lam - D_L) / k_chi - W_L G_A(lam)^{-1} W_L^T, j x j, for
      lam below every d outside L, the j smallest.  G_A is G over the other
      rows, positive definite there.  By inertia additivity (Haynsworth) on
      [[D - lam, W], [W^T, -MH / k_chi]], F_j has as many positive
      eigenvalues as the reduced matrix has eigenvalues below lam, and it
      increases with lam, with no pole left in that range.

    `upper` and `lower` return the eigenvalue of G or F_j that crosses zero
    at the extreme eigenvalue, its derivative in lam, and the rounding
    level of that value.
    """

    def __init__(self, ops: FemOperatorSet):
        self.k_chi = ops.k_chi
        self.d, self.w, self.mH = ops.mesh.d, ops.mesh.w, ops.mesh.mH_dense

    def _coupled(self, lam: float, rows: int) -> np.ndarray:
        """k_chi W^T (D - lam)^{-1} W over the first `rows` rows of W."""
        w = self.w[:rows]
        return self.k_chi * (w.T @ (w / (self.d[:rows] - lam)[:, None]))

    def upper(self, lam: float) -> tuple[float, float, float]:
        """Smallest eigenvalue of G(lam), lam > d[0], with its derivative
        k_chi |(lam - D)^{-1} W v|^2, v its unit eigenvector."""
        coupled = self._coupled(lam, self.d.size)
        vals, vecs = np.linalg.eigh(self.mH + coupled)
        z = (self.w @ vecs[:, 0]) / (self.d - lam)
        noise = _EPS * self.mH.shape[0] * (self.mH.max() + np.abs(coupled).max())
        return vals[0], self.k_chi * (z @ z), noise

    def _lower_matrix(self, lam: float, j: int):
        """F_j(lam), the number of rows of A, G_A^{-1} W_L^T and F_j's scale."""
        rows = self.d.size - j
        w_low = self.w[rows:]
        y = np.linalg.solve(self.mH + self._coupled(lam, rows), w_low.T)
        gap = (lam - self.d[rows:]) / self.k_chi
        coupled = w_low @ y
        scale = np.abs(gap).max() + np.abs(coupled).max()
        return np.diag(gap) - coupled, rows, y, scale

    def lower(self, lam: float, j: int) -> tuple[float, float, float]:
        """Largest eigenvalue of F_j(lam), with its derivative
        1 / k_chi + k_chi |(D_A - lam)^{-1} W_A G_A^{-1} W_L^T v|^2."""
        f, rows, y, scale = self._lower_matrix(lam, j)
        vals, vecs = np.linalg.eigh(f)
        z = (self.w[:rows] @ (y @ vecs[:, -1])) / (self.d[:rows] - lam)
        return vals[-1], 1.0 / self.k_chi + self.k_chi * (z @ z), _EPS * j * scale

    def count_below(self, lam: float) -> int:
        """How many eigenvalues of the reduced matrix lie below lam."""
        j = int(np.count_nonzero(self.d <= lam))
        if j == 0:  # the update is semidefinite: nothing lies below d[-1]
            return 0
        return int(np.count_nonzero(np.linalg.eigvalsh(self._lower_matrix(lam, j)[0]) > 0))


def _increasing_root(evaluate, lo: float, hi: float, lam: float, pole: float = -math.inf) -> float:
    """Zero in [lo, hi] of an increasing function, starting from lam.

    `evaluate` returns the value, its derivative and its rounding level.
    Each step is Newton's on (lam - pole) * value, whose root is the same
    and which stays nearly linear where the value has a simple pole at
    `pole` (-inf: none).  A step is clipped to the bracket, and one that
    gains nothing or fails to halve the previous step bisects instead.
    Stops when the value is down to its rounding level or the step or the
    bracket is below _ROOT_TOL relative.
    """
    last = math.inf
    for _ in range(_MAX_ROOT_STEPS):
        if hi <= lo:
            return hi
        val, slope, noise = evaluate(lam)
        if val > 0:
            hi = lam
        else:
            lo = lam
        step = val / (slope + val / (lam - pole))
        if abs(val) <= noise or abs(step) <= _ROOT_TOL * abs(lam):
            return lam - step
        nxt = min(max(lam - step, lo), hi)
        if nxt in (lam, pole) or abs(nxt - lam) > 0.5 * last:
            nxt = 0.5 * (lo + hi)
            if hi - lo <= _ROOT_TOL * abs(lam):
                return nxt
        last = abs(nxt - lam)
        lam = nxt
    raise ArithmeticError(f"no root in [{lo!r}, {hi!r}] after {_MAX_ROOT_STEPS} steps")


def estimate_condition(ops: FemOperatorSet) -> ConditionEstimate:
    """Extreme eigenvalues of the reduced operator, hence its condition number.

    S = Mh + k_chi B MH^{-1} B^T is Mh, diagonal in the fine sine basis,
    plus an update of rank at most m, so both extreme eigenvalues are
    roots of the small secular matrices of `_SineForm`, found to roundoff
    by safeguarded Newton steps; no n x n matrix is built on meshes with
    few coarse elements.
    - lambda_max is the root of G's smallest eigenvalue in Weyl's bracket
      [max(d_max, d_min + k_chi mu), d_max + k_chi mu], with mu the
      largest eigenvalue of W MH^{-1} W^T.
    - lambda_min is bracketed by counting the eigenvalues below the 2nd,
      4th, 8th, ... smallest fine mass eigenvalue, and is then the root of
      the largest eigenvalue of F_j, j the index that bracketed it: 2 when
      fem_m is small against fem_n, up to n as fem_m nears fem_n, where
      each step costs an n x n eigenvalue problem.
    At k_chi = 0 both are fine mass eigenvalues, in closed form.
    `dense_condition` is the independently built oracle for desk-scale
    systems.
    """
    if ops.k_chi == 0.0:
        d = ops.mesh.d
        return ConditionEstimate(float(d[0]), float(d[-1]))
    form = _SineForm(ops)
    d, k_chi, mu = form.d, ops.k_chi, ops.mesh.mu
    top = d[0] + k_chi * mu  # Weyl's bound, above lambda_min too
    lam_max = _increasing_root(form.upper, max(d[0], d[-1] + k_chi * mu), top, top, pole=d[0])

    n, lo, j = d.size, d[-1], min(2, d.size)
    while form.count_below(d[n - j]) == 0:
        lo = d[n - j]
        if j == n:
            break
        j = min(2 * j, n)
    hi = d[n - j] if d[n - j] > lo else top
    lam_min = _increasing_root(lambda lam: form.lower(lam, j), lo, hi, lo)
    return ConditionEstimate(float(lam_max), float(lam_min))


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
    """One row per k chi value, every point on the mesh the first one built."""
    rows = []
    rng = np.random.default_rng(seed)
    mesh = None
    for k_chi in k_chi_values:
        ops = assemble(fine_n, coarse_m, kind, float(k_chi), mesh=mesh)
        mesh = ops.mesh
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
