"""Matrix-free Krylov solvers shared by the steppers and the FEM lab.

Two workhorses:

* `solve_cg` -- preconditioned conjugate gradients over arbitrary numpy
  arrays with a caller-supplied inner product, for the SPD analysis and
  Schur systems;
* `solve_gmres` -- left-preconditioned restarted GMRES (Saad & Schultz
  1986) for the nonsymmetric implicit momentum solve.  Spectral
  coefficient arrays are complex but the operator is only real-linear
  (inverse transforms pin the imaginary parts of the edge columns), so
  GMRES runs in real arithmetic on the float64 view of the arrays.  It
  follows scipy's `gmres` (1.17) algorithm -- inner test on the
  preconditioned residual with the gh-8400 adaptive tolerance, Givens
  rotations -- with classical Gram-Schmidt applied twice (Giraud, Langou
  & Rozloznik 2005), and is judged on its true residual, not on scipy's
  rounding: `tol` is relative to ||b|| and is tested on b - A x at the
  end of every restart cycle; that residual is what SolveInfo reports,
  and `maxiter` bounds the total number of operator applications.

Failures raise KrylovError rather than returning best-effort iterates:
a silent half-converged solve would poison every identity downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class KrylovError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance."""

    def __init__(self, message: str, residual: float = float("nan"), iterations: int = -1):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations

    def located(self, where: str) -> "KrylovError":
        """The same failure with `where` (run, step, time) put in front."""
        return KrylovError(f"{where}: {self}", self.residual, self.iterations)


# entries of the largest Krylov block a `solve_gmres` call has allocated
_block_size = 0


@dataclass
class SolveInfo:
    iterations: int
    residual: float


def solve_cg(
    apply_op: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    dot: Callable[[np.ndarray, np.ndarray], float] | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-12,
    maxiter: int = 500,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveInfo]:
    """Preconditioned CG for an SPD operator in the given inner product.

    Convergence is declared when ||b - A x|| <= tol * ||b|| in the norm
    induced by `dot` (plain real/complex-L2 dot when omitted).
    """
    if dot is None:
        dot = lambda u, v: float(np.real(np.vdot(u, v)))  # noqa: E731
    if precondition is None:
        precondition = lambda r: r  # noqa: E731

    bnorm = np.sqrt(dot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b), SolveInfo(0, 0.0)

    x = np.zeros_like(b) if x0 is None else np.array(x0, copy=True)
    r = b - apply_op(x)
    z = precondition(r)
    p = np.array(z, copy=True)
    rz = dot(r, z)
    resid = np.sqrt(dot(r, r))
    it = 0
    while resid > tol * bnorm:
        if it >= maxiter:
            raise KrylovError(
                f"CG stalled at relative residual {resid / bnorm:.3e} after {it} iterations",
                residual=resid / bnorm,
                iterations=it,
            )
        ap = apply_op(p)
        denom = dot(p, ap)
        if not np.isfinite(denom) or denom <= 0.0:
            raise KrylovError("CG hit a non-SPD direction (is the operator symmetric positive?)")
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        resid = np.sqrt(dot(r, r))
        if not np.isfinite(resid):
            raise KrylovError("CG produced a non-finite residual")
        z = precondition(r)
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return x, SolveInfo(it, resid / bnorm)


def solve_gmres(
    apply_op: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    maxiter: int = 500,
    restart: int = 64,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveInfo]:
    """Left-preconditioned restarted GMRES, run on the real view of `b`.

    `apply_op` and `precondition` map arrays shaped like `b` (float64 or
    complex128) to such arrays.  Converged means ||b - A x|| <= tol ||b||
    for the returned x; `maxiter` caps the operator applications.  The
    returned SolveInfo counts every application (initial residual,
    Arnoldi steps, the residual closing each cycle) and carries the
    final true relative residual.
    """
    b = np.ascontiguousarray(b)
    shape, dtype = b.shape, b.dtype
    bf = b.view(np.float64).ravel()
    n = bf.size
    bnorm = np.linalg.norm(bf)
    if bnorm == 0.0:
        return np.zeros_like(b), SolveInfo(0, 0.0)

    def field(v: np.ndarray) -> np.ndarray:
        return v.view(dtype).reshape(shape)

    def flat(a: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(a).view(np.float64).ravel()

    applications = 0

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        return flat(apply_op(field(v)))

    psolve = (lambda v: v) if precondition is None else (lambda v: flat(precondition(field(v))))

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=dtype).view(np.float64).ravel()
    atol = tol * bnorm
    eps = np.finfo(np.float64).eps
    restart = min(restart, n)
    # the inner test on the preconditioned residual, adapted between
    # restarts so that it tracks the true residual (scipy gh-8400)
    ptol_max_factor = 1.0
    ptol = np.linalg.norm(psolve(bf)) * min(ptol_max_factor, atol / bnorm)
    presid = 0.0
    # One block per solve, as in scipy: freeing a block this large raises
    # glibc's mmap threshold, so later solves reuse heap pages.  Krylov
    # vectors allocated one by one cost ~15k minor page faults per twin
    # step at n = 128 and ran 20-25% slower.  Every block has the largest
    # size any solve has needed, one size class, and a solve takes its
    # rows from the front: when solves of two lengths shared a process
    # (velocity solves beside half-length stream-scalar solves), blocks
    # sized per solve left the heap a hole for each size, and the n = 128
    # twin's peak RSS read 65.1-66.0 MB against 57.5-58.7 MB (perfbench
    # worker, one thread, 2-vCPU machine).  Every momentum solve now runs
    # on the stream scalar, so the solves of one subcommand run share one
    # length; the rule still keeps one size class where lengths mix.
    # A block kept alive for the whole process is worse: with no large
    # block freed the mmap threshold stays low, the kernels' temporaries
    # are faulted in again on every call, and the n = 128 twin step took
    # 48.7-51.4 ms against 35.4-36.9 ms.
    global _block_size
    _block_size = max(_block_size, (restart + 1) * n)
    V = np.empty(_block_size)[: (restart + 1) * n].reshape(restart + 1, n)
    h = np.zeros((restart, restart + 1))  # row j holds Hessenberg column j

    r = bf - matvec(x) if x.any() else bf
    rnorm = np.linalg.norm(r)
    converged = rnorm < atol
    breakdown = False
    # a cycle needs room for one Arnoldi step plus its closing residual
    while not converged and applications + 2 <= maxiter:
        V[0] = psolve(r)
        s0 = np.linalg.norm(V[0])
        V[0] *= 1 / s0
        S = np.zeros(restart + 1)
        S[0] = s0
        givens = []  # (c, s) of each column's rotation, as Python floats
        for col in range(restart):
            w = V[col + 1]
            w[:] = psolve(matvec(V[col]))
            h0 = np.linalg.norm(w)
            basis = V[: col + 1]
            proj = basis @ w  # classical Gram-Schmidt, applied twice
            w -= proj @ basis
            reproj = basis @ w
            w -= reproj @ basis
            h[col, : col + 1] = proj + reproj
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            if h1 <= eps * h0:  # the Krylov space is invariant: exact solution
                h[col, col + 1] = 0.0
                breakdown = True
            else:
                w *= 1 / h1
            # the earlier rotations, on Python floats: numpy scalars index slowly
            hc = h[col, : col + 2].tolist()
            for k, (c, s) in enumerate(givens):
                n0, n1 = hc[k], hc[k + 1]
                hc[k], hc[k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            f, g = hc[col], hc[col + 1]
            mag = math.hypot(f, g)
            c, s = (f / mag, g / mag) if mag else (1.0, 0.0)
            givens.append((c, s))
            hc[col], hc[col + 1] = mag, 0.0
            h[col, : col + 2] = hc
            t = -s * S[col]
            S[col], S[col + 1] = c * S[col], t
            presid = abs(t)
            if presid <= ptol or breakdown or applications + 2 > maxiter:
                break
        # back substitution; a zero pivot pseudo-solves the singular system
        if h[col, col] == 0:
            S[col] = 0
        y = S[: col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ V[: col + 1]
        r = bf - matvec(x)
        rnorm = np.linalg.norm(r)
        converged = rnorm <= atol
        if converged or breakdown or not np.isfinite(rnorm):
            break
        if presid <= ptol:  # inner test passed but the true residual did not
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)

    rel = float(rnorm / bnorm)
    if not converged:
        raise KrylovError(
            f"GMRES stopped at relative residual {rel:.3e} > tol {tol:.1e} after "
            f"{applications} of at most {maxiter} operator applications"
            + (" (Krylov breakdown)" if breakdown else ""),
            residual=rel,
            iterations=applications,
        )
    return field(x), SolveInfo(applications, rel)
