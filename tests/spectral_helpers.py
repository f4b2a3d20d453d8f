"""Field builders, probes and table readers that only the tests need."""

import math

import numpy as np

from modnudge.manufactured import _shape_values
from modnudge.spectral import ScalarField, SpectralVectorField, TorusGrid, _leray_coeffs, _readonly


def laplacian(f):
    """Spectral Laplacian of a scalar or vector field."""
    c = _readonly(-f.grid.k2 * f.coeffs)
    return type(f)(f.grid, c)


def leray_project(v: SpectralVectorField) -> SpectralVectorField:
    """L2-orthogonal projection onto divergence-free fields."""
    return SpectralVectorField(v.grid, _readonly(_leray_coeffs(v.grid, v.coeffs)))


def finest_rate(table) -> float:
    """The observed order of a convergence table's finest halving pair."""
    for k, err, rate in reversed(table.rows):
        if math.isfinite(rate):
            return rate
    return float("nan")


def mode_coefficient(coeffs: np.ndarray, kx: int, ky: int) -> complex:
    """Full-spectrum coefficient at integer mode (kx, ky) of a scalar's
    half-spectrum coefficient block."""
    n = coeffs.shape[0]
    if ky >= 0:
        return complex(coeffs[kx % n, ky])
    return complex(np.conj(coeffs[(-kx) % n, -ky]))


def single_mode_scalar(grid: TorusGrid, kx: int, ky: int, amplitude: complex = 1.0) -> ScalarField:
    """Real scalar field amplitude * exp(i k.x) + c.c. (2 Re[a e^{ik.x}])."""
    if kx == 0 and ky == 0:
        raise ValueError("use a constant field, not the zero mode")
    c = np.zeros(grid.coeff_shape, dtype=complex)
    if ky < 0:
        kx, ky, amplitude = -kx, -ky, np.conj(amplitude)
    if ky == 0:
        # both members of the conjugate pair live in the stored half
        c[kx % grid.n, 0] = amplitude
        c[(-kx) % grid.n, 0] = np.conj(amplitude)
    else:
        c[kx % grid.n, ky] = amplitude
    return ScalarField.from_coeffs(grid, c)


def curl(v: SpectralVectorField) -> ScalarField:
    """Scalar vorticity d(u2)/dx - d(u1)/dy."""
    g = v.grid
    c = 1j * g.kx * v.coeffs[1] - 1j * g.ky * v.coeffs[0]
    return ScalarField(g, _readonly(c))


def manufactured_forcing_fn(grid: TorusGrid, nu: float):
    """Time-callable forcing of the closed-form flow, for the truth integrator."""
    base = SpectralVectorField.from_grid(grid, _shape_values(grid))
    return lambda t: ((1.0 + nu) * math.exp(t)) * base
