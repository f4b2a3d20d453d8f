"""Closed-form flow for step-size studies.

    u(x, y, t) = e^t (cos y, sin x)

is divergence-free, zero-mean, and satisfies the momentum equation with
the body force f = (1 + nu) e^t (cos y, sin x): the time derivative
contributes u, the Laplacian contributes -u, and the self-advection
u . grad u = grad(e^{2t} cos x sin y) is a pure gradient that the
pressure absorbs.  Because every field in sight is a multiple of one
band-limited shape, the discrete steppers see an exactly linear
problem and their temporal order shows up clean.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import SpectralVectorField, TorusGrid


def _shape_values(grid: TorusGrid) -> np.ndarray:
    x, y = grid.mesh
    return np.stack([np.cos(y), np.sin(x)])


def exact_solution(grid: TorusGrid, t: float) -> SpectralVectorField:
    return math.exp(t) * SpectralVectorField.from_grid(grid, _shape_values(grid))


def forcing(grid: TorusGrid, t: float, nu: float) -> SpectralVectorField:
    return ((1.0 + nu) * math.exp(t)) * SpectralVectorField.from_grid(grid, _shape_values(grid))

