"""Fourier pseudo-spectral core for periodic 2D fields.

Fields live on the square torus [0, 2 pi)^2, sampled on an n x n uniform
grid.  A scalar field is represented by the half-spectrum rFFT
coefficients c[kx, ky] (kx runs over the full signed lattice, ky >= 0)
normalized so that

    f(x) = sum_k c_k exp(i k . x),          k an integer pair,

which makes the coefficients coincide with the analytic Fourier series
of the field.  Real-valuedness is structural: the missing half of the
spectrum is implied by Hermitian symmetry.  A `Field` is such a block of
coefficients on a grid and nothing more: the time level it belongs to is
kept by the run that steps it.  `ScalarField` and `SpectralVectorField`
differ only in the leading shape, () or (2,).  The transforms are
`numpy.fft` calls (numpy >= 2 ships the same pocketfft as scipy), laid
out so that they reproduce `scipy.fft` bit for bit at power-of-two n; a
test holds them to that.

Nonlinear terms follow the 2/3 rule: inputs are truncated to the square
band |k|_inf <= (n-1)//3 (in integer wavenumbers), products are formed on
the same grid, and the result is truncated back to the band, so the
retained modes of a product are exactly the true convolution.  The
advection operation uses the skew-symmetric average

    advect(a, w) = 1/2 [ (a . grad) w + div(a (x) w) ],

whose discrete energy pairing (advect(a, w), w) vanishes to roundoff by
construction.

Solver inner loops need only the projected term P div(a (x) w): the
gradient P removes is the pressure.  In 2D a zero-mean divergence-free
field is fixed by its curl, one scalar per mode, so `_advect_div_coeffs`
forms

    curl N = -kx^2 F(a1 w2) + ky^2 F(a2 w1) - kx ky F(a2 w2 - a1 w1)

from three product transforms, for any a and w, and returns the stream
scalar curl N / |k| of P N (below).  It works on the block of ky columns
0..(n-1)//3 that holds the 2/3 band: `to_values` of a narrower
coefficient block and `to_coeffs(..., band=True)` run their kx pass on
those columns only.  For divergence-free a, P N rebuilt from that scalar
equals the Leray projection of the skew form to roundoff, and tests pin
that down.

The same fact gives the stream map.  `_stream_to_velocity` takes a
scalar s to u = (i ky, -i kx) s / |k|, and `_velocity_to_stream` takes u
to s = curl(u) / |k|.  Mode by mode |u|^2 = |s|^2, so the map is an
isometry of the stored coefficients (edge columns and the Nyquist row
included, with no Hermitian weights), and the second map is its adjoint:
it inverts the first on zero-mean divergence-free fields and is zero on
gradients and on the mean, so their composition is the Leray projection
with the mean removed.  The Step-1 momentum solves iterate on s, and
the kernel's output is already in that form: P N = (i ky, -i kx)
curl N / |k|^2 is `_stream_to_velocity` of curl N / |k|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Sharpness of the 2D Ladyzhenskaya inequality ||w||_L4 <= C ||w||^(1/2) ||grad w||^(1/2).
LADYZHENSKAYA_CONST = 2.0 ** 0.25


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TorusGrid:
    """Uniform n x n grid on [0, 2 pi)^2 with its spectral machinery.

    Arrays of grid values are indexed [ix, iy]; coefficient arrays are
    indexed [kx, ky] with kx in fftfreq order and ky = 0..n//2.
    """

    n: int

    length = TWO_PI  # side of the torus, so wavenumbers are integers

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError(f"grid size must be even and >= 4, got n={self.n}")

    # -- lattice ---------------------------------------------------------

    @cached_property
    def x(self) -> np.ndarray:
        """1D node coordinates, shared by both axes."""
        return _readonly(np.arange(self.n) * (self.length / self.n))

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        X, Y = np.meshgrid(self.x, self.x, indexing="ij")
        return _readonly(X), _readonly(Y)

    @cached_property
    def kx_int(self) -> np.ndarray:
        """Signed integer wavenumbers along axis 0, fftfreq order."""
        return _readonly(np.fft.fftfreq(self.n, 1.0 / self.n).astype(np.int64))

    @cached_property
    def ky_int(self) -> np.ndarray:
        """Nonnegative integer wavenumbers along axis 1 (rFFT half)."""
        return _readonly(np.arange(self.n // 2 + 1, dtype=np.int64))

    @cached_property
    def kx(self) -> np.ndarray:
        """Physical wavenumbers along axis 0, broadcast shape (n, 1)."""
        return _readonly(self.kx_int[:, None].astype(float))

    @cached_property
    def ky(self) -> np.ndarray:
        """Physical wavenumbers along axis 1, broadcast shape (1, n//2+1)."""
        return _readonly(self.ky_int[None, :].astype(float))

    @cached_property
    def k2(self) -> np.ndarray:
        return _readonly(self.kx**2 + self.ky**2)

    @cached_property
    def inv_k2(self) -> np.ndarray:
        """1/|k|^2 with the k=0 entry set to zero (zero-mean convention)."""
        k2 = self.k2.copy()
        k2[0, 0] = 1.0
        out = 1.0 / k2
        out[0, 0] = 0.0
        return _readonly(out)

    @cached_property
    def dealias_cutoff(self) -> int:
        # Largest K with 3K < n: products of band-limited fields then
        # carry no aliasing back into the retained band.
        return (self.n - 1) // 3

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        kd = self.dealias_cutoff
        m = (np.abs(self.kx_int)[:, None] <= kd) & (self.ky_int[None, :] <= kd)
        return _readonly(m)

    @cached_property
    def band_width(self) -> int:
        """Number of ky columns, 0..dealias_cutoff, that hold the 2/3 band."""
        return self.dealias_cutoff + 1

    @cached_property
    def band_rows(self) -> np.ndarray:
        """1 on the kx rows of the 2/3 band, 0 elsewhere; shape (n, 1)."""
        return _readonly((np.abs(self.kx_int) <= self.dealias_cutoff)[:, None].astype(float))

    @cached_property
    def curl_weights(self) -> np.ndarray:
        """Weights of F(a1 w2), F(a2 w1), F(a2 w2 - a1 w1) in curl div(a (x) w)
        on the band block: -kx^2, ky^2, -kx ky, zero outside the band;
        shape (3, n, band_width)."""
        m, kx, ky = self.band_rows, self.kx, self.ky[:, : self.band_width]
        return _readonly(np.stack(np.broadcast_arrays(-kx * kx * m, ky * ky * m, -kx * ky * m)))

    @cached_property
    def inv_k(self) -> np.ndarray:
        """1/|k| with the k=0 entry set to zero."""
        return _readonly(np.sqrt(self.inv_k2))

    @cached_property
    def stream_weights(self) -> np.ndarray:
        """w = (i ky, -i kx) / |k| on the whole coefficient block, zero at
        k = 0: u = w s is the velocity of the stream scalar s (see
        `_stream_to_velocity`); shape (2, n, n//2+1)."""
        return _readonly(np.stack([1j * self.ky * self.inv_k, -1j * self.kx * self.inv_k]))

    @cached_property
    def hermitian_weights(self) -> np.ndarray:
        """Multiplicity of each stored mode in the full spectrum."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return _readonly(np.broadcast_to(w[None, :], self.coeff_shape).copy())

    @property
    def coeff_shape(self) -> tuple[int, int]:
        return (self.n, self.n // 2 + 1)

    @property
    def cell_area(self) -> float:
        return (self.length / self.n) ** 2

    # -- transforms ------------------------------------------------------

    def to_coeffs(self, values: np.ndarray, band: bool = False) -> np.ndarray:
        """Grid values -> normalized half-spectrum coefficients.

        With `band`, only the ky columns 0..dealias_cutoff are returned,
        and the kx pass runs on those columns alone.
        """
        half = np.fft.rfft(np.asarray(values, dtype=float), axis=-1, norm="forward")
        if band:
            half = half[..., : self.band_width]
        return np.fft.fft(half, axis=-2, norm="forward", out=half)

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Normalized half-spectrum coefficients -> grid values.

        Absent ky columns read as zeros, so a block narrower than n//2+1
        columns runs its kx pass on the given columns only.
        """
        half = np.fft.ifft(coeffs, axis=-2, norm="forward")
        return np.fft.irfft(half, n=self.n, axis=-1, norm="forward")


@lru_cache(maxsize=None)
def get_grid(n: int) -> TorusGrid:
    """The shared grid of size n (read-mostly registry)."""
    return TorusGrid(n)


def _symmetrize_edges(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """Enforce the Hermitian constraint internal to the ky=0 / ky=n/2 columns."""
    c = np.array(c, dtype=complex, copy=True)
    for j in (0, grid.n // 2):
        col = c[..., :, j]
        flipped = np.conj(np.roll(col[..., ::-1], 1, axis=-1))
        c[..., :, j] = 0.5 * (col + flipped)
    return c


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """Real field on a TorusGrid, stored spectrally with coefficients of
    shape `leading + grid.coeff_shape`; arithmetic keeps the class."""

    grid: TorusGrid
    coeffs: np.ndarray

    leading = ()

    @classmethod
    def from_grid(cls, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        shape = cls.leading + (grid.n, grid.n)
        if values.shape != shape:
            raise ValueError(f"expected values of shape {shape}, got {values.shape}")
        f = cls(grid, _readonly(grid.to_coeffs(values)))
        f.__dict__["values"] = _readonly(values.copy())
        return f

    @classmethod
    def from_coeffs(cls, grid: TorusGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        shape = cls.leading + grid.coeff_shape
        if coeffs.shape != shape:
            raise ValueError(f"expected coeffs of shape {shape}, got {coeffs.shape}")
        return cls(grid, _readonly(_symmetrize_edges(grid, coeffs)))

    @classmethod
    def zero(cls, grid: TorusGrid):
        return cls(grid, _readonly(np.zeros(cls.leading + grid.coeff_shape, dtype=complex)))

    @cached_property
    def values(self) -> np.ndarray:
        return _readonly(self.grid.to_values(self.coeffs))

    def __add__(self, other):
        return type(self)(self.grid, _readonly(self.coeffs + other.coeffs))

    def __sub__(self, other):
        return type(self)(self.grid, _readonly(self.coeffs - other.coeffs))

    def __mul__(self, s: float):
        return type(self)(self.grid, _readonly(self.coeffs * s))

    __rmul__ = __mul__


class ScalarField(Field):
    """Real scalar field; coeffs has shape (n, n//2+1)."""


class SpectralVectorField(Field):
    """Real 2-component vector field; coeffs has shape (2, n, n//2+1).

    Dynamical states are kept zero-mean and (for velocities) divergence
    free; both are invariants of the evolution operators rather than of
    the container, and diagnostics below let tests assert them.
    """

    leading = (2,)

    def mean(self) -> np.ndarray:
        return self.coeffs[:, 0, 0].real.copy()

    def max_divergence(self) -> float:
        """L2 norm of div(self); zero to roundoff for solenoidal fields."""
        return l2_norm(divergence(self))


def hermitian_defect(f: Field) -> float:
    """Max deviation of the stored coefficients from real-field symmetry.

    The rFFT layout makes most of the constraint structural; only the
    ky = 0 and ky = n/2 columns can drift, so that is what is measured.
    """
    grid = f.grid
    c = f.coeffs.reshape(-1, *grid.coeff_shape)
    worst = 0.0
    for j in (0, grid.n // 2):
        col = c[..., :, j]
        flipped = np.conj(np.roll(col[..., ::-1], 1, axis=-1))
        worst = max(worst, float(np.max(np.abs(col - flipped))))
    return worst


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def gradient(f: ScalarField) -> SpectralVectorField:
    g = f.grid
    c = np.stack([1j * g.kx * f.coeffs, 1j * g.ky * f.coeffs])
    return SpectralVectorField(g, _readonly(c))


def divergence(v: SpectralVectorField) -> ScalarField:
    g = v.grid
    c = 1j * g.kx * v.coeffs[0] + 1j * g.ky * v.coeffs[1]
    return ScalarField(g, _readonly(c))


def _leray_coeffs(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """Coefficients of the L2-orthogonal projection onto divergence-free fields.

    Mode-wise P = I - k k^T / |k|^2; the k = 0 (mean) mode is untouched,
    since constants are divergence free.
    """
    # c_j - k_j (k . c) / |k|^2, evaluated in place: no stack, two temporaries
    scale = grid.kx * c[0]
    scale += grid.ky * c[1]
    scale *= grid.inv_k2
    out = np.empty((2,) + scale.shape, dtype=scale.dtype)
    for j, kj in enumerate((grid.kx, grid.ky)):
        np.multiply(kj, scale, out=out[j])
        np.subtract(c[j], out[j], out=out[j])
    return out


def _stream_to_velocity(grid: TorusGrid, s: np.ndarray) -> np.ndarray:
    """The zero-mean divergence-free velocity u = (i ky, -i kx) s / |k|
    of the stream scalar s, whose curl is |k| s."""
    return grid.stream_weights * s


def _velocity_to_stream(grid: TorusGrid, u: np.ndarray) -> np.ndarray:
    """The stream scalar curl(u) / |k| of u: the adjoint of
    `_stream_to_velocity`, zero on gradients and on the mean.  The weights
    are imaginary, so the adjoint is -(w1 u1 + w2 u2)."""
    w = grid.stream_weights
    s = w[0] * u[0]
    s += w[1] * u[1]
    return np.negative(s, out=s)


# ---------------------------------------------------------------------------
# advection
# ---------------------------------------------------------------------------


def advect(a: SpectralVectorField, w: SpectralVectorField) -> SpectralVectorField:
    """Skew-symmetric advection 1/2 [ (a . grad) w + div(a (x) w) ].

    Both inputs are truncated to the 2/3 band before the products are
    formed, and the output is truncated back, so retained modes carry
    the exact convolution.  The advecting field `a` is expected to be
    divergence free; that is the caller's contract (it is what makes
    the two bracketed forms coincide), not enforced here.
    """
    g = a.grid
    if w.grid is not g and w.grid != g:
        raise ValueError("advect requires both fields on the same grid")
    ac = a.coeffs * g.dealias_mask
    wc = w.coeffs * g.dealias_mask
    out = _advect_skew_coeffs(g, ac, wc)
    return SpectralVectorField(g, _readonly(out))


def _advect_skew_coeffs(g: TorusGrid, ac: np.ndarray, wc: np.ndarray) -> np.ndarray:
    """Skew-form advection on raw (already band-limited) coefficients."""
    ikx, iky = 1j * g.kx, 1j * g.ky
    spec = np.concatenate([ac, wc, [ikx * wc[0], iky * wc[0], ikx * wc[1], iky * wc[1]]])
    A1, A2, W1, W2, W1x, W1y, W2x, W2y = g.to_values(spec)
    prods = np.stack(
        [
            A1 * W1x + A2 * W1y,  # (a . grad w)_1
            A1 * W2x + A2 * W2y,  # (a . grad w)_2
            A1 * W1,
            A2 * W1,
            A1 * W2,
            A2 * W2,
        ]
    )
    ph = g.to_coeffs(prods)
    div_form = np.stack([ikx * ph[2] + iky * ph[3], ikx * ph[4] + iky * ph[5]])
    out = 0.5 * (ph[0:2] + div_form)
    return out * g.dealias_mask


def _advect_div_coeffs(g: TorusGrid, a_values: np.ndarray, wc: np.ndarray) -> np.ndarray:
    """The stream scalar curl N / |k| of N = div(a (x) w), from precomputed
    grid values of a: `stream_weights` times it is P N.

    Returns the block of ky columns 0..dealias_cutoff, shape
    (n, band_width), zero on the kx rows outside the 2/3 band; every
    later column of the result is zero.  `a_values` must come from
    band-limited coefficients; `wc` is truncated here and need be
    neither band-limited nor divergence free.  The curl takes three
    product transforms.
    """
    b = g.band_width
    W = g.to_values(wc[..., :b] * g.band_rows)
    prods = np.empty((3,) + a_values.shape[1:])  # a1 w2, a2 w1, a2 w2 - a1 w1
    np.multiply(a_values[0], W[1], out=prods[0])
    np.multiply(a_values[1], W[0], out=prods[1])
    np.multiply(a_values[1], W[1], out=prods[2])
    np.multiply(a_values[0], W[0], out=W[0])
    np.subtract(prods[2], W[0], out=prods[2])
    ph = g.to_coeffs(prods, band=True)
    np.multiply(g.curl_weights, ph, out=ph)
    curl = ph[0] + ph[1]
    curl += ph[2]
    curl *= g.inv_k[:, :b]
    return curl


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------


def coeff_dot(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product on raw coefficient arrays (leading axes summed)."""
    s = np.sum(grid.hermitian_weights * (a * np.conj(b)).real)
    return float(grid.length**2 * s)


def inner(f: Field, g: Field) -> float:
    """L2 inner product over the torus (domain measure included)."""
    return coeff_dot(f.grid, f.coeffs, g.coeffs)


def l2_norm(f: Field) -> float:
    return math.sqrt(max(inner(f, f), 0.0))


def h1_seminorm(f: Field) -> float:
    w = f.grid.hermitian_weights * f.grid.k2
    s = np.sum(w * np.abs(f.coeffs) ** 2)
    return float(math.sqrt(f.grid.length**2 * s))


ZERO_MEAN_RTOL = 1e-12


def has_zero_mean(f: Field) -> bool:
    """Whether no component's mean coefficient exceeds ZERO_MEAN_RTOL times
    the field's largest coefficient: the one test of a zero mean, for the
    forcing a step takes and the field an H^-1 norm measures."""
    c = f.coeffs.reshape(-1, *f.grid.coeff_shape)
    return not np.max(np.abs(c[:, 0, 0])) > ZERO_MEAN_RTOL * (np.max(np.abs(c)) or 1.0)


def hminus1_norm(f: Field) -> float:
    """Norm of (-laplace)^(-1/2) f; requires a zero-mean field."""
    if not has_zero_mean(f):
        raise ValueError("H^-1 norm is defined here for zero-mean fields only")
    w = f.grid.hermitian_weights * f.grid.inv_k2
    s = np.sum(w * np.abs(f.coeffs) ** 2)
    return float(math.sqrt(f.grid.length**2 * s))


def l4_norm(f: Field) -> float:
    """L4 norm by grid quadrature (exact only for band-limited |f|^4)."""
    v = f.values
    mag2 = v[0] ** 2 + v[1] ** 2 if v.ndim == 3 else v**2
    return float(np.sum(mag2**2) * f.grid.cell_area) ** 0.25


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadyzhenskayaReport:
    ratio: float
    bound: float

    @property
    def satisfied(self) -> bool:
        return self.ratio <= self.bound


def check_ladyzhenskaya(w: SpectralVectorField) -> LadyzhenskayaReport:
    """Ratio ||w||_L4 / (||w||^(1/2) ||grad w||^(1/2)) against 2^(1/4).

    The sharp constant holds for compactly supported fields; periodic
    fields localized inside a sub-square probe it with a small
    quadrature slack.  The ratio is scale invariant.
    """
    l2 = l2_norm(w)
    h1 = h1_seminorm(w)
    if l2 == 0.0 or h1 == 0.0:
        raise ValueError("Ladyzhenskaya ratio undefined for constant or zero fields")
    return LadyzhenskayaReport(ratio=l4_norm(w) / math.sqrt(l2 * h1), bound=LADYZHENSKAYA_CONST)


# ---------------------------------------------------------------------------
# field builders (tests, property suites, experiments)
# ---------------------------------------------------------------------------


def random_smooth_scalar(
    grid: TorusGrid,
    rng: np.random.Generator,
    kmax: int | None = None,
    decay: float = 0.5,
) -> ScalarField:
    """Zero-mean random scalar with exponentially decaying spectrum."""
    if kmax is None:
        kmax = grid.dealias_cutoff
    shape = grid.coeff_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kk = np.maximum(np.abs(grid.kx_int)[:, None], grid.ky_int[None, :])
    c *= np.exp(-decay * kk) * (kk <= kmax)
    c[0, 0] = 0.0
    return ScalarField.from_coeffs(grid, c)


def random_divfree_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    kmax: int | None = None,
    decay: float = 0.5,
    normalize: float | None = 1.0,
) -> SpectralVectorField:
    """Zero-mean divergence-free random field (curl of a random stream function).

    The stream function keeps |k|_inf < n/2 whatever `kmax` asks: on the
    ky = n/2 column the Hermitian completion of its curl is not divergence
    free (the stored ky is +n/2, its mirror's -n/2).
    """
    kmax = grid.dealias_cutoff if kmax is None else min(kmax, grid.n // 2 - 1)
    psi = random_smooth_scalar(grid, rng, kmax=kmax, decay=decay)
    g = grid
    c = np.stack([1j * g.ky * psi.coeffs, -1j * g.kx * psi.coeffs])
    v = SpectralVectorField.from_coeffs(grid, c)
    if normalize is not None:
        amp = l2_norm(v)
        if amp > 0:
            v = v * (normalize / amp)
    return v


def bump_localized_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    center: tuple[float, float] | None = None,
    radius: float | None = None,
) -> SpectralVectorField:
    """Random vector field vanishing identically outside a disk.

    Built as the perpendicular gradient of bump * (smooth random scalar)
    with the bump's derivatives taken analytically, so the grid values
    are exactly zero outside the support and the sampled mean is tiny
    (and removed).  Divergence-free only to discretization accuracy;
    the localized fields exist to probe compact-support inequalities,
    which do not need solenoidality.
    """
    L = grid.length
    if center is None:
        center = (L / 2, L / 2)
    if radius is None:
        radius = L / 4
    X, Y = grid.mesh

    def torus_offset(coord, c0):
        d = coord - c0
        return (d + L / 2) % L - L / 2

    dx = torus_offset(X, center[0])
    dy = torus_offset(Y, center[1])
    rho = (dx**2 + dy**2) / radius**2
    inside = rho < 1.0 - 1e-9
    env = np.zeros_like(rho)
    env[inside] = np.exp(1.0 - 1.0 / (1.0 - rho[inside]))
    denv_drho = np.zeros_like(rho)
    denv_drho[inside] = -env[inside] / (1.0 - rho[inside]) ** 2
    env_x = denv_drho * (2.0 * dx / radius**2)
    env_y = denv_drho * (2.0 * dy / radius**2)

    carrier = random_smooth_scalar(grid, rng, kmax=max(2, grid.n // 8), decay=0.7)
    cv = carrier.values
    cgrad = grid.to_values(np.stack([1j * grid.kx * carrier.coeffs, 1j * grid.ky * carrier.coeffs]))
    phi_x = env_x * cv + env * cgrad[0]
    phi_y = env_y * cv + env * cgrad[1]
    vals = np.stack([phi_y, -phi_x])
    # remove the (tiny) sampled mean without breaking compact support:
    # subtract a multiple of the bump envelope, itself supported in the disk
    for comp in vals:
        comp -= (comp.mean() / env.mean()) * env
    return SpectralVectorField.from_grid(grid, vals)

