"""Discrete Fourier machinery: multipliers, derivatives, projections.

Convention: for samples f on a TorusGrid the coefficients are
c_xi = (1/N^d) sum_k f(x_k) exp(-2 pi i k.xi/N), so that
f(x) = sum_xi c_xi exp(i w_xi . x) with physical frequencies
w_xi = 2 pi xi / L.  Parseval then reads
quasi_norm(f, 2)^2 = L^d * sum |c_xi|^2, exactly on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, SmoothnessOrder, TorusGrid

#: fraction of the Nyquist frequency beyond which spectral mass counts as tail
TAIL_FRACTION = 0.75
#: relative l2 tail above which derivative results get a warning flag
TAIL_WARN = 1e-8


@dataclass(frozen=True)
class Direction:
    """Unit direction vector in R^d."""

    vector: tuple

    def __post_init__(self):
        v = tuple(float(c) for c in self.vector)
        if len(v) not in (1, 2):
            raise ParameterError("directions exist in d = 1 or 2 only")
        norm = math.hypot(*v)
        if abs(norm - 1.0) > 1e-12:
            raise ParameterError(f"direction must be a unit vector, |v| = {norm}")
        object.__setattr__(self, "vector", v)

    @classmethod
    def of(cls, *components) -> "Direction":
        norm = math.hypot(*components)
        if norm == 0:
            raise ParameterError("zero direction")
        return cls(tuple(c / norm for c in components))

    @property
    def dimension(self) -> int:
        return len(self.vector)


@dataclass
class SpectralFunction:
    """Fourier coefficients on a grid, FFT layout, optional band radius."""

    grid: TorusGrid
    coefficients: np.ndarray
    band_radius: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != self.grid.shape:
            raise ParameterError("coefficient shape does not match grid")
        self.coefficients = c
        if self.band_radius is not None:
            outside = frequency_magnitude(self.grid) > self.band_radius + 1e-9
            if np.any(np.abs(c[outside]) > 1e-12 * (np.abs(c).max() + 1e-300)):
                raise ParameterError("coefficients exceed the declared band radius")


def frequency_magnitude(grid: TorusGrid) -> np.ndarray:
    ws = grid.frequencies()
    if grid.dimension == 1:
        return np.abs(ws[0])
    return np.sqrt(ws[0] ** 2 + ws[1] ** 2)


def transform(f: GridFunction) -> SpectralFunction:
    n = f.grid.points_per_axis
    coeffs = np.fft.fftn(f.values) / float(n ** f.grid.dimension)
    return SpectralFunction(f.grid, coeffs, metadata=dict(f.metadata))


def inverse(F: SpectralFunction) -> GridFunction:
    n = F.grid.points_per_axis
    vals = np.fft.ifftn(F.coefficients) * float(n ** F.grid.dimension)
    return GridFunction(F.grid, vals, dict(F.metadata))


def _tail_fraction(F: SpectralFunction) -> float:
    c = F.coefficients
    mag = frequency_magnitude(F.grid)
    total = float(np.sum(np.abs(c) ** 2))
    if total == 0.0:
        return 0.0
    hi = float(np.sum(np.abs(c[mag >= TAIL_FRACTION * F.grid.nyquist]) ** 2))
    return math.sqrt(hi / total)


def spectral_tail_fraction(f: GridFunction) -> float:
    """Relative l2 mass at frequencies above TAIL_FRACTION * Nyquist."""
    return _tail_fraction(transform(f))


def apply_symbol(F: SpectralFunction, symbol: np.ndarray) -> GridFunction:
    """The multiplier primitive: inverse transform of F times ``symbol``.

    ``symbol`` is an array broadcastable to the grid shape.  Callers that
    apply many symbols to one function transform it once and call this
    for every symbol; the result carries F's metadata.
    """
    return inverse(SpectralFunction(F.grid, F.coefficients * symbol, metadata=F.metadata))


def multiplier_apply(f: GridFunction, symbol) -> GridFunction:
    """Apply a Fourier multiplier; ``symbol`` maps frequency arrays to values."""
    sym = np.asarray(symbol(*f.grid.frequencies()), dtype=complex)
    sym = np.broadcast_to(sym, f.grid.shape)
    if not np.all(np.isfinite(sym)):
        raise ParameterError("multiplier symbol has non-finite values")
    return apply_symbol(transform(f), sym)


def derivative_symbol(grid: TorusGrid, multi: tuple) -> np.ndarray:
    """Symbol prod_j (i w_j)^k_j of the whole-order derivative D^multi,
    the outer product of its per-axis factors."""
    w = grid.axis_frequencies()
    out = np.ones((), dtype=complex)
    for k in multi:
        out = np.multiply.outer(out, (1j * w) ** k)
    return out


def directional_symbol(grid: TorusGrid, zeta: Direction, order: SmoothnessOrder) -> np.ndarray:
    """Symbol (i (w, zeta))^alpha on the principal branch, 0 at w = 0."""
    if zeta.dimension != grid.dimension:
        raise ParameterError("direction dimension does not match the grid")
    dot = sum(z * w for z, w in zip(zeta.vector, grid.frequencies()))
    dot = np.broadcast_to(dot, grid.shape)
    return np.power(1j * dot, order.alpha)


def directional_derivative(f: GridFunction, zeta: Direction, alpha) -> GridFunction:
    """Fractional derivative of order alpha along zeta.

    Symbol (i (w, zeta))^alpha on the principal branch, set to 0 at the
    zero frequency.  A warning flag lands in the metadata when the input
    has significant spectral mass near the Nyquist frequency (the result
    is then dominated by barely-resolved modes).
    """
    order = alpha if isinstance(alpha, SmoothnessOrder) else SmoothnessOrder(alpha)
    symbol = directional_symbol(f.grid, zeta, order)
    F = transform(f)
    out = apply_symbol(F, symbol)
    tail = _tail_fraction(F)
    if tail > TAIL_WARN:
        out.metadata["spectral_tail_warning"] = tail
    return out


def fractional_laplacian(f: GridFunction, alpha) -> GridFunction:
    """Multiplier |w|^alpha (the Riesz symbol), zero at frequency zero."""
    order = alpha if isinstance(alpha, SmoothnessOrder) else SmoothnessOrder(alpha)

    def symbol(*ws):
        mag = frequency_magnitude(f.grid)
        return np.power(mag, order.alpha).astype(complex)

    return multiplier_apply(f, symbol)


def smooth_cutoff(s):
    """C^inf cutoff: 1 for s <= 1/2, exp(1 - 1/(1-(2s-1)^2)) inside (1/2, 1), 0 after."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s <= 0.5] = 1.0
    mid = (s > 0.5) & (s < 1.0)
    u = 2.0 * s[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - u * u))
    return out


def bandlimit_project(f: GridFunction, sigma: float) -> SpectralFunction:
    """Smooth low-pass to band radius sigma (cutoff value at |w|/sigma).

    Reproduces every mode with |w| <= sigma/2 exactly and vanishes beyond
    sigma.  sigma must not exceed the grid Nyquist frequency.
    """
    if not (0 < sigma <= f.grid.nyquist):
        raise ParameterError(
            f"band radius {sigma} outside (0, nyquist={f.grid.nyquist:.3f}]"
        )
    F = transform(f)
    window = smooth_cutoff(frequency_magnitude(f.grid) / sigma)
    return SpectralFunction(f.grid, F.coefficients * window, band_radius=sigma)


def sharp_project(f: GridFunction, sigma: float) -> SpectralFunction:
    """Hard truncation to the ball |w| <= sigma (best L_2 approximation)."""
    if not (0 < sigma <= f.grid.nyquist):
        raise ParameterError("band radius outside (0, nyquist]")
    F = transform(f)
    window = (frequency_magnitude(f.grid) <= sigma).astype(float)
    return SpectralFunction(f.grid, F.coefficients * window, band_radius=sigma)


def riesz_project(f: GridFunction, sigma: float) -> SpectralFunction:
    """First-order Riesz mean: coefficients weighted by (1 - (|w|/sigma)^2)_+."""
    if not (0 < sigma <= f.grid.nyquist):
        raise ParameterError("band radius outside (0, nyquist]")
    F = transform(f)
    window = np.clip(1.0 - (frequency_magnitude(f.grid) / sigma) ** 2, 0.0, None)
    return SpectralFunction(f.grid, F.coefficients * window, band_radius=sigma)


# ---------------------------------------------------------------------------
# sampling (quasi-interpolation) operator
# ---------------------------------------------------------------------------

def _periodized_kernel(u: np.ndarray, k: np.ndarray, n_samples: int, r: int) -> np.ndarray:
    """Exact periodization of K(t) = int phi(xi) exp(-i t xi) dxi.

    phi(xi) = (1 + i xi^(2r+1)) * cutoff(|xi|), support in [-1, 1]; the
    odd imaginary part makes K real but asymmetric.  Because the samples
    repeat with period n, Poisson summation turns sum_m K(t + m n) into a
    finite Fourier sum over the modes xi_j = 2 pi j / n inside [-1, 1].
    """
    j_max = int(math.floor(n_samples / (2.0 * math.pi)))
    xi = 2.0 * math.pi * np.arange(-j_max, j_max + 1) / n_samples
    phi = (1.0 + 1j * xi ** (2 * r + 1)) * smooth_cutoff(np.abs(xi))
    # t = u - k separates, so evaluate the Fourier sum as a factored
    # product instead of one giant (len(u), len(k), modes) outer array
    left = np.exp(-1j * np.outer(u, xi)) * phi
    right = np.exp(1j * np.outer(xi, k))
    return np.real(left @ right) * (2.0 * math.pi / n_samples)


def _eval_at_uniform(F: SpectralFunction, n_samples: int, shift: float) -> np.ndarray:
    """Trig-poly values at the n_samples uniform points j*L/n + shift (1-D)."""
    grid = F.grid
    w = grid.axis_frequencies()
    shifted = F.coefficients * np.exp(1j * w * shift)
    folded = np.zeros(n_samples, dtype=complex)
    idx = np.fft.fftfreq(grid.points_per_axis, d=1.0 / grid.points_per_axis).astype(int)
    np.add.at(folded, np.mod(idx, n_samples), shifted)
    return np.fft.ifft(folded) * n_samples


@lru_cache(maxsize=256)
def _interp_v_axis_matrix(grid: TorusGrid, sigma: float, lam: float, r: int):
    """(N x n_samples) kernel matrix of the 1-D sampling operator."""
    n_samples_f = grid.period * sigma
    n_samples = int(round(n_samples_f))
    if abs(n_samples_f - n_samples) > 1e-9 or n_samples < 1:
        raise ParameterError(
            f"sampling rate sigma={sigma} incommensurate with period {grid.period}"
        )
    x = grid.axis_coords()
    kernel = _periodized_kernel(
        sigma * (x - lam), np.arange(n_samples, dtype=float), n_samples, r
    )
    return kernel / (2.0 * math.pi), n_samples


def interp_V(f: GridFunction, sigma: float, lam: float = 0.0, r: int = 1) -> GridFunction:
    """Bandlimited quasi-interpolant from samples at spacing 1/sigma, offset lam.

    One-dimensional grids only; see interp_V_2d for the tensor composite.
    The result is entire of exponential type sigma and reproduces modes
    with |w| <= sigma/2 up to the factor (1 - i (w/sigma)^(2r+1)).
    """
    if f.grid.dimension != 1:
        raise ParameterError("interp_V is one-dimensional; use interp_V_2d")
    if not (0 < sigma <= f.grid.nyquist):
        raise ParameterError("sampling band outside (0, nyquist]")
    kernel, n_samples = _interp_v_axis_matrix(f.grid, sigma, lam, r)
    samples = _eval_at_uniform(transform(f), n_samples, lam)
    vals = kernel @ samples
    return GridFunction(f.grid, vals, {"interp_v": (sigma, lam, r)})


def interp_V_2d(f: GridFunction, sigma: float, lam: float = 0.0, r: int = 1) -> GridFunction:
    """Axis-by-axis composition of the 1-D sampling operator on a 2-D grid."""
    if f.grid.dimension != 2:
        raise ParameterError("interp_V_2d needs a two-dimensional grid")
    if not (0 < sigma <= f.grid.nyquist):
        raise ParameterError("sampling band outside (0, nyquist]")
    axis_grid = TorusGrid(1, f.grid.points_per_axis, f.grid.period)
    kernel, n_samples = _interp_v_axis_matrix(axis_grid, sigma, lam, r)
    vals = f.values
    for axis in (0, 1):
        moved = np.moveaxis(vals, axis, -1)
        rows = np.fft.fft(moved, axis=-1) / moved.shape[-1]
        w = axis_grid.axis_frequencies()
        shifted = rows * np.exp(1j * w * lam)[None, :]
        idx = np.mod(
            np.fft.fftfreq(moved.shape[-1], d=1.0 / moved.shape[-1]).astype(int),
            n_samples,
        )
        folded = np.zeros(moved.shape[:-1] + (n_samples,), dtype=complex)
        np.add.at(folded, (slice(None), idx), shifted)
        samples = np.fft.ifft(folded, axis=-1) * n_samples
        moved = samples @ kernel.T
        vals = np.moveaxis(moved, -1, axis)
    return GridFunction(f.grid, vals, {"interp_v": (sigma, lam, r)})
