"""Discrete Fourier machinery: multipliers, derivatives, projections.

Convention: for samples f on a TorusGrid the coefficients are
c_xi = (1/N^d) sum_k f(x_k) exp(-2 pi i k.xi/N), so that
f(x) = sum_xi c_xi exp(i w_xi . x) with physical frequencies
w_xi = 2 pi xi / L.  Parseval then reads
quasi_norm(f, 2)^2 = L^d * sum |c_xi|^2, exactly on the grid.

Sampling operator: interp_V and interp_V_2d are Fourier folds, not dense
kernels.  Per axis the coefficients are folded mod n = L sigma and
weighted by phi(-x) exp(-i x sigma lam); one inverse FFT gives the
values.  The per-axis targets and weights (N entries each) are cached.
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

@lru_cache(maxsize=256)
def _interp_v_axis_matrix(grid: TorusGrid, sigma: float, lam: float, r: int):
    """Per-axis fold of the sampling operator: (targets, weights, n_samples).

    Coefficient xi of an axis goes to grid mode ``targets[xi]`` with factor
    ``weights[xi]``; both arrays have one entry per grid point and are
    read-only, because every caller with the same key shares them.

    With n = L sigma samples, Poisson summation turns the periodized
    kernel of phi(x) = (1 + i x^(2r+1)) cutoff(|x|) into the modes
    x_q = 2 pi q / n with |q| <= J = floor(n / 2 pi), and the sampling sum
    into a fold of the coefficients mod n.  So xi, centred mod n to
    q in (-n/2, n/2], lands on grid mode q mod N with weight
    phi(-x_q) exp(-i x_q sigma lam) exp(i w_xi lam); the cutoff makes that
    weight 0 for |q| > J.
    """
    n_samples_f = grid.period * sigma
    n_samples = int(round(n_samples_f))
    if abs(n_samples_f - n_samples) > 1e-9 or n_samples < 1:
        raise ParameterError(
            f"sampling rate sigma={sigma} incommensurate with period {grid.period}"
        )
    n = grid.points_per_axis
    xi = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    half = (n_samples - 1) // 2
    q = np.mod(xi + half, n_samples) - half
    x = 2.0 * math.pi * q / n_samples
    phi = (1.0 + 1j * (-x) ** (2 * r + 1)) * smooth_cutoff(np.abs(x))
    weights = phi * np.exp(-1j * x * sigma * lam) * np.exp(1j * grid.axis_frequencies() * lam)
    targets = np.mod(q, n)
    targets.flags.writeable = False
    weights.flags.writeable = False
    return targets, weights, n_samples


def _sample_axis(coeffs: np.ndarray, axis: int, targets: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """Weight the coefficients along ``axis`` and fold them onto ``targets``."""
    moved = np.moveaxis(coeffs, axis, 0)
    out = np.zeros_like(moved)
    np.add.at(out, targets, moved * weights.reshape((-1,) + (1,) * (moved.ndim - 1)))
    return np.moveaxis(out, 0, axis)


def _sampling_operator(f: GridFunction, sigma: float, lam: float, r: int) -> GridFunction:
    """The sampling operator on every axis: one transform, one fold per axis,
    one inverse."""
    if not (0 < sigma <= f.grid.nyquist):
        raise ParameterError("sampling band outside (0, nyquist]")
    axis_grid = TorusGrid(1, f.grid.points_per_axis, f.grid.period)
    targets, weights, _ = _interp_v_axis_matrix(axis_grid, sigma, lam, r)
    coeffs = transform(f).coefficients
    for axis in range(f.grid.dimension):
        coeffs = _sample_axis(coeffs, axis, targets, weights)
    return inverse(SpectralFunction(f.grid, coeffs, metadata={"interp_v": (sigma, lam, r)}))


def interp_V(f: GridFunction, sigma: float, lam: float = 0.0, r: int = 1) -> GridFunction:
    """Bandlimited quasi-interpolant from samples at spacing 1/sigma, offset lam.

    V f(x) = sum_j f(lam + j / sigma) K(sigma (x - lam) - j), with K the
    inverse transform of phi(x) = (1 + i x^(2r+1)) cutoff(|x|); it is
    applied as the Fourier fold of ``_interp_v_axis_matrix``.

    One-dimensional grids only; see interp_V_2d for the tensor composite.
    The result is entire of exponential type sigma and reproduces modes
    with |w| <= sigma/2 up to the factor (1 - i (w/sigma)^(2r+1)).
    """
    if f.grid.dimension != 1:
        raise ParameterError("interp_V is one-dimensional; use interp_V_2d")
    return _sampling_operator(f, sigma, lam, r)


def interp_V_2d(f: GridFunction, sigma: float, lam: float = 0.0, r: int = 1) -> GridFunction:
    """Axis-by-axis composition of the 1-D sampling operator on a 2-D grid:
    the per-axis fold of interp_V on both axes, between one transform and
    one inverse."""
    if f.grid.dimension != 2:
        raise ParameterError("interp_V_2d needs a two-dimensional grid")
    return _sampling_operator(f, sigma, lam, r)
