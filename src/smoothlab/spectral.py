"""Discrete Fourier machinery: multipliers, derivatives, band windows.

Convention: for samples f on a TorusGrid the coefficients are
c_xi = (1/N^d) sum_k f(x_k) exp(-2 pi i k.xi/N), so that
f(x) = sum_xi c_xi exp(i w_xi . x) with physical frequencies
w_xi = 2 pi xi / L.  Parseval then reads
quasi_norm(f, 2)^2 = L^d * sum |c_xi|^2, exactly on the grid.

A spectrum is a read-only coefficient array in FFT layout.  A function's
spectrum is computed once, on first use: ``transform`` keeps it on the
(immutable) GridFunction, so every multiplier applied to one function --
``apply_symbol``, each block of ``step_norms``, the band windows of
``band_windows`` and the sampling fold -- shares one forward FFT, and
callers pass the function, never its coefficients.  ``synthesize`` is
the one way back from coefficients to samples: the multiplier, the fold
and every function built from its spectrum (the bandlimited corpus
entries, the seeded polynomials of ``verify``) go through it.

Every sup and average over a step design is one ``step_norms`` call, which
runs the design in blocks of steps (``_blocks``): a block's steps reach
``symbol_of`` as per-axis columns, so every symbol and gain is one
(k, *grid.shape) array.  Off p = 2 a block is one product with the
spectrum, one inverse FFT in place and one row-wise ``quasi_norms``.  At
p = 2 it applies no symbol: each step is the real Parseval sum
L^d sum gain |F|^2, with |F|^2 formed once per call and the gain
|symbol|^2 in a scaled form (scale, gain <= 1), so no power of a large
order overflows.  The one closed gain is ``moduli.difference_gain``, which
builds no complex symbol; any other symbol gives |symbol|^2 over its own
max, row by row.  A sum too small to keep its digits is taken from the
samples instead.  ``tests/test_moduli.py`` checks every route against
``apply_symbol`` + ``quasi_norm`` at every design point.  A p = 2 sum is
even in the step, so the moduli hand ``sup_norm`` one step of each pair
h, -h at p = 2 (``moduli.step_design``); ``sup_directional`` and the
averages keep every direction and node.

Sampling operator: interp_V is a Fourier fold, not a dense kernel, on
1-D and 2-D grids alike.  Per axis the coefficients are folded mod
n = L sigma and weighted by phi(-x) exp(-i x sigma lam); one inverse FFT
gives the values.  The per-axis targets and weights (N entries each) are
cached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ParameterError
from .grid import (Exponent, GridFunction, SmoothnessOrder, TorusGrid, power, quasi_norm,
                   quasi_norms)

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


def frequency_magnitude(grid: TorusGrid) -> np.ndarray:
    """|w| on the grid; in 1-D sqrt(w^2) is |w| exactly."""
    return np.sqrt(sum(w ** 2 for w in grid.frequencies()))


def transform(f: GridFunction) -> np.ndarray:
    """The spectrum of f, its read-only coefficient array (module docstring
    convention), computed on the first call and kept on f.

    No lock, which would serialize the transforms of a verify thread pool:
    two threads that race here compute the same bits, and either may stay.
    """
    F = f._spectrum
    if F is None:
        F = np.fft.fftn(f.values)
        F /= float(f.grid.points_per_axis ** f.grid.dimension)
        F.flags.writeable = False
        object.__setattr__(f, "_spectrum", F)
    return F


def synthesize(grid: TorusGrid, coeffs: np.ndarray) -> GridFunction:
    """The samples on ``grid`` whose coefficients are ``coeffs``: the inverse
    of ``transform``.  Nothing else holds the fresh samples, so they are
    handed over read-only, which spares GridFunction its copy."""
    values = _inverse(grid, coeffs)
    values.flags.writeable = False
    return GridFunction(grid, values)


def _inverse(grid: TorusGrid, coeffs: np.ndarray, out=None) -> np.ndarray:
    """The samples of ``coeffs`` over the grid axes, the last d axes of the
    array (a leading axis holds a block of steps), written into ``out`` when
    it is given: the one inverse FFT."""
    values = np.fft.ifftn(coeffs, axes=tuple(range(-grid.dimension, 0)), out=out)
    values *= float(grid.points_per_axis ** grid.dimension)
    return values


def apply_symbol(f: GridFunction, symbol: np.ndarray) -> GridFunction:
    """The multiplier primitive: ``synthesize`` of the spectrum of f times
    ``symbol``, an array broadcastable to the grid shape."""
    return synthesize(f.grid, transform(f) * symbol)


#: complex entries (1 MB) in one block of 1-D steps: all 32 steps of a
#: design at N = 1024.  A 2-D block is one step: batched 2-D inverse FFTs
#: measured slower than single ones (1.80 against 1.27 ms per step at 256^2,
#: 0.086 against 0.053 ms at 64^2).
_BLOCK_ENTRIES = 2 ** 16


def _blocks(grid: TorusGrid, design: list):
    """The design in blocks of consecutive points: (points, columns), with
    the block's h_j as a column of shape (k, 1, ...) per axis j, so that
    every h * w broadcast of a symbol or gain yields a (k, *grid.shape)
    array."""
    d = grid.dimension
    k = max(1, _BLOCK_ENTRIES // grid.points_per_axis) if d == 1 else 1
    for start in range(0, len(design), k):
        points = design[start:start + k]
        yield points, tuple(np.array(points, dtype=float).T.reshape((d, -1) + (1,) * d))


def step_norms(f: GridFunction, design, symbol_of, p, gain_of=None) -> list:
    """The L_p quasi-norm of ``apply_symbol(f, symbol_of(x))`` for each step
    x of ``design``, a sequence of d-vectors, in order: the one step loop
    behind every sup and average.

    The steps go in blocks of ``_blocks``.  ``symbol_of(h)`` takes a single
    step or a block's per-axis columns and gives a fresh complex array, of
    shape (k, *grid.shape) for a block, which the loop overwrites.  Off
    p = 2 a block is one product with the spectrum, one inverse FFT in
    place and one row-wise ``quasi_norms``.

    At p = 2 no symbol is applied.  By discrete Parseval
    ||g||_2^2 = L^d sum |symbol|^2 |F|^2, so a step is one real sum over the
    modes: no inverse FFT, no samples.  ``gain_of(h)`` gives the block's
    scaled gain (scale, gain), a fresh real array with
    scale^2 gain = |symbol_of(h)|^2 row by row and gain <= 1, so that no
    power of a large order overflows; without it each row's gain is its
    |symbol|^2 over its own max.  The norm is
    scale max|F| (L^d sum gain (|F| / max|F|)^2)^(1/2), inf where that is
    beyond the double range.  A sum below _PARSEVAL_FLOOR may have lost
    digits to subnormal terms, or underflowed to 0 where the samples are
    still representable, so that step is taken from the samples.
    """
    design, grid = list(design), f.grid
    # the spectrum, which f keeps, is computed before the first symbol or
    # gain: one computed while a grid-sized array is live leaves a heap
    # layout in which every later 2-D step faults in fresh pages
    F = transform(f)
    norms = []
    if Exponent.parse(p).p != 2.0:
        for _, h in _blocks(grid, design):
            g = symbol_of(h)
            # the spectrum first, as in apply_symbol: the other order rounds
            # differently, and a p < 1 quasi-norm counts round-off as signal
            np.multiply(F, g, out=g)
            _inverse(grid, g, out=g)
            if not np.isfinite(g).all():
                raise ParameterError("grid function has non-finite samples")
            norms += quasi_norms(np.abs(g).reshape(len(g), -1), p, grid.cell_volume)
        return norms
    spectrum = np.abs(F)
    top = float(spectrum.max())
    if top > 0:
        spectrum /= top
    np.square(spectrum, out=spectrum)
    volume = grid.period ** grid.dimension
    for points, h in _blocks(grid, design):
        scale, gain = gain_of(h) if gain_of else _symbol_gain(symbol_of(h))
        gain *= spectrum
        sums = gain.reshape(len(points), -1).sum(axis=-1).tolist()
        # one scale for the block (a closed gain) or one per row
        for x, c, s in zip(points, np.full(len(points), scale).tolist(), sums):
            if not math.isfinite(s):
                raise ParameterError("multiplier symbol has non-finite values")
            if s >= _PARSEVAL_FLOOR:
                norms.append(c * (top * math.sqrt(volume * s)))
            elif c == 0 or top == 0:
                norms.append(0.0)
            else:
                norms.append(quasi_norm(apply_symbol(f, symbol_of(x)), p))
    return norms


#: a Parseval sum of at least tiny / eps (about 1e-292) keeps its digits:
#: each of its N^d terms loses at most eps tiny to subnormal rounding
_PARSEVAL_FLOOR = float(np.finfo(float).tiny / np.finfo(float).eps)


def _symbol_gain(symbols: np.ndarray) -> tuple:
    """(max|symbol|, (|symbol| / max|symbol|)^2) row by row for a block of
    symbols, one per leading index: the scaled gain of symbols that have no
    closed one."""
    gain = np.abs(symbols)
    top = gain.max(axis=tuple(range(1, gain.ndim)), keepdims=True)
    gain /= np.where(top > 0, top, 1.0)
    np.square(gain, out=gain)
    return top.ravel(), gain


def sup_norm(f: GridFunction, design, symbol_of, p, gain_of=None) -> float:
    """max over ``design`` of ``step_norms``, 0 for an empty design: the
    sampled supremum behind every modulus and directional bound."""
    return max(step_norms(f, design, symbol_of, p, gain_of), default=0.0)


def multi_indices(dimension: int, order: int) -> list:
    """The multi-indices of total ``order`` on ``dimension`` axes, the first
    index ascending: (order,) in 1-D, (k, order - k) in 2-D."""
    return [m for m in itertools.product(range(order + 1), repeat=dimension)
            if sum(m) == order]


def derivative_symbol(grid: TorusGrid, multi: tuple) -> np.ndarray:
    """Symbol prod_j (i w_j)^k_j of the whole-order derivative D^multi,
    a broadcast product of its per-axis factors."""
    if power(grid.nyquist, sum(multi)) == math.inf:
        raise ParameterError(f"order {sum(multi)} too large: |w|^order overflows")
    return reduce(np.multiply, [(1j * w) ** k for w, k in zip(grid.frequencies(), multi)])


def directional_symbol(grid: TorusGrid, vector, order: SmoothnessOrder) -> np.ndarray:
    """Symbol (i (w, zeta))^alpha on the principal branch, 0 at w = 0, for
    the unit direction zeta whose components are ``vector``: one step or a
    block's per-axis columns."""
    dot = sum(z * w for z, w in zip(vector, grid.frequencies()))
    if power(float(np.abs(dot).max()), order.alpha) == math.inf:
        raise ParameterError(f"order {order.alpha:g} too large: |(w, zeta)|^alpha overflows")
    return np.power(1j * dot, order.alpha)


def directional_derivative(f: GridFunction, zeta: Direction, alpha) -> GridFunction:
    """Fractional derivative of order alpha along zeta.

    Symbol (i (w, zeta))^alpha on the principal branch, set to 0 at the
    zero frequency.
    """
    order = alpha if isinstance(alpha, SmoothnessOrder) else SmoothnessOrder(alpha)
    if zeta.dimension != f.grid.dimension:
        raise ParameterError("direction dimension does not match the grid")
    return apply_symbol(f, directional_symbol(f.grid, zeta.vector, order))


def smooth_cutoff(s):
    """C^inf cutoff: 1 for s <= 1/2, exp(1 - 1/(1-(2s-1)^2)) inside (1/2, 1), 0 after."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s <= 0.5] = 1.0
    mid = (s > 0.5) & (s < 1.0)
    u = 2.0 * s[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - u * u))
    return out


def band_windows(grid: TorusGrid, sigma: float) -> dict:
    """The band windows of radius sigma, 0 < sigma <= nyquist, by name:
    ``sharp`` is the indicator of |w| <= sigma (the best L_2 approximation),
    ``smooth`` the cutoff at |w|/sigma (exact for |w| <= sigma/2) and
    ``riesz`` the first-order Riesz mean (1 - (|w|/sigma)^2)_+.  Each
    vanishes for |w| > sigma; apply one with ``apply_symbol``.
    """
    mag = frequency_magnitude(grid)
    return {
        "sharp": (mag <= sigma).astype(float),
        "smooth": smooth_cutoff(mag / sigma),
        "riesz": np.clip(1.0 - (mag / sigma) ** 2, 0.0, None),
    }


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
    half = (n_samples - 1) // 2
    q = np.mod(grid.modes + half, n_samples) - half
    x = 2.0 * math.pi * q / n_samples
    phi = (1.0 + 1j * (-x) ** (2 * r + 1)) * smooth_cutoff(np.abs(x))
    weights = phi * np.exp(-1j * x * sigma * lam) * np.exp(1j * grid.axis_frequencies() * lam)
    targets = np.mod(q, grid.points_per_axis)
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


def interp_V(f: GridFunction, sigma: float, lam: float = 0.0, r: int = 1) -> GridFunction:
    """Bandlimited quasi-interpolant from samples at spacing 1/sigma, offset lam.

    V f(x) = sum_j f(lam + j / sigma) K(sigma (x - lam) - j), with K the
    inverse transform of phi(x) = (1 + i x^(2r+1)) cutoff(|x|); it is
    applied as the Fourier fold of ``_interp_v_axis_matrix`` on every
    axis of the spectrum of f, followed by one inverse.

    On a 2-D grid the 1-D operator acts on both axes (the tensor
    composite).  The result is entire of exponential type sigma and
    reproduces modes with |w| <= sigma/2 up to the factor
    (1 - i (w/sigma)^(2r+1)) per axis.
    """
    grid = f.grid
    if not (0 < sigma <= grid.nyquist):
        raise ParameterError("sampling band outside (0, nyquist]")
    axis_grid = TorusGrid(1, grid.points_per_axis, grid.period)
    targets, weights, _ = _interp_v_axis_matrix(axis_grid, sigma, lam, r)
    coeffs = transform(f)
    for axis in range(grid.dimension):
        coeffs = _sample_axis(coeffs, axis, targets, weights)
    return synthesize(grid, coeffs)
