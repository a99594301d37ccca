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
entries, the seeded polynomials of ``verify``) go through it.  Only
``step_norms`` orders the spectrum before the first grid-sized symbol or
gain, which it needs first anyway; a caller of ``apply_symbol`` builds
its symbol first, and later 2-D steps after such a call measure no
slower (10 alternating pairs on gaussian2d at 256^2).

Every sup and average over a step design is one ``step_norms`` call.  A
design is an (n, d) float array, one step per row, made once per call,
and ``step_norms`` runs it in blocks of consecutive rows (``_blocks``): a
block's steps reach ``symbol_of`` as per-axis columns, so every symbol
is one (k, *grid.shape) array.  Off p = 2 a block is one product with
the spectrum, one inverse FFT in place and one row-wise ``quasi_norms``.
At p = 2 it applies no symbol: each step is the real Parseval sum
L^d sum gain |F|^2, with |F|^2 formed once per call and the gain
|symbol|^2 in a scaled form (scale, gain <= 1), so no power of a large
order overflows.  The closed gains, ``moduli.difference_gain`` and the
mixed modulus's, build no complex symbol, and each is even in w: it is
built and summed on the Hermitian half only, k rows of it per block,
against |F|^2 folded onto that half once per call (``_fold``).  Any
other symbol gives |symbol|^2 over its own max, row by row, on the whole
grid: the series symbol is 0 off the occupied modes, and for a complex f
it is not even in w.  A sum too small to keep its digits is taken from
the samples instead.  ``tests/test_moduli.py`` checks every route against
``apply_symbol`` + ``quasi_norm`` at every design point.  A sup is the
max of ``step_norms``: the moduli take one per delta over the step
design of ``moduli.step_design``, and ``sup_directional`` one over the
directions of ``moduli.direction_design``; at p = 2 both keep the first
half of the directions (``moduli._sup_directions``: a p = 2 sum is even in
the step, and that half's exact negatives make up the second half).  The
averages keep every node.

A closed symbol of a real step or direction is Hermitian,
S(-w) = conj S(w), and a closed gain is even in w.  The Hermitian half
(``_half_frequencies``) is, in 1-D, the FFT indices 0 .. N/2, the Nyquist
mode -N/2 included; in 2-D, rows 0 .. N/2 of axis 0 and one strip
column, which holds the modes (-i, -N/2) of rows N/2 + 1 .. N - 1: they
have no partner, because +N/2 is no grid mode.  A closed gain stays on
that half.  ``_hermitian`` builds a 1-D symbol on it and fills the other
half as the conjugates of the first, in reverse order, which spares half
the exponentials, angles and powers.  The same identity holds in the
step, S_{-h}(w) = conj S_h(w) bit for bit, and a 1-D block off p = 2
holds its steps in pairs h, -h (the step design, the axis pair of
``moduli.partial_modulus``, the directions of ``sup_directional``):
``_hermitian`` builds the h rows only and writes each -h row as their
conjugate.  A block of 2^16 / N rows is even for N <= 2^15, so no pair
straddles two blocks.  ``moduli.difference_symbol`` and
``directional_symbol`` go through it.  A 2-D symbol is built on the whole
grid: the -N/2 row of axis 0 has no partner, so a mirror would change it,
and a 2-D block is one step.

Sampling operator: interp_V is a Fourier fold, not a dense kernel, on a
1-D grid only.  The coefficients are folded mod n = L sigma and weighted
by phi(-x) exp(-i x sigma lam); one inverse FFT gives the values, which
lie in the band |w| <= sigma.  The targets and weights (N entries each)
are cached.  A 2-D grid is refused: the tensor composite of the 1-D fold
fills the square |w_j| <= sigma, which leaves the disk of the band
windows.
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
    """|w| on the grid; in 1-D sqrt(w^2) is |w| exactly.  A |w| past
    1.3e154, which a period below about 2e-154 N reaches, reads inf: its
    square overflows."""
    with np.errstate(over="ignore"):
        return np.sqrt(sum(w ** 2 for w in grid.frequencies()))


def transform(f: GridFunction) -> np.ndarray:
    """The spectrum of f, its read-only coefficient array (module docstring
    convention), computed on the first call and kept on f.

    No lock, which would serialize the transforms of a verify thread pool:
    two threads that race here compute the same bits, and either may stay.
    """
    F = f._spectrum
    if F is None:
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan past the double range
            F = np.fft.fftn(f.values, norm="forward")
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
    return np.fft.ifftn(coeffs, axes=tuple(range(-grid.dimension, 0)), out=out, norm="forward")


def apply_symbol(f: GridFunction, symbol: np.ndarray) -> GridFunction:
    """The multiplier primitive: ``synthesize`` of the spectrum of f times
    ``symbol``, an array broadcastable to the grid shape."""
    return synthesize(f.grid, transform(f) * symbol)


#: complex entries (1 MB) in one block of 1-D steps: all 32 steps of a
#: design at N = 1024.  A 2-D block is one step: batched 2-D inverse FFTs
#: measured slower than single ones (1.80 against 1.27 ms per step at 256^2,
#: 0.086 against 0.053 ms at 64^2).
_BLOCK_ENTRIES = 2 ** 16


def _blocks(grid: TorusGrid, design: np.ndarray):
    """The (n, d) design in blocks of consecutive rows: (points, columns),
    with the block's h_j as a column of shape (k, 1, ...) per axis j, so
    that every h * w broadcast of a symbol or gain yields a
    (k, *grid.shape) array."""
    d = grid.dimension
    k = max(1, _BLOCK_ENTRIES // grid.points_per_axis) if d == 1 else 1
    for start in range(0, len(design), k):
        points = design[start:start + k]
        yield points, tuple(points.T.reshape((d, -1) + (1,) * d))


def step_norms(f: GridFunction, design, symbol_of, p, gain_of=None) -> list:
    """The L_p quasi-norm of ``apply_symbol(f, symbol_of(x))`` for each step
    x of ``design``, in order: the one step loop behind every sup and
    average.  The design is an (n, d) array of steps, one per row; any
    sequence of d-vectors is made one such array here, and an empty one
    gives [].

    The steps go in blocks of ``_blocks``.  ``symbol_of(h)`` takes a single
    step or a block's per-axis columns and gives a fresh complex array, of
    shape (k, *grid.shape) for a block, which the loop overwrites.  Off
    p = 2 a block is one product with the spectrum, one inverse FFT in
    place and one row-wise ``quasi_norms``.

    At p = 2 no symbol is applied.  By discrete Parseval
    ||g||_2^2 = L^d sum |symbol|^2 |F|^2, so a step is one real sum over the
    modes: no inverse FFT, no samples.  ``gain_of(h)`` gives the block's
    closed scaled gain (scale, gain), a fresh real array on the Hermitian
    half of ``_half_frequencies`` with scale^2 gain = |symbol_of(h)|^2 row
    by row and gain <= 1, so that no power of a large order overflows; it
    is summed against (|F| / max|F|)^2 folded onto that half (``_fold``).
    Without it each row's gain is its |symbol|^2 over its own max, on the
    whole grid.  The norm is
    scale max|F| (L^d sum gain (|F| / max|F|)^2)^(1/2), inf where that is
    beyond the double range.  A sum below _PARSEVAL_FLOOR may have lost
    digits to subnormal terms, or underflowed to 0 where the samples are
    still representable, so that step is taken from the samples.
    """
    design, grid = np.asarray(design, dtype=float), f.grid
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
            block = quasi_norms(np.abs(g).reshape(len(g), -1), p, grid.cell_volume)
            # a non-finite sample makes its row's norm nan or inf
            if not all(map(math.isfinite, block)) and not np.isfinite(g).all():
                raise ParameterError("grid function has non-finite samples")
            norms += block
        return norms
    spectrum = np.abs(F)
    top = float(spectrum.max())
    if not math.isfinite(top):  # a spectrum past the double range
        raise ParameterError("grid function has a non-finite spectrum")
    if top > 0:
        spectrum /= top
    np.square(spectrum, out=spectrum)
    if gain_of:
        spectrum = _fold(grid, spectrum)
    volume = math.prod([grid.period] * grid.dimension)  # inf, not OverflowError
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


def _half_frequencies(grid: TorusGrid) -> tuple:
    """The frequency arrays of the Hermitian half, one per axis, laid along
    the axes as ``TorusGrid.frequencies`` lays them: where every closed
    p = 2 gain is built and summed (``step_norms``), and where ``_hermitian``
    builds its 1-D symbols.

    1-D: the FFT indices 0 .. N/2, the Nyquist mode -N/2 last.  2-D: rows
    0 .. N/2 of axis 0 against the N columns of axis 1 and one more column
    at w_2 = +pi N / L, -w_2 of column N/2 bit for bit.  Row i of that
    column is the exact negative of the mode (-i, -N/2): it holds the strip,
    rows N/2 + 1 .. N - 1 of column N/2, whose modes have no partner and lie
    outside the rows, at the value an even gain takes there.  Its rows 0 and
    N/2 stand for no mode and weigh 0 in ``_fold``.
    """
    w, n = grid.axis_frequencies(), grid.points_per_axis // 2
    if grid.dimension == 1:
        return (w[:n + 1],)
    return w[:n + 1, None], np.append(w, -w[n])[None, :]


def _fold(grid: TorusGrid, spectrum: np.ndarray) -> np.ndarray:
    """The power spectrum P = ``spectrum`` on the Hermitian half of
    ``_half_frequencies``: a fresh array in which a mode xi weighs
    P(xi) + P(-xi) where -xi is a grid mode outside the half, and P(xi)
    alone where it is not.  So sum gain P over the grid is sum gain W over
    the half for every gain even in w.  Unpaired are the modes with an index
    N/2 (their negative, at +N/2, is no grid mode) and row 0 of axis 0,
    which holds both modes of each of its pairs; the strip column holds P
    of the strip."""
    n = grid.points_per_axis // 2
    if grid.dimension == 1:
        half = spectrum[:n + 1].copy()
        half[1:n] += spectrum[:n:-1]
        return half
    half = np.zeros((n + 1, 2 * n + 1))
    half[:, :2 * n] = spectrum[:n + 1]
    # P(-xi) of rows 1 .. n-1: row N - i, column (N - j) mod N
    minus = np.roll(spectrum[:n:-1, ::-1], 1, axis=1)
    body = half[1:n]
    body[:, :2 * n] += minus
    body[:, n] = spectrum[1:n, n]  # the column -N/2 has no partner
    body[:, 2 * n] = minus[:, n]  # the strip, P(N - i, N/2)
    return half


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


def _hermitian(grid: TorusGrid, build, steps, *args) -> np.ndarray:
    """``build(freqs, steps, *args)``, a fresh symbol over the frequency
    arrays ``freqs`` for ``steps``, one step or a block's per-axis columns,
    that is Hermitian, S(-w) = conj S(w), on the grid's modes.

    In 1-D ``build`` runs on the FFT indices 0 .. N/2 only, the modes
    0 .. N/2 - 1 and the Nyquist mode -N/2 (``_half_frequencies``), and
    indices N/2 + 1 .. N - 1 are the conjugates of indices N/2 - 1 .. 1, in
    reverse order.  That is exact: the frequency table is antisymmetric bit
    for bit (``grid.modes`` are integers), and the closed symbols take
    conjugate values at -w and w bit for bit, up to the sign of a zero
    (``tests/test_moduli.py::TestHermitianHalf``).  A closed gain needs no
    mirror: it stays on the half.  By S_{-h}(w) = S_h(-w) = conj S_h(w),
    where row 2i + 1 of a block is the exact negative of row 2i for every
    i, only the even rows are built and each odd row is the conjugate of
    the one before.
    The result is a fresh array.  In 2-D ``build`` runs on the whole grid:
    the -N/2 row of axis 0 has no partner, so a half-plane mirror would
    change it, and a 2-D block is one step.  Private, so that a trace that
    wraps the public functions charges each build to the symbol that asked
    for it.
    """
    if grid.dimension != 1:
        return build(grid.frequencies(), steps, *args)
    n = grid.points_per_axis // 2
    (h,) = steps
    paired = np.ndim(h) > 0 and len(h) % 2 == 0 and np.array_equal(h[1::2], -h[::2])
    half = build(_half_frequencies(grid), (h[::2],) if paired else steps, *args)
    rows = (2 * len(half),) if paired else half.shape[:-1]
    out = np.empty(rows + (2 * n,), dtype=half.dtype)
    mirror = half[..., n - 1:0:-1]
    plus = out[::2] if paired else out
    plus[..., :n + 1] = half
    np.conjugate(mirror, out=plus[..., n + 1:])
    if paired:
        np.conjugate(half, out=out[1::2, :n + 1])
        out[1::2, n + 1:] = mirror
    return out


def directional_symbol(grid: TorusGrid, vector, order: SmoothnessOrder) -> np.ndarray:
    """Symbol (i (w, zeta))^alpha on the principal branch, 0 at w = 0, for
    the unit direction zeta whose components are ``vector``: one step or a
    block's per-axis columns.  Built through ``_hermitian``; in 1-D the half
    holds the Nyquist mode, so its max |(w, zeta)| is the whole grid's."""
    return _hermitian(grid, _directional_symbol, vector, order)


def _directional_symbol(freqs: tuple, vector, order: SmoothnessOrder) -> np.ndarray:
    dot = sum(z * w for z, w in zip(vector, freqs))
    if power(float(np.abs(dot).max()), order.alpha) == math.inf:
        raise ParameterError(f"order {order.alpha:g} too large: |(w, zeta)|^alpha overflows")
    return np.power(1j * dot, order.alpha)


def directional_derivative(f: GridFunction, zeta: Direction, alpha) -> GridFunction:
    """Fractional derivative of order alpha along zeta.

    Symbol (i (w, zeta))^alpha on the principal branch, set to 0 at the
    zero frequency.
    """
    order = SmoothnessOrder.parse(alpha)
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
    # |w|/sigma capped at 1, where every window is 0: finite for every sigma
    ratio = np.minimum(mag, sigma) / sigma
    return {
        "sharp": (mag <= sigma).astype(float),
        "smooth": smooth_cutoff(ratio),
        "riesz": 1.0 - ratio ** 2,
    }


# ---------------------------------------------------------------------------
# sampling (quasi-interpolation) operator
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _interp_v_axis_matrix(grid: TorusGrid, sigma: float, lam: float, r: int):
    """Fold of the 1-D sampling operator: (targets, weights, n_samples).

    Coefficient xi goes to grid mode ``targets[xi]`` with factor
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


def interp_V(f: GridFunction, sigma: float, lam: float = 0.0, r: int = 1) -> GridFunction:
    """Bandlimited quasi-interpolant from samples at spacing 1/sigma, offset lam,
    on a 1-D grid.

    V f(x) = sum_j f(lam + j / sigma) K(sigma (x - lam) - j), with K the
    inverse transform of phi(x) = (1 + i x^(2r+1)) cutoff(|x|); it is
    applied as the Fourier fold of ``_interp_v_axis_matrix`` on the
    spectrum of f, followed by one inverse.  The result is entire of
    exponential type sigma, so it lies in the band |w| <= sigma, and it
    reproduces modes with |w| <= sigma/2 up to the factor
    (1 - i (w/sigma)^(2r+1)).  A 2-D grid is refused: the tensor composite
    of the 1-D operator fills the square |w_j| <= sigma, not the disk.
    """
    grid = f.grid
    if grid.dimension != 1:
        raise ParameterError("the sampling operator is 1-D only")
    if not (0 < sigma <= grid.nyquist):
        raise ParameterError("sampling band outside (0, nyquist]")
    targets, weights, _ = _interp_v_axis_matrix(grid, sigma, lam, r)
    F = transform(f)
    out = np.zeros_like(F)
    np.add.at(out, targets, F * weights)
    return synthesize(grid, out)
