"""Periodic grids, grid functions, L_p quasi-norms and the numeric inputs.

Functions live on a uniform grid over the torus [0, L)^d, d in {1, 2}.
The coordinates are x_k = k * L / N and all integrals are uniform
Riemann sums, so every norm here is the quasi-norm of the trigonometric
interpolant of the samples.

Each numeric input has one rule, here: an exponent 0 < p <= inf is a
float (``Exponent``), inf included, so p and q take whatever ``float``
reads; an order is whole by ``is_whole``; and a step size delta, one or
an array of them, is a float array by ``step_sizes``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

INF = math.inf
#: smallest positive normal double
_NORMAL_MIN = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class Exponent:
    """Integrability exponent p with 0 < p <= inf.

    p = inf is an ordinary float: IEEE arithmetic gives 1/inf = 0 and
    max(inf, 2) = inf, so only the conventions below (theta, q1, the
    conjugate) and the sup-norm treat it apart.
    """

    p: float

    def __post_init__(self):
        if not (self.p > 0):
            raise ParameterError(f"exponent must be positive, got {self.p}")

    @classmethod
    def parse(cls, text) -> "Exponent":
        """``text`` itself if it is already an exponent, else the exponent
        ``float(text)``: "inf" and "infinity" in any case, blanks allowed."""
        return text if isinstance(text, Exponent) else cls(float(text))

    @property
    def is_inf(self) -> bool:
        return self.p == INF

    @property
    def conjugate(self) -> float:
        """Dual exponent p' for 1 <= p <= inf."""
        if self.p < 1:
            raise ParameterError("conjugate exponent needs p >= 1")
        if self.p == 1:
            return INF
        if self.is_inf:
            return 1.0
        return self.p / (self.p - 1)

    @property
    def theta(self) -> float:
        """min(p, 2), taken to be 1 when p = inf."""
        return 1.0 if self.is_inf else min(self.p, 2.0)

    @property
    def tau(self) -> float:
        """max(p, 2)."""
        return max(self.p, 2.0)

    @property
    def q1(self) -> float:
        """p itself when finite, 1 when p = inf."""
        return 1.0 if self.is_inf else self.p

    @property
    def deficiency(self) -> float:
        """(1/p - 1)_+ ; zero for p >= 1."""
        return max(1.0 / self.p - 1.0, 0.0)

    def label(self) -> str:
        return repr(self.p)


def is_whole(x: float) -> bool:
    """Whether the order x is whole: at least 1/2 and within 1e-12 of an
    integer, so that no order below 1/2 counts as the whole order 0."""
    return x >= 0.5 and abs(x - round(x)) <= 1e-12


def step_sizes(delta) -> np.ndarray:
    """``delta``, one step size or an array of them, as a float array of
    its shape; refused unless every step size is positive and finite."""
    deltas = np.asarray(delta, dtype=float)
    if not np.all((deltas > 0) & (deltas < INF)):
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    return deltas


#: largest order: an order-alpha difference can scale a norm by 2^alpha, which
#: must stay a finite double (whole orders also cost alpha multiplications)
MAX_ORDER = 1023.0


@dataclass(frozen=True)
class SmoothnessOrder:
    """Order alpha > 0 of a (fractional) difference or derivative."""

    alpha: float

    def __post_init__(self):
        if not (0 < self.alpha < INF):
            raise ParameterError(f"order must be positive and finite, got {self.alpha}")
        if self.alpha > MAX_ORDER:
            raise ParameterError(f"order must be at most {MAX_ORDER:g}, got {self.alpha}")

    @classmethod
    def parse(cls, alpha) -> "SmoothnessOrder":
        """``alpha`` itself if it is already an order, else the order alpha."""
        return alpha if isinstance(alpha, SmoothnessOrder) else cls(alpha)

    @property
    def is_integer(self) -> bool:
        return is_whole(self.alpha)

    def admissible_for(self, p: Exponent) -> bool:
        """Whole orders always; fractional ones need alpha > (1/p - 1)_+.

        This is exactly the condition under which the binomial series of
        the difference is p-power summable.
        """
        return self.is_integer or self.alpha > p.deficiency


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N^d grid on the torus of period L.

    The per-axis tables are built once, with the grid, and are read-only:
    ``modes`` holds the integer frequencies xi in FFT order, and
    ``axis_frequencies()`` the physical frequencies 2*pi*xi/L.  Every
    grid-sized symbol, gain or window is a numpy broadcast over the axis
    arrays that ``frequencies()`` places along each axis.
    """

    dimension: int
    points_per_axis: int
    period: float
    modes: np.ndarray = field(init=False, repr=False, compare=False)
    _frequencies: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ParameterError("dimension must be 1 or 2")
        n = self.points_per_axis
        if not isinstance(n, numbers.Integral) or n < 8 or (n & (n - 1)) != 0:
            raise ParameterError(f"points_per_axis must be a power of 2, >= 8, got {n!r}")
        if not (self.period > 0):
            raise ParameterError("period must be positive")
        modes = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        w = 2.0 * math.pi * modes / self.period
        for name, table in (("modes", modes), ("_frequencies", w)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        # a product, which overflows to inf where ** raises OverflowError
        return math.prod([self.spacing] * self.dimension)

    @property
    def nyquist(self) -> float:
        """Largest resolved physical frequency magnitude, pi*N/L."""
        return math.pi * self.points_per_axis / self.period

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dimension

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    def _along_axes(self, a: np.ndarray) -> tuple:
        """The 1-D axis array ``a`` laid along each axis of the grid, as
        views that broadcast to the grid shape."""
        d = self.dimension
        return tuple(a.reshape((1,) * j + (-1,) + (1,) * (d - 1 - j)) for j in range(d))

    def coords(self) -> tuple:
        """Coordinate arrays broadcastable to the grid shape."""
        return self._along_axes(self.axis_coords())

    def axis_frequencies(self) -> np.ndarray:
        """Physical frequencies 2*pi*xi/L in FFT order along one axis
        (read-only, built once per grid)."""
        return self._frequencies

    def frequencies(self) -> tuple:
        """Frequency arrays broadcastable to the grid shape, FFT order."""
        return self._along_axes(self._frequencies)


def readonly_array(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``.  A read-only ndarray
    (a fresh result nothing else holds) is kept; anything a caller could
    still write is copied, so no later write reaches the holder."""
    keep = isinstance(values, np.ndarray) and not values.flags.writeable
    out = np.asarray(values, dtype=dtype) if keep else np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a TorusGrid.

    ``values`` is a read-only view: no caller of a shared function (a
    ``verify.Workbench`` hands out one object per entry) can change the
    samples under the spectrum that ``spectral.transform`` computes once, on first
    use, and keeps in ``_spectrum``.  The samples go through
    ``readonly_array``: a writeable array is copied, a read-only one (the
    multiplier's fresh result) is kept.
    """

    grid: TorusGrid
    values: np.ndarray
    _spectrum: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = readonly_array(self.values, complex)
        if vals.shape != self.grid.shape:
            raise ParameterError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ParameterError("grid function has non-finite samples")
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if other.grid != self.grid:
            raise ParameterError("grids differ")
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if other.grid != self.grid:
            raise ParameterError("grids differ")
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c) -> "GridFunction":
        if isinstance(c, GridFunction):
            if c.grid != self.grid:
                raise ParameterError("grids differ")
            return GridFunction(self.grid, self.values * c.values)
        return GridFunction(self.grid, self.values * c)

    __rmul__ = __mul__


def power(base: float, exponent: float) -> float:
    """base ** exponent for base >= 0, inf where the result is beyond the
    double range (a float ``**`` raises OverflowError there)."""
    with np.errstate(over="ignore"):
        return float(np.float64(base) ** exponent)


def quasi_norm(f: GridFunction, p) -> float:
    """L_p quasi-norm of the samples, 0 < p <= inf: ``quasi_norms`` of one
    row."""
    return quasi_norms(np.abs(f.values).reshape(1, -1), p, f.grid.cell_volume)[0]


def quasi_norms(absvals: np.ndarray, p, cell_volume: float) -> list:
    """The L_p quasi-norm, 0 < p <= inf, of each row of ``absvals``: a (k, n)
    array of the moduli of k functions' samples on cells of ``cell_volume``.

    Finite p: (sum |f|^p * h^d)^(1/p) with h the grid spacing; p = inf is
    the max of |f|.  Summation relies on numpy's pairwise reduction over
    a fixed memory order, so results are bit-stable run to run, and a row
    of a block sums as the same samples alone would.  Where a row's sum of
    |f|^p is not a positive normal float (every term underflowed, or one
    overflowed), that row's norm is taken in the scaled form
    M (sum (|f|/M)^p * h^d)^(1/p), M = max |f|.  A norm beyond the
    double range is inf.
    """
    p = Exponent.parse(p)
    if p.is_inf:
        return absvals.max(axis=1).tolist()
    norms = []
    # numpy scalars throughout: an overflowing power is inf, not an error
    with np.errstate(over="ignore"):
        for row, s in zip(absvals, np.sum(absvals ** p.p, axis=1)):
            if not _NORMAL_MIN <= s < math.inf:
                top = row.max()
                if top > 0:
                    s = np.sum((row / top) ** p.p)
                    norms.append(float(top * (s * cell_volume) ** (1.0 / p.p)))
                    continue
            # a zero row has norm 0 also where the cell volume overflows to inf
            norms.append(float((s * cell_volume) ** (1.0 / p.p)) if s else 0.0)
    return norms


#: relative mass allowed outside the fundamental cell when periodizing
PERIODIZE_TOL = 1e-10


def periodize(entry, grid: TorusGrid) -> GridFunction:
    """Sample sum_m entry(x + m*L), |m_j| <= entry.m_tail (default 1), on the grid.

    ``entry`` must expose ``evaluate(coords) -> values`` (coords a tuple of
    broadcastable coordinate arrays, centered convention: the fundamental
    cell is [-L/2, L/2)^d) and ``tail_bound(L) -> float`` giving a relative
    bound on the mass outside that cell.  Refuses when the bound exceeds
    PERIODIZE_TOL: the period is too small for this profile.
    """
    bound = float(entry.tail_bound(grid.period))
    if bound > PERIODIZE_TOL:
        raise ParameterError(
            f"period {grid.period} too small for '{getattr(entry, 'name', '?')}':"
            f" tail bound {bound:.3e} exceeds {PERIODIZE_TOL:.0e}"
        )
    m_images = int(getattr(entry, "m_tail", 1))
    L = grid.period
    coords = grid.coords()
    total = np.zeros(grid.shape, dtype=complex)
    shifts = range(-m_images, m_images + 1)
    for images in itertools.product(shifts, repeat=grid.dimension):
        # wrap so the profile sees arguments near its center
        args = tuple(x - L / 2 + m * L for x, m in zip(coords, images))
        # at a huge L, exp(-x^2) overflows x^2 and takes its limit 0
        with np.errstate(over="ignore"):
            total += np.asarray(entry.evaluate(args), dtype=complex)
    return GridFunction(grid, total)
