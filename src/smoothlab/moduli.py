"""Fractional differences and moduli of smoothness on periodic grids.

The fractional difference of order alpha > 0 with step h is

    D_h^a f(x) = sum_nu (-1)^nu binom(a, nu) f(x + (a - nu) h),

admissible in L_p exactly when a is a whole number or a > (1/p - 1)_+.
Two evaluation routes are provided: summing the (translated) series
itself, and the closed multiplier exp(i a th) (1 - exp(-i th))^a with
th = (h, w); they must agree and that agreement is tested.

Every difference is a Fourier multiplier on the coefficients of f, so
the moduli transform f once and take ``spectral.sup_norm`` over the
step design of ``step_design``, one symbol per step.  The closed symbol is built from per-axis
factors: z = exp(-i th) is the outer product of the 1-D arrays
exp(-i h_j w_j), a whole order r is (exp(i th) - 1)^r by repeated
multiplication, a fractional order is |1 - z|^a exp(i a (th + Arg(1 - z)))
(the principal branch; for a < 1, z is taken from the full phase th), and
the mixed modulus takes the outer product of the 1-D axis symbols.

The series route shares only the transform.  It sums the binomial series
mode by mode, on the occupied modes only (|F| > 1e-14 max|F|, with the
bound on what the dropped modes contribute stated in ``_symbol``): a
partial sum whose length adapts to min |1 - w|, plus 12 summation-by-parts
terms that fold in the remainder.  It carries no certified truncation
length; its accuracy is checked against the closed symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError, ParameterError
from .grid import Exponent, GridFunction, SmoothnessOrder, TorusGrid, quasi_norm
from .spectral import (Direction, SpectralFunction, apply_symbol, derivative_symbol, sup_norm,
                       transform)

#: number of step magnitudes sampled per direction when taking the sup
N_MAGNITUDES = 16
#: tail majorant below which ``binom_power_constant`` stops doubling its length
_POWER_SUM_TOL = 1e-12


def _admissible(alpha, p) -> tuple:
    """(order, exponent), refused unless the order is admissible for p."""
    order = alpha if isinstance(alpha, SmoothnessOrder) else SmoothnessOrder(alpha)
    p = Exponent.parse(p)
    if not order.admissible_for(p):
        raise AdmissibilityError(
            f"alpha={order.alpha} inadmissible for p={p.label()}: "
            f"needs alpha > {p.deficiency}"
        )
    return order, p


def frac_binomial(alpha: float, nu: int) -> float:
    """Generalized binomial coefficient alpha (alpha-1) ... (alpha-nu+1) / nu!."""
    if nu < 0:
        raise ParameterError("nu must be nonnegative")
    return float(_binom_array(alpha, nu + 1)[nu])


def _binom_array(alpha: float, n_terms: int) -> np.ndarray:
    """binom(alpha, nu) for nu = 0 .. n_terms - 1 (n_terms >= 1) via the ratio recurrence."""
    nu = np.arange(1, n_terms)
    out = np.empty(n_terms)
    out[0] = 1.0
    np.cumprod((alpha - nu + 1) / nu, out=out[1:])
    return out


def _abs_binom(alpha: float, nu: float) -> float:
    """|binom(alpha, nu)| for real nu > alpha + 1 through log-gamma."""
    # binom(a, n) = (-1)^n Gamma(n - a) / (Gamma(-a) Gamma(n + 1))
    return math.exp(math.lgamma(nu - alpha) - math.lgamma(nu + 1.0)) / abs(
        math.gamma(-alpha)
    )


def _tail_majorant(alpha: float, p_small: float, n: int) -> float:
    """Upper bound for sum_{nu > n} |binom(alpha, nu)|^p_small.

    Uses |binom(a, nu)| <= |binom(a, n)| ((n+1)/(nu+1))^(a+1) for nu >= n,
    valid once n > a + 1, and an integral comparison for the rest.
    """
    s = (alpha + 1.0) * p_small
    if s <= 1.0:
        return math.inf
    c = _abs_binom(alpha, n) ** p_small
    return c * (n + 1.0) / (s - 1.0)


def binom_power_constant(alpha, p) -> float:
    """The norm constant (sum_nu |binom(alpha, nu)|^pt)^(1/pt), pt = min(p, 1).

    This bounds ||difference of order alpha|| / ||f|| in L_p: the triangle
    inequality (or its pt-power form for p < 1) over the series terms, each
    a translate of f.
    """
    order, p = _admissible(alpha, p)
    pt = min(p.q1, 1.0)
    a = order.alpha
    if order.is_integer:
        total = sum(abs(c) ** pt for c in _binom_array(a, int(round(a)) + 1).tolist())
        return float(total ** (1.0 / pt))
    n = 16 + int(math.ceil(a))
    while _tail_majorant(a, pt, n) >= _POWER_SUM_TOL and n < 2 ** 20:
        n *= 2
    # the remainder is covered by the majorant, so the result is an upper bound
    mags = np.abs(_binom_array(a, n + 1))
    total = float(np.sum(mags ** pt)) + _tail_majorant(a, pt, n)
    return float(total ** (1.0 / pt))


# ---------------------------------------------------------------------------
# difference symbols
# ---------------------------------------------------------------------------

_SERIES_PARTIAL = 4096
_SERIES_TAIL_TERMS = 12
_UNRESOLVED = 1e-6
_OCCUPIED = 1e-14


def _series_symbol(alpha: float, theta: np.ndarray):
    """Difference symbol by summing the binomial series at w = exp(-i th).

    Returns (symbol, unresolved_mask).  A whole order m sums its m + 1
    terms.  A fractional order sums to a partial length adapted to
    min |1 - w| and folds the remainder in exactly through repeated
    summation by parts, which maps the order-alpha tail onto order
    alpha+1, alpha+2, ... tails divided by powers of (1 - w); there,
    points with 0 < |1 - w| below the resolution floor are reported as
    unresolved (value 0), and th = 0 itself is (1-1)^alpha = 0 exactly.
    """
    theta = np.asarray(theta, dtype=float)
    w = np.exp(-1j * theta)
    u = 1.0 - w
    symbol = np.zeros(theta.shape, dtype=complex)
    whole = abs(alpha - round(alpha)) <= 1e-12
    if whole:
        n_partial = int(round(alpha))
        res = np.ones(theta.shape, dtype=bool)
        unresolved = ~res
    else:
        au = np.abs(u)
        zero = au == 0.0
        unresolved = (~zero) & (au < _UNRESOLVED)
        res = ~(zero | unresolved)
        if not np.any(res):
            return symbol, unresolved
        au_min = float(au[res].min())
        n_partial = int(min(max(_SERIES_PARTIAL, math.ceil(64.0 / au_min)), 2 ** 20))

    wr = w[res]
    c = _binom_array(alpha, n_partial + 1)
    c[1::2] *= -1.0
    acc = np.full(wr.shape, c[0], dtype=complex)
    wpow = np.ones_like(wr)
    # at most 2^21 entries (32 MB) per block, however many modes are summed
    chunk = max(1, min(2048, 2 ** 21 // max(wr.size, 1)))
    for start in range(1, n_partial + 1, chunk):
        stop = min(start + chunk, n_partial + 1)
        block = np.empty((stop - start,) + wr.shape, dtype=complex)
        block[0] = wpow * wr
        for i in range(1, stop - start):
            block[i] = block[i - 1] * wr
        wpow = block[-1]
        acc += np.tensordot(c[start:stop], block, axes=(0, 0))
    if not whole:
        # wpow now holds w^n_partial; fold in the exact tail
        ur = u[res]
        wtop = wpow * wr  # w^(n_partial + 1)
        upow = ur.copy()
        for j in range(_SERIES_TAIL_TERMS):
            n = n_partial + 1 + j
            a = alpha + j
            cval = math.exp(math.lgamma(n - a) - math.lgamma(n + 1.0)) / math.gamma(-a)
            acc += cval * wtop / upow
            wtop = wtop * wr
            upow = upow * ur
    symbol[res] = np.exp(1j * alpha * theta[res]) * acc
    return symbol, unresolved


def _outer(ufunc, factors):
    """ufunc.outer over the per-axis arrays: the full-grid combination."""
    out = factors[0]
    for fac in factors[1:]:
        out = ufunc.outer(out, fac)
    return out


def _whole_power(e: np.ndarray, r: int) -> np.ndarray:
    """(e - 1)^r by repeated multiplication; e is overwritten."""
    e -= 1.0
    out = e.copy() if r > 1 else e
    for _ in range(r - 1):
        out *= e
    return out


def difference_symbol(grid: TorusGrid, hvec, alpha: float) -> np.ndarray:
    """Closed symbol exp(i a th) (1 - exp(-i th))^a, th = (h, w), principal branch.

    Built from the per-axis phases h_j w_j: exp(+-i th) is the outer
    product of 1-D exponentials, so for a >= 1 no full-grid exponential of
    th is taken.
    """
    w = grid.axis_frequencies()
    hw = [h * w for h in hvec]
    r = round(alpha)
    if r >= 1 and abs(alpha - r) <= 1e-12:
        return _whole_power(_outer(np.multiply, [np.exp(1j * t) for t in hw]), int(r))
    # |1 - z|^a exp(i a (th + Arg(1 - z))) is exp(i a th) np.power(1 - z, a)
    theta = _outer(np.add, hw)
    # for a < 1, |1 - z|^a is not Lipschitz at z = 1: a product of axis
    # factors would turn an exact th = 0 into eps^a, so z comes from th
    if alpha < 1:
        b = np.exp(-1j * theta)
    else:
        b = _outer(np.multiply, [np.exp(-1j * t) for t in hw])
    np.subtract(1.0, b, out=b)
    phase = np.angle(b)
    phase += theta
    phase *= alpha
    mag = np.abs(b)
    mag **= alpha
    np.cos(phase, out=b.real)
    np.sin(phase, out=b.imag)
    b *= mag
    return b


@dataclass(frozen=True)
class Step:
    """A difference step: unit direction times magnitude."""

    direction: Direction
    magnitude: float

    def __post_init__(self):
        if not (self.magnitude > 0):
            raise ParameterError("step magnitude must be positive")

    @property
    def vector(self) -> tuple:
        return tuple(self.magnitude * c for c in self.direction.vector)


def frac_difference(f: GridFunction, step: Step, alpha, method: str = "spectral") -> GridFunction:
    """Fractional difference of order alpha with the given step.

    ``method`` selects the evaluation route: 'spectral' applies the closed
    multiplier, 'series' sums the translated binomial series (translations
    are exact spectral shifts).
    """
    order = alpha if isinstance(alpha, SmoothnessOrder) else SmoothnessOrder(alpha)
    if step.direction.dimension != f.grid.dimension:
        raise ParameterError("step dimension does not match the grid")
    F = transform(f)
    return apply_symbol(F, _symbol(F, step.vector, order.alpha, method))


def _symbol(F: SpectralFunction, hvec, alpha: float, method: str) -> np.ndarray:
    """Symbol of the order-alpha difference with step hvec, on the modes of F.

    The series route sums only the occupied modes, |F| > _OCCUPIED max|F|,
    and leaves the symbol 0 elsewhere.  Since |symbol| <= 2^alpha, a
    dropped mode changes any output sample by at most
    _OCCUPIED max|F| 2^alpha, and all of them together by at most
    N^d 2^alpha _OCCUPIED max|F| <= N^d 2^alpha 1e-14 max|f|: 1e-10 max|f|
    in 1-D at N = 1024 and alpha <= 3.2.
    """
    if method == "spectral":
        return difference_symbol(F.grid, hvec, alpha)
    if method != "series":
        raise ParameterError(f"unknown method '{method}'")
    w = F.grid.axis_frequencies()
    theta = _outer(np.add, [h * w for h in hvec])
    mag = np.abs(F.coefficients)
    occupied = mag > _OCCUPIED * mag.max()
    symbol = np.zeros(F.grid.shape, dtype=complex)
    symbol[occupied] = _series_symbol(alpha, theta[occupied])[0]
    return symbol


# ---------------------------------------------------------------------------
# direction / magnitude design and the moduli
# ---------------------------------------------------------------------------


def direction_design(dimension: int) -> tuple:
    """Fixed direction set used for every sampled supremum.

    d = 1: both orientations.  d = 2: 16 equispaced angles (offset half a
    slot so none coincides with an axis) plus the 4 axis directions.
    """
    if dimension == 1:
        return (Direction((1.0,)), Direction((-1.0,)))
    if dimension == 2:
        dirs = []
        for k in range(16):
            ang = (k + 0.5) * 2.0 * math.pi / 16.0
            dirs.append(Direction.of(math.cos(ang), math.sin(ang)))
        dirs += [
            Direction((1.0, 0.0)),
            Direction((-1.0, 0.0)),
            Direction((0.0, 1.0)),
            Direction((0.0, -1.0)),
        ]
        return tuple(dirs)
    raise ParameterError("dimension must be 1 or 2")


def magnitude_design(delta: float) -> np.ndarray:
    """Step magnitudes delta * (1 - j/n), j = 0 .. n-1 (largest first),
    n = N_MAGNITUDES."""
    if not (0 < delta < math.inf):
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    return delta * (1.0 - np.arange(N_MAGNITUDES) / N_MAGNITUDES)


def step_design(delta: float, directions) -> list:
    """Step vectors t * zeta for every magnitude t of ``magnitude_design(delta)``
    (largest first) and, within each, every direction of ``directions``."""
    return [tuple(float(t) * c for c in zeta.vector)
            for t in magnitude_design(delta) for zeta in directions]


def modulus(
    f: GridFunction,
    delta: float,
    alpha,
    p,
    method: str = "spectral",
    directions=None,
) -> float:
    """Sampled modulus of smoothness: max over the shared step design of
    the L_p quasi-norm of the order-alpha difference."""
    order, p = _admissible(alpha, p)
    return _modulus(transform(f), delta, order.alpha, p, method, directions)


def _modulus(F: SpectralFunction, delta: float, alpha: float, p: Exponent, method: str,
             directions=None) -> float:
    if directions is None:
        directions = direction_design(F.grid.dimension)
    return sup_norm(F, step_design(delta, directions),
                    lambda h: _symbol(F, h, alpha, method), p)


def default_deltas(grid: TorusGrid, n: int = 24, floor_cells: float = 4.0) -> np.ndarray:
    """Geometric delta grid from floor_cells * spacing up to 1."""
    lo = floor_cells * grid.spacing
    if lo >= 1.0:
        raise ParameterError("grid too coarse for the requested delta range")
    return np.geomspace(lo, 1.0, n)


@dataclass
class ModulusCurve:
    """Modulus values over a delta grid, with log-log interpolation."""

    alpha: float
    p_label: str
    deltas: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.deltas = np.asarray(self.deltas, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.deltas.shape != self.values.shape or self.deltas.ndim != 1:
            raise ParameterError("deltas and values must be matching 1-D arrays")
        if np.any(np.diff(self.deltas) <= 0):
            raise ParameterError("deltas must increase")

    def interp(self, t: float) -> float:
        """Log-log linear interpolation; power-law extension below the
        smallest delta (slope fitted on the lowest points), flat above."""
        d, v = self.deltas, np.maximum(self.values, 1e-300)
        if t <= 0:
            raise ParameterError("t must be positive")
        if t >= d[-1]:
            return float(v[-1])
        if t < d[0]:
            return float(v[0] * (t / d[0]) ** self._low_slope)
        return float(np.exp(np.interp(math.log(t), np.log(d), np.log(v))))

    @cached_property
    def _low_slope(self) -> float:
        """Log-log slope fitted on the lowest points, for interp below d[0]."""
        k = min(5, len(self.deltas))
        v = np.maximum(self.values[:k], 1e-300)
        return np.polyfit(np.log(self.deltas[:k]), np.log(v), 1)[0]

    def fitted_slope(self, lo: float | None = None, hi: float | None = None) -> float:
        mask = np.ones(len(self.deltas), dtype=bool)
        if lo is not None:
            mask &= self.deltas >= lo
        if hi is not None:
            mask &= self.deltas <= hi
        d = self.deltas[mask]
        v = np.maximum(self.values[mask], 1e-300)
        return float(np.polyfit(np.log(d), np.log(v), 1)[0])

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "p": self.p_label,
            "deltas": [float(x) for x in self.deltas],
            "values": [float(x) for x in self.values],
            "metadata": self.metadata,
        }


def modulus_curve(
    f: GridFunction, alpha, p, deltas=None, method: str = "spectral"
) -> ModulusCurve:
    order, p = _admissible(alpha, p)
    if deltas is None:
        deltas = default_deltas(f.grid)
    deltas = np.asarray(deltas, dtype=float)
    F = transform(f)
    vals = np.array([_modulus(F, float(d), order.alpha, p, method) for d in deltas])
    # running max: the step design at delta_k then contains every step used
    # at smaller deltas, so monotonicity in delta is exact by construction
    vals = np.maximum.accumulate(vals)
    return ModulusCurve(
        order.alpha,
        p.label(),
        deltas,
        vals,
        {"method": method, "n_magnitudes": N_MAGNITUDES, "nested": True},
    )


def partial_modulus(f: GridFunction, axis: int, delta: float, r: int, p) -> float:
    """Whole-order modulus along a single coordinate axis."""
    if not (isinstance(r, int) and r >= 1):
        raise ParameterError("partial moduli take whole orders r >= 1")
    d = f.grid.dimension
    if not (0 <= axis < d):
        raise ParameterError("axis out of range")
    vec = [0.0] * d
    vec[axis] = 1.0
    dirs = (Direction(tuple(vec)), Direction(tuple(-c for c in vec)))
    return modulus(f, delta, SmoothnessOrder(float(r)), p, directions=dirs)


def mixed_modulus(f: GridFunction, orders, delta: float, p) -> float:
    """Mixed modulus: sup over the step design of the composed axis
    differences of whole orders (k_1, ..., k_d)."""
    d = f.grid.dimension
    orders = tuple(int(k) for k in orders)
    if len(orders) != d or any(k < 1 for k in orders):
        raise ParameterError("one whole order >= 1 per axis is required")
    p = Exponent.parse(p)
    w = f.grid.axis_frequencies()

    def symbol_of(hvec):
        return _outer(np.multiply, [_whole_power(np.exp(1j * h * w), k)
                                    for h, k in zip(hvec, orders)])

    return sup_norm(transform(f), step_design(delta, direction_design(d)), symbol_of, p)


def averaged_modulus(
    f: GridFunction, delta: float, r, p, q, inner: bool = False
) -> float:
    """q-average over steps |h| <= delta instead of a supremum.

    Outer form: (delta^-d int_{|h|<=delta} ||D_h^r f||_p^q dh)^(1/q).
    Inner form (requires q <= p): the h-average is taken pointwise under
    the L_p norm.  Midpoint rule with 16 nodes per axis.
    """
    order = r if isinstance(r, SmoothnessOrder) else SmoothnessOrder(r)
    p = Exponent.parse(p)
    q = Exponent.parse(q)
    if q.is_inf:
        raise ParameterError("averaged modulus needs a finite averaging exponent")
    if inner and not q.q1 <= (math.inf if p.is_inf else p.p):
        raise ParameterError("inner form needs q <= p")
    _admissible(order, p)
    d = f.grid.dimension
    n = N_MAGNITUDES
    edges = np.linspace(-delta, delta, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    w_cell = (2.0 * delta / n) ** d
    if d == 1:
        nodes = [(h,) for h in mids]
    else:
        nodes = [
            (h1, h2)
            for h1 in mids
            for h2 in mids
            if math.hypot(h1, h2) <= delta
        ]
    F = transform(f)
    acc = 0.0
    acc_grid = np.zeros(f.grid.shape)
    for hvec in nodes:
        if all(abs(h) < 1e-300 for h in hvec):
            continue
        g = apply_symbol(F, difference_symbol(f.grid, hvec, order.alpha))
        if inner:
            acc_grid = acc_grid + np.abs(g.values) ** q.q1 * w_cell
        else:
            acc += quasi_norm(g, p) ** q.q1 * w_cell
    scale = delta ** (-d)
    if inner:
        avg = GridFunction(f.grid, (scale * acc_grid) ** (1.0 / q.q1))
        return quasi_norm(avg, p)
    return float((scale * acc) ** (1.0 / q.q1))


def sobolev_seminorm(f: GridFunction, r: int, p) -> float:
    """Sum of L_p norms of all whole derivatives of total order r."""
    if not (isinstance(r, int) and r >= 1):
        raise ParameterError("whole order r >= 1 required")
    p = Exponent.parse(p)
    F = transform(f)
    multis = [(r,)] if f.grid.dimension == 1 else [(k, r - k) for k in range(r + 1)]
    return sum(quasi_norm(apply_symbol(F, derivative_symbol(f.grid, m)), p) for m in multis)
