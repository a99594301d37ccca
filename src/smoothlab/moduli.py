"""Fractional differences and moduli of smoothness on periodic grids.

The fractional difference of order alpha > 0 with step h is

    D_h^a f(x) = sum_nu (-1)^nu binom(a, nu) f(x + (a - nu) h),

admissible in L_p exactly when a is a whole number (``grid.is_whole``:
at least 1/2 and within 1e-12 of an integer) or a > (1/p - 1)_+.
Two evaluation routes are provided: summing the (translated) series
itself, and the closed multiplier exp(i a th) (1 - exp(-i th))^a with
th = (h, w); they must agree and that agreement is tested.

Every difference is a Fourier multiplier on the coefficients of f, and
a function's spectrum is computed once, on first use
(``spectral.transform``), however many moduli, curves and checks ask for
the same f.  A step design is one type throughout: an (n, d) float
array, one step per row.  ``direction_design`` gives the directions as a
read-only one, a half followed by its exact negatives; ``step_design``
broadcasts the magnitudes delta (1 - j/16) over them, and every sup and
average hands its design to ``spectral.step_norms`` as such an array.
Every modulus and ``averaged_modulus`` take one delta or an array of
deltas through the one per-delta helper ``_per_delta``, which checks them
with ``grid.step_sizes``; at each delta a modulus is the max of one
``step_norms`` call over the step design of ``step_design``; a curve is
one ``modulus`` over its deltas, and each delta keeps its own blocks of
steps.  ``step_norms`` hands a
symbol one step or a block of steps as per-axis columns of shape
(k, 1, ...); the formulas below are the same for both, and a block gives
one (k, *grid.shape) array.  The closed symbol is built from per-axis
factors, broadcast over the frequency arrays that
``TorusGrid.frequencies`` lays along each axis: z = exp(-i th) is the
product of the axis arrays exp(-i h_j w_j), a whole order r is
(exp(i th) - 1)^r by repeated multiplication, a fractional order is
|1 - z|^a exp(i a (th + Arg(1 - z))) (the principal branch; for a < 1,
z is taken from the full phase th), and the mixed modulus takes the
product of the 1-D axis symbols.  With a real step the closed symbol is
Hermitian, bit for bit, so in 1-D it is built on the FFT indices
0 .. N/2 (the Nyquist mode -N/2 included) and the other half is its
mirror (``spectral._hermitian``); a 2-D grid builds the whole grid,
because the -N/2 row of axis 0 has no partner.  The symbol at -h is the
conjugate of the one at h, bit for bit, so of a 1-D block's pair h, -h
only h is built.  A whole-order symbol, in both routes, and every gain
take each h_j mod L (``_mod_period``); a fractional symbol whose phase
overflows is refused, in both routes (``_symbol_step``).

At p = 2 the closed routes build no symbol: the L_2 modulus is
Plancherel's sup_h (L^d sum (4 sin^2(th/2))^a |F|^2)^(1/2), summed by
``spectral.step_norms`` from the real gain of ``difference_gain`` in the
scaled form 2^a (sum sin^(2a)(th/2) |F|^2)^(1/2), finite for every order
up to MAX_ORDER.  sin(th/2) comes by angle addition from per-axis sines
and cosines, which keeps th = 0 an exact 0 on h = (t, -t).  The mixed
modulus sums its own closed gain, prod_j |2 sin(h_j w_j / 2)|^(2 k_j)
(``_mixed_gain``).  Both gains are even in w, so each is built and summed
on the Hermitian half only (``spectral._half_frequencies``), against
|F|^2 folded onto it once per call.  The outer ``averaged_modulus``
averages the same step norms.  The series route builds its symbols on
the whole grid, and at p = 2 sums |symbol|^2 there.
``TestParsevalRoute`` in ``tests/test_moduli.py`` checks every p = 2 sup
and average against ``apply_symbol`` + ``quasi_norm`` at each design
point.

At p = 2 a sup visits one step of each pair h, -h, and the pair rule
holds by layout: the second half of ``direction_design`` is the exact
negative of its first half, row by row, and the Parseval sum is even in h
bit for bit: sin is odd bit for bit, so the angle-addition sin(th/2) at
-h is the exact negative of that at h and its square is the same, and so
is each axis factor |sin(h_j w_j / 2)| of the mixed gain.  So at p = 2
``step_design`` takes the first half of the directions (16 steps in 1-D
and 160 in 2-D, not 32 and 320), and the max is the max over the whole
design.  The series route halves too; its
values agree with the whole design to round-off.  Off p = 2 every step
keeps its norm: there the norms at h and -h are equal at best through a
translation (by r h at a whole order r), which is off the grid; but the
closed symbol is built once per pair (above).  The outer
``averaged_modulus`` keeps every node, because its mean weighs each.

The series route shares only the spectrum, the read-only array of
``spectral.transform``, whose modes it reads.  It
sums the binomial series mode by mode, on the occupied modes only
(|F| > 1e-14 max|F|, with the bound on what the dropped modes contribute
stated in ``_symbol``): a partial sum whose length adapts to min |1 - w|,
plus 12 summation-by-parts terms that fold in the remainder.  The powers
w^nu come from one table per call, T[i] = w^(i+1) for i below the chunk
length (at most 2048, and at most 2^21 entries), filled by doubling in
about log2(chunk) array products; the partial sum walks it chunk by
chunk, each chunk scaled by the last power of the one before.  So w^nu
is a chain of at most about nu / chunk + 11 products, not nu.  It
carries no certified truncation length; its accuracy is checked against
the closed symbol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .errors import AdmissibilityError, ParameterError
from .grid import (Exponent, GridFunction, SmoothnessOrder, TorusGrid, is_whole, power,
                   quasi_norm, readonly_array, step_sizes)
from .spectral import (Direction, _half_frequencies, _hermitian, apply_symbol, derivative_symbol,
                       multi_indices, step_norms, transform)

#: number of step magnitudes sampled per direction when taking the sup
N_MAGNITUDES = 16
#: tail majorant below which ``binom_power_constant`` stops doubling its length
_POWER_SUM_TOL = 1e-12


def _admissible(alpha, p) -> tuple:
    """(order, exponent), refused unless the order is admissible for p."""
    order = SmoothnessOrder.parse(alpha)
    p = Exponent.parse(p)
    if not order.admissible_for(p):
        raise AdmissibilityError(
            f"alpha={order.alpha} inadmissible for p={p.label()}: "
            f"needs alpha > {p.deficiency}"
        )
    return order, p


def _whole_orders(orders, what: str) -> tuple:
    """``orders`` as ints, refused with ``what`` unless each is a whole
    number >= 1 (the rule ``verify._parse`` applies to an int parameter)
    and their total is an order (``SmoothnessOrder``: at most MAX_ORDER)."""
    if not all(float(k).is_integer() and k >= 1 for k in orders):
        raise ParameterError(what)
    orders = tuple(int(k) for k in orders)
    SmoothnessOrder(float(sum(orders)))
    return orders


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

    A whole order sums its r + 1 terms.  A fractional order at p >= 1 sums
    exactly from its first floor(alpha) + 1 terms: past floor(alpha) the
    signs of binom(alpha, nu) alternate and sum_nu (-1)^nu binom(alpha, nu)
    = (1 - 1)^alpha = 0, so the tail's sum of |binom| is
    |sum_{nu <= floor(alpha)} (-1)^nu binom(alpha, nu)|.  At p < 1 no such
    identity holds: the length doubles until ``_tail_majorant`` of the
    remainder drops below _POWER_SUM_TOL (or reaches 2^20 terms), and the
    majorant is added, so the result is an upper bound.
    """
    order, p = _admissible(alpha, p)
    pt = min(p.q1, 1.0)
    a = order.alpha
    if order.is_integer:
        total = sum(abs(c) ** pt for c in _binom_array(a, int(round(a)) + 1).tolist())
        return power(total, 1.0 / pt)
    if pt == 1.0:
        head = _binom_array(a, math.floor(a) + 1)
        return float(np.abs(head).sum() + abs(head[::2].sum() - head[1::2].sum()))
    n = 16 + int(math.ceil(a))
    while _tail_majorant(a, pt, n) >= _POWER_SUM_TOL and n < 2 ** 20:
        n *= 2
    mags = np.abs(_binom_array(a, n + 1))
    total = float(np.sum(mags ** pt)) + _tail_majorant(a, pt, n)
    return power(total, 1.0 / pt)


# ---------------------------------------------------------------------------
# difference symbols
# ---------------------------------------------------------------------------

_SERIES_PARTIAL = 4096
_SERIES_TAIL_TERMS = 12
_UNRESOLVED = 1e-6
_OCCUPIED = 1e-14


def _series_symbol(alpha: float, theta: np.ndarray):
    """Difference symbol by summing the binomial series at w = exp(-i th).

    A whole order m sums its m + 1 terms.  A fractional order sums to a
    partial length adapted to min |1 - w| and folds the remainder in
    exactly through repeated summation by parts, which maps the order-alpha
    tail onto order alpha+1, alpha+2, ... tails divided by powers of
    (1 - w); there, points with 0 < |1 - w| below the resolution floor
    are left unresolved at 0, as is th = 0 itself, where (1-1)^alpha = 0
    exactly.
    """
    theta = np.asarray(theta, dtype=float)
    w = np.exp(-1j * theta)
    u = 1.0 - w
    symbol = np.zeros(theta.shape, dtype=complex)
    whole = is_whole(alpha)
    if whole:
        n_partial = int(round(alpha))
        res = np.ones(theta.shape, dtype=bool)
    else:
        au = np.abs(u)
        res = au >= _UNRESOLVED
        if not np.any(res):
            return symbol
        au_min = float(au[res].min())
        n_partial = int(min(max(_SERIES_PARTIAL, math.ceil(64.0 / au_min)), 2 ** 20))

    wr = w[res]
    c = _binom_array(alpha, n_partial + 1)
    c[1::2] *= -1.0
    acc = np.full(wr.shape, c[0], dtype=complex)
    wpow = np.ones_like(wr)
    # one power table T[i] = w^(i+1), filled by doubling: at most 2^21
    # entries (32 MB), however many modes are summed
    chunk = max(1, min(2048, 2 ** 21 // max(wr.size, 1)))
    table = np.empty((min(chunk, n_partial),) + wr.shape, dtype=complex)
    table[0] = wr
    k = 1
    while k < len(table):
        m = min(k, len(table) - k)
        table[k:k + m] = table[:m] * table[k - 1]
        k += m
    for start in range(1, n_partial + 1, chunk):
        m = min(chunk, n_partial + 1 - start)
        acc += wpow * (c[start:start + m] @ table[:m])
        wpow = wpow * table[m - 1]
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
    return symbol


def _whole_power(e: np.ndarray, r: int) -> np.ndarray:
    """(e - 1)^r by repeated multiplication; e is overwritten."""
    e -= 1.0
    out = e.copy() if r > 1 else e
    for _ in range(r - 1):
        out *= e
    return out


def difference_symbol(grid: TorusGrid, hvec, alpha: float) -> np.ndarray:
    """Closed symbol exp(i a th) (1 - exp(-i th))^a, th = (h, w), principal branch.

    Built from the per-axis phases h_j w_j: exp(+-i th) is the broadcast
    product of 1-D exponentials, so for a >= 1 no full-grid exponential of
    th is taken.  A real step makes it Hermitian, so in 1-D it is built on
    the FFT indices 0 .. N/2 and mirrored, and of a block's pair h, -h only
    h is built (``spectral._hermitian``).

    A whole order is L-periodic in each h_j and takes it mod L.  A
    fractional one is not (h_j + L translates it by a L), so a step whose
    phase overflows is refused before any exponential.
    """
    whole = is_whole(alpha)
    return _hermitian(grid, _closed_symbol, _symbol_step(grid, hvec, alpha, whole), alpha, whole)


def _mod_period(grid: TorusGrid, hvec) -> tuple:
    """Each h_j of one step or a block's columns as np.fmod(h_j, L): exact,
    the identity for |h_j| < L, and h_j w_j stays finite for any step."""
    return tuple(np.fmod(h, grid.period) for h in hvec)


def _symbol_step(grid: TorusGrid, hvec, alpha: float, whole: bool) -> tuple:
    """The step as both routes to the symbol of order alpha take it: mod L
    (``_mod_period``) at a whole order, where the symbol is L-periodic in
    each h_j; as it is at a fractional order, where it is not, and refused
    there when its phase (h, w) overflows, before any exponential."""
    if whole:
        return _mod_period(grid, hvec)
    if not math.isfinite(sum(float(np.abs(h).max()) for h in hvec) * grid.nyquist):
        raise ParameterError(f"step too large for the fractional order {alpha:g}: "
                             "its phase (h, w) overflows")
    return hvec


def _closed_symbol(freqs: tuple, hvec, alpha: float, whole: bool) -> np.ndarray:
    hw = [h * w for h, w in zip(hvec, freqs)]
    if whole:
        return _whole_power(reduce(np.multiply, [np.exp(1j * t) for t in hw]), round(alpha))
    # |1 - z|^a exp(i a (th + Arg(1 - z))) is exp(i a th) np.power(1 - z, a)
    theta = reduce(np.add, hw)
    # for a < 1, |1 - z|^a is not Lipschitz at z = 1: a product of axis
    # factors would turn an exact th = 0 into eps^a, so z comes from th
    if alpha < 1:
        b = np.exp(-1j * theta)
    else:
        b = reduce(np.multiply, [np.exp(-1j * t) for t in hw])
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


def difference_gain(grid: TorusGrid, hvec, alpha: float) -> tuple:
    """|difference_symbol|^2 = (4 sin^2(th/2))^alpha in the scaled form of
    ``spectral.step_norms``: (2^alpha, sin^(2 alpha)(th/2)), real and <= 1.

    The gain is even in w, so it is built on the Hermitian half only, the
    layout of ``spectral._half_frequencies``: in 1-D the FFT indices
    0 .. N/2, an array of N/2 + 1 entries per step; in 2-D rows 0 .. N/2
    of axis 0 against the N columns of axis 1 and the strip column, an
    (N/2 + 1, N + 1) array per step.  ``step_norms`` sums it against the
    power spectrum folded onto that half.  sin(th/2) comes by angle
    addition from the per-axis half phases h_j w_j / 2, broadcast products
    of 1-D sines and cosines: on h = (t, -t) the two products cancel
    exactly, so th = 0 gives an exact 0 at every order, where a product of
    axis factors would give eps^alpha.  It is L-periodic in each h_j at
    every order, so each h_j is taken mod L (``_mod_period``).
    """
    return power(2.0, alpha), _closed_gain(_half_frequencies(grid), _mod_period(grid, hvec),
                                           alpha)


def _closed_gain(freqs: tuple, hvec, alpha: float) -> np.ndarray:
    half = [0.5 * h * w for h, w in zip(hvec, freqs)]
    if len(half) == 1:
        gain = np.sin(half[0])
    else:
        a, b = half
        gain = np.sin(a) * np.cos(b)
        gain += np.cos(a) * np.sin(b)
    np.square(gain, out=gain)
    gain **= alpha
    return gain


@dataclass(frozen=True)
class Step:
    """A difference step: unit direction times magnitude, a step size that
    ``grid.step_sizes`` accepts (positive and finite)."""

    direction: Direction
    magnitude: float

    def __post_init__(self):
        step_sizes(self.magnitude)

    @property
    def vector(self) -> tuple:
        return tuple(self.magnitude * c for c in self.direction.vector)


def frac_difference(f: GridFunction, step: Step, alpha, method: str = "spectral") -> GridFunction:
    """Fractional difference of order alpha with the given step.

    ``method`` selects the evaluation route: 'spectral' applies the closed
    multiplier, 'series' sums the translated binomial series (translations
    are exact spectral shifts).
    """
    order = SmoothnessOrder.parse(alpha)
    if step.direction.dimension != f.grid.dimension:
        raise ParameterError("step dimension does not match the grid")
    return apply_symbol(f, _symbol(f, step.vector, order.alpha, method))


def _symbol(f: GridFunction, hvec, alpha: float, method: str) -> np.ndarray:
    """Symbol of the order-alpha difference with step hvec, on the modes of f.

    Both routes take the step as ``_symbol_step`` gives it.  The series
    route sums only the occupied modes of the spectrum F of f,
    |F| > _OCCUPIED max|F|,
    and leaves the symbol 0 elsewhere.  Since |symbol| <= 2^alpha, a
    dropped mode changes any output sample by at most
    _OCCUPIED max|F| 2^alpha, and all of them together by at most
    N^d 2^alpha _OCCUPIED max|F| <= N^d 2^alpha 1e-14 max|f|: 1e-10 max|f|
    in 1-D at N = 1024 and alpha <= 3.2.
    """
    if method == "spectral":
        return difference_symbol(f.grid, hvec, alpha)
    if method != "series":
        raise ParameterError(f"unknown method '{method}'")
    hvec = _symbol_step(f.grid, hvec, alpha, is_whole(alpha))
    theta = reduce(np.add, [h * w for h, w in zip(hvec, f.grid.frequencies())])
    mag = np.abs(transform(f))
    occupied = mag > _OCCUPIED * mag.max()
    symbol = np.zeros(theta.shape, dtype=complex)
    # one step at a time: each sets its own partial-sum length
    shape = f.grid.shape
    for row, t in zip(symbol.reshape((-1,) + shape), theta.reshape((-1,) + shape)):
        row[occupied] = _series_symbol(alpha, t[occupied])
    return symbol


# ---------------------------------------------------------------------------
# direction / magnitude design and the moduli
# ---------------------------------------------------------------------------


@cache
def direction_design(dimension: int) -> np.ndarray:
    """The fixed directions of every sampled supremum, a read-only (n, d)
    array built once per dimension: a half design followed by its exact
    negatives, row n/2 + k the negative of row k.  d = 1: +1, then -1.
    d = 2: the 8 angles (k + 1/2) 2 pi / 16, k = 0 .. 7 (offset half a slot
    so that none is an axis), each divided by its hypot as ``Direction.of``
    does, then +x and +y; then those 10 negated.  ``step_design`` keeps the
    first half at p = 2."""
    if dimension == 1:
        half = [(1.0,)]
    elif dimension == 2:
        angles = [(k + 0.5) * 2.0 * math.pi / 16.0 for k in range(8)]
        circle = [(math.cos(a), math.sin(a)) for a in angles]
        half = [(c / math.hypot(c, s), s / math.hypot(c, s)) for c, s in circle]
        half += [(1.0, 0.0), (0.0, 1.0)]
    else:
        raise ParameterError("dimension must be 1 or 2")
    half = np.array(half)
    return readonly_array(np.concatenate([half, -half]), float)


def _sup_directions(directions, p) -> np.ndarray:
    """The rows of ``directions`` (laid out as ``direction_design``'s) that a
    sup at exponent p visits: at p = 2, where the norms at h and -h are
    equal bit for bit (module docstring), the first half; else all.
    Private, so that a traced run adds no span per design."""
    if Exponent.parse(p).p == 2.0:
        return directions[:len(directions) // 2]
    return directions


def step_design(delta: float, directions, p) -> np.ndarray:
    """The (n m, d) array of steps t * zeta for every magnitude
    t = delta (1 - j/m), j = 0 .. m - 1 (m = N_MAGNITUDES, largest first),
    and, within each, every row zeta of ``directions``, an (n, d) array laid
    out as ``direction_design``'s: a half followed by its negatives.

    At p = 2 only the first half is kept (``_sup_directions``).
    """
    directions = _sup_directions(directions, p)
    mags = step_sizes(delta) * (1.0 - np.arange(N_MAGNITUDES) / N_MAGNITUDES)
    return (mags[:, None, None] * directions).reshape(-1, directions.shape[1])


def _per_delta(deltas, value_at):
    """``value_at(delta)`` at each of ``deltas`` (``step_sizes``): a scalar
    delta gives a float, an array of deltas an array of its shape."""
    deltas = step_sizes(deltas)
    values = np.array([value_at(d) for d in deltas.ravel().tolist()]).reshape(deltas.shape)
    return float(values) if values.ndim == 0 else values


def _sups(f: GridFunction, deltas, directions, p: Exponent, symbol_of, gain_of=None):
    """The sampled supremum at each delta: the max of ``step_norms`` over
    ``step_design(delta, directions, p)``, one call per delta."""
    return _per_delta(deltas, lambda d: max(
        step_norms(f, step_design(d, directions, p), symbol_of, p, gain_of)))


def modulus(f: GridFunction, delta, alpha, p, method: str = "spectral"):
    """Sampled modulus of smoothness at delta, one value or an array of
    them: max over the shared step design of the L_p quasi-norm of the
    order-alpha difference."""
    order, p = _admissible(alpha, p)
    return _sups(f, delta, direction_design(f.grid.dimension), p,
                 *_difference(f, order.alpha, p, method))


def _difference(f: GridFunction, a: float, p: Exponent, method: str = "spectral") -> tuple:
    """(symbol_of, gain_of) of the order-a difference of f by ``method`` for
    ``spectral.step_norms``; the series route has no closed gain (None).  At
    p = 2 only |symbol| counts (all of the series symbol's, and the closed
    one's in an underflowing Parseval sum), and |symbol| is L-periodic in
    each h_j at every order: so there the step is taken mod L, also at a
    fractional order."""
    grid, at_2 = f.grid, p.p == 2.0
    closed = method == "spectral"
    return (lambda h: _symbol(f, _mod_period(grid, h) if at_2 else h, a, method),
            (lambda h: difference_gain(grid, h, a)) if closed else None)


def default_deltas(grid: TorusGrid, n: int, floor_cells: float = 4.0) -> np.ndarray:
    """Geometric grid of n deltas from floor_cells * spacing up to 1; the
    config (``n_deltas_1d``/``n_deltas_2d``) is the one home of n."""
    lo = floor_cells * grid.spacing
    if lo >= 1.0:
        raise ParameterError("grid too coarse for the requested delta range")
    return np.geomspace(lo, 1.0, n)


@dataclass(frozen=True)
class ModulusCurve:
    """Modulus values over a delta grid, with log-log interpolation.

    Frozen, with read-only arrays: a cached curve is shared by every check
    that asks for it, and its fitted ``_low_slope`` must stay its own.
    """

    alpha: float
    p_label: str
    deltas: np.ndarray
    values: np.ndarray
    method: str = "spectral"

    def __post_init__(self):
        object.__setattr__(self, "deltas", readonly_array(self.deltas, float))
        object.__setattr__(self, "values", readonly_array(self.values, float))
        if self.deltas.shape != self.values.shape or self.deltas.ndim != 1:
            raise ParameterError("deltas and values must be matching 1-D arrays")
        if np.any(np.diff(self.deltas) <= 0):
            raise ParameterError("deltas must increase")

    def interp(self, t):
        """Log-log linear interpolation at t > 0, elementwise over an array
        (a scalar t gives a float); power-law extension below the smallest
        delta (slope fitted on the lowest points), flat above."""
        d, v = self.deltas, np.maximum(self.values, 1e-300)
        ts = np.asarray(t, dtype=float)
        if np.any(ts <= 0):
            raise ParameterError("t must be positive")
        # the low branch sees min(t, d[0]), so it stays finite where unused
        low = v[0] * (np.minimum(ts, d[0]) / d[0]) ** self._low_slope
        mid = np.exp(np.interp(np.log(ts), np.log(d), np.log(v)))
        out = np.where(ts < d[0], low, np.where(ts >= d[-1], v[-1], mid))
        return float(out) if out.ndim == 0 else out

    @cached_property
    def _low_slope(self) -> float:
        """Log-log slope fitted on the lowest points, for interp below d[0]."""
        k = min(5, len(self.deltas))
        v = np.maximum(self.values[:k], 1e-300)
        return np.polyfit(np.log(self.deltas[:k]), np.log(v), 1)[0]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "p": self.p_label,
            "deltas": [float(x) for x in self.deltas],
            "values": [float(x) for x in self.values],
            "metadata": {"method": self.method, "n_magnitudes": N_MAGNITUDES, "nested": True},
        }


def modulus_curve(f: GridFunction, alpha, p, deltas, method: str = "spectral") -> ModulusCurve:
    order, p = _admissible(alpha, p)
    deltas = np.asarray(deltas, dtype=float)
    # running max: the value at delta_k is the sup over the union of the step
    # designs at deltas <= delta_k (no two deltas share a step), so
    # monotonicity in delta is exact by construction
    vals = np.maximum.accumulate(modulus(f, deltas, order, p, method))
    return ModulusCurve(order.alpha, p.label(), deltas, vals, method)


def partial_modulus(f: GridFunction, axis: int, delta, r: int, p):
    """Whole-order modulus along a single coordinate axis, at one delta or
    an array of them."""
    (r,) = _whole_orders([r], "partial moduli take whole orders r >= 1")
    d = f.grid.dimension
    if not (0 <= axis < d):
        raise ParameterError("axis out of range")
    order, p = _admissible(float(r), p)
    a = order.alpha
    unit = np.eye(d)[axis]
    return _sups(f, delta, np.array([unit, -unit]), p, *_difference(f, a, p))


def mixed_modulus(f: GridFunction, orders, delta, p):
    """Mixed modulus at one delta or an array of them: sup over the step
    design of the composed axis differences of whole orders (k_1, ..., k_d)."""
    d, orders = f.grid.dimension, tuple(orders)
    what = "one whole order >= 1 per axis is required"
    if len(orders) != d:
        raise ParameterError(what)
    orders = _whole_orders(orders, what)
    p = Exponent.parse(p)

    def symbol_of(hvec):
        return reduce(np.multiply, [_whole_power(np.exp(1j * h * w), k)
                                    for h, w, k in zip(hvec, f.grid.frequencies(), orders)])

    return _sups(f, delta, direction_design(d), p, symbol_of,
                 lambda hvec: _mixed_gain(f.grid, hvec, orders))


def _mixed_gain(grid: TorusGrid, hvec, orders: tuple) -> tuple:
    """|mixed symbol|^2 = prod_j |2 sin(h_j w_j / 2)|^(2 k_j) on the
    Hermitian half, in the scaled form of ``spectral.step_norms``: row by
    row, (max|symbol|, gain) with the gain a product of per-axis vectors,
    each over its own max.  So the gain's row max is 1, and an axis step,
    where a factor is 0 everywhere, has scale 0 and reads 0.  Each h_j is
    taken mod L (``_mod_period``), as by ``difference_gain``."""
    d = grid.dimension
    scale, gain = 1.0, 1.0
    for h, w, k in zip(_mod_period(grid, hvec), _half_frequencies(grid), orders):
        factor = np.abs(np.sin(0.5 * h * w))
        top = factor.max(axis=tuple(range(-d, 0)), keepdims=True)
        factor /= np.where(top > 0, top, 1.0)
        scale = scale * (2.0 * top) ** k
        gain = gain * factor ** (2 * k)
    return np.ravel(scale), gain


def averaged_modulus(f: GridFunction, delta, r, p, q, inner: bool = False):
    """q-average over steps |h| <= delta instead of a supremum, at one delta
    or an array of them.

    Outer form: (delta^-d int_{|h|<=delta} ||D_h^r f||_p^q dh)^(1/q).
    Inner form (requires q <= p): the h-average is taken pointwise under
    the L_p norm.  Midpoint rule with 16 nodes per axis.  The outer form
    takes its node norms from ``spectral.step_norms``, so at p = 2 it is
    Parseval on ``difference_gain``; only the inner form keeps samples.
    """
    order, p = _admissible(r, p)
    q = Exponent.parse(q)
    if q.is_inf:
        raise ParameterError("averaged modulus needs a finite averaging exponent")
    if inner and not q.p <= p.p:
        raise ParameterError("inner form needs q <= p")
    d = f.grid.dimension
    n = N_MAGNITUDES
    a = order.alpha
    symbol_of, gain_of = _difference(f, a, p)

    def average(delta):
        edges = np.linspace(-delta, delta, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        w_cell = (2.0 * delta / n) ** d
        nodes = np.array([h for h in itertools.product(mids, repeat=d)
                          if math.hypot(*h) <= delta])
        scale = delta ** (-d)
        if inner:
            acc = np.zeros(f.grid.shape)
            for hvec in nodes:
                g = apply_symbol(f, difference_symbol(f.grid, hvec, a))
                acc += np.abs(g.values) ** q.p * w_cell
            return quasi_norm(GridFunction(f.grid, (scale * acc) ** (1.0 / q.p)), p)
        norms = step_norms(f, nodes, symbol_of, p, gain_of)
        acc = sum(norm ** q.p * w_cell for norm in norms)
        return float((scale * acc) ** (1.0 / q.p))

    return _per_delta(delta, average)


def sobolev_seminorm(f: GridFunction, r: int, p) -> float:
    """Sum of L_p norms of all whole derivatives of total order r."""
    (r,) = _whole_orders([r], "whole order r >= 1 required")
    p = Exponent.parse(p)
    return sum(quasi_norm(apply_symbol(f, derivative_symbol(f.grid, m)), p)
               for m in multi_indices(f.grid.dimension, r))
