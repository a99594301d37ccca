import itertools
import math
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothlab import approx, moduli, spectral
from smoothlab.approx import k_functional, sup_directional
from smoothlab.corpus import grid_function
from smoothlab.errors import AdmissibilityError, ParameterError
from smoothlab.grid import GridFunction, SmoothnessOrder, TorusGrid, is_whole, quasi_norm
from smoothlab.moduli import (
    ModulusCurve,
    Step,
    _series_symbol,
    _symbol,
    _whole_power,
    averaged_modulus,
    binom_power_constant,
    binom_power_constant as bpc,
    difference_gain,
    difference_symbol,
    frac_binomial,
    frac_difference,
    direction_design,
    mixed_modulus,
    modulus,
    modulus_curve,
    partial_modulus,
    sobolev_seminorm,
    step_design,
)
from smoothlab.spectral import Direction, apply_symbol, transform
from smoothlab.verify import Workbench, run_check


def _spectral_symbol(alpha, theta):
    """Reference closed symbol exp(i a th) (1 - exp(-i th))^a through np.power."""
    theta = np.asarray(theta, dtype=float)
    return np.exp(1j * alpha * theta) * np.power(1.0 - np.exp(-1j * theta), alpha)


class TestBinomials:
    def test_integer_orders(self):
        assert frac_binomial(3.0, 0) == 1.0
        assert frac_binomial(3.0, 1) == 3.0
        assert frac_binomial(3.0, 3) == 1.0
        assert frac_binomial(3.0, 4) == 0.0

    def test_half_order(self):
        assert frac_binomial(0.5, 1) == pytest.approx(0.5)
        assert frac_binomial(0.5, 2) == pytest.approx(-0.125)

    @given(st.floats(min_value=0.1, max_value=4.9).filter(
        lambda a: abs(a - round(a)) > 1e-3))
    @settings(max_examples=30)
    def test_recurrence(self, a):
        # binom(a, n+1) = binom(a, n) * (a - n) / (n + 1)
        for n in range(4):
            assert frac_binomial(a, n + 1) == pytest.approx(
                frac_binomial(a, n) * (a - n) / (n + 1), rel=1e-10
            )

    def test_power_sum_constant_oracles(self):
        # sum_nu |binom(a, nu)| is exactly 2 for 0 < a < 1 and 2^r at whole r;
        # the computed constant is an upper bound (majorant tail), never below
        for val in (bpc(0.5, 2.0), bpc(0.25, 1.0)):
            assert 2.0 <= val <= 2.0 * (1.0 + 1e-6)
        assert bpc(2.0, 2.0) == pytest.approx(4.0)
        assert bpc(3.0, "inf") == pytest.approx(8.0)

    def test_power_sum_closed_forms_at_p_at_least_one(self):
        # past floor(a) the signs alternate and sum (-1)^nu binom(a, nu) = 0,
        # so the sum of |binom(a, nu)| is exact: 2 for 0 < a < 1, tiny a
        # included, 1 + 1.5 + |1 - 1.5| = 3 at a = 1.5, and 1 + 2.5 + 1.875 +
        # |1 - 2.5 + 1.875| = 5.75 at a = 2.5
        for p in (1.0, 2.0, "inf"):
            for a in (1e-13, 0.25, 0.5, 0.75):
                assert bpc(a, p) == 2.0
            assert bpc(1.5, p) == 3.0
            assert bpc(2.5, p) == 5.75

    def test_power_sum_at_p_at_least_one_allocates_no_long_series(self):
        tracemalloc.start()
        try:
            bpc(1.5, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_power_sum_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            binom_power_constant(0.5, 0.5)


class TestSymbols:
    def test_series_matches_closed_form(self):
        rng = np.random.default_rng(1)
        th = rng.uniform(0.005, 3.0, 64)
        for a in (0.5, 1.3, 2.0, 3.7):
            s = _series_symbol(a, th)
            assert np.max(np.abs(s - _spectral_symbol(a, th))) < 1e-10

    @pytest.mark.parametrize("theta", [
        # 12,800 terms: 6 whole chunks of 2048 and a part
        pytest.param(np.random.default_rng(2).uniform(0.005, 3.0, 64), id="part-chunk"),
        # 5000 modes shrink the chunk to 2^21 // 5000 = 419 terms
        pytest.param(np.random.default_rng(3).uniform(0.05, 3.0, 5000), id="small-chunk"),
        # 320,000 terms: 157 chunks
        pytest.param(np.geomspace(2e-4, 3.0, 40), id="long-sum"),
    ])
    @pytest.mark.parametrize("a", [0.5, 1.5, 3.2])
    def test_the_power_table_walks_every_chunk(self, a, theta):
        s = _series_symbol(a, theta)
        assert np.max(np.abs(s - _spectral_symbol(a, theta))) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_whole_orders_sum_fewer_terms_than_a_chunk(self, m):
        # the reference builds each w^nu as a chain of nu products: orders 1
        # and 2 keep its bits, higher orders differ from it by round-off
        th = np.random.default_rng(4).uniform(-3.1, 3.1, 200)
        w = np.exp(-1j * th)
        c = moduli._binom_array(float(m), m + 1)
        c[1::2] *= -1.0
        chain = [w]
        for _ in range(m - 1):
            chain.append(chain[-1] * w)
        ref = np.exp(1j * m * th) * (c[0] + np.tensordot(c[1:], np.array(chain), axes=(0, 0)))
        s = _series_symbol(float(m), th)
        if m <= 2:
            assert np.array_equal(s, ref)
        else:
            assert np.max(np.abs(s - ref)) <= 2.0 ** m * 1e-15
        assert np.max(np.abs(s - _spectral_symbol(m, th))) < 1e-10

    def test_zero_angle_sums_to_zero(self):
        s = _series_symbol(0.5, np.array([0.0]))
        assert s[0] == 0.0

    def test_near_zero_angle_flagged(self):
        # below the resolution floor the symbol is left at 0
        s = _series_symbol(0.5, np.array([1e-9]))
        assert s[0] == 0

    def test_integer_symbol_magnitude(self):
        # |symbol| = (2 sin(th/2))^a for any order
        th = np.array([0.3, 1.1, 2.5])
        for a in (1.0, 2.0, 0.5):
            s = _series_symbol(a, th)
            assert np.allclose(np.abs(s), (2 * np.sin(th / 2.0)) ** a, atol=1e-12)

    def test_series_sums_only_the_occupied_modes(self):
        # fejer occupies 51 of its 1024 modes; the rest is FFT round-off
        f = grid_function("fejer", N=1024, L=40.0)
        F, h = transform(f), (0.3,)
        theta = 0.3 * f.grid.axis_frequencies()
        mag = np.abs(F)
        dropped = mag <= 1e-14 * mag.max()
        assert 0 < np.count_nonzero(~dropped) < 64
        for a in (0.5, 1.5, 2.0, 3.2):
            s = _symbol(f, h, a, "series")
            assert np.all(s[dropped] == 0.0)
            assert np.max(np.abs(s[~dropped] - _spectral_symbol(a, theta[~dropped]))) < 1e-10


class TestStep:
    @pytest.mark.parametrize("size", [0.0, -1.0, math.nan, math.inf])
    def test_a_step_size_outside_the_one_rule_is_refused_at_once(self, size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="positive and finite"):
                Step(Direction((1.0,)), size)

    @pytest.mark.parametrize("size", [1e-300, 0.3])
    def test_tiny_and_ordinary_step_sizes_construct(self, size):
        assert Step(Direction((1.0,)), size).vector == (size,)


class TestFracDifference:
    def test_series_spectral_agree_on_bandlimited(self):
        f = grid_function("fejer", N=512, L=40.0)
        for a in (0.5, 1.5, 3.2):
            d1 = frac_difference(f, Step(Direction((1.0,)), 0.3), a, method="spectral")
            d2 = frac_difference(f, Step(Direction((1.0,)), 0.3), a, method="series")
            assert np.max(np.abs(d1.values - d2.values)) < 1e-10

    def test_series_spectral_agree_in_2d(self):
        f = grid_function("gaussian2d", N=256, L=20.0)
        step = Step(Direction.of(1.0, 2.0), 0.37)
        d1 = frac_difference(f, step, 1.5, method="spectral")
        d2 = frac_difference(f, step, 1.5, method="series")
        assert np.max(np.abs(d1.values - d2.values)) < 1e-8 * np.max(np.abs(f.values))

    def test_whole_order_matches_direct_stencil(self):
        grid = TorusGrid(1, 256, 2 * math.pi)
        x = grid.axis_coords()
        f = GridFunction(grid, np.exp(1j * x))
        h = 2 * math.pi / 256 * 8  # shift by exactly 8 cells
        d = frac_difference(f, Step(Direction((1.0,)), h), 1.0)
        direct = np.roll(f.values, -8) - f.values  # f(x + h) - f(x)
        assert np.max(np.abs(d.values - direct)) < 1e-12


class TestModulus:
    def test_plane_wave_oracle(self):
        f = grid_function("planewave", N=512)
        for d in (0.1, 0.4, 1.0):
            assert modulus(f, d, 1.0, "inf") == pytest.approx(
                2 * math.sin(d / 2), abs=1e-4
            )

    def test_admissibility_gate(self):
        f = grid_function("gaussian", N=256, L=20.0)
        with pytest.raises(AdmissibilityError):
            modulus(f, 0.5, 0.7, 0.5)

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.inf, math.nan])
    def test_step_scale_must_be_positive_and_finite(self, delta):
        """Every function that takes a step size refuses the same ones."""
        f = grid_function("gaussian", N=256, L=20.0)
        for takes_delta in (
            lambda: modulus(f, delta, 1.0, 2.0),
            lambda: averaged_modulus(f, delta, 1.0, 2.0, 1.0),
            lambda: averaged_modulus(f, delta, 1.0, 2.0, 0.5, inner=True),
            lambda: k_functional(f, delta, 1.0, 2.0),
            lambda: approx.realization(f, delta, 1.0, 2.0),
        ):
            with pytest.raises(ParameterError, match="delta"):
                takes_delta()

    def test_an_order_below_one_half_is_not_whole(self):
        # whole orders are >= 1/2: 1e-13 is a fractional order, inadmissible at p = 1/2
        f = grid_function("gaussian", N=256, L=20.0)
        with pytest.raises(AdmissibilityError):
            modulus(f, 0.3, 1e-13, 0.5)

    def test_designs(self):
        assert len(direction_design(1)) == 2
        assert len(direction_design(2)) == 20
        mags = np.abs(step_design(0.8, direction_design(1), 1.0)[::2, 0])
        assert len(mags) == 16
        assert mags[0] == pytest.approx(0.8)
        assert np.all(mags > 0)

    def test_offset_angles_come_in_exact_negative_pairs(self):
        dirs = direction_design(2)
        assert len(dirs) == 20
        for k in range(10):
            assert dirs[k + 10].tolist() == (-dirs[k]).tolist()
        # the half design: angles 0 .. 7, each within an ulp of its cos/sin,
        # then the 2 positive axes; its negatives then follow in that order
        for k, zeta in enumerate(dirs[:8]):
            ang = (k + 0.5) * 2.0 * math.pi / 16.0
            assert tuple(zeta) == pytest.approx((math.cos(ang), math.sin(ang)), rel=0, abs=4e-16)
        assert dirs[8:10].tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("orders", [(1.5, 1), (1, 0.5), (0, 1), (1,), (math.nan, 1)])
    def test_mixed_orders_are_whole_numbers_of_at_least_one(self, orders):
        # int(1.5) would give the (1, 1) modulus
        f = grid_function("gaussian2d", N=32, L=20.0)
        with pytest.raises(ParameterError, match="whole order"):
            mixed_modulus(f, orders, 0.3, 2.0)

    @pytest.mark.parametrize("route", ["partial", "mixed", "sobolev"])
    @pytest.mark.parametrize("count", [2, np.int64(2), 2.0, 1.5, 0, math.inf, math.nan, 1100])
    def test_one_whole_count_rule(self, route, count):
        # a whole number >= 1 of any numeric type runs as its int; anything
        # else is refused, and so is a total order above MAX_ORDER
        grid = TorusGrid(2, 8, 2.0 * math.pi)
        x1, x2 = grid.coords()
        f = GridFunction(grid, np.cos(x1 + x2))
        call = {"partial": lambda r: partial_modulus(f, 0, 0.5, r, 2.0),
                "mixed": lambda r: mixed_modulus(f, (r, 1), 0.5, 2.0),
                "sobolev": lambda r: sobolev_seminorm(f, r, 2.0)}[route]
        if count == 2:
            assert call(count) == call(2) > 0
        else:
            with pytest.raises(ParameterError):
                call(count)

    def test_curve_monotone_exactly(self):
        f = grid_function("gaussian", N=256, L=20.0)
        c = modulus_curve(f, 1.0, 2.0, deltas=np.geomspace(0.4, 1.0, 8))
        assert np.all(np.diff(c.values) >= 0)

    def test_curve_slope_matches_order_for_smooth(self):
        f = grid_function("gaussian", N=512, L=20.0)
        for a in (1.0, 2.0):
            c = modulus_curve(f, a, 2.0, deltas=np.geomspace(0.16, 0.5, 8))
            slope = np.polyfit(np.log(c.deltas), np.log(c.values), 1)[0]
            assert slope == pytest.approx(a, abs=0.15)

    def test_interp_extension(self):
        deltas = np.geomspace(0.1, 1.0, 10)
        curve = ModulusCurve(1.0, "2", deltas, deltas ** 2)  # exact power law
        assert curve.interp(0.01) == pytest.approx(1e-4, rel=1e-6)
        assert curve.interp(2.0) == pytest.approx(1.0)
        assert curve.interp(0.3) == pytest.approx(0.09, rel=1e-6)

    def test_interp_extension_is_the_low_point_fit(self):
        deltas = np.geomspace(0.1, 1.0, 10)
        values = deltas ** 1.7 * (1.0 + 0.1 * np.sin(7.0 * deltas))
        curve = ModulusCurve(1.7, "2", deltas, values)
        slope = np.polyfit(np.log(deltas[:5]), np.log(values[:5]), 1)[0]
        for t in (0.001, 0.05, 0.0999):
            assert curve.interp(t) == float(values[0] * (t / deltas[0]) ** slope)
        # an array, below, inside and above the deltas, is taken elementwise
        ts = np.array([0.001, 0.0999, 0.1, 0.3, 1.0, 2.0])
        assert np.array_equal(curve.interp(ts), [curve.interp(float(t)) for t in ts])


class TestDesignLayout:
    """Every step design is an (n, d) float array; the directions are a half
    followed by its exact negatives, so the p = 2 pair rule is a slice."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_directions_are_a_read_only_float_array(self, d):
        dirs = direction_design(d)
        assert isinstance(dirs, np.ndarray) and dirs.dtype == np.float64
        assert dirs.shape == ((2, 1) if d == 1 else (20, 2))
        assert not dirs.flags.writeable
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_the_second_half_is_minus_the_first_bit_for_bit(self, d):
        dirs = direction_design(d)
        half = len(dirs) // 2
        assert dirs[half:].tobytes() == (-dirs[:half]).tobytes()

    def test_the_offset_angles_are_normalised_as_direction_of(self):
        angles = [(k + 0.5) * 2.0 * math.pi / 16.0 for k in range(8)]
        want = [Direction.of(math.cos(a), math.sin(a)).vector for a in angles]
        assert direction_design(2)[:8].tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_p2_keeps_the_first_half_at_each_magnitude(self, d):
        dirs = direction_design(d)
        n = len(dirs)
        for delta in (0.05, 0.6, 1.0):
            every = step_design(delta, dirs, 1.0).reshape(16, n, d)
            half = step_design(delta, dirs, 2.0).reshape(16, n // 2, d)
            assert half.tobytes() == every[:, :n // 2].tobytes()


@pytest.fixture(scope="module")
def f2():
    return grid_function("gaussian2d", N=64, L=20.0)


class TestHigherDimensional:

    def test_partial_bounded_by_total(self, f2):
        total = modulus(f2, 0.6, 2.0, 2.0)
        part = partial_modulus(f2, 0, 0.6, 2, 2.0)
        assert part <= total * (1.0 + 1e-9)

    def test_mixed_symmetry(self, f2):
        a = mixed_modulus(f2, (1, 1), 0.6, 2.0)
        b = mixed_modulus(f2, (1, 1), 0.6, 2.0)
        assert a == b
        assert a > 0

    def test_averaged_below_sup(self, f2):
        # normalization is delta^-d but the ball |h| <= delta has volume
        # pi * delta^2 in 2-D, so the average can exceed the sup by pi^(1/q)
        sup = modulus(f2, 0.6, 1.0, 2.0)
        avg = averaged_modulus(f2, 0.6, 1.0, 2.0, 1.0)
        assert avg <= sup * math.pi * (1.0 + 1e-9)

    def test_sobolev_seminorm_oracle(self):
        grid = TorusGrid(1, 256, 2 * math.pi)
        x = grid.axis_coords()
        f = GridFunction(grid, np.exp(1j * 3 * x))
        # |f'|_2 = 3 * |f|_2
        assert sobolev_seminorm(f, 1, 2.0) == pytest.approx(
            3.0 * quasi_norm(f, 2.0), rel=1e-10
        )


ORDERS = (0.5, 1.0, 1.5, 2.0, 3.0, 3.2)
#: (grid, steps): steps inside the design range, steps with h w in 2 pi Z
#: for some modes (L / m, and opposite components that cancel exactly), and
#: steps just beside those
SYMBOL_CASES = (
    (TorusGrid(1, 1024, 40.0), [(0.3,), (-0.77,), (1.0,), (1.0 + 1e-9,), (-2.5,), (0.625,)]),
    (
        TorusGrid(2, 64, 20.0),
        [(0.3, 0.1), (-0.5, 0.25), (1.25, 0.0), (0.625, -0.625), (0.5, 0.25),
         (0.31, -0.31 * (1.0 + 1e-9)), (0.6 * math.cos(0.2), 0.6 * math.sin(0.2))],
    ),
)


class TestSeparableSymbol:
    @pytest.mark.parametrize("grid,steps", SYMBOL_CASES, ids=["1d", "2d"])
    @pytest.mark.parametrize("alpha", ORDERS)
    def test_matches_power_reference(self, grid, steps, alpha):
        for hvec in steps:
            theta = sum(h * w for h, w in zip(hvec, grid.frequencies()))
            ref = _spectral_symbol(alpha, np.broadcast_to(theta, grid.shape))
            got = difference_symbol(grid, hvec, alpha)
            assert got.shape == grid.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _full_symbol(freqs, hvec, alpha):
    """The closed symbol over the frequency arrays ``freqs``, written out as
    a full-grid build: exp(i th) and repeated multiplication at whole
    orders, angle, abs and ** alpha at fractional ones."""
    hw = [h * w for h, w in zip(hvec, freqs)]
    if is_whole(alpha):
        e = reduce(np.multiply, [np.exp(1j * t) for t in hw]) - 1.0
        out = e.copy()
        for _ in range(round(alpha) - 1):
            out *= e
        return out
    theta = reduce(np.add, hw)
    z = np.exp(-1j * theta) if alpha < 1 else reduce(np.multiply, [np.exp(-1j * t) for t in hw])
    b = 1.0 - z
    phase = (np.angle(b) + theta) * alpha
    out = np.empty_like(b)
    out.real, out.imag = np.cos(phase), np.sin(phase)
    return out * np.abs(b) ** alpha


def _full_gain(freqs, hvec, alpha):
    """sin^(2 alpha)(th/2) over ``freqs``, sin(th/2) by angle addition in 2-D."""
    half = [0.5 * h * w for h, w in zip(hvec, freqs)]
    if len(half) == 1:
        s = np.sin(half[0])
    else:
        s = np.sin(half[0]) * np.cos(half[1]) + np.cos(half[0]) * np.sin(half[1])
    return np.square(s) ** alpha


def _full_directional(freqs, vector, alpha):
    return np.power(1j * sum(z * w for z, w in zip(vector, freqs)), alpha)


#: (the closed build, its full-grid reference, its 1-D steps or directions):
#: the single steps of SYMBOL_CASES and the +- block of a p = 1/2 design,
#: or both directions and their block, a block as per-axis columns
_BLOCK = step_design(0.6, direction_design(1), 0.5)
_STEPS = SYMBOL_CASES[0][1] + [tuple(_BLOCK.T.reshape(1, -1, 1))]
HALF_BUILDS = {
    "symbol": (difference_symbol, _full_symbol, _STEPS),
    "gain": (lambda grid, h, a: difference_gain(grid, h, a)[1], _full_gain, _STEPS),
    "directional": (lambda grid, z, a: spectral.directional_symbol(grid, z, SmoothnessOrder(a)),
                    _full_directional,
                    [(1.0,), (-1.0,), tuple(np.sign(_BLOCK).T.reshape(1, -1, 1))]),
}


class TestHermitianHalf:
    """In 1-D a closed symbol or gain is built on the FFT indices 0 .. N/2
    and the rest is its mirror; it equals the full-grid build value for
    value (up to the sign of a zero).  In 2-D it is the full-grid build, bit
    for bit."""

    @pytest.mark.parametrize("n_points", [8, 1024])
    @pytest.mark.parametrize("alpha", sorted(ORDERS + (0.75,)))
    @pytest.mark.parametrize("kind", sorted(HALF_BUILDS))
    def test_1d_mirror_equals_the_full_build(self, kind, alpha, n_points):
        built, full, steps = HALF_BUILDS[kind]
        grid = TorusGrid(1, n_points, 40.0)
        freqs, n = grid.frequencies(), n_points // 2
        for h in steps:
            got = built(grid, h, alpha)
            assert np.array_equal(got, full(freqs, h, alpha))
            # the Nyquist mode -N/2 is built, not mirrored: it is the closed
            # form at w = -pi N / L (one-point numpy loops round apart by ulps)
            direct = full((freqs[0][n:n + 1],), h, alpha)[..., 0]
            assert np.all(np.abs(got[..., n] - direct) <= 1e-14 * 2.0 ** alpha)
            # step_norms overwrites a symbol or gain in place
            assert got.flags.writeable and got.flags.owndata

    @pytest.mark.parametrize("alpha", sorted(ORDERS + (0.75,)))
    @pytest.mark.parametrize("kind", sorted(HALF_BUILDS))
    def test_2d_builds_the_whole_grid(self, kind, alpha):
        built, full, _ = HALF_BUILDS[kind]
        grid, steps = SYMBOL_CASES[1]
        if kind == "directional":
            steps = [(0.6, 0.8), (-0.8, 0.6)]
        for h in steps:
            got = built(grid, h, alpha)
            assert got.shape == grid.shape
            assert got.tobytes() == full(grid.frequencies(), h, alpha).tobytes()


#: the raw builds behind HALF_BUILDS, by module, as ``_hermitian`` calls them
RAW_BUILDS = {"symbol": (moduli, "_closed_symbol"), "gain": (moduli, "_closed_gain"),
              "directional": (spectral, "_directional_symbol")}


@pytest.fixture
def built_rows(monkeypatch):
    """kind -> the number of rows each raw build of that kind made, in order."""
    rows = {kind: [] for kind in RAW_BUILDS}
    for kind, (module, name) in RAW_BUILDS.items():
        def counted(freqs, steps, *args, _real=getattr(module, name), _rows=rows[kind]):
            out = _real(freqs, steps, *args)
            _rows.append(len(out) if out.ndim > len(freqs) else 1)
            return out
        monkeypatch.setattr(module, name, counted)
    return rows


def _columns(steps):
    """A 1-D block's per-axis columns, as ``spectral._blocks`` hands them."""
    return (np.array(steps, dtype=float).reshape(-1, 1),)


#: interleaved +-h blocks: the 1-D step design of a p = 1/2 modulus, whose
#: steps pass L = 40 at delta = 100, and the directions +1, -1 twice
PAIRED_STEPS = {
    "symbol": [_BLOCK[:, 0], 100.0 / 0.6 * _BLOCK[:, 0]],
    "gain": [_BLOCK[:, 0], 100.0 / 0.6 * _BLOCK[:, 0]],
    "directional": [[1.0, -1.0, 1.0, -1.0]],
}


class TestPairedSteps:
    """S_{-h}(w) = conj S_h(w) bit for bit: of a 1-D block whose rows come in
    exact pairs h, -h only the h rows are built, and every row equals the
    step built alone."""

    @pytest.mark.parametrize("n_points", [8, 1024])
    @pytest.mark.parametrize("alpha", sorted(ORDERS + (0.75,)))
    @pytest.mark.parametrize("kind", sorted(HALF_BUILDS))
    def test_a_paired_block_equals_its_single_steps(self, built_rows, kind, alpha, n_points):
        built = HALF_BUILDS[kind][0]
        grid = TorusGrid(1, n_points, 40.0)
        for steps in PAIRED_STEPS[kind]:
            got = built(grid, _columns(steps), alpha)
            assert built_rows[kind][-1] == len(steps) // 2
            assert np.array_equal(got, [built(grid, (h,), alpha) for h in steps])
            assert got.flags.writeable and got.flags.owndata
            if kind == "symbol":  # a gain is even in h, and so is (i w)^2
                assert not np.array_equal(got[1], got[0])

    @pytest.mark.parametrize("steps", [[0.3, 0.5, -0.3], [0.3, -0.3, 0.5, 0.4],
                                       [0.3, -0.3, 0.5, 0.5], [-0.3, 0.3, 0.5, -0.4]])
    @pytest.mark.parametrize("kind", sorted(HALF_BUILDS))
    def test_an_unpaired_block_builds_every_row(self, built_rows, kind, steps):
        built = HALF_BUILDS[kind][0]
        grid = TorusGrid(1, 64, 40.0)
        got = built(grid, _columns(steps), 1.5)
        assert built_rows[kind][0] == len(steps)
        assert np.array_equal(got, [built(grid, (h,), 1.5) for h in steps])

    @pytest.mark.parametrize("kind", sorted(HALF_BUILDS))
    def test_a_2d_block_builds_every_row(self, built_rows, kind):
        built, full, _ = HALF_BUILDS[kind]
        grid = SYMBOL_CASES[1][0]
        z = (0.6, 0.8)
        steps = tuple(np.array([c, -c]).reshape(2, 1, 1) for c in z)
        got = built(grid, steps, 1.5)
        assert built_rows[kind] == [2]
        assert got.tobytes() == full(grid.frequencies(), steps, 1.5).tobytes()

    @pytest.mark.parametrize("p", [0.5, 1.0, "inf"])
    def test_a_1d_modulus_builds_one_row_per_pair(self, built_rows, p):
        f = grid_function("gaussian", N=1024, L=40.0)
        modulus(f, np.array([0.2, 0.6]), 1.5, p)
        # two deltas, each one 32-step design in one block of 64 rows
        assert built_rows["symbol"] == [16, 16]

    def test_the_series_route_builds_minus_h_itself(self, monkeypatch):
        # the independent cross-check sums the series at -theta, row by row
        f = grid_function("gaussian", N=256, L=20.0)
        thetas, real = [], moduli._series_symbol
        monkeypatch.setattr(moduli, "_series_symbol",
                            lambda a, t: thetas.append(t) or real(a, t))
        (h,) = _columns(_BLOCK[:, 0])
        got = _symbol(f, (h,), 1.5, "series")
        mag = np.abs(transform(f))
        occupied = mag > moduli._OCCUPIED * mag.max()
        assert len(thetas) == len(h)
        for row, t, theta in zip(got, h * f.grid.frequencies()[0], thetas):
            assert np.array_equal(theta, t[occupied])
            assert np.array_equal(row[occupied], real(1.5, t[occupied]))


class TestStepPeriod:
    """A whole-order symbol and every gain are L-periodic in each h_j, and
    take h_j mod L; a fractional symbol with a phase past the double range
    is refused before any exponential."""

    GRID = TorusGrid(1, 1024, 40.0)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("h", [0.3, -0.71, 7.5])
    def test_a_whole_order_symbol_is_periodic(self, r, h):
        # h + 3L is h + 3L up to one rounding (7e-15), which moves a phase
        # of up to 120 * 80 by 6e-13 and the symbol by r 2^(r-1) times that
        L = self.GRID.period
        want = difference_symbol(self.GRID, (h,), r)
        got = difference_symbol(self.GRID, (h + 3.0 * L,), r)
        assert np.max(np.abs(got - want)) <= 1e-12 * r * 2.0 ** r

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 0.75])
    @pytest.mark.parametrize("h", [0.3, -0.71, 7.5])
    def test_every_gain_is_periodic(self, alpha, h):
        L = self.GRID.period
        want = difference_gain(self.GRID, (h,), alpha)
        got = difference_gain(self.GRID, (h + 3.0 * L,), alpha)
        assert got[0] == want[0]
        assert np.max(np.abs(got[1] - want[1])) <= 1e-12

    def test_a_step_inside_the_period_keeps_its_bits(self):
        steps = _columns([0.3, -0.3, 39.9, -39.9])
        direct = _full_symbol(self.GRID.frequencies(), steps, 2.0)
        assert np.array_equal(difference_symbol(self.GRID, steps, 2.0), direct)

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_an_overflowing_fractional_phase_is_refused(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"its phase \(h, w\) overflows"):
                difference_symbol(self.GRID, (1e307,), alpha)
            # a finite phase is built, however far past L
            assert np.isfinite(difference_symbol(self.GRID, (1e300,), alpha)).all()
            # p = 2 needs only |symbol|, which is periodic at every order
            f = grid_function("gaussian", N=1024, L=40.0)
            assert math.isfinite(modulus(f, 1e307, alpha, 2.0))


def _per_step(f, hvecs, alpha, p):
    """Definition: the L_p norm of frac_difference at each step, one call per step."""
    out = []
    for hvec in hvecs:
        h = math.hypot(*hvec)
        if h == 0.0:
            out.append(0.0)
            continue
        step = Step(Direction(tuple(c / h for c in hvec)), h)
        out.append(quasi_norm(frac_difference(f, step, alpha), p))
    return out


def _design_steps(d, delta, directions=None):
    """The whole design, every direction at every magnitude delta (1 - j/16),
    largest first, as an (n, d) array."""
    dirs = direction_design(d) if directions is None else directions
    return np.array([[t * c for c in zeta] for t in delta * (1.0 - np.arange(16) / 16.0)
                     for zeta in dirs])


def test_nsb_transforms_each_polynomial_once(count_transforms):
    # the derivative and the 8 differences of each of the 8 polynomials share one transform
    run_check("NSB", {"alpha": 1.0, "p": 2.0}, Workbench({"quick": True}))
    assert len(count_transforms) == 8


class TestOneTransformPerCall:
    @pytest.fixture(scope="class", params=["1d", "2d"])
    def f(self, request):
        if request.param == "1d":
            return grid_function("gaussian", N=256, L=20.0)
        return grid_function("gaussian2d", N=64, L=20.0)

    @pytest.mark.parametrize("alpha,p", [(1.0, 2.0), (1.5, 2.0), (2.0, "inf"), (1.0, 0.5)])
    def test_modulus_is_the_sup_over_steps(self, f, alpha, p):
        ref = max(_per_step(f, _design_steps(f.grid.dimension, 0.6), alpha, p))
        assert modulus(f, 0.6, alpha, p) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_mixed_modulus_composes_axis_differences(self, f):
        d = f.grid.dimension
        orders = (1, 2)[:d]
        ref = 0.0
        for hvec in _design_steps(d, 0.6):
            g = f
            for axis, (h, k) in enumerate(zip(hvec, orders)):
                if h == 0.0:
                    g = GridFunction(f.grid, np.zeros(f.grid.shape))
                    break
                unit = [0.0] * d
                unit[axis] = math.copysign(1.0, h)
                g = frac_difference(g, Step(Direction(tuple(unit)), abs(h)), float(k))
            ref = max(ref, quasi_norm(g, 2.0))
        got = mixed_modulus(f, orders, 0.6, 2.0)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12 * quasi_norm(f, 2.0))

    @pytest.mark.parametrize("inner", [False, True])
    def test_averaged_modulus_is_the_step_average(self, f, inner):
        d, delta, q = f.grid.dimension, 0.6, 1.0
        mids = (np.linspace(-delta, delta, 17)[:-1] + np.linspace(-delta, delta, 17)[1:]) / 2
        if d == 1:
            nodes = [(h,) for h in mids]
        else:
            nodes = [(a, b) for a in mids for b in mids if math.hypot(a, b) <= delta]
        w_cell = (2.0 * delta / 16) ** d
        if inner:
            acc = np.zeros(f.grid.shape)
            for hvec in nodes:
                h = math.hypot(*hvec)
                step = Step(Direction(tuple(c / h for c in hvec)), h)
                acc += np.abs(frac_difference(f, step, 1.0).values) ** q * w_cell
            avg = GridFunction(f.grid, (acc / delta ** d) ** (1.0 / q))
            ref = quasi_norm(avg, 2.0)
        else:
            norms = _per_step(f, nodes, 1.0, 2.0)
            ref = (sum(n ** q * w_cell for n in norms) / delta ** d) ** (1.0 / q)
        got = averaged_modulus(f, delta, 1.0, 2.0, q, inner=inner)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_each_transforms_once(self, f, count_transforms):
        # a fresh function: the cached f may carry its spectrum already;
        # the first modulus computes it and every later one reuses it
        g = GridFunction(f.grid, f.values)
        modulus(g, 0.6, 1.5, 2.0)
        assert len(count_transforms) == 1
        mixed_modulus(g, (1,) * g.grid.dimension, 0.6, 2.0)
        averaged_modulus(g, 0.6, 1.0, 2.0, 1.0)
        modulus_curve(g, 1.5, 2.0, deltas=[0.2, 0.4, 0.6])
        partial_modulus(g, 0, 0.6, 1, 2.0)
        assert len(count_transforms) == 1

    def test_curve_is_the_running_max_of_moduli(self, f):
        deltas = [0.2, 0.4, 0.6]
        ref = np.maximum.accumulate([modulus(f, d, 1.5, 0.5) for d in deltas])
        assert np.array_equal(modulus_curve(f, 1.5, 0.5, deltas=deltas).values, ref)

    def test_step_design_order(self, f):
        d = f.grid.dimension
        dirs = direction_design(d)
        for p in (0.5, 1.0, "inf"):
            assert np.array_equal(step_design(0.6, dirs, p), _design_steps(d, 0.6))
        # at p = 2 one direction of each opposite pair: the first half
        kept = dirs[:len(dirs) // 2]
        assert np.array_equal(step_design(0.6, dirs, 2.0), _design_steps(d, 0.6, kept))


# ---------------------------------------------------------------------------
# p = 2 through Parseval, checked against the samples at each design point
# ---------------------------------------------------------------------------


@pytest.fixture
def parseval_pairs(monkeypatch):
    """(p = 2 route, apply_symbol + quasi_norm) for every design point that
    any sup or average of the call under test visits, in order."""
    pairs, real = [], spectral.step_norms

    def spy(f, design, symbol_of, p, gain_of=None):
        design = list(design)
        norms = real(f, design, symbol_of, p, gain_of)
        for x, norm in zip(design, norms):
            pairs.append((norm, quasi_norm(apply_symbol(f, symbol_of(x)), p)))
        return norms

    for module in (spectral, moduli, approx):
        monkeypatch.setattr(module, "step_norms", spy)
    return pairs


@pytest.fixture(scope="module", params=["1d", "2d"])
def smooth(request):
    if request.param == "1d":
        return grid_function("gaussian", N=256, L=20.0)
    return grid_function("gaussian2d", N=32, L=20.0)


#: steps of a sup over the default design: at p = 2 one of each pair h, -h
HALF_STEPS, ALL_STEPS = {1: 16, 2: 160}, {1: 32, 2: 320}


class TestParsevalRoute:
    def _assert_pairs(self, pairs, n):
        assert len(pairs) == n
        for parseval, samples in pairs:
            assert parseval == pytest.approx(samples, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.2])
    def test_modulus(self, smooth, parseval_pairs, alpha):
        got = modulus(smooth, 0.6, alpha, 2.0)
        self._assert_pairs(parseval_pairs, HALF_STEPS[smooth.grid.dimension])
        assert got == max(norm for norm, _ in parseval_pairs)

    def test_partial_modulus(self, smooth, parseval_pairs):
        partial_modulus(smooth, smooth.grid.dimension - 1, 0.6, 2, 2.0)
        self._assert_pairs(parseval_pairs, 16)

    @pytest.mark.parametrize("orders", [(1, 1), (2, 1)])
    def test_mixed_modulus(self, smooth, parseval_pairs, orders):
        got = mixed_modulus(smooth, orders[:smooth.grid.dimension], 0.6, 2.0)
        self._assert_pairs(parseval_pairs, HALF_STEPS[smooth.grid.dimension])
        assert got == max(norm for norm, _ in parseval_pairs)

    @pytest.mark.parametrize("p", [1.0, "inf"])
    def test_other_exponents_visit_every_step(self, smooth, parseval_pairs, p):
        # off p = 2 the norms at h and -h are equal at best through a
        # translation, which is off the grid
        d = smooth.grid.dimension
        modulus(smooth, 0.6, 1.0, p)
        assert len(parseval_pairs) == ALL_STEPS[d]
        partial_modulus(smooth, d - 1, 0.6, 1, p)
        assert len(parseval_pairs) == ALL_STEPS[d] + 32
        mixed_modulus(smooth, (1,) * d, 0.6, p)
        assert len(parseval_pairs) == 2 * ALL_STEPS[d] + 32

    def test_sup_directional(self, smooth, parseval_pairs):
        # at p = 2 one direction of each pair zeta, -zeta: the first half
        got = sup_directional(smooth, 1.5, 2.0)
        self._assert_pairs(parseval_pairs, len(direction_design(smooth.grid.dimension)) // 2)
        assert got == max(norm for norm, _ in parseval_pairs)

    def test_averaged_modulus_outer(self, smooth, parseval_pairs):
        averaged_modulus(smooth, 0.6, 1.5, 2.0, 1.0)
        mids = 0.6 * (np.arange(16) + 0.5 - 8.0) / 8.0
        in_disk = int(np.sum(np.hypot.outer(mids, mids) <= 0.6))
        n_nodes = 16 if smooth.grid.dimension == 1 else in_disk
        self._assert_pairs(parseval_pairs, n_nodes)

    def test_no_inverse_transform_at_p2(self, smooth, monkeypatch):
        calls, real = [], np.fft.ifftn
        monkeypatch.setattr(np.fft, "ifftn", lambda a, **kw: calls.append(1) or real(a, **kw))
        d = smooth.grid.dimension
        modulus(smooth, 0.6, 1.5, 2.0)
        modulus(smooth, 0.6, 1.5, 2.0, method="series")
        partial_modulus(smooth, 0, 0.6, 2, 2.0)
        mixed_modulus(smooth, (1,) * d, 0.6, 2.0)
        sup_directional(smooth, 1.5, 2.0)
        averaged_modulus(smooth, 0.6, 1.0, 2.0, 1.0)
        assert calls == []

    def test_diagonal_step_gain_is_exactly_zero(self):
        # on h = (t, -t), th = t (w_1 - w_2) vanishes on the diagonal
        grid = TorusGrid(2, 64, 20.0)
        scale, gain = difference_gain(grid, (0.3, -0.3), 0.5)
        assert scale == math.sqrt(2.0)
        assert np.all(np.diagonal(gain) == 0.0)
        assert np.all(gain[~np.eye(64, dtype=bool)] > 0.0)

    def test_diagonal_step_leaves_a_diagonal_function_unchanged(self, parseval_pairs):
        # f(x_1 + x_2) lives on the diagonal modes: every (t, -t) difference is 0,
        # not the eps^alpha = 1e-8 that a product of axis factors would give
        grid = TorusGrid(2, 64, 20.0)
        x1, x2 = grid.coords()
        f = GridFunction(grid, np.exp(np.cos(2.0 * math.pi * (x1 + x2) / grid.period)))
        unit = np.array([Direction.of(1.0, -1.0).vector])
        design = step_design(0.6, np.concatenate([unit, -unit]), 2.0)
        got = max(spectral.step_norms(f, design, lambda h: difference_symbol(grid, h, 0.5), 2.0,
                                      lambda h: difference_gain(grid, h, 0.5)))
        assert len(parseval_pairs) == 16  # one step of each pair h, -h
        assert got <= 1e-14 * quasi_norm(f, 2.0)
        assert all(samples <= 1e-14 * quasi_norm(f, 2.0) for _, samples in parseval_pairs)

    def test_an_underflowing_sum_falls_back_to_the_samples(self, smooth, parseval_pairs):
        # at order 100 and step 1e-3 every scaled gain sin^200(th/2) underflows,
        # while the samples, of size |2 sin(th/2)|^100 |F|, are representable
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modulus(smooth, 1e-3, 100.0, 2.0)
        self._assert_pairs(parseval_pairs, HALF_STEPS[smooth.grid.dimension])
        assert got == max(norm for norm, _ in parseval_pairs)
        assert 0.0 < got <= modulus(smooth, 1e-3, 100.0, "inf") * smooth.grid.period

    @pytest.mark.parametrize("alpha", [300.0, 600.0, 1023.0])
    def test_large_orders_match_the_samples(self, alpha):
        f = grid_function("gaussian")
        steps = _design_steps(1, 0.5)
        ref = max(quasi_norm(apply_symbol(f, difference_symbol(f.grid, h, alpha)), 2.0)
                  for h in steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modulus(f, 0.5, alpha, 2.0)
        assert math.isfinite(got)
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)


def _full_sup(f, delta, alpha, directions=None):
    """The p = 2 sup of the closed difference over the whole design."""
    return max(spectral.step_norms(f, _design_steps(f.grid.dimension, delta, directions),
                                   lambda h: difference_symbol(f.grid, h, alpha), 2.0,
                                   lambda h: difference_gain(f.grid, h, alpha)))


class TestHalfDesign:
    """At p = 2 the sup over one step of each pair h, -h is the sup over the
    whole design bit for bit: the gain at -h is the gain at h."""

    @pytest.mark.parametrize("alpha,delta", [(0.5, 0.6), (1.0, 0.6), (1.5, 0.6), (2.0, 0.6),
                                             (3.2, 0.6), (100.0, 1e-3)])
    def test_modulus(self, smooth, alpha, delta):
        assert modulus(smooth, delta, alpha, 2.0) == _full_sup(smooth, delta, alpha)

    def test_partial_modulus(self, smooth):
        axis = smooth.grid.dimension - 1
        unit = np.eye(smooth.grid.dimension)[axis]
        dirs = np.array([unit, -unit])
        assert partial_modulus(smooth, axis, 0.6, 2, 2.0) == _full_sup(smooth, 0.6, 2.0, dirs)

    @pytest.mark.parametrize("orders", [(1, 1), (2, 1)])
    def test_mixed_modulus(self, smooth, orders):
        orders = orders[:smooth.grid.dimension]

        def symbol_of(hvec):
            return reduce(np.multiply, [_whole_power(np.exp(1j * h * w), k)
                                        for h, w, k in zip(hvec, smooth.grid.frequencies(), orders)])

        full = max(spectral.step_norms(smooth, _design_steps(smooth.grid.dimension, 0.6),
                                       symbol_of, 2.0))
        assert mixed_modulus(smooth, orders, 0.6, 2.0) == full

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_sup_directional(self, smooth, alpha):
        order = SmoothnessOrder(alpha)
        full = spectral.step_norms(smooth, direction_design(smooth.grid.dimension),
                                   lambda v: spectral.directional_symbol(smooth.grid, v, order),
                                   2.0)
        half = len(full) // 2
        assert full[half:] == full[:half]
        assert sup_directional(smooth, alpha, 2.0) == max(full)


# ---------------------------------------------------------------------------
# blocks of steps, checked against one apply_symbol + quasi_norm per step
# ---------------------------------------------------------------------------


@pytest.fixture
def step_calls(monkeypatch):
    """(f, design, symbol_of, p, gain_of, norms) of every step_norms call."""
    calls, real = [], spectral.step_norms

    def spy(f, design, symbol_of, p, gain_of=None):
        design = list(design)
        norms = real(f, design, symbol_of, p, gain_of)
        calls.append((f, design, symbol_of, p, gain_of, norms))
        return norms

    for module in (spectral, moduli, approx):
        monkeypatch.setattr(module, "step_norms", spy)
    return calls


@pytest.fixture(scope="module", params=["1d", "2d"])
def desk(request):
    """The 1-D desk grid, where a block holds 64 steps, and a 64^2 grid,
    where it holds one; the 2-D function has few modes, so that the series
    route stays cheap."""
    if request.param == "1d":
        return grid_function("gaussian", N=1024, L=40.0)
    grid = TorusGrid(2, 64, 20.0)
    x1, x2 = (2.0 * math.pi / grid.period * x for x in grid.coords())
    return GridFunction(grid, np.cos(x1) + 0.5 * np.sin(2 * x2) + 0.25 * np.cos(x1 + 3 * x2))


#: every route through the step loop: the sups, and the outer average
STEP_ROUTES = {
    "modulus": lambda f, p: modulus(f, 0.6, 1.5, p),
    "series": lambda f, p: modulus(f, 0.6, 1.5, p, method="series"),
    "partial": lambda f, p: partial_modulus(f, f.grid.dimension - 1, 0.6, 2, p),
    "mixed": lambda f, p: mixed_modulus(f, (1,) * f.grid.dimension, 0.6, p),
    "directional": lambda f, p: sup_directional(f, 1.5, p),
    "averaged": lambda f, p: averaged_modulus(f, 0.6, 1.5, p, 1.0),
}


def _block_size(grid):
    return spectral._BLOCK_ENTRIES // grid.points_per_axis if grid.dimension == 1 else 1


class TestBlockedSteps:
    """A block of steps gives each step the norm it has alone, bit for bit:
    the same product with the spectrum, the same inverse and the same sum."""

    @pytest.mark.parametrize("p", [0.5, 1.0, "inf"])
    @pytest.mark.parametrize("route", sorted(STEP_ROUTES))
    def test_every_route_equals_its_single_steps(self, desk, step_calls, route, p):
        value = STEP_ROUTES[route](desk, p)
        [(f, design, symbol_of, q, gain_of, norms)] = step_calls

        alone = [quasi_norm(apply_symbol(f, symbol_of(x)), q) for x in design]
        assert norms == alone
        if route != "averaged":
            assert value == max(alone)
        for n in (1, _block_size(f.grid) + 1):
            points = list(itertools.islice(itertools.cycle(design), n))
            want = list(itertools.islice(itertools.cycle(alone), n))
            assert spectral.step_norms(f, points, symbol_of, q, gain_of) == want

    @pytest.fixture(scope="class")
    def f(self):
        return grid_function("gaussian", N=1024, L=40.0)

    @staticmethod
    def _marked(f, mark, fill):
        """A difference symbol that is ``fill`` times itself at the step ``mark``."""
        def symbol_of(h):
            s = difference_symbol(f.grid, h, 1.0)
            s *= np.where(np.equal(h[0], mark), fill, 1.0)
            return s
        return symbol_of

    @pytest.mark.parametrize("p", [0.5, 2.0, "inf"])
    def test_a_non_finite_symbol_mid_block_raises_as_alone(self, f, p):
        design = [(0.1 * j,) for j in range(1, 6)]
        symbol_of = self._marked(f, design[2][0], np.nan)
        with pytest.raises(ParameterError) as alone:
            spectral.step_norms(f, design[2:3], symbol_of, p)
        with pytest.raises(ParameterError) as block:
            spectral.step_norms(f, design, symbol_of, p)
        assert str(block.value) == str(alone.value)
        if p != 2.0:
            with pytest.raises(ParameterError, match=str(alone.value)):
                apply_symbol(f, symbol_of(design[2]))

    def test_an_underflowing_row_alone_takes_the_scaled_form(self, f):
        # at p = 3 the sum of |g|^3 ~ 1e-360 of the marked step underflows
        design = [(0.1 * j,) for j in range(1, 6)]
        plain = spectral.step_norms(f, design, self._marked(f, 0.0, 1.0), 3.0)
        symbol_of = self._marked(f, design[2][0], 1e-120)
        got = spectral.step_norms(f, design, symbol_of, 3.0)
        assert got == [quasi_norm(apply_symbol(f, symbol_of(x)), 3.0) for x in design]
        assert got[:2] + got[3:] == plain[:2] + plain[3:]
        assert got[2] == pytest.approx(1e-120 * plain[2], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("route", [
        lambda f: sup_directional(f, 1.5, 2.0),
        lambda f: mixed_modulus(f, (300,) * f.grid.dimension, 0.01, 2.0),
    ])
    def test_each_row_of_a_symbol_gain_keeps_its_own_scale(self, desk, step_calls, route):
        route(desk)
        [(f, design, symbol_of, q, _, norms)] = step_calls
        assert norms == [spectral.step_norms(f, [x], symbol_of, q)[0] for x in design]
        block = symbol_of(next(spectral._blocks(f.grid, np.array(design)))[1])
        tops, gain = spectral._symbol_gain(block.copy())
        assert tops.tolist() == [float(np.abs(row).max()) for row in block]
        assert all(row.max() == 1.0 for row in gain if row.any())


#: every modulus as a function of delta
DELTA_ROUTES = {
    "modulus": lambda f, delta, p: modulus(f, delta, 1.5, p),
    "series": lambda f, delta, p: modulus(f, delta, 1.5, p, method="series"),
    "partial": lambda f, delta, p: partial_modulus(f, f.grid.dimension - 1, delta, 2, p),
    "mixed": lambda f, delta, p: mixed_modulus(f, (1,) * f.grid.dimension, delta, p),
    "averaged": lambda f, delta, p: averaged_modulus(f, delta, 2.0, p, 1.0),
    # q = 1/2 <= p at every p drawn
    "averaged_inner": lambda f, delta, p: averaged_modulus(f, delta, 2.0, p, 0.5, inner=True),
}


class TestDeltaArrays:
    """A modulus or an average over an array of deltas is the scalar one at
    each delta, bit for bit."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, "inf"])
    @pytest.mark.parametrize("route", sorted(DELTA_ROUTES))
    def test_an_array_equals_its_scalar_calls(self, desk, route, p):
        deltas = np.array([0.2, 0.45, 0.6])
        got = DELTA_ROUTES[route](desk, deltas, p)
        assert isinstance(got, np.ndarray) and got.shape == deltas.shape
        assert got.tolist() == [DELTA_ROUTES[route](desk, d, p) for d in deltas.tolist()]

    @pytest.mark.parametrize("route", sorted(DELTA_ROUTES))
    def test_a_scalar_gives_a_float_and_no_delta_no_value(self, desk, route):
        one, zero_d = (DELTA_ROUTES[route](desk, d, 1.0) for d in (0.6, np.array(0.6)))
        assert type(one) is float and type(zero_d) is float and zero_d == one
        none = DELTA_ROUTES[route](desk, np.array([]), 1.0)
        assert isinstance(none, np.ndarray) and none.shape == (0,)


@pytest.mark.xfail(strict=True, reason=(
    "the unpaired Nyquist mode -N/2 has a complex symbol, so the difference of a real"
    " f is complex there; a real route waits for a Nyquist convention"))
def test_the_difference_of_a_real_function_is_real():
    # cusp05 on its desk grid, alpha = 1, a quarter-cell step: max|Im g| is
    # |F(-N/2) Im S(-N/2)| = 1.03e-4 against max|g| = 6.4e-2
    f = grid_function("cusp05", N=1024, L=40.0)
    assert not np.any(f.values.imag)
    g = apply_symbol(f, difference_symbol(f.grid, (0.009765625,), 1.0)).values
    assert np.max(np.abs(g.imag)) <= 1e-12 * np.max(np.abs(g))


@pytest.mark.parametrize("call,builder", [
    (lambda f: averaged_modulus(f, 0.6, 1.0, 1.0, 1.0), "moduli.difference_symbol"),
    (lambda f: modulus(f, 0.6, 1.0, 0.5), "moduli.difference_symbol"),
    (lambda f: modulus(f, 0.6, 1.0, 2.0), "moduli.difference_gain"),
    (lambda f: sup_directional(f, 1.0, 1.0), "approx.directional_symbol"),
])
def test_spectrum_before_the_first_symbol(monkeypatch, call, builder):
    # step_norms, the one home of the rule, takes the spectrum before the
    # first symbol or gain on every route: a spectrum computed while a
    # grid-sized array is live leaves a heap layout in which every later 2-D
    # step faults in fresh pages
    events, fft = [], np.fft.fftn
    module, name = builder.split(".")
    module = {"moduli": moduli, "approx": approx}[module]
    build = getattr(module, name)
    monkeypatch.setattr(np.fft, "fftn", lambda a, **kw: events.append("fft") or fft(a, **kw))
    monkeypatch.setattr(module, name,
                        lambda *args: events.append("symbol") or build(*args))
    f = grid_function("gaussian2d", N=32, L=20.0)
    call(GridFunction(f.grid, f.values))
    assert events[0] == "fft" and "symbol" in events
