import itertools
import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothlab import approx, moduli, spectral
from smoothlab.approx import k_functional, near_best, sup_directional
from smoothlab.corpus import grid_function
from smoothlab.errors import AdmissibilityError, ParameterError
from smoothlab.grid import GridFunction, TorusGrid, quasi_norm
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
    magnitude_design,
    mixed_modulus,
    modulus,
    modulus_curve,
    partial_modulus,
    sobolev_seminorm,
    step_design,
)
from smoothlab.spectral import Direction, apply_symbol, sup_norm, transform
from smoothlab.verify import run_check


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
        f = grid_function("gaussian", N=256, L=20.0)
        with pytest.raises(ParameterError, match="delta"):
            modulus(f, delta, 1.0, 2.0)

    def test_designs(self):
        assert len(direction_design(1)) == 2
        assert len(direction_design(2)) == 20
        mags = magnitude_design(0.8)
        assert len(mags) == 16
        assert mags[0] == pytest.approx(0.8)
        assert np.all(mags > 0)

    def test_offset_angles_come_in_exact_negative_pairs(self):
        dirs = direction_design(2)
        assert len(dirs) == 20
        for k in range(8):
            assert dirs[k + 8].vector == tuple(-c for c in dirs[k].vector)
        # the order is unchanged: angles 0 .. 15, each within an ulp of its
        # cos/sin, then the 4 axes
        for k, zeta in enumerate(dirs[:16]):
            ang = (k + 0.5) * 2.0 * math.pi / 16.0
            assert zeta.vector == pytest.approx((math.cos(ang), math.sin(ang)), rel=0, abs=4e-16)
        assert [z.vector for z in dirs[16:]] == [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]

    @pytest.mark.parametrize("name,directions,p", [
        ("gaussian2d", (Direction((1.0,)),), 1.0),
        ("gaussian2d", (Direction((1.0,)),), 2.0),
        ("gaussian", (Direction.of(1.0, 1.0),), 2.0),
        ("gaussian", (Direction((1.0,)), Direction.of(1.0, 1.0)), "inf"),
    ])
    def test_a_direction_of_another_dimension_is_refused(self, name, directions, p):
        f = grid_function(name, N=32, L=20.0)
        with pytest.raises(ParameterError, match="dimension"):
            modulus(f, 0.6, 1.0, p, directions=directions)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_an_empty_direction_design_is_refused(self, p):
        f = grid_function("gaussian", N=32, L=20.0)
        with pytest.raises(ParameterError, match="empty"):
            modulus(f, 0.6, 1.0, p, directions=())

    def test_a_design_may_be_any_iterable(self):
        # a generator is read once, not checked empty and then passed on spent
        f = grid_function("gaussian", N=32, L=20.0)
        dirs = direction_design(1)
        assert modulus(f, 0.6, 1.0, 2.0, directions=iter(dirs)) == modulus(f, 0.6, 1.0, 2.0)

    def test_curve_monotone_exactly(self):
        f = grid_function("gaussian", N=256, L=20.0)
        c = modulus_curve(f, 1.0, 2.0, deltas=np.geomspace(0.4, 1.0, 8))
        assert np.all(np.diff(c.values) >= 0)

    def test_curve_slope_matches_order_for_smooth(self):
        f = grid_function("gaussian", N=512, L=20.0)
        for a in (1.0, 2.0):
            c = modulus_curve(f, a, 2.0, deltas=np.geomspace(0.16, 0.5, 8))
            assert c.fitted_slope() == pytest.approx(a, abs=0.15)

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
    """The whole design, every direction at every magnitude."""
    return [tuple(t * c for c in zeta.vector)
            for t in magnitude_design(delta) for zeta in directions or direction_design(d)]


def test_nsb_transforms_each_polynomial_once(count_transforms):
    # the derivative and the 8 differences of each of the 8 polynomials share one transform
    run_check("NSB", {"alpha": 1.0, "p": 2.0}, config={"quick": True})
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
            assert step_design(0.6, dirs, p) == _design_steps(d, 0.6)
        # at p = 2 one direction of each opposite pair: the first of the two
        kept = dirs[:1] if d == 1 else dirs[:8] + dirs[16::2]
        assert step_design(0.6, dirs, 2.0) == _design_steps(d, 0.6, kept)


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
        for x, norm in zip(design, real(f, design, symbol_of, p, gain_of)):
            pairs.append((norm, quasi_norm(apply_symbol(f, symbol_of(x)), p)))
            yield norm

    monkeypatch.setattr(spectral, "step_norms", spy)
    monkeypatch.setattr(moduli, "step_norms", spy)
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
        sup_directional(smooth, 1.5, 2.0)
        self._assert_pairs(parseval_pairs, len(direction_design(smooth.grid.dimension)))

    def test_averaged_modulus_outer(self, smooth, parseval_pairs):
        averaged_modulus(smooth, 0.6, 1.5, 2.0, 1.0)
        mids = 0.6 * (np.arange(16) + 0.5 - 8.0) / 8.0
        in_disk = int(np.sum(np.hypot.outer(mids, mids) <= 0.6))
        n_nodes = 16 if smooth.grid.dimension == 1 else in_disk
        self._assert_pairs(parseval_pairs, n_nodes)

    def test_no_inverse_transform_at_p2(self, smooth, monkeypatch):
        calls, real = [], np.fft.ifftn
        monkeypatch.setattr(np.fft, "ifftn", lambda a: calls.append(1) or real(a))
        d = smooth.grid.dimension
        modulus(smooth, 0.6, 1.5, 2.0)
        if d == 1:  # the 2-D series route is slow at small steps
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
        got = modulus(f, 0.6, 0.5, 2.0, directions=(Direction.of(1.0, -1.0),))
        assert len(parseval_pairs) == 16  # a design without its negatives loses nothing
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
    return sup_norm(f, _design_steps(f.grid.dimension, delta, directions),
                    lambda h: difference_symbol(f.grid, h, alpha), 2.0,
                    lambda h: difference_gain(f.grid, h, alpha))


class TestHalfDesign:
    """At p = 2 the sup over one step of each pair h, -h is the sup over the
    whole design bit for bit: the gain at -h is the gain at h."""

    @pytest.mark.parametrize("alpha,delta", [(0.5, 0.6), (1.0, 0.6), (1.5, 0.6), (2.0, 0.6),
                                             (3.2, 0.6), (100.0, 1e-3)])
    def test_modulus(self, smooth, alpha, delta):
        assert modulus(smooth, delta, alpha, 2.0) == _full_sup(smooth, delta, alpha)

    def test_partial_modulus(self, smooth):
        axis = smooth.grid.dimension - 1
        unit = tuple(float(j == axis) for j in range(smooth.grid.dimension))
        dirs = (Direction(unit), Direction(tuple(-c for c in unit)))
        assert partial_modulus(smooth, axis, 0.6, 2, 2.0) == _full_sup(smooth, 0.6, 2.0, dirs)

    @pytest.mark.parametrize("orders", [(1, 1), (2, 1)])
    def test_mixed_modulus(self, smooth, orders):
        orders = orders[:smooth.grid.dimension]

        def symbol_of(hvec):
            return reduce(np.multiply, [_whole_power(np.exp(1j * h * w), k)
                                        for h, w, k in zip(hvec, smooth.grid.frequencies(), orders)])

        full = sup_norm(smooth, _design_steps(smooth.grid.dimension, 0.6), symbol_of, 2.0)
        assert mixed_modulus(smooth, orders, 0.6, 2.0) == full


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

    monkeypatch.setattr(spectral, "step_norms", spy)
    monkeypatch.setattr(moduli, "step_norms", spy)
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


def _axes(d):
    return tuple(Direction(tuple(s * float(j == i) for j in range(d)))
                 for i in range(d) for s in (1.0, -1.0))


#: every route through the step loop: the sups, and the outer average
STEP_ROUTES = {
    "modulus": lambda f, p: modulus(f, 0.6, 1.5, p),
    "series": lambda f, p: modulus(f, 0.6, 1.5, p, method="series",
                                   directions=_axes(f.grid.dimension)),
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
        block = symbol_of(next(spectral._blocks(f.grid, design))[1])
        tops, gain = spectral._symbol_gain(block.copy())
        assert tops.tolist() == [float(np.abs(row).max()) for row in block]
        assert all(row.max() == 1.0 for row in gain if row.any())


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
    (lambda f: averaged_modulus(f, 0.6, 1.0, 2.0, 1.0, inner=True), "moduli.difference_symbol"),
    (lambda f: sobolev_seminorm(f, 2, 2.0), "moduli.derivative_symbol"),
    (lambda f: near_best(f, 2.0, 2.0), "approx.band_windows"),
    (lambda f: k_functional(f, 0.5, 1.0, 2.0), "approx.band_windows"),
])
def test_spectrum_before_the_first_symbol(monkeypatch, call, builder):
    # a spectrum computed while a grid-sized symbol is live leaves a heap
    # layout in which every later 2-D step faults in fresh pages
    events, fft = [], np.fft.fftn
    module, name = builder.split(".")
    module = {"moduli": moduli, "approx": approx}[module]
    build = getattr(module, name)
    monkeypatch.setattr(np.fft, "fftn", lambda a: events.append("fft") or fft(a))
    monkeypatch.setattr(module, name,
                        lambda *args: events.append("symbol") or build(*args))
    f = grid_function("gaussian2d", N=32, L=20.0)
    call(GridFunction(f.grid, f.values))
    assert events[0] == "fft" and "symbol" in events
