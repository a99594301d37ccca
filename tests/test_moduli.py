import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothlab.corpus import grid_function
from smoothlab.errors import AdmissibilityError, ParameterError
from smoothlab.grid import GridFunction, TorusGrid, quasi_norm
import smoothlab.moduli
import smoothlab.spectral
import smoothlab.verify
from smoothlab.moduli import (
    ModulusCurve,
    Step,
    _series_symbol,
    _symbol,
    averaged_modulus,
    binom_power_constant,
    binom_power_constant as bpc,
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
from smoothlab.spectral import Direction, transform
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
            s, unresolved = _series_symbol(a, th)
            assert not unresolved.any()
            assert np.max(np.abs(s - _spectral_symbol(a, th))) < 1e-10

    def test_zero_angle_sums_to_zero(self):
        s, unresolved = _series_symbol(0.5, np.array([0.0]))
        assert s[0] == 0.0
        assert not unresolved[0]

    def test_near_zero_angle_flagged(self):
        s, unresolved = _series_symbol(0.5, np.array([1e-9]))
        assert unresolved[0]

    def test_integer_symbol_magnitude(self):
        # |symbol| = (2 sin(th/2))^a for any order
        th = np.array([0.3, 1.1, 2.5])
        for a in (1.0, 2.0, 0.5):
            s, _ = _series_symbol(a, th)
            assert np.allclose(np.abs(s), (2 * np.sin(th / 2.0)) ** a, atol=1e-12)

    def test_series_sums_only_the_occupied_modes(self):
        # fejer occupies 51 of its 1024 modes; the rest is FFT round-off
        F = transform(grid_function("fejer", N=1024, L=40.0))
        h = (0.3,)
        theta = 0.3 * F.grid.axis_frequencies()
        mag = np.abs(F.coefficients)
        dropped = mag <= 1e-14 * mag.max()
        assert 0 < np.count_nonzero(~dropped) < 64
        for a in (0.5, 1.5, 2.0, 3.2):
            s = _symbol(F, h, a, "series")
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


def _design_steps(d, delta):
    return [[t * c for c in zeta.vector]
            for t in magnitude_design(delta) for zeta in direction_design(d)]


@pytest.fixture
def count_transforms(monkeypatch):
    calls = []
    real = smoothlab.spectral.transform

    def counted(f):
        calls.append(f)
        return real(f)

    for module in (smoothlab.spectral, smoothlab.moduli, smoothlab.verify):
        monkeypatch.setattr(module, "transform", counted)
    return calls


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
        modulus(f, 0.6, 1.5, 2.0)
        assert len(count_transforms) == 1
        mixed_modulus(f, (1,) * f.grid.dimension, 0.6, 2.0)
        assert len(count_transforms) == 2
        averaged_modulus(f, 0.6, 1.0, 2.0, 1.0)
        assert len(count_transforms) == 3
        modulus_curve(f, 1.5, 2.0, deltas=[0.2, 0.4, 0.6])
        assert len(count_transforms) == 4

    def test_curve_is_the_running_max_of_moduli(self, f):
        deltas = [0.2, 0.4, 0.6]
        ref = np.maximum.accumulate([modulus(f, d, 1.5, 0.5) for d in deltas])
        assert np.array_equal(modulus_curve(f, 1.5, 0.5, deltas=deltas).values, ref)

    def test_step_design_order(self, f):
        dirs = direction_design(f.grid.dimension)
        assert step_design(0.6, dirs) == [tuple(h) for h in _design_steps(f.grid.dimension, 0.6)]
