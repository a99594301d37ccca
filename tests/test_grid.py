import dataclasses
import math
import pathlib
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smoothlab.corpus import grid_function
from smoothlab.errors import ParameterError
from smoothlab.grid import (MAX_ORDER, Exponent, GridFunction, SmoothnessOrder, TorusGrid,
                            periodize, quasi_norm, step_sizes)
from smoothlab.spectral import transform


def make_grid(d=1, n=64, L=10.0):
    return TorusGrid(d, n, L)


class TestExponent:
    def test_parse(self):
        assert Exponent.parse("inf").is_inf
        # inf is an ordinary float: whatever float() reads
        assert Exponent.parse("Infinity").is_inf and Exponent.parse(" INF ").is_inf
        with pytest.raises(ValueError):
            Exponent.parse("oo")
        assert Exponent.parse("2").p == 2.0
        assert Exponent.parse(0.5).p == 0.5
        assert Exponent.parse(Exponent(3.0)).p == 3.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            Exponent(0.0)
        with pytest.raises(ParameterError):
            Exponent(-1.0)

    def test_conjugate(self):
        assert Exponent(2.0).conjugate == 2.0
        assert Exponent(4.0).conjugate == pytest.approx(4.0 / 3.0)
        assert Exponent(1.0).conjugate == math.inf
        assert Exponent(math.inf).conjugate == 1.0

    def test_theta_tau(self):
        assert Exponent(0.5).theta == 0.5
        assert Exponent(3.0).theta == 2.0
        assert Exponent(math.inf).theta == 1.0
        assert Exponent(1.5).tau == 2.0
        assert Exponent(3.0).tau == 3.0
        assert Exponent(math.inf).tau == math.inf

    def test_q1_and_deficiency(self):
        assert Exponent(0.5).q1 == 0.5
        assert Exponent(math.inf).q1 == 1.0
        assert Exponent(0.5).deficiency == 1.0
        assert Exponent(2.0).deficiency == 0.0
        assert Exponent(math.inf).deficiency == 0.0

    @given(st.floats(min_value=1.01, max_value=50.0))
    def test_conjugate_relation(self, p):
        q = Exponent(p).conjugate
        assert 1.0 / p + 1.0 / q == pytest.approx(1.0)

    def test_label(self):
        assert Exponent(math.inf).label() == "inf"
        assert Exponent(0.5).label() == "0.5"


class TestSmoothnessOrder:
    def test_integer_detection(self):
        assert SmoothnessOrder(2.0).is_integer
        assert SmoothnessOrder(1.0 + 1e-13).is_integer
        assert not SmoothnessOrder(1.5).is_integer
        # no order below 1/2 is the whole order 0
        assert not SmoothnessOrder(1e-13).is_integer
        assert not SmoothnessOrder(1e-13).admissible_for(Exponent(0.5))

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            SmoothnessOrder(0.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite(self, alpha):
        with pytest.raises(ParameterError, match="positive and finite"):
            SmoothnessOrder(alpha)

    def test_rejects_orders_whose_bound_overflows(self):
        assert SmoothnessOrder(MAX_ORDER).is_integer
        assert 2.0 ** MAX_ORDER < math.inf
        with pytest.raises(ParameterError, match="at most"):
            SmoothnessOrder(np.nextafter(MAX_ORDER, math.inf))
        with pytest.raises(ParameterError, match="at most"):
            SmoothnessOrder(1e300)

    def test_admissibility(self):
        # any whole order is fine; fractional orders need alpha > (1/p - 1)_+
        assert SmoothnessOrder(1.0).admissible_for(Exponent(0.5))
        assert SmoothnessOrder(1.5).admissible_for(Exponent(0.5))
        assert not SmoothnessOrder(0.7).admissible_for(Exponent(0.5))
        assert SmoothnessOrder(0.7).admissible_for(Exponent(2.0))


class TestStepSizes:
    def test_keeps_the_shape(self):
        assert step_sizes(0.5).shape == ()
        assert step_sizes([0.2, 0.4]).tolist() == [0.2, 0.4]
        assert step_sizes(np.array([])).shape == (0,)

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.inf, math.nan, [0.2, math.nan]])
    def test_refuses_a_step_that_is_not_positive_and_finite(self, delta):
        with pytest.raises(ParameterError, match="delta must be positive and finite"):
            step_sizes(delta)


class TestTorusGrid:
    def test_geometry(self):
        g = make_grid(1, 64, 16.0)
        assert g.spacing == 0.25
        assert g.cell_volume == 0.25
        assert g.nyquist == pytest.approx(math.pi * 64 / 16.0)
        assert g.shape == (64,)

    def test_2d_shape(self):
        g = make_grid(2, 32, 10.0)
        assert g.shape == (32, 32)
        assert g.cell_volume == pytest.approx((10.0 / 32) ** 2)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ParameterError):
            TorusGrid(1, 48, 10.0)  # not a power of two
        with pytest.raises(ParameterError):
            TorusGrid(3, 64, 10.0)

    def test_rejects_a_size_that_is_not_a_whole_number(self):
        # a float once reached ``n & (n - 1)`` and raised TypeError
        with pytest.raises(ParameterError, match="points_per_axis"):
            TorusGrid(1, 256.0, 20.0)

    def test_frequencies_layout(self):
        g = make_grid(1, 8, 2 * math.pi)
        w = np.asarray(g.axis_frequencies())
        # FFT order: 0, 1, 2, 3, -4, -3, -2, -1
        assert w[0] == 0.0
        assert w[1] == pytest.approx(1.0)
        assert w[-1] == pytest.approx(-1.0)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "smoothlab"


def files_holding(text: str) -> dict:
    """file name -> number of occurrences of ``text``, over the package sources."""
    counts = {path.name: path.read_text().count(text) for path in SRC.glob("*.py")}
    return {name: n for name, n in counts.items() if n}


class TestFrequencyTables:
    def test_one_table_and_one_transform_pair(self):
        # every mode and frequency array comes from the grid's table, every
        # grid-sized array is a broadcast, and one FFT pair does all transforms
        assert files_holding("np.fft.fftfreq") == {"grid.py": 1}
        assert files_holding("np.fft.fftn(") == {"spectral.py": 1}
        assert files_holding("np.fft.ifftn(") == {"spectral.py": 1}
        assert files_holding(".outer(") == {}

    @pytest.mark.parametrize("d", [1, 2])
    def test_tables_are_read_only(self, d):
        g = make_grid(d, 16, 10.0)
        for table in (g.modes, g.axis_frequencies(), *g.frequencies()):
            with pytest.raises(ValueError):
                table[0] = 1

    def test_tables_are_built_once(self):
        g = make_grid(1, 16, 10.0)
        assert g.axis_frequencies() is g.axis_frequencies()
        assert list(g.modes) == [0, 1, 2, 3, 4, 5, 6, 7, -8, -7, -6, -5, -4, -3, -2, -1]
        assert np.array_equal(g.axis_frequencies(), 2.0 * math.pi * g.modes / 10.0)
        # the Hermitian half's table: one more entry, +pi N/L, -w of mode -N/2
        w = g.extended_frequencies()
        assert w is g.extended_frequencies() and not w.flags.writeable
        assert np.array_equal(w, np.append(g.axis_frequencies(), -g.axis_frequencies()[8]))
        # the tables are not part of the grid's value
        assert g == make_grid(1, 16, 10.0) and hash(g) == hash(make_grid(1, 16, 10.0))

    @pytest.mark.parametrize("d", [1, 2])
    def test_axis_arrays_lie_along_their_axes(self, d):
        g = make_grid(d, 16, 10.0)
        for arrays, axis in ((g.coords(), g.axis_coords()),
                             (g.frequencies(), g.axis_frequencies())):
            assert len(arrays) == d
            for j, a in enumerate(arrays):
                assert a.shape == tuple(16 if k == j else 1 for k in range(d))
                assert np.array_equal(a.ravel(), axis)
            assert np.broadcast_shapes(*(a.shape for a in arrays)) == g.shape

    def test_periodize_sums_every_image_in_2d(self):
        g, L = make_grid(2, 16, 4.0), 4.0

        def profile(c):
            # wide and off-center, so every one of the nine images shows
            return np.exp(-0.5 * (c[0] - 0.3) ** 2 - 0.25 * (c[1] + 0.2) ** 2)

        entry = SimpleNamespace(name="probe", m_tail=1, tail_bound=lambda L: 0.0,
                                evaluate=profile)
        x, y = g.axis_coords()[:, None], g.axis_coords()[None, :]
        want = np.zeros(g.shape, dtype=complex)
        for m1 in (-1, 0, 1):
            for m2 in (-1, 0, 1):
                want += profile((x - L / 2 + m1 * L, y - L / 2 + m2 * L))
        assert np.array_equal(periodize(entry, g).values, want)


class TestQuasiNorm:
    def test_parseval(self):
        g = make_grid(1, 128, 12.0)
        rng = np.random.default_rng(3)
        f = GridFunction(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
        coeffs = np.fft.fft(f.values) / 128
        spectral = math.sqrt(12.0 * float(np.sum(np.abs(coeffs) ** 2)))
        assert quasi_norm(f, 2.0) == pytest.approx(spectral, rel=1e-12)

    def test_sup_norm(self):
        g = make_grid()
        vals = np.zeros(64)
        vals[5] = -7.0
        assert quasi_norm(GridFunction(g, vals), "inf") == 7.0

    @given(st.floats(min_value=-5, max_value=5).filter(lambda c: abs(c) > 1e-3))
    def test_homogeneity(self, c):
        g = make_grid()
        f = GridFunction(g, np.sin(g.axis_coords()))
        assert quasi_norm(c * f, 0.5) == pytest.approx(abs(c) * quasi_norm(f, 0.5))

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_large_p_tends_to_the_sup(self, scale):
        # every |f|^p underflows (scale 1) or the largest overflows (scale 10)
        f = scale * grid_function("gaussian", N=256, L=20.0)
        assert quasi_norm(f, 1e300) == quasi_norm(f, "inf")
        assert quasi_norm(f, 1000.0) == pytest.approx(quasi_norm(f, "inf"), rel=1e-2)

    def test_small_p_warns_nothing(self):
        f = grid_function("gaussian", N=256, L=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quasi_norm(f, 0.001) == math.inf

    def test_arithmetic(self):
        g = make_grid()
        f = GridFunction(g, np.ones(64))
        h = f + f - f
        assert np.allclose(h.values, 1.0)
        assert np.allclose((f * f).values, 1.0)


class TestGridFunction:
    def test_values_are_read_only(self):
        samples = np.ones(64, dtype=complex)
        f = GridFunction(make_grid(), samples)
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        with pytest.raises(ValueError):
            f.values *= 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.values = np.zeros(64)
        # the kept samples are read-only; the caller's own array keeps its flags
        assert samples.flags.writeable

    def test_caller_writes_do_not_reach_the_function(self):
        samples = np.ones(64, dtype=complex)
        f = GridFunction(make_grid(), samples)
        kept = transform(f)
        samples[0] = 5.0
        assert f.values[0] == 1.0
        assert transform(f) is kept
        assert np.array_equal(kept, np.fft.fft(f.values) / 64.0)
