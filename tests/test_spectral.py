import math

import numpy as np
import pytest

from smoothlab.approx import _sampling_offsets, sup_directional
from smoothlab.errors import ParameterError
from smoothlab.grid import GridFunction, SmoothnessOrder, TorusGrid, quasi_norm
from smoothlab.spectral import (
    Direction,
    apply_symbol,
    band_windows,
    directional_derivative,
    directional_gain,
    directional_symbol,
    frequency_magnitude,
    interp_V,
    smooth_cutoff,
    synthesize,
    _interp_v_axis_matrix,
    transform,
)


def plane_wave(grid, k=1.0):
    x = grid.axis_coords()
    return GridFunction(grid, np.exp(1j * k * x))


@pytest.fixture
def grid():
    return TorusGrid(1, 256, 2 * math.pi)


class TestTransform:
    def test_roundtrip(self, grid):
        rng = np.random.default_rng(0)
        f = GridFunction(grid, rng.standard_normal(256))
        g = synthesize(grid, transform(f))
        assert np.allclose(g.values, f.values, atol=1e-13)

    def test_plane_wave_coefficient(self, grid):
        F = transform(plane_wave(grid, 3.0))
        assert F[3] == pytest.approx(1.0)
        assert np.sum(np.abs(F) > 1e-12) == 1

    def test_spectrum_is_computed_once_and_kept(self, grid, count_transforms):
        f = plane_wave(grid, 3.0)
        F = transform(f)
        assert transform(f) is F
        apply_symbol(f, 2.0)
        assert len(count_transforms) == 1

    def test_coefficients_are_read_only(self, grid):
        f = plane_wave(grid, 3.0)
        F = transform(f)
        with pytest.raises(ValueError):
            F[0] = 1.0
        with pytest.raises(ValueError):
            F *= 2.0
        assert transform(f)[3] == pytest.approx(1.0)

    def test_transform_hands_over_its_fresh_result(self, grid, monkeypatch):
        # the fftn output is the kept spectrum itself: no copy is made
        outputs, real = [], np.fft.fftn
        monkeypatch.setattr(np.fft, "fftn",
                            lambda a, **kw: outputs.append(real(a, **kw)) or outputs[-1])
        F = transform(plane_wave(grid, 3.0))
        assert np.shares_memory(F, outputs[0])

    @pytest.mark.parametrize("d,n", [(1, 8), (1, 1024), (2, 64)])
    def test_the_normalisation_is_the_old_rescale_bit_for_bit(self, d, n):
        # norm="forward" scales by 1/N^d inside the FFT: N is a power of 2,
        # so that equals the unnormalised transform divided by N^d
        g = TorusGrid(d, n, 10.0)
        rng = np.random.default_rng(n + d)
        v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        F = transform(GridFunction(g, v))
        assert F.tobytes() == (np.fft.fftn(v) / n ** d).tobytes()
        C = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        assert synthesize(g, C).values.tobytes() == (np.fft.ifftn(C) * n ** d).tobytes()


class TestDirection:
    def test_normalizes(self):
        z = Direction.of(3.0, 4.0)
        assert math.hypot(*z.vector) == pytest.approx(1.0)

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            Direction.of(0.0, 0.0)


class TestDerivatives:
    def test_an_overflowing_order_is_refused_by_symbol_and_gain(self):
        # |(w, zeta)| reaches pi N / L = 2e202 on this grid: its square overflows
        grid, order = TorusGrid(1, 64, 1e-200), SmoothnessOrder(2.0)
        for build in (directional_symbol, directional_gain):
            with pytest.raises(ParameterError, match=r"order 2 too large: \|\(w, zeta\)\|\^alpha"):
                build(grid, (1.0,), order)
        for p in (1.0, 2.0):
            with pytest.raises(ParameterError, match="alpha overflows"):
                sup_directional(GridFunction(grid, np.ones(64)), 2.0, p)

    def test_plane_wave_oracle(self, grid):
        # D^a e^{ikx} = (ik)^a e^{ikx}; modulus |k|^a
        f = plane_wave(grid, 2.0)
        for a in (0.5, 1.0, 1.7):
            d = directional_derivative(f, Direction((1.0,)), a)
            assert quasi_norm(d, "inf") == pytest.approx(2.0 ** a, rel=1e-12)

    def test_integer_order_matches_classical(self, grid):
        x = grid.axis_coords()
        f = GridFunction(grid, np.sin(3 * x))
        d = directional_derivative(f, Direction((1.0,)), 2.0)
        assert np.allclose(d.values, -9 * np.sin(3 * x), atol=1e-10)

    def test_direction_sign_matters_for_fractional(self, grid):
        f = plane_wave(grid, 1.0)
        d_plus = directional_derivative(f, Direction((1.0,)), 0.5)
        d_minus = directional_derivative(f, Direction((-1.0,)), 0.5)
        assert not np.allclose(d_plus.values, d_minus.values)


def project(f, sigma, name):
    """f filtered by its band window ``name`` of radius sigma."""
    return apply_symbol(f, band_windows(f.grid, sigma)[name])


class TestProjections:
    def test_smooth_cutoff_profile(self):
        assert smooth_cutoff(np.array([0.0, 0.5]))[0] == 1.0
        assert smooth_cutoff(np.array([0.5]))[0] == 1.0
        assert smooth_cutoff(np.array([1.0, 2.0]))[1] == 0.0
        mid = smooth_cutoff(np.array([0.75]))[0]
        assert 0.0 < mid < 1.0

    def test_bandlimit_reproduces_low_modes(self, grid):
        f = plane_wave(grid, 2.0)
        P = project(f, 8.0, "smooth")  # 2 <= 8/2: untouched
        assert np.allclose(P.values, f.values, atol=1e-12)

    def test_bandlimit_kills_high_modes(self, grid):
        f = plane_wave(grid, 30.0)
        P = project(f, 8.0, "smooth")
        assert quasi_norm(P, "inf") < 1e-12

    def test_sharp_is_l2_best(self, grid):
        rng = np.random.default_rng(1)
        f = GridFunction(grid, rng.standard_normal(256))
        sigma = 10.0
        P = project(f, sigma, "sharp")
        err = quasi_norm(f - P, 2.0)
        coeffs = transform(f)
        mag = frequency_magnitude(grid)
        tail = math.sqrt(2 * math.pi * float(np.sum(np.abs(coeffs[mag > sigma]) ** 2)))
        assert err == pytest.approx(tail, rel=1e-12)

    def test_riesz_weights_triangle(self, grid):
        f = plane_wave(grid, 2.0)
        P = project(f, 4.0, "riesz")
        assert quasi_norm(P, "inf") == pytest.approx(1.0 - (2.0 / 4.0) ** 2, rel=1e-12)

    @pytest.mark.parametrize("grid", [TorusGrid(1, 256, 2 * math.pi), TorusGrid(2, 64, 16.0)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("sigma", [3.0, 4.0, 7.5])
    def test_windows_vanish_outside_band(self, grid, sigma):
        # the windows are exactly 0 beyond the band radius, so every
        # projection is bandlimited by construction
        mag = frequency_magnitude(grid)
        windows = band_windows(grid, sigma)
        assert list(windows) == ["sharp", "smooth", "riesz"]
        for window in windows.values():
            assert np.all(window[mag > sigma] == 0.0)
        assert np.array_equal(windows["sharp"], (mag <= sigma).astype(float))


class TestSamplingOperator:
    def make(self, n=512, L=16.0):
        return TorusGrid(1, n, L)

    def test_reproduces_constants(self):
        grid = self.make()
        one = GridFunction(grid, np.ones(512, dtype=complex))
        v = interp_V(one, 2.0, 0.0)
        assert np.allclose(v.values, 1.0, atol=1e-6)

    def test_reproduces_inner_modes(self):
        grid = self.make()
        k = 2 * math.pi / 16.0  # lowest nonzero mode, well inside sigma/2
        f = GridFunction(grid, np.exp(1j * k * grid.axis_coords()))
        v = interp_V(f, 4.0, 0.0)
        expected = f.values * (1.0 - 1j * (k / 4.0) ** 3)
        assert np.max(np.abs(v.values - expected)) < 1e-4

    def test_requires_integer_sample_count(self):
        grid = self.make()
        with pytest.raises(ParameterError):
            interp_V(GridFunction(grid, np.ones(512)), 0.3, 0.0)

    def test_offset_consistency(self):
        grid = self.make()
        rng = np.random.default_rng(5)
        coeffs = np.zeros(512, dtype=complex)
        coeffs[:3] = rng.standard_normal(3)
        f = synthesize(grid, coeffs)
        a = interp_V(f, 2.0, 0.0)
        b = interp_V(f, 2.0, 0.125)
        # both reproduce the same low-band content
        assert np.max(np.abs(a.values - b.values)) < 1e-3

    def test_refuses_a_2d_grid(self):
        # the tensor composite would fill the square |w_j| <= sigma, not the band's disk
        grid = TorusGrid(2, 64, 16.0)
        with pytest.raises(ParameterError, match="1-D"):
            interp_V(GridFunction(grid, np.ones(grid.shape)), 4.0, 0.0)


# ---------------------------------------------------------------------------
# dense reference: the N x n_samples kernel form of the sampling operator
# ---------------------------------------------------------------------------

def _periodized_kernel(u, k, n_samples):
    """Exact periodization of K(t) = int phi(xi) exp(-i t xi) dxi."""
    j_max = int(math.floor(n_samples / (2.0 * math.pi)))
    xi = 2.0 * math.pi * np.arange(-j_max, j_max + 1) / n_samples
    phi = (1.0 + 1j * xi ** 3) * smooth_cutoff(np.abs(xi))
    left = np.exp(-1j * np.outer(u, xi)) * phi
    right = np.exp(1j * np.outer(xi, k))
    return np.real(left @ right) * (2.0 * math.pi / n_samples)


def _dense_kernel(grid, sigma, lam):
    n_samples = int(round(grid.period * sigma))
    x = grid.axis_coords()
    kernel = _periodized_kernel(
        sigma * (x - lam), np.arange(n_samples, dtype=float), n_samples
    )
    return kernel / (2.0 * math.pi), n_samples


def _dense_samples(values, grid, n_samples, lam):
    """The trigonometric interpolant of ``values`` at the points j * L / n + lam."""
    n = grid.points_per_axis
    coeffs = np.fft.fft(values) / n
    shifted = coeffs * np.exp(1j * grid.axis_frequencies() * lam)
    idx = np.mod(np.fft.fftfreq(n, d=1.0 / n).astype(int), n_samples)
    folded = np.zeros(n_samples, dtype=complex)
    np.add.at(folded, idx, shifted)
    return np.fft.ifft(folded) * n_samples


def dense_interp_V(f, sigma, lam):
    """Sample f at spacing 1/sigma and apply the dense kernel."""
    kernel, n_samples = _dense_kernel(f.grid, sigma, lam)
    return _dense_samples(f.values, f.grid, n_samples, lam) @ kernel.T


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


class TestSamplingFold:
    """The Fourier fold against the dense kernel, below and above N samples."""

    @pytest.mark.parametrize("sigma", [1.0, 64.0])  # n = 40 < N and n = 2560 > N
    def test_1d_matches_dense_kernel(self, sigma):
        f = random_function(TorusGrid(1, 1024, 40.0), seed=11)
        for lam in _sampling_offsets(sigma):
            ref = dense_interp_V(f, sigma, lam)
            got = interp_V(f, sigma, lam).values
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cached_arrays_are_small_and_read_only(self):
        grid = TorusGrid(1, 1024, 40.0)
        for sigma in (1.0, 64.0):
            targets, weights, n_samples = _interp_v_axis_matrix(grid, sigma, 0.125)
            assert n_samples == int(40 * sigma)
            for arr in (targets, weights):
                assert arr.size <= grid.points_per_axis
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_one_transform_per_call(self, count_transforms):
        f = random_function(TorusGrid(1, 256, 20.0), seed=13)
        interp_V(f, 2.0, 0.25)
        assert len(count_transforms) == 1
