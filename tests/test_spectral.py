import math

import numpy as np
import pytest

import smoothlab.spectral
from smoothlab.approx import _sampling_offsets
from smoothlab.errors import ParameterError
from smoothlab.grid import GridFunction, TorusGrid, quasi_norm
from smoothlab.spectral import (
    Direction,
    SpectralFunction,
    bandlimit_project,
    directional_derivative,
    fractional_laplacian,
    frequency_magnitude,
    interp_V,
    interp_V_2d,
    inverse,
    riesz_project,
    sharp_project,
    smooth_cutoff,
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
        g = inverse(transform(f))
        assert np.allclose(g.values, f.values, atol=1e-13)

    def test_plane_wave_coefficient(self, grid):
        F = transform(plane_wave(grid, 3.0))
        assert F.coefficients[3] == pytest.approx(1.0)
        assert np.sum(np.abs(F.coefficients) > 1e-12) == 1

    def test_band_radius_enforced(self, grid):
        coeffs = np.zeros(256, dtype=complex)
        coeffs[10] = 1.0  # frequency 10 > claimed band 5
        with pytest.raises(ParameterError):
            SpectralFunction(grid, coeffs, band_radius=5.0)


class TestDirection:
    def test_normalizes(self):
        z = Direction.of(3.0, 4.0)
        assert math.hypot(*z.vector) == pytest.approx(1.0)

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            Direction.of(0.0, 0.0)


class TestDerivatives:
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

    def test_fractional_laplacian_radial(self):
        grid = TorusGrid(2, 32, 2 * math.pi)
        x, y = grid.coords()
        f = GridFunction(grid, np.exp(1j * (2 * x + 1 * y)))
        lap = fractional_laplacian(f, 1.0)
        assert quasi_norm(lap, "inf") == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_direction_sign_matters_for_fractional(self, grid):
        f = plane_wave(grid, 1.0)
        d_plus = directional_derivative(f, Direction((1.0,)), 0.5)
        d_minus = directional_derivative(f, Direction((-1.0,)), 0.5)
        assert not np.allclose(d_plus.values, d_minus.values)


class TestProjections:
    def test_smooth_cutoff_profile(self):
        assert smooth_cutoff(np.array([0.0, 0.5]))[0] == 1.0
        assert smooth_cutoff(np.array([0.5]))[0] == 1.0
        assert smooth_cutoff(np.array([1.0, 2.0]))[1] == 0.0
        mid = smooth_cutoff(np.array([0.75]))[0]
        assert 0.0 < mid < 1.0

    def test_bandlimit_reproduces_low_modes(self, grid):
        f = plane_wave(grid, 2.0)
        P = inverse(bandlimit_project(f, 8.0))  # 2 <= 8/2: untouched
        assert np.allclose(P.values, f.values, atol=1e-12)

    def test_bandlimit_kills_high_modes(self, grid):
        f = plane_wave(grid, 30.0)
        P = inverse(bandlimit_project(f, 8.0))
        assert quasi_norm(P, "inf") < 1e-12

    def test_sharp_is_l2_best(self, grid):
        rng = np.random.default_rng(1)
        f = GridFunction(grid, rng.standard_normal(256))
        sigma = 10.0
        P = inverse(sharp_project(f, sigma))
        err = quasi_norm(f - P, 2.0)
        coeffs = transform(f).coefficients
        mag = frequency_magnitude(grid)
        tail = math.sqrt(2 * math.pi * float(np.sum(np.abs(coeffs[mag > sigma]) ** 2)))
        assert err == pytest.approx(tail, rel=1e-12)

    def test_riesz_weights_triangle(self, grid):
        f = plane_wave(grid, 2.0)
        P = inverse(riesz_project(f, 4.0))
        assert quasi_norm(P, "inf") == pytest.approx(1.0 - (2.0 / 4.0) ** 2, rel=1e-12)


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
        f = inverse(SpectralFunction(grid, coeffs))
        a = interp_V(f, 2.0, 0.0)
        b = interp_V(f, 2.0, 0.125)
        # both reproduce the same low-band content
        assert np.max(np.abs(a.values - b.values)) < 1e-3

    def test_2d_separable(self):
        grid = TorusGrid(2, 64, 16.0)
        x, y = grid.coords()
        k = 2 * math.pi / 16.0
        f = GridFunction(grid, np.exp(1j * k * x) * np.exp(1j * k * y))
        v = interp_V_2d(f, 4.0, 0.0)
        factor = 1.0 - 1j * (k / 4.0) ** 3
        assert np.max(np.abs(v.values - f.values * factor ** 2)) < 1e-3


# ---------------------------------------------------------------------------
# dense reference: the N x n_samples kernel form of the sampling operator
# ---------------------------------------------------------------------------

def _periodized_kernel(u, k, n_samples, r):
    """Exact periodization of K(t) = int phi(xi) exp(-i t xi) dxi."""
    j_max = int(math.floor(n_samples / (2.0 * math.pi)))
    xi = 2.0 * math.pi * np.arange(-j_max, j_max + 1) / n_samples
    phi = (1.0 + 1j * xi ** (2 * r + 1)) * smooth_cutoff(np.abs(xi))
    left = np.exp(-1j * np.outer(u, xi)) * phi
    right = np.exp(1j * np.outer(xi, k))
    return np.real(left @ right) * (2.0 * math.pi / n_samples)


def _dense_kernel(axis_grid, sigma, lam, r):
    n_samples = int(round(axis_grid.period * sigma))
    x = axis_grid.axis_coords()
    kernel = _periodized_kernel(
        sigma * (x - lam), np.arange(n_samples, dtype=float), n_samples, r
    )
    return kernel / (2.0 * math.pi), n_samples


def _dense_samples(rows, axis_grid, n_samples, lam):
    """Trig-poly values of each row at the points j * L / n + lam."""
    n = axis_grid.points_per_axis
    coeffs = np.fft.fft(rows, axis=-1) / n
    shifted = coeffs * np.exp(1j * axis_grid.axis_frequencies() * lam)
    idx = np.mod(np.fft.fftfreq(n, d=1.0 / n).astype(int), n_samples)
    folded = np.zeros(rows.shape[:-1] + (n_samples,), dtype=complex)
    np.add.at(folded, (..., idx), shifted)
    return np.fft.ifft(folded, axis=-1) * n_samples


def dense_interp_V(f, sigma, lam, r):
    """Sample f at spacing 1/sigma and apply the dense kernel, axis by axis."""
    axis_grid = TorusGrid(1, f.grid.points_per_axis, f.grid.period)
    kernel, n_samples = _dense_kernel(axis_grid, sigma, lam, r)
    vals = f.values
    for axis in range(f.grid.dimension):
        moved = np.moveaxis(vals, axis, -1)
        moved = _dense_samples(moved, axis_grid, n_samples, lam) @ kernel.T
        vals = np.moveaxis(moved, -1, axis)
    return vals


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
        for r in (1, 2):
            for lam in _sampling_offsets(sigma):
                ref = dense_interp_V(f, sigma, lam, r)
                got = interp_V(f, sigma, lam, r).values
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sigma", [1.0, 8.0])  # n = 16 < N and n = 128 > N
    def test_2d_matches_dense_kernel(self, sigma):
        f = random_function(TorusGrid(2, 64, 16.0), seed=12)
        for r in (1, 2):
            for lam in _sampling_offsets(sigma):
                ref = dense_interp_V(f, sigma, lam, r)
                got = interp_V_2d(f, sigma, lam, r).values
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cached_arrays_are_small_and_read_only(self):
        grid = TorusGrid(1, 1024, 40.0)
        for sigma in (1.0, 64.0):
            targets, weights, n_samples = _interp_v_axis_matrix(grid, sigma, 0.125, 1)
            assert n_samples == int(40 * sigma)
            for arr in (targets, weights):
                assert arr.size <= grid.points_per_axis
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_one_transform_per_call(self, monkeypatch):
        calls = []
        real = smoothlab.spectral.transform

        def counting(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(smoothlab.spectral, "transform", counting)
        f = random_function(TorusGrid(1, 256, 20.0), seed=13)
        interp_V(f, 2.0, 0.25)
        assert len(calls) == 1
        f2 = random_function(TorusGrid(2, 64, 16.0), seed=14)
        interp_V_2d(f2, 4.0, 0.25)
        assert len(calls) == 2
