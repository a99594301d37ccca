import dataclasses
import math

import numpy as np
import pytest

from smoothlab.corpus import corpus_list, default_scale, get_entry, grid_function
from smoothlab.errors import ParameterError
from smoothlab.grid import quasi_norm
from smoothlab.spectral import transform, frequency_magnitude
from smoothlab.verify import Workbench, make_config

QUICK = make_config({"quick": True})


def spectral_tail_fraction(f):
    """Relative l2 mass at frequencies |w| >= 0.75 * Nyquist."""
    c = transform(f)
    total = float(np.sum(np.abs(c) ** 2))
    if total == 0.0:
        return 0.0
    tail = frequency_magnitude(f.grid) >= 0.75 * f.grid.nyquist
    return math.sqrt(float(np.sum(np.abs(c[tail]) ** 2)) / total)


class TestCatalogue:
    def test_has_enough_entries(self):
        entries = corpus_list()
        assert len(entries) >= 8
        names = {e.name for e in entries}
        assert len(names) == len(entries)

    def test_mix_of_dimensions(self):
        entries = corpus_list()
        assert any(e.dimension == 1 for e in entries)
        assert any(e.dimension == 2 for e in entries)

    def test_unknown_entry(self):
        with pytest.raises(ParameterError):
            get_entry("nope")


class TestGridFunctions:
    @pytest.mark.parametrize("entry", [e.name for e in corpus_list()])
    def test_buildable_and_nonzero(self, entry):
        e = get_entry(entry)
        n = 256 if e.dimension == 1 else 64
        f = grid_function(entry, N=n)
        assert quasi_norm(f, 2.0) > 0
        assert np.all(np.isfinite(f.values))

    @pytest.mark.parametrize("entry", [e.name for e in corpus_list()])
    def test_spectral_tail_is_controlled(self, entry):
        e = get_entry(entry)
        n = 512 if e.dimension == 1 else 128
        f = grid_function(entry, N=n)
        tail = spectral_tail_fraction(f)
        # kinked entries put genuine mass in the tail, and even the compactly
        # supported bump resolves slowly; the fraction must stay small
        assert tail < 0.1
        if e.name in ("gaussian", "fejer", "planewave", "mod_gaussian"):
            assert tail < 1e-10

    def test_gaussian_matches_direct_evaluation(self):
        f = grid_function("gaussian", N=512, L=40.0)
        x = f.grid.axis_coords()
        # periodization images are negligible at this period
        assert np.max(np.abs(f.values - np.exp(-((x - 20.0) ** 2)))) < 1e-10

    def test_plane_wave_is_single_mode(self):
        f = grid_function("planewave", N=256)
        coeffs = transform(f)
        assert np.sum(np.abs(coeffs) > 1e-12) == 1

    def test_bandlimited_entries_have_exact_band(self):
        for name in ("fejer", "planewave", "fejer2d"):
            e = get_entry(name)
            n = 512 if e.dimension == 1 else 64
            f = grid_function(name, N=n)
            coeffs = transform(f)
            mag = frequency_magnitude(f.grid)
            outside = np.abs(coeffs[mag > e.band_radius * 1.0001])
            assert outside.max(initial=0.0) < 1e-14

    def test_fejer_profile(self):
        # triangle spectrum <-> squared sinc profile (normalized at peak)
        f = grid_function("fejer", N=1024, L=40.0)
        x = f.grid.axis_coords() - 20.0
        u = 2.0 * x
        direct = np.where(np.abs(u) < 1e-12, 1.0, (np.sin(u) / np.where(u == 0, 1, u)) ** 2)
        vals = f.values.real
        scale = vals.max() / direct.max()
        # periodization of a |x|^-2 tail costs ~1/L of relative mass
        assert np.max(np.abs(vals - scale * direct)) < 5e-2 * vals.max()

    @pytest.mark.parametrize("N", [0, 512.9, 1024.0])
    def test_refuses_a_size_that_is_not_a_grid_size(self, N):
        # N = 0 once gave the desk grid, 512.9 was cut to 512, and 1024.0
        # once matched a cached desk grid
        with pytest.raises(ParameterError, match="points_per_axis"):
            grid_function("gaussian", N=N)

    def test_workbench_returns_one_object_per_entry(self):
        wb = Workbench(QUICK)
        assert wb.fn("gaussian") is wb.fn("gaussian")

    def test_workbenches_share_no_grid_function(self):
        # the Workbench is the one cache: no module cache carries a grid
        # function, or its spectrum, from one run to the next
        assert Workbench(QUICK).fn("gaussian") is not Workbench(QUICK).fn("gaussian")

    @pytest.mark.parametrize("entry", [e.name for e in corpus_list() if e.fourier is not None])
    def test_spectrum_matches_the_closed_form(self, entry):
        # the coefficients of the periodization are F(w)/L^d, shifted by
        # the half-period centering of ``periodize``
        e = get_entry(entry)
        f = grid_function(e)
        ws, L = f.grid.frequencies(), f.grid.period
        phase = sum(np.broadcast_to(w, f.grid.shape) for w in ws) * (L / 2.0)
        want = e.fourier(*ws) / L ** e.dimension * np.exp(-1j * phase)
        got = transform(f)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("entry", ["gaussian", "planewave", "gaussian2d"])
    def test_cached_values_are_read_only(self, entry):
        wb = Workbench(QUICK)
        f = wb.fn(entry)
        with pytest.raises(ValueError):
            f.values[0] = 0.0
        with pytest.raises(ValueError):
            f.values *= 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.values = np.zeros(f.grid.shape)
        assert wb.fn(entry) is f and np.all(f.values != 0.0)

    def test_default_scale(self):
        sc1 = default_scale(get_entry("gaussian"))
        sc2 = default_scale(get_entry("gaussian2d"))
        assert sc1["N"] == 1024 and sc2["N"] == 256

    def test_default_scale_pins_the_period(self):
        # an entry with a period of its own keeps it at any configured scale
        wave = get_entry("planewave")
        assert default_scale(wave, {"N": 256, "L": 20.0}) == {"N": 256, "L": 2.0 * math.pi}
        assert Workbench(QUICK).fn("planewave").grid.period == 2.0 * math.pi

    def test_cusp_entries_have_matching_sharpness(self):
        # modulus slope of |x|^beta * bump in L_2 is beta + 1/2 (energy of
        # the kink), capped by the order; just check ordering here
        from smoothlab.moduli import modulus_curve

        slopes = []
        for name in ("cusp03", "cusp05", "cusp15"):
            f = grid_function(name, N=1024, L=40.0)
            c = modulus_curve(f, 2.0, 2.0, deltas=np.geomspace(0.1, 0.5, 6))
            slopes.append(np.polyfit(np.log(c.deltas), np.log(c.values), 1)[0])
        assert slopes[0] < slopes[1] < slopes[2]
        assert slopes[0] == pytest.approx(0.8, abs=0.05)
        assert slopes[1] == pytest.approx(1.0, abs=0.05)

    def test_tail_gate(self):
        # a gaussian on a tiny period fails the mass gate
        with pytest.raises(ParameterError):
            grid_function("gaussian", N=64, L=2.0)
