import math

import numpy as np
import pytest

from smoothlab.approx import (
    K_SCALES,
    approx_curve,
    dyadic_bands,
    k_functional,
    near_best,
    realization,
    sup_directional,
)
import smoothlab.approx
from smoothlab.corpus import grid_function
from smoothlab.errors import ParameterError
from smoothlab.grid import GridFunction, quasi_norm
from smoothlab.spectral import frequency_magnitude, transform
from smoothlab.verify import Workbench, make_config, run_check, verify_all


@pytest.fixture(scope="module")
def gaussian():
    return grid_function("gaussian", N=512, L=40.0)


class TestNearBest:
    def test_l2_error_is_exact_parseval_tail(self, gaussian):
        # at p = 2 the hard cutoff is the best bandlimited approximant and
        # its error is the coefficient tail, exactly
        for sigma in (2.0, 4.0, 8.0):
            nb = near_best(gaussian, sigma, 2.0)
            coeffs = transform(gaussian)
            mag = frequency_magnitude(gaussian.grid)
            tail = math.sqrt(40.0 * float(np.sum(np.abs(coeffs[mag > sigma]) ** 2)))
            assert nb.error == pytest.approx(tail, abs=1e-12)
            assert nb.candidate == "sharp"

    def test_witness_is_bandlimited(self, gaussian):
        # every candidate lies in the disk |w| <= sigma of the band windows;
        # on the 2-D desk grids a tensor sampling candidate, which reached
        # |w| = 5.33 at sigma = 4, used to win at p = 1/2 and p = 1
        cases = [(gaussian, 4.0, "inf")] + [
            (grid_function(name), sigma, p)
            for name in ("gaussian2d", "bump2d", "fejer2d")
            for p in (0.5, 1.0, "inf") for sigma in (4.0, 8.0, 16.0, 32.0)]
        for f, sigma, p in cases:
            coeffs = transform(near_best(f, sigma, p).witness)
            outside = np.abs(coeffs[frequency_magnitude(f.grid) > sigma])
            assert outside.max(initial=0.0) < 1e-12 * np.abs(transform(f)).max(), (f.grid, sigma, p)

    def test_error_never_exceeds_norm(self, gaussian):
        # the zero function is always a candidate
        for p in (0.5, 1.0, 2.0, "inf"):
            nb = near_best(gaussian, 1.0, p)
            assert nb.error <= quasi_norm(gaussian, p) * (1.0 + 1e-12)

    def test_bandlimited_input_is_reproduced(self):
        f = grid_function("fejer", N=512, L=40.0)  # band radius 4
        nb = near_best(f, 8.0, 2.0)
        assert nb.error < 1e-10

    def test_all_inf_tie_keeps_the_first_candidate(self, gaussian):
        # at p = 0.001 every candidate's quasi-norm overflows; the witness
        # is still the first candidate, not missing
        nb = near_best(gaussian, 8.0, 0.001)
        assert all(math.isinf(e) for e in nb.all_errors.values())
        assert nb.candidate == "sharp"
        assert nb.witness is not None


def fresh(f):
    """A new GridFunction with the samples of f and no spectrum yet."""
    return GridFunction(f.grid, f.values)


class TestOneTransform:
    """Every candidate of an approximation acts on the one spectrum of f."""

    def test_near_best_1d_with_sampling(self, gaussian, count_transforms):
        nb = near_best(fresh(gaussian), 1.0, 0.5)  # L sigma = 40 samples
        assert any(name.startswith("sampling[") for name in nb.all_errors)
        assert len(count_transforms) == 1

    def test_near_best_2d(self, count_transforms):
        # L sigma = 20 is whole, yet the sampling operator is 1-D only
        f = fresh(grid_function("gaussian2d", N=64, L=20.0))
        nb = near_best(f, 1.0, 0.5)
        assert not any(name.startswith("sampling[") for name in nb.all_errors)
        assert len(count_transforms) == 1

    def test_approx_curve(self, gaussian, count_transforms):
        approx_curve(fresh(gaussian), 2.0, k_max=5)
        assert len(count_transforms) == 1

    def test_k_functional_is_f_plus_one_per_candidate(self, gaussian, count_transforms):
        # delta = 0.02: two of the smooth bands fit below Nyquist (40.2);
        # the candidates are f, zero, those two and the Gaussian mollifiers,
        # and sup_directional transforms each of them once -- f's own
        # spectrum, computed for the other candidates, is among them
        delta = 0.02
        bands = sum(scale / delta <= gaussian.grid.nyquist for scale in K_SCALES)
        assert bands == 2
        k_functional(fresh(gaussian), delta, 1.0, 2.0)
        assert len(count_transforms) == 2 + bands + len(K_SCALES)

    def test_realization_check_transforms_its_entry_once(self, count_transforms):
        # the curve, every near-best scale and every realization share the
        # one spectrum of the Workbench's entry
        wb = Workbench(make_config({"quick": True}))
        run_check("P17", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}, workbench=wb)
        f = wb.fn("gaussian")
        assert sum(a is f.values for a in count_transforms) == 1

    def test_a_second_run_transforms_as_much_as_the_first(self, count_transforms):
        # no cache outlives a run, so a run's FFT work does not depend on
        # what an earlier run in the same process left behind: each run
        # transforms its own entry once
        samples = grid_function("gaussian", N=256, L=20.0).values
        runs = []
        for _ in range(2):
            start = len(count_transforms)
            verify_all(Workbench({"quick": True}))
            runs.append(count_transforms[start:])
        assert len(runs[0]) == len(runs[1])
        assert [sum(np.array_equal(a, samples) for a in run) for run in runs] == [1, 1]


class TestOneNearBestPerBand:
    def test_jackson_and_chain_checks_share_the_witnesses(self, monkeypatch):
        # P14 reads the witnesses of the curve that P12 built, so each band
        # is approximated once: 6 bands on the quick grid, 12 once P14
        # approximated them again
        calls, real = [], smoothlab.approx.band_windows

        def counted(grid, sigma):
            calls.append(sigma)
            return real(grid, sigma)

        monkeypatch.setattr(smoothlab.approx, "band_windows", counted)
        wb = Workbench(make_config({"quick": True}))
        params = {"entry": "gaussian", "alpha": 1.0, "p": 2.0}
        run_check("P12", params, workbench=wb)
        for side in ("lower", "upper"):
            run_check("P14", {**params, "side": side}, workbench=wb)
        assert sorted(calls) == dyadic_bands(wb.fn("gaussian").grid, 0, 6)
        assert len(calls) == 6


class TestApproxCurve:
    @pytest.mark.parametrize("N, L, k_max", [(512, 40.0, 6), (512, 40.0, 3), (64, 20.0, 6)])
    def test_sigmas_are_the_dyadic_bands(self, N, L, k_max):
        f = grid_function("gaussian", N=N, L=L)
        ac = approx_curve(f, 2.0, k_max=k_max)
        assert ac.sigmas.tolist() == [0.0] + dyadic_bands(f.grid, 0, k_max)

    def test_monotone_and_anchored(self, gaussian):
        ac = approx_curve(gaussian, 2.0, k_max=5)
        assert ac.sigmas[0] == 0.0
        assert ac.values[0] == pytest.approx(quasi_norm(gaussian, 2.0))
        assert np.all(np.diff(ac.values) <= 1e-15)

    def test_value_at_is_a_step_upper_bound(self, gaussian):
        ac = approx_curve(gaussian, 2.0, k_max=5)
        # between bands the curve holds the last computed value
        v3 = ac.value_at(3.0)
        assert v3 == ac.value_at(2.0)
        assert ac.value_at(4.0) <= v3

    @pytest.mark.parametrize("p", [0.5, 2.0, "inf"])
    def test_witnesses_are_the_near_best_approximants(self, gaussian, p):
        ac = approx_curve(gaussian, p, k_max=4)
        assert len(ac.witnesses) == len(ac.sigmas) - 1
        for sigma, err, w in zip(ac.sigmas[1:], ac.raw_values[1:], ac.witnesses):
            assert quasi_norm(gaussian - w, p) == err
            assert np.array_equal(w.values, near_best(gaussian, sigma, p).witness.values)
        assert "witnesses" not in ac.to_dict()


class TestRealizationAndK:
    def test_realization_dominates_error(self, gaussian):
        val, witness = realization(gaussian, 0.25, 1.0, 2.0)
        err = quasi_norm(gaussian - witness, 2.0)
        assert val >= err

    def test_k_functional_bounded_by_norm(self, gaussian):
        for p in (1.0, 2.0, "inf"):
            assert k_functional(gaussian, 0.5, 1.0, p) <= quasi_norm(
                gaussian, p
            ) * (1.0 + 1e-12)

    def test_k_functional_small_p_refused(self, gaussian):
        # the K-functional collapses identically below p = 1
        with pytest.raises(ParameterError):
            k_functional(gaussian, 0.5, 1.0, 0.5)

    def test_k_functional_shrinks_with_delta(self, gaussian):
        a = k_functional(gaussian, 0.1, 1.0, 2.0)
        b = k_functional(gaussian, 1.0, 1.0, 2.0)
        assert a <= b * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("delta", [1e100, 1e200, 1e300])
    def test_a_huge_step_gives_finite_values(self, gaussian, delta, alpha, p):
        # delta^alpha may be inf: it multiplies the seminorm 0 of the
        # constant witness, so the realization is the near-best error
        value, _ = realization(gaussian, delta, alpha, p)
        assert value == near_best(gaussian, 1.0 / delta, p).error
        assert math.isfinite(k_functional(gaussian, delta, alpha, p))

    def test_sup_directional_plane_wave(self):
        f = grid_function("planewave", N=256)
        # |D^1 e^{ix}| = 1 in either direction
        assert sup_directional(f, 1.0, "inf") == pytest.approx(1.0, rel=1e-10)
