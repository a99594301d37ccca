import dataclasses
import math
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from smoothlab import corpus, verify
from smoothlab.approx import dyadic_bands
from smoothlab.errors import HypothesisError, ParameterError
from smoothlab.grid import Exponent, TorusGrid
from smoothlab.moduli import ModulusCurve
from smoothlab.spectral import synthesize, transform
from smoothlab.verify import (
    CHECKS,
    Workbench,
    canonical_json,
    default_matrix,
    eta_regime,
    log_integral,
    make_config,
    marchaud_rhs,
    run_check,
    ulyanov_rhs,
    verify_all,
)

QUICK = make_config({"quick": True})


@pytest.fixture(scope="module")
def wb():
    return Workbench(QUICK)


class TestEtaRegimeSmallP:
    """Rate weight branches for 0 < p <= 1 < q (and p < q <= 1)."""

    def test_supercritical_is_pure_power(self):
        r = eta_regime(0.5, 2.0, 1.0, 2.0, d=1)  # gamma=2 > d(1-1/q)=0.5
        assert r == {"pow": 1.0, "logpow": 0.0, "tag": "supercritical", "drop": False}

    def test_critical_whole_order_drops_log(self):
        # d=2, gamma = d(1-1/q) = 1, alpha+gamma whole
        r = eta_regime(0.5, 2.0, 1.0, 1.0, d=2)
        assert r["tag"] == "critical-whole"
        assert r["logpow"] == 0.0
        assert r["pow"] == 2.0  # d(1/p - 1)

    def test_critical_fractional_order_keeps_log(self):
        r = eta_regime(0.5, 2.0, 1.3, 1.0, d=2)
        assert r["tag"] == "critical-log-q1"
        assert r["logpow"] == pytest.approx(0.5)  # 1/q1, q1 = q = 2

    def test_critical_line_d1(self):
        # d=1, q=inf: threshold d(1-1/q) = 1 met exactly
        r = eta_regime(0.5, math.inf, 1.5, 1.0, d=1)
        assert r["tag"] == "critical-line"
        assert r["logpow"] == 0.0  # 1/q = 0 at q = inf

    def test_critical_small_gamma(self):
        # 0 < gamma = d(1-1/q) < 1
        r = eta_regime(0.5, 2.0, 1.0, 0.5, d=1)
        assert r["tag"] == "critical-small"
        assert r["logpow"] == pytest.approx(0.5)  # 1/q
        assert r["pow"] == 1.0

    def test_subcritical(self):
        r = eta_regime(0.5, 2.0, 1.5, 0.25, d=1)
        assert r["tag"] == "subcritical"
        assert r["pow"] == pytest.approx(1.5 - 0.25)  # d(1/p-1/q) - gamma

    def test_no_smoothing(self):
        r = eta_regime(0.5, 2.0, 1.5, 0.0, d=1)
        assert r == {"pow": 1.5, "logpow": 0.0, "tag": "no-smoothing", "drop": True}

    def test_small_q_below_one(self):
        r = eta_regime(0.5, 1.0, 2.0, 0.0, d=1)
        assert r["pow"] == pytest.approx(1.0)  # d(1/p - 1/q)
        assert r["tag"] == "no-smoothing"


class TestEtaRegimeLargeP:
    """Rate weight branches for 1 < p < q <= inf."""

    def test_flat(self):
        r = eta_regime(2.0, 4.0, 1.0, 0.5, d=1)  # gamma >= d(1/p-1/q)=0.25
        assert r == {"pow": 0.0, "logpow": 0.0, "tag": "flat", "drop": False}

    def test_flat_sup(self):
        r = eta_regime(2.0, math.inf, 1.0, 1.0, d=1)  # gamma > d/p = 0.5
        assert r["tag"] == "flat-sup"

    def test_critical_sup_log(self):
        r = eta_regime(2.0, math.inf, 1.0, 0.5, d=1)  # gamma = d/p
        assert r["tag"] == "critical-sup"
        assert r["logpow"] == pytest.approx(0.5)  # 1/p'

    def test_subcritical(self):
        r = eta_regime(2.0, 4.0, 1.0, 0.1, d=1)
        assert r["tag"] == "subcritical"
        assert r["pow"] == pytest.approx(0.15)

    def test_rejects_bad_ordering(self):
        with pytest.raises(HypothesisError):
            eta_regime(4.0, 2.0, 1.0, 0.0, d=1)


class TestDropList:
    """Whether the case drops the trailing delta^alpha ||f||_p term."""

    def drop(self, *args, d):
        return eta_regime(*args, d=d)["drop"]

    def test_no_smoothing_small_metrics(self):
        assert self.drop(0.5, 1.0, 2.0, 0.0, d=1)

    def test_below_threshold_into_large_q(self):
        assert self.drop(0.5, 2.0, 2.0, 0.25, d=1)

    def test_at_threshold_generally_kept(self):
        assert not self.drop(0.5, 2.0, 1.3, 0.5, d=1)

    def test_whole_order_at_threshold_d2_dropped(self):
        assert self.drop(0.5, 2.0, 1.0, 1.0, d=2)

    def test_large_p_below_gap(self):
        assert self.drop(2.0, 4.0, 1.0, 0.1, d=1)
        assert self.drop(2.0, 4.0, 1.0, 0.25, d=1)
        assert not self.drop(2.0, 4.0, 1.0, 0.5, d=1)

    def test_sup_metric(self):
        assert self.drop(2.0, math.inf, 1.0, 0.25, d=1)
        assert not self.drop(2.0, math.inf, 1.0, 0.5, d=1)

    def test_critical_small_drops_at_q_at_most_one(self):
        # gamma = 1e-13 is within the tolerance of thr = 0, and above 0
        r = eta_regime(0.25, 0.5, 1.0, 1e-13, d=1)
        assert (r["tag"], r["drop"]) == ("critical-small", True)

    def test_critical_whole_drops_from_gamma_one(self):
        # thr = 1 at d = 2, q = 2: within the tolerance below 1 the term stays
        r = eta_regime(0.25, 2.0, 1.0, 1 - 1e-13, d=2)
        assert (r["tag"], r["drop"]) == ("critical-whole", False)
        r = eta_regime(0.25, 2.0, 1.0, 1.0, d=2)
        assert (r["tag"], r["drop"]) == ("critical-whole", True)

    @pytest.mark.parametrize("p, q, gamma, d", [(0.25, 2.0, 1.5 - 1e-12, 3),
                                                (4.0, math.inf, 0.25 - 1e-12, 1)])
    def test_subcritical_keeps_the_term_within_the_tolerance(self, p, q, gamma, d):
        # gamma = thr - 1e-12 (gap - 1e-12 for p > 1) rounds to subcritical,
        # but does not clear the threshold by the tolerance
        r = eta_regime(p, q, 1.0, gamma, d=d)
        assert (r["tag"], r["drop"]) == ("subcritical", False)


class TestQuadratures:
    def constant_curve(self, c=2.0):
        deltas = np.geomspace(1e-3, 1.0, 40)
        return ModulusCurve(1.0, "1", deltas, np.full(40, c))

    def test_marchaud_constant_curve_oracle(self):
        # theta = 1 at p = 1: rhs = d^a (c (d^-a - 1)/a + ||f||), at each
        # delta of an array
        curve = self.constant_curve(2.0)
        alpha, fnorm = 1.0, 3.0
        d = np.array([0.01, 0.1, 0.5])
        expected = d ** alpha * (2.0 * (d ** -alpha - 1.0) / alpha + fnorm)
        got = marchaud_rhs(curve, d, alpha, 1.0, fnorm, n_quad=400)
        assert got == pytest.approx(expected, rel=1e-3)

    def test_marchaud_quadrature_self_convergence(self):
        curve = self.constant_curve(2.0)
        a = marchaud_rhs(curve, 0.05, 1.0, 2.0, 1.0, n_quad=96)
        b = marchaud_rhs(curve, 0.05, 1.0, 2.0, 1.0, n_quad=192)
        assert abs(a - b) / b < 1e-3

    def power_curve(self, s):
        deltas = np.geomspace(1e-3, 1.0, 60)
        return ModulusCurve(2.0, "0.5", deltas, deltas ** s)

    def test_ulyanov_power_curve_oracle(self):
        # pure-power regime: integrand = t^((s - gamma + pow(eta at 1/t)) q1 - 1)
        gamma, q1 = 2.0, 2.0  # supercritical at p = 0.5, q = 2
        reg = eta_regime(0.5, q1, 2.0, gamma, d=1)
        s = 3.5  # keeps s - gamma - pow away from the log-degenerate zero
        curve = self.power_curve(s)
        # eta(1/t) = t^(-pow): exponent of t inside the q1 power
        expo = s - gamma - reg["pow"]
        d = np.array([0.05, 0.2])
        expected = (d ** (expo * q1) / (expo * q1)) ** (1.0 / q1)
        # supercritical keeps the norm term, and fnorm = 0 keeps the oracle exact
        got, tag, dropped = ulyanov_rhs(curve, d, 0.5, q1, 2.0, gamma, 1, fnorm=0.0, n_quad=600)
        assert tag == "supercritical"
        assert not dropped
        assert got == pytest.approx(expected, rel=2e-2)

    def test_ulyanov_self_convergence(self):
        curve = self.power_curve(2.0)
        a, _, _ = ulyanov_rhs(curve, 0.1, 0.5, 2.0, 2.0, 0.5, 1, fnorm=1.0, n_quad=96)
        b, _, _ = ulyanov_rhs(curve, 0.1, 0.5, 2.0, 2.0, 0.5, 1, fnorm=1.0, n_quad=192)
        assert abs(a - b) / b < 1e-3

    @pytest.mark.parametrize("pid, params, sides", [
        ("P7", {"entry": "gaussian", "alpha": 1.0, "gamma": 1.0, "p": 2.0}, 1),
        ("P10", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "q": 4.0}, 2),
    ])
    def test_one_interp_call_per_integral_side(self, wb, monkeypatch, pid, params, sides):
        # each integral side evaluates its curve once, on every node of
        # every delta at the same time
        shapes, interp = [], ModulusCurve.interp

        def counted(curve, t):
            shapes.append(np.shape(t))
            return interp(curve, t)

        monkeypatch.setattr(ModulusCurve, "interp", counted)
        run_check(pid, params, workbench=wb)
        assert shapes == [(wb.setting("n_deltas", 1), wb.cfg["n_quad"])] * sides

    def test_log_integral_oracle(self):
        # int_a^b t dt/t = b - a, elementwise over arrays of limits, and 0
        # wherever not 0 < a < b
        assert log_integral(lambda t: t, 0.1, 2.0, 2000) == pytest.approx(
            1.9, rel=1e-5
        )
        a, b = np.array([0.1, 0.5, 1.0, 0.0]), np.array([2.0, 1.0, 1.0, 1.0])
        got = log_integral(lambda t: t, a, b, 2000)
        assert got == pytest.approx([1.9, 0.5, 0.0, 0.0], rel=1e-5)


class TestGating:
    def test_p1d_torus_gate(self, wb):
        with pytest.raises(HypothesisError):
            run_check("P1d", {"entry": "gaussian", "alpha": 1.0, "p": 2.0},
                      workbench=wb)

    def test_kolyada_p1_d1_gate(self, wb):
        with pytest.raises(HypothesisError):
            run_check("P10", {"entry": "gaussian", "alpha": 1.0, "p": 1.0, "q": 2.0},
                      workbench=wb)

    def test_hln1_odd_sum_gate(self, wb):
        # q=2, d=1 -> gamma = 0.5; alpha = 0.5 makes alpha+gamma an odd whole
        with pytest.raises(HypothesisError):
            run_check("HLN1", {"alpha": 0.5, "p": 0.5, "q": 2.0, "d": 1},
                      workbench=wb)

    def test_k_functional_small_p_gate(self, wb):
        with pytest.raises(HypothesisError):
            run_check("P16", {"entry": "gaussian", "alpha": 1.0, "p": 0.5},
                      workbench=wb)

    def test_sobolev_gate(self, wb):
        with pytest.raises(HypothesisError):
            run_check("P4", {"entry": "gaussian", "r": 1, "p": 0.5}, workbench=wb)

    @pytest.mark.parametrize("pid, params, names", [
        ("P7", {"entry": "gaussian", "alpha": 1, "gamma": 1, "p": 2, "drop_norm": True},
         ["drop_norm"]),
        ("P1a", {"entry": "gaussian", "alpha": 1, "p": 2, "gamma": 5, "q": 4}, ["gamma", "q"]),
        ("P12", {"entry": "gaussian", "alpha": 1, "p": 2, "side": "lower"}, ["side"]),
        ("HLN1", {"alpha": 1, "p": 0.5, "q": 2, "gamma": 0.5}, ["gamma"]),
    ])
    def test_undeclared_parameters_are_refused(self, wb, pid, params, names):
        # a key the row does not read (P12's variant key is "form", HLN1
        # derives gamma) is refused by name, not echoed into the report
        with pytest.raises(ParameterError) as err:
            run_check(pid, params, workbench=wb)
        assert all(repr(n) in str(err.value) for n in names)

    def test_unknown_property(self, wb):
        with pytest.raises(ParameterError):
            run_check("P99", {}, workbench=wb)


def _refused(pid, params, error=HypothesisError, label=""):
    return pytest.param(pid, params, error, id=f"{pid}-{label}" if label else pid)


G, G2 = {"entry": "gaussian"}, {"entry": "gaussian2d"}

#: one refused input per hypothesis gate of every check, plus the unknown
#: variants and the missing-parameter errors
REFUSED = [
    _refused("P1b", {**G, "entry2": "gaussian2d", "alpha": 1.0, "p": 2.0}, label="grid"),
    _refused("P1d", {}),
    _refused("P2", {**G, "alpha": 1.0, "p": 2.0, "lam": 1.0}, label="lam"),
    _refused("P2", {**G, "alpha": 1.0, "p": 2.0, "lam": math.inf}, ParameterError,
             label="lam-inf"),
    _refused("P3", {**G, "r": 2, "p": 2.0}, label="d"),
    _refused("P4", {**G, "r": 1, "p": "inf"}, label="p-inf"),
    _refused("P5", {**G, "entry2": "gaussian2d", "r": 1, "p": 2.0, "q": 2.0}, label="grid"),
    _refused("P6", {**G2, "r": 0.5, "p": 1.0, "q": 1.0}, label="fractional"),
    _refused("P6", {**G, "r": 1, "p": 1.0, "q": 2.0, "form": "inner"}, label="inner"),
    _refused("P6", {**G, "r": 1, "p": 2.0, "q": 1.0, "form": "bogus"}, ParameterError,
             label="form"),
    _refused("P7", {**G, "alpha": 1.0, "gamma": 0.0, "p": 2.0}, label="gamma"),
    _refused("P7", {**G, "alpha": 0.5, "gamma": 1.0, "p": 0.5}, label="alpha"),
    _refused("P7", {**G, "alpha": 1.0, "gamma": 0.5, "p": 0.25}, label="alpha+gamma"),
    _refused("P8", {**G, "alpha": 0.5, "beta": 1.0, "p": 0.5}, label="alpha"),
    _refused("P8", {**G, "alpha": 1.0, "beta": 0.5, "p": 0.5}, label="beta"),
    _refused("P8", {**G, "alpha": 1.0, "beta": 1.0, "p": 1.0, "form": "integral"},
             label="integral"),
    _refused("P8", {**G, "alpha": 1.0, "beta": 1.0, "p": 2.0, "form": "bogus"},
             ParameterError, label="form"),
    _refused("P9", {**G, "alpha": 2.0, "gamma": 0.0, "p": 2.0, "q": 1.0}, label="p<q"),
    _refused("P9", {**G, "alpha": 1.0, "gamma": 0.0, "p": 2.0, "q": 2.0}, label="p=q"),
    _refused("P9", {**G, "alpha": 2.0, "gamma": -0.5, "p": 0.5, "q": 2.0}, label="gamma"),
    _refused("P9", {**G, "alpha": 0.3, "gamma": 2.0, "p": 1.0, "q": 2.0}, label="alpha"),
    _refused("P9", {**G, "alpha": 0.8, "gamma": 0.1, "p": 0.5, "q": 2.0},
             label="alpha+gamma"),
    _refused("P10", {**G, "alpha": 1.0, "p": 2.0, "q": "inf"}, label="q-inf"),
    _refused("P10", {**G, "alpha": 1.0, "p": 4.0, "q": 2.0}, label="p<q"),
    _refused("P10", {**G, "alpha": 1.0, "p": 0.5, "q": 2.0}, label="p<1"),
    _refused("P10", {**G, "alpha": 0.2, "p": 2.0, "q": 4.0}, label="alpha"),
    _refused("P11", {**G, "r": 1, "m": 1, "p": 0.5}, label="p<1"),
    _refused("P11", {**G, "r": 1, "m": 1, "p": 1.0, "side": "trebels1"}, label="trebels1"),
    _refused("P11", {**G, "r": 1, "m": 1, "p": "inf", "side": "trebels2"}, label="trebels2"),
    _refused("P11", {**G, "r": 1, "m": 1, "p": 2.0, "side": "bogus"}, ParameterError,
             label="side"),
    _refused("P12", {**G, "alpha": 0.5, "p": 0.5}, label="alpha"),
    _refused("P12", {**G, "alpha": 1.0, "p": 1.0, "form": "sharp"}, label="sharp"),
    _refused("P12", {**G, "alpha": 1.0, "p": 2.0, "form": "bogus"}, ParameterError,
             label="form"),
    _refused("P13", {**G, "alpha": 0.5, "p": 0.5}, label="alpha"),
    _refused("P14", {**G, "alpha": 0.5, "p": 0.5}, label="alpha"),
    _refused("P14", {**G, "alpha": 1.0, "p": 2.0, "side": "bogus"}, ParameterError,
             label="side"),
    _refused("P17", {**G, "alpha": 0.5, "p": 0.5}, label="alpha"),
    _refused("NSB", {"alpha": 1.0, "p": 2.0, "sigma": 0.1}, ParameterError, label="sigma"),
    _refused("NSB", {"alpha": 1.0, "p": 2.0, "sigma": 0.0}, ParameterError, label="sigma0"),
    _refused("NSB", {"alpha": 1.0, "p": 2.0, "sigma": 1e-300}, ParameterError,
             label="sigma-tiny"),
    _refused("NSB", {"alpha": 1.0, "p": 2.0, "sigma": 1e300}, ParameterError,
             label="sigma-huge"),
    _refused("NIK", {"p": 2.0, "q": 1.0}, label="p<q"),
    _refused("HLN1", {"alpha": 1.0, "p": 2.0, "q": 2.0}, label="p<=1"),
    _refused("HLN1", {"alpha": 1.0, "p": 0.5, "q": "inf"}, label="q"),
    _refused("HLN2", {"alpha": 1.0, "p": 1.0, "q": 2.0, "d": 1}, label="d"),
    _refused("HLN2", {"alpha": 1.0, "p": 2.0, "q": 4.0}, label="p<=1"),
    _refused("HLN2", {"alpha": 1.0, "p": 0.5, "q": 1.0}, label="q"),
    _refused("HLN2", {"alpha": 1.0, "p": 1.0, "q": 1.5}, label="gamma"),
    _refused("HLN2", {"alpha": 0.5, "p": 1.0, "q": 2.0}, label="whole"),
    _refused("HLN3", {"alpha": 1.0, "p": 1.0}, label="p"),
    _refused("P1a", {"alpha": 1.0, "p": 2.0}, ParameterError, label="missing-entry"),
    _refused("P4", {**G, "r": 1}, ParameterError, label="missing-p"),
    _refused("P7", {**G, "alpha": 1.0, "p": 2.0}, ParameterError, label="missing-gamma"),
    _refused("NIK", {"p": 1.0}, ParameterError, label="missing-q"),
    _refused("HLN1", {"alpha": 1.0, "p": 0.5, "q": 2.0, "n_seeds": 0}, ParameterError,
             label="no-seed"),
]


class TestGateTable:
    @pytest.mark.parametrize("pid, params, error", REFUSED)
    def test_refused(self, wb, pid, params, error):
        with pytest.raises(error):
            run_check(pid, params, workbench=wb)

    def test_sigma_error_names_sigma(self, wb):
        with pytest.raises(ParameterError, match="sigma"):
            run_check("NSB", {"alpha": 1.0, "p": 2.0, "sigma": 0.1}, workbench=wb)


class TestIntegerParameters:
    """An int parameter refuses a fraction instead of truncating it."""

    @pytest.mark.parametrize("pid, params, name", [
        ("P11", {**G, "r": 1.7, "m": 1, "p": 2.0, "side": "lower"}, "r"),
        ("P11", {**G, "r": 1, "m": 1.5, "p": 2.0}, "m"),
        ("P3", {**G2, "r": 1.5, "p": 2.0}, "r"),
        ("P4", {**G, "r": math.inf, "p": 2.0}, "r"),
        ("HLN1", {"alpha": 1.0, "p": 0.5, "q": 2.0, "n_seeds": 1.9}, "n_seeds"),
        ("NSB", {"alpha": 1.0, "p": 2.0, "seed": 0.5}, "seed"),
        ("BERN", {"alpha": 1.0, "p": 2.0, "d": math.nan}, "d"),
    ])
    def test_a_fraction_is_refused(self, wb, pid, params, name):
        with pytest.raises(ParameterError, match=f"'{name}' must be a whole number"):
            run_check(pid, params, workbench=wb)

    def test_a_whole_float_runs_as_its_int(self, wb):
        params = {**G, "m": 1, "p": 2.0, "side": "lower"}
        as_float = run_check("P11", {**params, "r": 1.0}, workbench=wb)
        as_int = run_check("P11", {**params, "r": 1}, workbench=wb)
        assert as_float.lhs == as_int.lhs and as_float.rhs == as_int.rhs

    def test_p6_takes_a_fractional_r(self, wb):
        report = run_check("P6", {**G, "r": 1.5, "p": 2.0, "q": 1.0}, workbench=wb)
        assert report.verdict == "pass"
        assert report.params["r"] == 1.5


class TestPolynomialFamilies:
    """NSB, BERN, NIK and HLN1-3 run seed by seed over the bands the grid
    holds; ``tests/test_cli.py`` refuses a grid too coarse for each."""

    def test_dyadic_bands_stop_at_the_grid_band(self):
        g = TorusGrid(1, 16, 20.0)  # pi N/L = 2.51
        assert dyadic_bands(g, 0, 4) == [1.0, 2.0]
        assert dyadic_bands(g, 1, 4) == [2.0]
        assert dyadic_bands(g, 0, 4, scale=4.0) == []

    def test_seeded_runs_seed_by_seed(self):
        sides = verify._seeded([1.0, 2.0], lambda s, x: (s, x), 2)
        assert sides.grid == [1.0, 2.0, 1.0, 2.0]
        assert sides.lhs == [0, 0, 1, 1] and sides.rhs == [1.0, 2.0, 1.0, 2.0]


def _dilate_per_mode(base, factor):
    """Reference: move each nonzero coefficient of mode k to mode k * factor, one at a time."""
    coeffs = transform(base)
    n = base.grid.points_per_axis
    idx = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    out = np.zeros(base.grid.shape, dtype=complex)
    for s in np.argwhere(np.abs(coeffs) > 0):
        out[tuple(np.mod(idx[s] * factor, n))] += coeffs[tuple(s)]
    return synthesize(base.grid, out)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("factor", [2, 8])
def test_dilate_poly_matches_per_mode_loop(wb, d, factor):
    base = wb.poly(d, 1.0, 1000)
    got = verify._dilate_poly(base, factor)
    assert np.array_equal(got.values, _dilate_per_mode(base, factor).values)


class TestBenchmarkHooks:
    """``bench/tracer.py`` replaces the values of ``CHECKS``;
    ``bench/workloads.py`` reads ``default_matrix`` and calls ``run_check``."""

    def test_checks_hold_the_catalogue(self):
        assert sorted(CHECKS) == sorted(
            ["P1a", "P1b", "P1c", "P1d"]
            + [f"P{k}" for k in range(2, 18)]
            + ["NSB", "BERN", "NIK", "HLN1", "HLN2", "HLN3"]
        )
        assert all(callable(fn) for fn in CHECKS.values())

    def test_run_check_reads_checks_at_call_time(self, wb, monkeypatch):
        calls = []

        def stub(bench, params):
            calls.append((bench, params))
            return "stub"

        monkeypatch.setitem(verify.CHECKS, "P4", stub)
        assert run_check("P4", {"r": 1}, workbench=wb) == "stub"
        assert calls == [(wb, {"r": 1})]

    def test_matrix_sizes(self):
        full = default_matrix(make_config())
        quick = default_matrix(make_config({"quick": True}))
        assert len(full) == 48
        assert [pid for pid, _ in quick] == [
            "P1a", "P2", "P7", "P12", "P16", "P17", "NSB", "BERN"
        ]
        assert all(row in full for row in quick)
        assert [full.index(row) for row in quick] == sorted(full.index(row) for row in quick)


class TestExactRows:
    """An exact statement is an "upper" row whose cap is 1 + its tolerance,
    with no trend fit."""

    ROWS = {(row.pid, row.variant): row for row in verify.TABLE}

    @staticmethod
    def at(p, q=2.0):
        return SimpleNamespace(p=Exponent.parse(p), q=Exponent.parse(q))

    @pytest.mark.parametrize("key, p, q, cap", [
        (("P1a", ()), 2.0, 2.0, 1.0 + 1e-12),
        (("P1b", ()), 0.5, 2.0, 1.0 + 1e-12),
        (("P5", ()), 2.0, 2.0, 1.0 + 1e-6),
        (("P5", ()), 2.0, 4.0, 100.0),
        (("P8", ("form", "pointwise")), 2.0, 2.0, 1.0 + 1e-9),
        (("P8", ("form", "pointwise")), 1.0, 2.0, 100.0),
    ], ids=["P1a", "P1b", "P5-p2-q2", "P5-p2-q4", "P8-p2", "P8-p1"])
    def test_exact_rows_are_capped_upper_rows(self, key, p, q, cap):
        row = self.ROWS[key]
        bounds = verify._bounds(row, self.at(p, q))
        assert row.mode == "upper"
        assert bounds["max_ratio"] == cap and bounds["check_slope"] is False

    def test_every_mode_is_a_plain_string(self):
        assert {row.mode for row in verify.TABLE} == {"upper", "band", "info"}

    def test_the_cap_holds_to_the_last_ulp(self):
        bounds = verify._bounds(self.ROWS[("P1a", ())], self.at(2.0))
        for top, verdict in ((1.0 + 1e-12, "pass"), (np.nextafter(1.0 + 1e-12, 2.0), "fail")):
            sides = verify.Sides([0.1, 0.2, 0.4], [1.0, 0.5, top], [1.0, 1.0, 1.0])
            report = verify._assemble("P1a", {}, sides, "upper", bounds, [])
            assert report.stats["max"] == top
            assert report.verdict == verdict and report.stats["slope"] is None


class TestReports:
    def test_report_schema(self, wb):
        r = run_check("P1a", {"entry": "gaussian", "alpha": 1.0, "p": 2.0},
                      workbench=wb)
        d = r.to_dict()
        assert set(d) == {
            "property_id", "params", "grid", "lhs", "rhs", "ratio", "stats",
            "verdict", "notes",
        }
        assert set(d["stats"]) == {"max", "min", "median", "slope"}
        assert len(d["grid"]) == len(d["lhs"]) == len(d["rhs"]) == len(d["ratio"])
        canonical_json(d)  # serializable

    def test_canonical_json_is_key_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestVerifyAll:
    def test_quick_matrix_passes(self):
        result = verify_all(Workbench({"quick": True}))
        assert result["summary"]["all_pass"]
        assert result["summary"]["n_checks"] >= 8

    def test_thread_count_does_not_change_bytes(self):
        a = verify_all(Workbench({"quick": True, "threads": 1}))
        b = verify_all(Workbench({"quick": True, "threads": 8}))
        assert canonical_json(a) == canonical_json(b)


class TestConfig:
    def test_overrides_apply(self):
        cfg = make_config({"quick": True, "threads": 8})
        assert cfg["quick"] and cfg["threads"] == 8
        assert cfg["scale_1d"] == {"N": 256, "L": 20.0}
        assert make_config(cfg) == cfg

    def test_overrides_are_copied(self):
        # a caller's later write to its nested override reaches no Workbench
        cfg = {"quick": True, "scale_1d": {"N": 256, "L": 20.0}}
        wb = Workbench(cfg)
        cfg["scale_1d"]["N"] = 3
        assert wb.cfg["scale_1d"] == {"N": 256, "L": 20.0}
        assert wb.grid(1).points_per_axis == 256

    def test_desk_scales_come_from_the_corpus(self):
        cfg = make_config()
        assert (cfg["scale_1d"], cfg["scale_2d"]) == (corpus.DESK_1D, corpus.DESK_2D)

    def test_quick_matrix_passes_at_the_least_counts(self):
        least = {"n_quad": 2, "n_deltas_1d": 2, "n_deltas_2d": 2}
        assert verify_all(Workbench({"quick": True, **least}))["summary"]["all_pass"]

    @pytest.mark.parametrize("key, last, past, bound", [
        ("n_quad", 4096, 4097, "4096"),
        ("n_deltas_1d", 4096, 4097, "4096"),
        ("n_deltas_2d", 4096, 4097, "4096"),
        ("scale_1d", {"N": 2 ** 20, "L": 40.0}, {"N": 2 ** 21, "L": 40.0}, "1048576"),
        ("scale_2d", {"N": 2 ** 10, "L": 20.0}, {"N": 2 ** 11, "L": 20.0}, "1024"),
    ])
    def test_sizes_stop_at_their_bound(self, key, last, past, bound):
        # only the config is built here, no grid or quadrature of these sizes
        assert make_config({key: last})[key] == last
        with pytest.raises(ParameterError, match=f"config '{key}' must be .*{bound}"):
            make_config({key: past})

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError, match="thread"):
            make_config({"thread": 4})

    def test_the_config_has_seven_keys(self):
        assert set(make_config()) == {
            "quick", "threads", "n_quad", "scale_1d", "scale_2d", "n_deltas_1d", "n_deltas_2d"}

    @pytest.mark.parametrize("key", [
        "max_ratio", "slope_tol", "band_limit", "exact_tol", "k_max_1d", "k_max_2d"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ParameterError, match=f"unknown config keys: '{key}'"):
            make_config({key: 1})

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "two", "3", None])
    def test_thread_count_must_be_positive_integer(self, bad):
        with pytest.raises(ParameterError, match="config 'threads' must be an integer >= 1"):
            make_config({"threads": bad})

    def test_threads_default_to_one(self):
        assert make_config()["threads"] == 1

    def test_workbench_fills_in_the_defaults(self):
        wb = Workbench({"quick": True})
        assert wb.cfg == make_config({"quick": True})
        params = {"entry": "gaussian", "alpha": 1.0, "p": 2.0}
        assert run_check("P1a", params, workbench=wb).verdict == "pass"

    def test_workbench_checks_its_config(self):
        with pytest.raises(ParameterError, match="config 'n_quad'"):
            Workbench({"n_quad": -5})


class TestWorkbenchCache:
    def test_concurrent_requests_build_once(self):
        bench, builds, results = Workbench(QUICK), [], []
        start = threading.Barrier(2)

        def builder():
            builds.append(1)
            time.sleep(0.2)
            return object()

        def ask():
            start.wait()
            results.append(bench._get(("slow",), builder))

        threads = [threading.Thread(target=ask) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert len(builds) == 1
        assert len(results) == 2 and results[0] is results[1]

    def test_many_threads_many_keys(self):
        bench, lock = Workbench(QUICK), threading.Lock()
        builds, seen = {}, {}

        def builder(key):
            with lock:
                builds[key] = builds.get(key, 0) + 1
            time.sleep(0.001)
            return object()

        def ask(worker):
            for i in range(40):
                key = ("k", (i * 7 + worker) % 5)
                value = bench._get(key, lambda key=key: builder(key))
                with lock:
                    seen.setdefault(key, set()).add(id(value))

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(saved)
        assert builds == {("k", j): 1 for j in range(5)}
        assert all(len(ids) == 1 for ids in seen.values())

    def test_failed_build_is_not_cached(self):
        bench = Workbench(QUICK)

        def failing():
            raise ParameterError("no")

        with pytest.raises(ParameterError):
            bench._get(("k",), failing)
        assert bench._get(("k",), lambda: 7) == 7

    def test_builder_may_request_other_keys(self):
        bench = Workbench(QUICK)
        outer = bench._get(("outer",), lambda: bench._get(("inner",), lambda: 3) + 1)
        assert outer == 4

    def test_cached_curves_are_read_only(self, wb):
        # a cached curve is shared by every check: no caller may change it
        curve = wb.curve("gaussian", 1.0, 2.0)
        with pytest.raises(ValueError):
            curve.values[0] = 1.0
        with pytest.raises(ValueError):
            curve.deltas[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            curve.values = np.ones_like(curve.values)
        ac = wb.acurve("gaussian", 2.0)
        for arr in (ac.sigmas, ac.values, ac.raw_values):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_a_written_report_dict_leaves_the_cached_curve(self, wb):
        for cached in (lambda: wb.curve("gaussian", 1.0, 2.0), lambda: wb.acurve("gaussian", 2.0)):
            before = cached().to_dict()
            cached().to_dict()["metadata"]["method"] = "hacked"
            assert cached().to_dict() == before

    def test_curves_copy_a_writeable_array(self):
        deltas, values = np.array([0.1, 0.2, 0.4]), np.array([1.0, 2.0, 4.0])
        curve = ModulusCurve(1.0, "2.0", deltas, values)
        slope = curve._low_slope
        values[0] = 123.0
        assert curve.values[0] == 1.0 and curve._low_slope == slope
