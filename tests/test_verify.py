import math
import sys
import threading
import time

import numpy as np
import pytest

from smoothlab.errors import HypothesisError, ParameterError
from smoothlab.moduli import ModulusCurve
from smoothlab.verify import (
    UlyanovParams,
    Workbench,
    canonical_json,
    eta_regime,
    log_integral,
    make_config,
    marchaud_rhs,
    norm_term_droppable,
    resolve_threads,
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
        assert r == {"pow": 1.0, "logpow": 0.0, "tag": "supercritical"}

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
        assert r == {"pow": 1.5, "logpow": 0.0, "tag": "no-smoothing"}

    def test_small_q_below_one(self):
        r = eta_regime(0.5, 1.0, 2.0, 0.0, d=1)
        assert r["pow"] == pytest.approx(1.0)  # d(1/p - 1/q)
        assert r["tag"] == "no-smoothing"


class TestEtaRegimeLargeP:
    """Rate weight branches for 1 < p < q <= inf."""

    def test_flat(self):
        r = eta_regime(2.0, 4.0, 1.0, 0.5, d=1)  # gamma >= d(1/p-1/q)=0.25
        assert r == {"pow": 0.0, "logpow": 0.0, "tag": "flat"}

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
    def test_no_smoothing_small_metrics(self):
        assert norm_term_droppable(0.5, 1.0, 2.0, 0.0, d=1)

    def test_below_threshold_into_large_q(self):
        assert norm_term_droppable(0.5, 2.0, 2.0, 0.25, d=1)

    def test_at_threshold_generally_kept(self):
        assert not norm_term_droppable(0.5, 2.0, 1.3, 0.5, d=1)

    def test_whole_order_at_threshold_d2_dropped(self):
        assert norm_term_droppable(0.5, 2.0, 1.0, 1.0, d=2)

    def test_large_p_below_gap(self):
        assert norm_term_droppable(2.0, 4.0, 1.0, 0.1, d=1)
        assert norm_term_droppable(2.0, 4.0, 1.0, 0.25, d=1)
        assert not norm_term_droppable(2.0, 4.0, 1.0, 0.5, d=1)

    def test_sup_metric(self):
        assert norm_term_droppable(2.0, math.inf, 1.0, 0.25, d=1)
        assert not norm_term_droppable(2.0, math.inf, 1.0, 0.5, d=1)


class TestUlyanovParams:
    def test_valid(self):
        up = UlyanovParams(p=0.5, q=2.0, alpha=2.0, gamma=0.5, d=1)
        assert up.q1 == 2.0

    def test_rejects_wrong_order(self):
        with pytest.raises(HypothesisError):
            UlyanovParams(p=2.0, q=2.0, alpha=1.0, gamma=0.0, d=1)

    def test_rejects_inadmissible_source_order(self):
        # alpha + gamma = 0.9 is below the p = 0.5 admissibility line
        with pytest.raises(HypothesisError):
            UlyanovParams(p=0.5, q=2.0, alpha=0.8, gamma=0.1, d=1)

    def test_rejects_inadmissible_target_order(self):
        with pytest.raises(HypothesisError):
            UlyanovParams(p=1.0, q=2.0, alpha=0.3, gamma=2.0, d=1)


class TestQuadratures:
    def constant_curve(self, c=2.0):
        deltas = np.geomspace(1e-3, 1.0, 40)
        return ModulusCurve(1.0, "1", deltas, np.full(40, c))

    def test_marchaud_constant_curve_oracle(self):
        # theta = 1 at p = 1: rhs = d^a (c (d^-a - 1)/a + ||f||)
        curve = self.constant_curve(2.0)
        alpha, fnorm = 1.0, 3.0
        for d in (0.01, 0.1, 0.5):
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
        up = UlyanovParams(p=0.5, q=2.0, alpha=2.0, gamma=2.0, d=1)  # supercritical
        reg = eta_regime(0.5, 2.0, 2.0, 2.0, d=1)
        s = 3.5  # keeps s - gamma - pow away from the log-degenerate zero
        curve = self.power_curve(s)
        # eta(1/t) = t^(-pow): exponent of t inside the q1 power
        expo = s - up.gamma - reg["pow"]
        q1 = up.q1
        for d in (0.05, 0.2):
            expected = (d ** (expo * q1) / (expo * q1)) ** (1.0 / q1)
            got, tag, dropped = ulyanov_rhs(curve, d, up, fnorm=0.0, n_quad=600,
                                            drop_norm=True)
            assert tag == "supercritical"
            assert dropped
            assert got == pytest.approx(expected, rel=2e-2)

    def test_ulyanov_self_convergence(self):
        up = UlyanovParams(p=0.5, q=2.0, alpha=2.0, gamma=0.5, d=1)
        curve = self.power_curve(2.0)
        a, _, _ = ulyanov_rhs(curve, 0.1, up, fnorm=1.0, n_quad=96)
        b, _, _ = ulyanov_rhs(curve, 0.1, up, fnorm=1.0, n_quad=192)
        assert abs(a - b) / b < 1e-3

    def test_log_integral_oracle(self):
        # int_a^b t dt/t = b - a
        assert log_integral(lambda t: t, 0.1, 2.0, 2000) == pytest.approx(
            1.9, rel=1e-5
        )


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

    def test_unknown_property(self, wb):
        with pytest.raises(ParameterError):
            run_check("P99", {}, workbench=wb)


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
        result = verify_all({"quick": True})
        assert result["summary"]["all_pass"]
        assert result["summary"]["n_checks"] >= 8

    def test_thread_count_does_not_change_bytes(self):
        a = verify_all({"quick": True, "threads": 1})
        b = verify_all({"quick": True, "threads": 8})
        assert canonical_json(a) == canonical_json(b)


class TestConfig:
    def test_overrides_apply(self):
        cfg = make_config({"quick": True, "threads": 8})
        assert cfg["quick"] and cfg["threads"] == 8
        assert cfg["scale_1d"] == {"N": 256, "L": 20.0}
        assert make_config(cfg) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError, match="thread"):
            make_config({"thread": 4})

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "two"])
    def test_thread_count_must_be_positive_integer(self, bad):
        with pytest.raises(ParameterError, match="threads"):
            make_config({"threads": bad})
        with pytest.raises(ParameterError, match="threads"):
            resolve_threads({"threads": bad})

    def test_thread_env(self, monkeypatch):
        monkeypatch.setenv("SMOOTHLAB_THREADS", "3")
        assert resolve_threads(make_config()) == 3
        assert resolve_threads(make_config({"threads": 2})) == 2
        monkeypatch.setenv("SMOOTHLAB_THREADS", "0")
        with pytest.raises(ParameterError, match="SMOOTHLAB_THREADS"):
            resolve_threads(make_config())
        monkeypatch.delenv("SMOOTHLAB_THREADS")
        assert resolve_threads(make_config()) == 1


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
