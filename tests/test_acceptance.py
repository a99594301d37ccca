"""End-to-end acceptance gate.

One test per acceptance criterion, each at the desk scale (1-D: N=1024,
L=40; 2-D: N=256, L=20).  Every test emits a single [PASS]/[FAIL] line via
the conftest recorder so the verdicts appear in the terminal summary.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_line
from smoothlab.corpus import corpus_list
from smoothlab.errors import HypothesisError
from smoothlab.grid import Exponent, SmoothnessOrder, quasi_norm
from smoothlab.moduli import Step, frac_difference, modulus
from smoothlab.spectral import Direction, frequency_magnitude, transform
from smoothlab.verify import (
    Workbench,
    canonical_json,
    eta_regime,
    marchaud_rhs,
    run_check,
    verify_all,
)

P_SET = (0.5, 1.0, 2.0, "inf")
ONE_D = tuple(e.name for e in corpus_list() if e.dimension == 1)


@pytest.fixture(scope="module")
def wb():
    return Workbench()


def _criterion(num, title, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num:02d}: {title}"
    if detail:
        line += f"  ({detail})"
    print(line)
    record_line(line)
    assert ok, line


def _admissible(alpha, p):
    return SmoothnessOrder(alpha).admissible_for(Exponent.parse(p))


def test_criterion_01_series_matches_spectral(wb):
    """Series evaluation of the fractional difference agrees with the
    closed-form multiplier to 1e-8 on bandlimited inputs."""
    rng = np.random.default_rng(42)
    hs = rng.uniform(0.01, 0.5, size=20)
    fns = [wb.fn("fejer"), wb.fn("planewave"), wb.poly(1, 8.0, 71), wb.poly(1, 8.0, 72)]
    zeta = Direction((1.0,))
    worst = 0.0
    for f in fns:
        top = float(np.abs(f.values).max())
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.2):
            for h in hs:
                step = Step(zeta, float(h))
                a = frac_difference(f, step, alpha, method="series")
                b = frac_difference(f, step, alpha, method="spectral")
                worst = max(worst, float(np.abs(a.values - b.values).max()) / top)
    _criterion(1, "series evaluation matches the spectral multiplier",
               worst <= 1e-8, f"worst relative sup error {worst:.3g}")


def test_criterion_02_planewave_modulus_closed_form(wb):
    """First-order sup modulus of exp(ix) equals 2 sin(delta/2)."""
    f = wb.fn("planewave")
    worst = 0.0
    for d in (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0):
        got = modulus(f, d, 1.0, "inf")
        worst = max(worst, abs(got - 2.0 * math.sin(d / 2.0)))
    _criterion(2, "plane-wave modulus matches 2 sin(delta/2)",
               worst <= 1e-4, f"worst abs error {worst:.3g}")


def test_criterion_03_monotone_and_scaling(wb):
    """Modulus curves are exactly nondecreasing and satisfy the
    (1 + lam)^(alpha + d (1/p - 1)_+) step-scaling bound."""
    monotone = True
    worst = 0.0
    for name in ONE_D:
        for p in P_SET:
            pe = Exponent.parse(p)
            for alpha in (0.7, 1.0, 2.0):
                if not _admissible(alpha, p):
                    continue
                c = wb.curve(name, alpha, p)
                monotone = monotone and bool(np.all(np.diff(c.values) >= 0.0))
                const_exp = alpha + 1.0 * pe.deficiency
                f, deltas = wb.fn(name), c.deltas[::8]
                om = modulus(f, deltas, alpha, p)
                for lam in (2.0, 4.0, 8.0):
                    big = modulus(f, lam * deltas, alpha, p)
                    worst = max(worst, float(np.max(big / ((1.0 + lam) ** const_exp * om))))
    _criterion(3, "curves nondecreasing and scaling bound holds",
               monotone and worst <= 1.01,
               f"monotone={monotone}, worst scaling ratio {worst:.4g}")


def test_criterion_04_derivative_vs_small_steps(wb):
    """Directional derivative of a random trig polynomial stays within a
    factor 10 of the normalized small-step difference, and within 20% at
    the coarsest step h = 1/sigma."""
    reports = []
    for p in P_SET:
        for alpha in (0.5, 1.0, 2.0):
            if not _admissible(alpha, p):
                continue
            reports.append(run_check(
                "NSB", {"alpha": alpha, "p": p, "sigma": 8.0, "n_seeds": 50},
                workbench=wb))
    ok = all(r.passed for r in reports)
    hi = max(r.stats["max"] for r in reports)
    lo = min(r.stats["min"] for r in reports)
    _criterion(4, "derivative matches normalized small-step differences",
               ok, f"{len(reports)} combos, ratio range [{lo:.3g}, {hi:.3g}]")


def test_criterion_05_derivative_growth_flat_under_dilation(wb):
    """The ratio of the derivative quasi-norm to sigma^alpha times the
    function quasi-norm is flat (|slope| <= 0.05) along dilation families."""
    worst = 0.0
    ok = True
    for p in P_SET:
        for alpha in (0.5, 1.0, 2.0):
            if not _admissible(alpha, p):
                continue
            rep = run_check("BERN", {"alpha": alpha, "p": p}, workbench=wb)
            ok = ok and rep.passed
            worst = max(worst, abs(rep.stats["slope"]))
    _criterion(5, "dilation families keep the growth ratio flat",
               ok and worst <= 0.05, f"worst |slope| {worst:.3g}")


def test_criterion_06_approximation_error_vs_modulus(wb):
    """Near-best errors at sigma = 2^0..2^6 stay below 100 x the modulus
    at 1/sigma; at p = 2 the reported error equals the exact quadratic
    spectral tail to 1e-10."""
    worst_ratio = 0.0
    for p in P_SET:
        alpha = 2.0 if p == 0.5 else 1.0
        for name in ONE_D:
            f = wb.fn(name)
            for k in range(7):
                sigma = float(2 ** k)
                if sigma > f.grid.nyquist:
                    break
                err = wb.acurve(name, p).raw_values[k + 1]
                om = modulus(f, 1.0 / sigma, alpha, p)
                worst_ratio = max(worst_ratio, err / om)
    worst_tail = 0.0
    for name in ONE_D:
        f = wb.fn(name)
        coeffs = transform(f)
        mag = frequency_magnitude(f.grid)
        for k in range(7):
            sigma = float(2 ** k)
            if sigma > f.grid.nyquist:
                break
            tail = math.sqrt(
                f.grid.period * float(np.sum(np.abs(coeffs[mag > sigma]) ** 2))
            )
            worst_tail = max(worst_tail, abs(wb.acurve(name, 2.0).raw_values[k + 1] - tail))
    _criterion(6, "near-best error controlled by the modulus; quadratic case exact",
               worst_ratio <= 100.0 and worst_tail <= 1e-10,
               f"worst ratio {worst_ratio:.3g}, worst tail gap {worst_tail:.3g}")


def test_criterion_07_equivalence_bands(wb):
    """Modulus vs realization functional (all p) and modulus vs the
    K-functional (p >= 1) stay inside the band [1/50, 50]."""
    rows = [
        ("P17", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}),
        ("P17", {"entry": "gaussian", "alpha": 1.0, "p": 1.0}),
        ("P17", {"entry": "gaussian", "alpha": 1.0, "p": "inf"}),
        ("P17", {"entry": "cusp05", "alpha": 1.5, "p": 0.5}),
        ("P17", {"entry": "cusp05", "alpha": 1.0, "p": 1.0}),
        ("P17", {"entry": "bump", "alpha": 1.5, "p": 0.5}),
        ("P17", {"entry": "bump", "alpha": 1.0, "p": 2.0}),
        ("P16", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}),
        ("P16", {"entry": "gaussian", "alpha": 1.0, "p": 1.0}),
        ("P16", {"entry": "cusp05", "alpha": 1.0, "p": 2.0}),
        ("P16", {"entry": "bump", "alpha": 1.5, "p": "inf"}),
    ]
    reports = [run_check(pid, prm, workbench=wb) for pid, prm in rows]
    ok = all(r.passed for r in reports)
    hi = max(r.stats["max"] for r in reports)
    lo = min(r.stats["min"] for r in reports)
    _criterion(7, "realization and K-functional bands within [1/50, 50]",
               ok and hi <= 50.0 and lo >= 1.0 / 50.0,
               f"band [{lo:.3g}, {hi:.3g}] over {len(rows)} combos")


def test_criterion_08_tail_integral_bounds(wb):
    """Tail-integral (Marchaud-type) bound, its pointwise reverse, and
    quadrature self-convergence under doubling of the node count."""
    rows = [
        ("P7", {"entry": "gaussian", "alpha": 1.0, "gamma": 1.0, "p": 2.0}),
        ("P7", {"entry": "cusp05", "alpha": 1.5, "gamma": 1.0, "p": 0.5}),
        ("P7", {"entry": "bump", "alpha": 1.0, "gamma": 1.0, "p": "inf"}),
        ("P8", {"entry": "gaussian", "alpha": 1.0, "beta": 1.0, "p": 2.0}),
        ("P8", {"entry": "gaussian", "alpha": 1.0, "beta": 1.0, "p": 2.0,
                "form": "integral"}),
    ]
    reports = [run_check(pid, prm, workbench=wb) for pid, prm in rows]
    ok = all(r.passed for r in reports)
    big = wb.ext_curve("gaussian", 2.0, 2.0)
    fnorm = quasi_norm(wb.fn("gaussian"), 2.0)
    a = marchaud_rhs(big, 0.1, 1.0, 2.0, fnorm, n_quad=96)
    b = marchaud_rhs(big, 0.1, 1.0, 2.0, fnorm, n_quad=192)
    conv = abs(a - b) / b
    _criterion(8, "tail-integral bounds hold and quadrature self-converges",
               ok and conv <= 1e-3,
               f"{len(rows)} bounds, quadrature rel change {conv:.3g}")


def test_criterion_09_exponent_shift_regimes(wb):
    """The exponent-shift inequality across its (p, q) x gamma regime
    matrix, plus the smoothing-power branch table and the norm-term
    drop list."""
    reports = []
    tags = set()
    for p, q in ((0.5, 1.0), (0.5, 2.0), (1.0, 2.0), (2.0, 4.0), (2.0, "inf")):
        qv = math.inf if q == "inf" else q
        crit = 1.0 / p - (0.0 if qv == math.inf else 1.0 / qv)
        for gamma in (0.0, 0.5 * crit, crit):
            rep = run_check(
                "P9",
                {"entry": "gaussian", "alpha": 2.0, "gamma": gamma, "p": p, "q": q},
                workbench=wb)
            reports.append(rep)
            tags.update(n for n in rep.notes if "regime" in n)
    ok = all(r.passed for r in reports)
    # branch table spot checks
    branches = (
        eta_regime(0.5, 2.0, 2.0, 2.0, d=1)["tag"] == "supercritical"
        and eta_regime(0.5, 2.0, 1.0, 1.0, d=2)["tag"] == "critical-whole"
        and eta_regime(2.0, 4.0, 1.0, 0.1, d=1)["tag"] == "subcritical"
        and eta_regime(2.0, 4.0, 1.0, 0.25, d=1)["tag"] == "flat"
    )
    drops = (
        eta_regime(0.5, 2.0, 2.0, 0.25, d=1)["drop"]
        and eta_regime(2.0, 4.0, 1.0, 0.25, d=1)["drop"]
        and not eta_regime(2.0, 4.0, 1.0, 0.5, d=1)["drop"]
    )
    _criterion(9, "exponent-shift regime matrix, branch table and drop list",
               ok and branches and drops,
               f"{len(reports)} matrix cells, {len(tags)} distinct regime notes")


def test_criterion_10_remaining_properties_and_gates(wb):
    """Each remaining verified property has at least one passing check,
    and out-of-scope parameter combinations are refused."""
    rows = [
        ("P4", {"entry": "gaussian", "r": 1, "p": 2.0}),
        ("P5", {"entry": "gaussian", "entry2": "bump", "r": 2, "p": 2.0, "q": 2.0}),
        ("P6", {"entry": "gaussian", "r": 1, "p": 2.0, "q": 1.0}),
        ("P10", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "q": 4.0}),
        ("P11", {"entry": "gaussian", "r": 1, "m": 1, "p": 2.0, "side": "lower"}),
        ("P13", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}),
        ("HLN1", {"alpha": 1.0, "p": 0.5, "q": 2.0, "d": 1}),
        ("HLN3", {"alpha": 1.0, "p": 2.0, "d": 1}),
        ("P3", {"entry": "gaussian2d", "r": 2, "p": 2.0}),
        ("HLN2", {"alpha": 1.0, "p": 1.0, "q": 2.0, "d": 2}),
    ]
    reports = [run_check(pid, prm, workbench=wb) for pid, prm in rows]
    ok = all(r.passed for r in reports)
    with pytest.raises(HypothesisError):
        run_check("P10", {"entry": "gaussian", "alpha": 1.0, "p": 1.0, "q": 2.0},
                  workbench=wb)
    with pytest.raises(HypothesisError):
        run_check("HLN1", {"alpha": 0.5, "p": 1.0, "q": 2.0, "d": 1}, workbench=wb)
    _criterion(10, "remaining properties pass and hypothesis gates refuse",
               ok, f"{len(rows)} checks, worst verdicts "
               + ",".join(sorted({r.verdict for r in reports})))


def test_criterion_11_reports_deterministic_and_quick():
    """verify-all reports are byte-identical across worker counts and the
    quick matrix finishes in under a minute."""
    t0 = time.monotonic()
    one = verify_all(Workbench({"quick": True, "threads": 1}))
    elapsed = time.monotonic() - t0
    eight = verify_all(Workbench({"quick": True, "threads": 8}))
    same = canonical_json(one) == canonical_json(eight)
    _criterion(11, "reports byte-identical across threads; quick run < 60 s",
               same and one["summary"]["all_pass"] and elapsed < 60.0,
               f"single-thread quick run {elapsed:.1f} s")
