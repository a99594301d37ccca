"""Inequality verification harness.

Every check compares a left-hand side against a right-hand side over a
parameter grid and reports the ratio series.  "lhs <~ rhs" (an estimate
up to an unknowable constant) is operationalized as: the ratio stays
below a generous cap AND its log-log slope does not grow (a decaying
ratio cannot falsify a one-sided estimate, growth can).  Two-sided
equivalences additionally require the ratio to stay inside a band and
its trend to be flat on both sides.

Property identifiers
    P1a  monotonicity of the modulus in delta (exact, nested design)
    P1b  quasi-subadditivity with constant 2^(1/p-1)_+ (exact)
    P1c  modulus bounded by the binomial-sum constant times the norm
    P1d  vanishing at infinity -- not checkable on the torus (gated)
    P2   lambda-scaling / quasi-monotonicity
    P3   total vs mixed+partial moduli (d = 2)
    P4   sup modulus / delta^r vs the Sobolev seminorm (1 < p < inf)
    P5   product (Leibniz) bound for moduli
    P6   averaged moduli vs the supremum modulus
    P7   Marchaud inequality
    P8   reverse Marchaud ('pointwise') and its integral strengthening
    P9   sharp Ulyanov inequality between metrics
    P10  Kolyada inequality (1 < p < q < inf; p = 1 needs d >= 2)
    P11  derivative moduli chains (and the integral variants)
    P12  Jackson inequality ('plain') and its sharp summed form
    P13  inverse approximation theorem
    P14  modulus vs band-projection derivative chains
    P15  rate-saturation probe (exploratory report, never pass/fail)
    P16  modulus vs K-functional (p >= 1)
    P17  modulus vs realization (all p)
    NSB  difference/derivative equivalence for bandlimited functions
    BERN Bernstein inequality for directional derivatives
    NIK  Nikolskii inequality between metrics
    HLN1/HLN2/HLN3  Hardy-Littlewood-Nikolskii derivative inequalities
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import corpus as corpus_mod
from .approx import approx_curve, k_functional, near_best, realization, sup_directional
from .errors import HypothesisError, ParameterError, RegimeError
from .grid import Exponent, GridFunction, SmoothnessOrder, TorusGrid, quasi_norm
from .moduli import (
    ModulusCurve,
    averaged_modulus,
    binom_power_constant,
    frac_binomial,
    mixed_modulus,
    modulus,
    modulus_curve,
    partial_modulus,
    sobolev_seminorm,
)
from .spectral import (
    SpectralFunction,
    apply_symbol,
    derivative_symbol,
    frequency_magnitude,
    inverse,
    transform,
)

DEFAULTS = {
    "quick": False,
    "threads": None,
    "max_ratio": 100.0,
    "slope_tol": 0.05,
    "band_limit": 50.0,
    "exact_tol": 1e-9,
    "n_quad": 96,
    "scale_1d": {"N": 1024, "L": 40.0},
    "scale_2d": {"N": 256, "L": 20.0},
    "n_deltas_1d": 24,
    "n_deltas_2d": 8,
    "k_max_1d": 6,
    "k_max_2d": 5,
}

QUICK_OVERRIDES = {
    "quick": True,
    "scale_1d": {"N": 256, "L": 20.0},
    "n_deltas_1d": 8,
    "k_max_1d": 5,
}


def make_config(overrides: dict | None = None) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if overrides:
        if overrides.get("quick"):
            cfg.update(json.loads(json.dumps(QUICK_OVERRIDES)))
        for k, v in overrides.items():
            if k != "quick":
                cfg[k] = v
    return cfg


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class InequalityReport:
    property_id: str
    params: dict
    grid: list
    lhs: list
    rhs: list
    ratio: list
    stats: dict
    verdict: str
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "property_id": self.property_id,
            "params": self.params,
            "grid": self.grid,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "stats": self.stats,
            "verdict": self.verdict,
            "notes": self.notes,
        }

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "info")


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_rows(report: InequalityReport) -> list:
    """Flatten a report for CSV output (lossy: stats/notes are repeated)."""
    rows = []
    pblob = canonical_json(report.params)
    for g, l, r, q in zip(report.grid, report.lhs, report.rhs, report.ratio):
        rows.append(
            {
                "property_id": report.property_id,
                "params": pblob,
                "grid": g,
                "lhs": l,
                "rhs": r,
                "ratio": q,
                "verdict": report.verdict,
            }
        )
    return rows


def _fit_slope(xs: np.ndarray, ys: np.ndarray) -> float | None:
    mask = (xs > 0) & (ys > 0) & np.isfinite(ys)
    if int(mask.sum()) < 2:
        return None
    return float(np.polyfit(np.log(xs[mask]), np.log(ys[mask]), 1)[0])


def _assemble(
    pid: str,
    params: dict,
    grid,
    lhs,
    rhs,
    mode: str,
    cfg: dict,
    notes=None,
    max_ratio: float | None = None,
    band_limit: float | None = None,
    exact_tol: float | None = None,
    check_slope: bool = True,
    asym: str = "small",
) -> InequalityReport:
    """Turn a lhs/rhs series into a report.

    ``asym`` names the asymptotic end of the grid where a hidden-constant
    blow-up would surface: "small" for step grids (delta -> 0), "large"
    for degree grids (sigma -> inf).  A one-sided check fails only when
    the ratio trends in that direction AND visibly escapes the bulk;
    benign transitional drift across a finite window is reported, not
    punished.
    """
    grid = np.asarray(grid, dtype=float)
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    notes = list(notes or [])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.where(lhs > 0, np.inf, 1.0)
        )
    finite = ratio[np.isfinite(ratio)]
    # degenerate points (both sides in the noise floor) are excluded from
    # the trend fit; they carry no rate information
    floor = 1e-10 * max(float(lhs.max(initial=0.0)), 1e-300)
    keep = (lhs > floor) & (rhs > 0) & np.isfinite(ratio)
    if int(keep.sum()) < len(grid):
        notes.append(f"{len(grid) - int(keep.sum())} underflow points left out of the slope fit")
    slope = _fit_slope(grid[keep], ratio[keep]) if check_slope else None
    stats = {
        "max": float(finite.max()) if finite.size else math.inf,
        "min": float(finite.min()) if finite.size else math.inf,
        "median": float(np.median(finite)) if finite.size else math.inf,
        "slope": slope,
    }
    slope_tol = cfg["slope_tol"]
    growing = False
    if slope is not None and int(keep.sum()) >= 2:
        kept_grid, kept_ratio = grid[keep], ratio[keep]
        end_idx = int(np.argmin(kept_grid)) if asym == "small" else int(np.argmax(kept_grid))
        trending = slope < -slope_tol if asym == "small" else slope > slope_tol
        escaped = kept_ratio[end_idx] > 3.0 * stats["median"]
        growing = trending and escaped
        if growing:
            notes.append("ratio grows toward the asymptotic end of the grid")
    ok = bool(np.all(np.isfinite(ratio)))
    if mode == "exact":
        tol = cfg["exact_tol"] if exact_tol is None else exact_tol
        ok = ok and stats["max"] <= 1.0 + tol
        verdict = "pass" if ok else "fail"
    elif mode == "upper":
        cap = cfg["max_ratio"] if max_ratio is None else max_ratio
        ok = ok and stats["max"] <= cap and not growing
        verdict = "pass" if ok else "fail"
    elif mode == "band":
        cap = cfg["band_limit"] if band_limit is None else band_limit
        ok = ok and stats["max"] <= cap and stats["min"] >= 1.0 / cap
        verdict = "pass" if ok else "fail"
    elif mode == "info":
        verdict = "info"
    else:
        raise ParameterError(f"unknown mode {mode}")
    return InequalityReport(
        pid,
        params,
        [float(g) for g in grid],
        [float(v) for v in lhs],
        [float(v) for v in rhs],
        [float(v) for v in ratio],
        stats,
        verdict,
        notes,
    )


# ---------------------------------------------------------------------------
# Ulyanov rate function
# ---------------------------------------------------------------------------

_EQ_TOL = 1e-12


def _close(a, b):
    return abs(a - b) <= _EQ_TOL


@dataclass(frozen=True)
class UlyanovParams:
    """Parameters of the between-metrics inequality, validated on creation."""

    p: float
    q: float
    alpha: float
    gamma: float
    d: int = 1

    def __post_init__(self):
        p, q = Exponent(self.p), Exponent(self.q)
        if not p.is_inf and q.is_inf:
            pass
        if p.is_inf or not (p.p < (math.inf if q.is_inf else q.p)):
            raise HypothesisError("needs 0 < p < q <= inf")
        if self.gamma < 0:
            raise HypothesisError("gamma must be nonnegative")
        a = SmoothnessOrder(self.alpha)
        # alpha admissible for the target metric: whole, or > (1 - 1/q)_+
        lim = max(1.0 - (0.0 if q.is_inf else 1.0 / q.p), 0.0)
        if not (a.is_integer or self.alpha > lim):
            raise HypothesisError(
                f"alpha={self.alpha} must be a whole number or exceed {lim}"
            )
        ag = SmoothnessOrder(self.alpha + self.gamma)
        if not ag.admissible_for(p):
            raise HypothesisError(
                f"alpha+gamma={self.alpha + self.gamma} inadmissible for p={self.p}"
            )

    @property
    def q1(self) -> float:
        return Exponent(self.q).q1


def eta_regime(p: float, q: float, alpha: float, gamma: float, d: int) -> dict:
    """Rate weight eta(t) = t^pow * ln^logpow(t+1) of the sharp between-
    metrics inequality, chosen by the printed case table (most specific
    case first).  Returns {'pow', 'logpow', 'tag'}."""
    pe, qe = Exponent(p), Exponent(q)
    if pe.is_inf or not (pe.p < (math.inf if qe.is_inf else qe.p)):
        raise HypothesisError("needs 0 < p < q <= inf")
    rq = 0.0 if qe.is_inf else 1.0 / qe.p
    if pe.p <= 1.0:
        thr = d * max(1.0 - rq, 0.0)
        pw = d * (1.0 / pe.p - 1.0)
        whole = abs((alpha + gamma) - round(alpha + gamma)) <= _EQ_TOL
        if gamma > thr + _EQ_TOL:
            return {"pow": pw, "logpow": 0.0, "tag": "supercritical"}
        if _close(gamma, thr) and thr >= 1.0 and d >= 2 and whole:
            return {"pow": pw, "logpow": 0.0, "tag": "critical-whole"}
        if _close(gamma, thr) and thr >= 1.0 and d >= 2:
            return {"pow": pw, "logpow": 1.0 / qe.q1, "tag": "critical-log-q1"}
        if _close(gamma, thr) and _close(thr, 1.0) and d == 1:
            return {"pow": pw, "logpow": rq, "tag": "critical-line"}
        if _close(gamma, thr) and 0.0 < gamma < 1.0:
            return {"pow": pw, "logpow": rq, "tag": "critical-small"}
        if 0.0 < gamma < thr:
            return {"pow": d * (1.0 / pe.p - rq) - gamma, "logpow": 0.0, "tag": "subcritical"}
        if _close(gamma, 0.0):
            return {"pow": d * (1.0 / pe.p - rq), "logpow": 0.0, "tag": "no-smoothing"}
        raise RegimeError(f"no rate regime for p={p}, q={q}, gamma={gamma}, d={d}")
    gap = d * (1.0 / pe.p - rq)
    if not qe.is_inf and gamma >= gap - _EQ_TOL:
        return {"pow": 0.0, "logpow": 0.0, "tag": "flat"}
    if qe.is_inf and gamma > gap + _EQ_TOL:
        return {"pow": 0.0, "logpow": 0.0, "tag": "flat-sup"}
    if qe.is_inf and _close(gamma, gap):
        return {"pow": 0.0, "logpow": 1.0 / pe.conjugate, "tag": "critical-sup"}
    if 0.0 <= gamma < gap:
        return {"pow": gap - gamma, "logpow": 0.0, "tag": "subcritical"}
    raise RegimeError(f"no rate regime for p={p}, q={q}, gamma={gamma}, d={d}")


def eta_value(t, regime: dict) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = t ** regime["pow"]
    if regime["logpow"]:
        out = out * np.log(t + 1.0) ** regime["logpow"]
    return out


def norm_term_droppable(p: float, q: float, alpha: float, gamma: float, d: int) -> bool:
    """Whether the trailing delta^alpha ||f||_p term can be omitted."""
    pe, qe = Exponent(p), Exponent(q)
    rq = 0.0 if qe.is_inf else 1.0 / qe.p
    qv = math.inf if qe.is_inf else qe.p
    whole = abs((alpha + gamma) - round(alpha + gamma)) <= _EQ_TOL
    if _close(gamma, 0.0) and pe.p < qv <= 1.0:
        return True
    if pe.p <= 1.0 < qv and gamma < d * (1.0 - rq) - _EQ_TOL:
        return True
    if d == 1 and pe.p <= 1.0 and qe.is_inf and _close(gamma, 1.0):
        return True
    if (
        pe.p <= 1.0 < qv
        and d >= 2
        and whole
        and _close(gamma, d * (1.0 - rq))
        and gamma >= 1.0
    ):
        return True
    if 1.0 < pe.p and qv < math.inf and pe.p < qv and gamma <= d * (1.0 / pe.p - rq) + _EQ_TOL:
        return True
    if 1.0 < pe.p and qe.is_inf and gamma < d / pe.p - _EQ_TOL:
        return True
    return False


# ---------------------------------------------------------------------------
# quadrature on modulus curves
# ---------------------------------------------------------------------------


def log_integral(fn, a: float, b: float, n: int) -> float:
    """integral_a^b fn(t) dt/t by the trapezoid rule on a log grid."""
    if not (0 < a < b):
        return 0.0
    ts = np.geomspace(a, b, n)
    ys = np.array([fn(float(t)) for t in ts])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(ys, np.log(ts)))


def marchaud_rhs(
    curve: ModulusCurve,
    delta: float,
    alpha: float,
    p,
    fnorm: float,
    n_quad: int = 96,
    upper: float = 1.0,
    drop_norm: bool = False,
) -> float:
    """delta^a (int_delta^1 (w(t)/t^a)^th dt/t + ||f||^th)^(1/th), th = min(p,2)."""
    p = Exponent.parse(p)
    th = p.theta
    integral = log_integral(
        lambda t: (curve.interp(t) / t ** alpha) ** th, delta, upper, n_quad
    )
    extra = 0.0 if drop_norm else fnorm ** th
    return float(delta ** alpha * (integral + extra) ** (1.0 / th))


def ulyanov_rhs(
    curve: ModulusCurve,
    delta: float,
    up: UlyanovParams,
    fnorm: float,
    n_quad: int = 96,
    drop_norm: bool | None = None,
):
    """Sharp between-metrics right-hand side at scale delta.

    curve must hold the order alpha+gamma modulus in the source metric p.
    The integral over (0, delta] is truncated at a fraction of the curve
    floor; below the floor the curve is continued by its fitted power law.
    Returns (value, regime_tag, dropped_norm_term).
    """
    regime = eta_regime(up.p, up.q, up.alpha, up.gamma, up.d)
    if drop_norm is None:
        drop_norm = norm_term_droppable(up.p, up.q, up.alpha, up.gamma, up.d)
    q1 = up.q1
    t_lo = curve.deltas[0] / 64.0

    def integrand(t):
        eta = float(eta_value(1.0 / t, regime))
        return (curve.interp(t) * t ** (-up.gamma) * eta) ** q1

    integral = log_integral(integrand, t_lo, delta, n_quad)
    value = integral ** (1.0 / q1)
    if not drop_norm:
        value += delta ** up.alpha * fnorm
    return float(value), regime["tag"], bool(drop_norm)


# ---------------------------------------------------------------------------
# workbench: cached grid functions, curves and approximants
# ---------------------------------------------------------------------------


def _random_poly(grid: TorusGrid, sigma: float, seed: int) -> GridFunction:
    """Seeded random trigonometric polynomial with band radius sigma."""
    rng = np.random.default_rng(seed)
    mag = frequency_magnitude(grid)
    mask = mag <= sigma
    coeffs = np.zeros(grid.shape, dtype=complex)
    n_in = int(mask.sum())
    coeffs[mask] = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
    scale = math.sqrt(float(np.sum(np.abs(coeffs) ** 2)))
    coeffs /= scale
    return inverse(SpectralFunction(grid, coeffs, band_radius=sigma))


def _dilate_poly(base: GridFunction, factor: int) -> GridFunction:
    """x -> base(factor x): exact on the torus, moves mode k to mode k*factor."""
    F = transform(base)
    n = base.grid.points_per_axis
    idx = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    out = np.zeros(base.grid.shape, dtype=complex)
    if base.grid.dimension == 1:
        src = np.nonzero(np.abs(F.coefficients) > 0)[0]
        for s in src:
            out[np.mod(idx[s] * factor, n)] += F.coefficients[s]
    else:
        src = np.argwhere(np.abs(F.coefficients) > 0)
        for s1, s2 in src:
            out[np.mod(idx[s1] * factor, n), np.mod(idx[s2] * factor, n)] += (
                F.coefficients[s1, s2]
            )
    return inverse(SpectralFunction(base.grid, out))


class Workbench:
    """Caches every expensive object for one configuration."""

    def __init__(self, config: dict | None = None):
        self.cfg = config if config is not None else make_config()
        self._lock = threading.Lock()
        self._cache: dict = {}

    def _get(self, key, builder):
        """The cached value of key; the first caller builds it, later
        callers wait on that build (builders may ask for other keys)."""
        with self._lock:
            entry = self._cache.get(key)
            owner = entry is None
            if owner:
                entry = self._cache[key] = Future()
        if owner:
            try:
                entry.set_result(builder())
            except BaseException as exc:
                with self._lock:
                    del self._cache[key]  # a later call builds again
                entry.set_exception(exc)
                raise
        return entry.result()

    def scale(self, entry) -> dict:
        e = corpus_mod.get_entry(entry) if isinstance(entry, str) else entry
        return self.cfg["scale_1d"] if e.dimension == 1 else self.cfg["scale_2d"]

    def fn(self, name: str) -> GridFunction:
        sc = self.scale(name)
        return corpus_mod.grid_function(name, N=sc["N"], L=sc["L"])

    def derived_fn(self, name: str, multi: tuple) -> GridFunction:
        """Whole-order derivative D^multi of a corpus entry."""

        def build():
            f = self.fn(name)
            return apply_symbol(transform(f), derivative_symbol(f.grid, multi))

        return self._get(("dfn", name, multi), build)

    def deltas(self, name: str) -> np.ndarray:
        f = self.fn(name)
        n = (
            self.cfg["n_deltas_1d"]
            if f.grid.dimension == 1
            else self.cfg["n_deltas_2d"]
        )
        lo = 4.0 * f.grid.spacing
        return np.geomspace(lo, 1.0, n)

    def curve(self, name: str, alpha: float, p, multi: tuple | None = None) -> ModulusCurve:
        plabel = Exponent.parse(p).label()

        def build():
            f = self.fn(name) if multi is None else self.derived_fn(name, multi)
            return modulus_curve(f, alpha, p, deltas=self.deltas(name))

        return self._get(("curve", name, multi, round(alpha, 12), plabel), build)

    def ext_curve(self, name: str, alpha: float, p, multi: tuple | None = None) -> ModulusCurve:
        """Wider curve (down to one grid cell) for quadrature inputs."""
        plabel = Exponent.parse(p).label()

        def build():
            f = self.fn(name) if multi is None else self.derived_fn(name, multi)
            n = (
                self.cfg["n_deltas_1d"]
                if f.grid.dimension == 1
                else self.cfg["n_deltas_2d"]
            ) + 8
            deltas = np.geomspace(f.grid.spacing, 1.0, n)
            return modulus_curve(f, alpha, p, deltas=deltas)

        return self._get(("ext", name, multi, round(alpha, 12), plabel), build)

    def point_modulus(self, name: str, delta: float, alpha: float, p) -> float:
        plabel = Exponent.parse(p).label()
        key = ("pt", name, round(delta, 14), round(alpha, 12), plabel)
        return self._get(key, lambda: modulus(self.fn(name), delta, alpha, p))

    def norm(self, name: str, p) -> float:
        plabel = Exponent.parse(p).label()
        return self._get(("norm", name, plabel), lambda: quasi_norm(self.fn(name), p))

    def acurve(self, name: str, p):
        plabel = Exponent.parse(p).label()
        f = self.fn(name)
        k_max = (
            self.cfg["k_max_1d"] if f.grid.dimension == 1 else self.cfg["k_max_2d"]
        )
        return self._get(
            ("acurve", name, plabel), lambda: approx_curve(f, p, k_max=k_max)
        )

    def nearbest(self, name: str, sigma: float, p):
        plabel = Exponent.parse(p).label()
        key = ("nb", name, round(sigma, 12), plabel)
        return self._get(key, lambda: near_best(self.fn(name), sigma, p))

    def poly(self, dimension: int, sigma: float, seed: int) -> GridFunction:
        sc = self.cfg["scale_1d"] if dimension == 1 else self.cfg["scale_2d"]
        grid = TorusGrid(dimension, sc["N"], sc["L"])
        return self._get(
            ("poly", dimension, round(sigma, 12), seed),
            lambda: _random_poly(grid, sigma, seed),
        )


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _p(params, key, default=None):
    if key in params:
        return params[key]
    if default is None:
        raise ParameterError(f"missing parameter '{key}'")
    return default


def _exponent(params, key, default=None):
    raw = params.get(key, default)
    if raw is None:
        raise ParameterError(f"missing parameter '{key}'")
    return Exponent.parse(raw)


def check_p1a(wb, params):
    alpha, p = _p(params, "alpha"), _exponent(params, "p")
    c = wb.curve(_p(params, "entry"), alpha, p)
    return _assemble(
        "P1a",
        params,
        c.deltas[:-1],
        c.values[:-1],
        c.values[1:],
        "exact",
        wb.cfg,
        notes=["nested step design makes monotonicity exact"],
        exact_tol=1e-12,
        check_slope=False,
    )


def check_p1b(wb, params):
    alpha, p = _p(params, "alpha"), _exponent(params, "p")
    name1, name2 = _p(params, "entry"), _p(params, "entry2")
    f1, f2 = wb.fn(name1), wb.fn(name2)
    if f1.grid != f2.grid:
        raise HypothesisError("the two entries must share a grid")
    deltas = wb.deltas(name1)
    csum = modulus_curve(f1 + f2, alpha, p, deltas=deltas)
    c1 = wb.curve(name1, alpha, p)
    c2 = wb.curve(name2, alpha, p)
    const = 2.0 ** p.deficiency
    return _assemble(
        "P1b",
        params,
        deltas,
        csum.values,
        const * (c1.values + c2.values),
        "exact",
        wb.cfg,
        notes=[f"quasi-triangle constant 2^(1/p-1)_+ = {const}"],
        exact_tol=1e-12,
        check_slope=False,
    )


def check_p1c(wb, params):
    alpha, p = _p(params, "alpha"), _exponent(params, "p")
    name = _p(params, "entry")
    c = wb.curve(name, alpha, p)
    const = binom_power_constant(alpha, p)
    rhs = const * wb.norm(name, p) * np.ones_like(c.values)
    return _assemble(
        "P1c",
        params,
        c.deltas,
        c.values,
        rhs,
        "upper",
        wb.cfg,
        notes=[
            f"binomial-sum constant {const:.6g};"
            " off-grid translations add interpolation slack beyond p = 2"
        ],
        max_ratio=1.1,
        check_slope=False,
    )


def check_p1d(wb, params):
    raise HypothesisError(
        "P1d compares against the limit delta -> infinity on R^d; on the torus"
        " the modulus saturates and the statement is vacuous"
    )


def check_p2(wb, params):
    alpha, p = _p(params, "alpha"), _exponent(params, "p")
    lam = float(_p(params, "lam", 2.0))
    if lam <= 1.0:
        raise HypothesisError("lambda-scaling is checked for lambda > 1")
    name = _p(params, "entry")
    f = wb.fn(name)
    c = wb.curve(name, alpha, p)
    const = (1.0 + lam) ** (alpha + f.grid.dimension * p.deficiency)
    lhs = np.array(
        [wb.point_modulus(name, float(lam * d), alpha, p) for d in c.deltas]
    )
    return _assemble(
        "P2",
        params,
        c.deltas,
        lhs,
        const * c.values,
        "upper",
        wb.cfg,
        notes=[f"scaling constant (1+lambda)^(alpha+d(1/p-1)_+) = {const:.6g}"],
    )


def check_p3(wb, params):
    r, p = int(_p(params, "r")), _exponent(params, "p")
    name = _p(params, "entry")
    f = wb.fn(name)
    if f.grid.dimension != 2:
        raise HypothesisError("mixed-moduli splitting is a d >= 2 statement")
    deltas = wb.deltas(name)
    lhs = wb.curve(name, float(r), p).values
    rhs = []
    for d in deltas:
        total = partial_modulus(f, 0, float(d), r, p) + partial_modulus(
            f, 1, float(d), r, p
        )
        for k in range(1, r):
            total += mixed_modulus(f, (k, r - k), float(d), p)
        rhs.append(total)
    return _assemble("P3", params, deltas, lhs, rhs, "band", wb.cfg)


def check_p4(wb, params):
    r, p = int(_p(params, "r")), _exponent(params, "p")
    if p.is_inf or not (1.0 < p.p):
        raise HypothesisError("Sobolev equivalence needs 1 < p < inf")
    name = _p(params, "entry")
    c = wb.curve(name, float(r), p)
    ratios = c.values / c.deltas ** r
    lhs = np.maximum.accumulate(ratios)
    sem = sobolev_seminorm(wb.fn(name), r, p)
    return _assemble(
        "P4",
        params,
        c.deltas,
        lhs,
        sem * np.ones_like(lhs),
        "band",
        wb.cfg,
        notes=["lhs is the running sup of modulus/delta^r over the step grid"],
    )


def check_p5(wb, params):
    r = int(_p(params, "r"))
    p, q = _exponent(params, "p"), _exponent(params, "q")
    name1, name2 = _p(params, "entry"), _p(params, "entry2")
    inv_s = (0.0 if p.is_inf else 1.0 / p.p) + (0.0 if q.is_inf else 1.0 / q.p)
    s = Exponent(math.inf if inv_s == 0 else 1.0 / inv_s)
    f1, f2 = wb.fn(name1), wb.fn(name2)
    if f1.grid != f2.grid:
        raise HypothesisError("the two entries must share a grid")
    deltas = wb.deltas(name1)
    lhs = modulus_curve(f1 * f2, float(r), s, deltas=deltas).values
    rhs = np.zeros_like(lhs)
    for k in range(r + 1):
        ck = frac_binomial(float(r), k)
        wf = wb.norm(name1, p) if k == 0 else wb.curve(name1, float(k), p).values
        wg = (
            wb.norm(name2, q)
            if k == r
            else wb.curve(name2, float(r - k), q).values
        )
        rhs = rhs + ck * np.asarray(wf) * np.asarray(wg)
    notes = []
    if not s.is_inf and s.p < 1.0:
        slack = (r + 1) ** (1.0 / s.p - 1.0)
        rhs = rhs * slack
        notes.append(f"s < 1: quasi-triangle slack {slack:.6g} applied to the sum")
    exact = (not p.is_inf and p.p == 2.0) and (not q.is_inf and q.p == 2.0)
    return _assemble(
        "P5",
        params,
        deltas,
        lhs,
        rhs,
        "exact" if exact else "upper",
        wb.cfg,
        notes=notes + ["product rule is exact at p = q = 2 up to aliasing"],
        exact_tol=1e-6,
        check_slope=False,
    )


def check_p6(wb, params):
    r = _p(params, "r")
    p, q = _exponent(params, "p"), _exponent(params, "q")
    form = _p(params, "form", "outer")
    name = _p(params, "entry")
    f = wb.fn(name)
    order = SmoothnessOrder(float(r))
    if not order.is_integer:
        if not ((not p.is_inf and 1.0 < p.p) or f.grid.dimension == 1):
            raise HypothesisError(
                "fractional averaged moduli need 1 < p < inf, or d = 1"
            )
    if form == "inner" and not p.is_inf and q.q1 > p.p:
        raise HypothesisError("inner averaging needs q <= p")
    c = wb.curve(name, float(r), p)
    rhs = np.array(
        [
            averaged_modulus(f, float(d), float(r), p, q, inner=(form == "inner"))
            for d in c.deltas
        ]
    )
    return _assemble("P6", dict(params, form=form), c.deltas, c.values, rhs, "band", wb.cfg)


def check_p7(wb, params):
    alpha, gamma = float(_p(params, "alpha")), float(_p(params, "gamma"))
    p = _exponent(params, "p")
    if gamma <= 0:
        raise HypothesisError("gamma > 0 required")
    for a in (alpha, alpha + gamma):
        if not SmoothnessOrder(a).admissible_for(p):
            raise HypothesisError(f"order {a} inadmissible for p={p.label()}")
    name = _p(params, "entry")
    c = wb.curve(name, alpha, p)
    big = wb.ext_curve(name, alpha + gamma, p)
    fn = wb.norm(name, p)
    drop = bool(_p(params, "drop_norm", False))
    rhs = [
        marchaud_rhs(big, float(d), alpha, p, fn, wb.cfg["n_quad"], drop_norm=drop)
        for d in c.deltas
    ]
    return _assemble("P7", params, c.deltas, c.values, rhs, "upper", wb.cfg)


def check_p8(wb, params):
    alpha, beta = float(_p(params, "alpha")), float(_p(params, "beta"))
    p = _exponent(params, "p")
    form = _p(params, "form", "pointwise")
    for a in (alpha, beta):
        if not SmoothnessOrder(a).admissible_for(p):
            raise HypothesisError(f"order {a} inadmissible for p={p.label()}")
    name = _p(params, "entry")
    if form == "pointwise":
        chigh = wb.curve(name, alpha + beta, p)
        clow = wb.curve(name, beta, p)
        const = binom_power_constant(alpha, p)
        exact = not p.is_inf and p.p == 2.0
        return _assemble(
            "P8",
            dict(params, form=form),
            chigh.deltas,
            chigh.values,
            const * clow.values,
            "exact" if exact else "upper",
            wb.cfg,
            notes=[f"composition constant {const:.6g}"],
            exact_tol=1e-9,
            check_slope=False,
        )
    if form == "integral":
        if p.is_inf or not (1.0 < p.p):
            raise HypothesisError("the integral strengthening needs 1 < p < inf")
        tau = p.tau
        big = wb.ext_curve(name, alpha + beta, p)
        clow = wb.curve(name, beta, p)
        lhs = []
        for d in clow.deltas:
            integral = log_integral(
                lambda t: (big.interp(t) / t ** alpha) ** tau,
                float(d),
                1.0,
                wb.cfg["n_quad"],
            )
            lhs.append(d ** alpha * integral ** (1.0 / tau))
        return _assemble(
            "P8", dict(params, form=form), clow.deltas, lhs, clow.values, "upper", wb.cfg
        )
    raise ParameterError(f"unknown form '{form}'")


def check_p9(wb, params):
    name = _p(params, "entry")
    f = wb.fn(name)
    up = UlyanovParams(
        p=float(_p(params, "p")),
        q=math.inf if str(_p(params, "q")).lower() == "inf" else float(_p(params, "q")),
        alpha=float(_p(params, "alpha")),
        gamma=float(_p(params, "gamma")),
        d=f.grid.dimension,
    )
    q = Exponent(up.q)
    p = Exponent(up.p)
    c = wb.curve(name, up.alpha, q)
    big = wb.ext_curve(name, up.alpha + up.gamma, p)
    fn = wb.norm(name, p)
    rhs, tags, dropped = [], set(), None
    for d in c.deltas:
        val, tag, drop = ulyanov_rhs(big, float(d), up, fn, wb.cfg["n_quad"])
        rhs.append(val)
        tags.add(tag)
        dropped = drop
    notes = [f"rate regime: {sorted(tags)[0]}", f"norm term dropped: {dropped}"]
    return _assemble("P9", params, c.deltas, c.values, rhs, "upper", wb.cfg, notes)


def check_p10(wb, params):
    alpha = float(_p(params, "alpha"))
    p, q = _exponent(params, "p"), _exponent(params, "q")
    name = _p(params, "entry")
    f = wb.fn(name)
    d = f.grid.dimension
    if q.is_inf or p.is_inf or not (p.p < q.p):
        raise HypothesisError("needs p < q < inf")
    if p.p == 1.0 and d == 1:
        raise HypothesisError(
            "the inequality fails for p = 1 in one dimension (d >= 2 required there)"
        )
    if p.p < 1.0 or (p.p == 1.0 and d == 1):
        raise HypothesisError("needs 1 < p (or p = 1 with d >= 2)")
    th = d * (1.0 / p.p - 1.0 / q.p)
    if not (alpha > th):
        raise HypothesisError(f"needs alpha > d(1/p - 1/q) = {th}")
    cq = wb.ext_curve(name, alpha, q)
    cp = wb.ext_curve(name, alpha, p)
    deltas = wb.deltas(name)
    lhs, rhs = [], []
    top = float(cq.deltas[-1])
    for dd in deltas:
        integral = log_integral(
            lambda t: (cq.interp(t) / t ** (alpha - th)) ** p.p,
            float(dd),
            top,
            wb.cfg["n_quad"],
        )
        # flat continuation of the curve beyond its top, integrated exactly
        tail = cq.values[-1] ** p.p * top ** (-(alpha - th) * p.p) / ((alpha - th) * p.p)
        lhs.append(dd ** (alpha - th) * (integral + tail) ** (1.0 / p.p))
        inner = log_integral(
            lambda t: (cp.interp(t) / t ** th) ** q.p,
            float(cp.deltas[0] / 64.0),
            float(dd),
            wb.cfg["n_quad"],
        )
        rhs.append(inner ** (1.0 / q.p))
    return _assemble(
        "P10",
        params,
        deltas,
        lhs,
        rhs,
        "upper",
        wb.cfg,
        notes=["upper limit continued flat beyond delta = 1 (closed-form tail)"],
    )


def _multi_indices(d: int, m: int):
    if d == 1:
        return [(m,)]
    return [(k, m - k) for k in range(m + 1)]


def check_p11(wb, params):
    r, m = int(_p(params, "r")), int(_p(params, "m"))
    p = _exponent(params, "p")
    side = _p(params, "side", "lower")
    if not p.is_inf and p.p < 1.0:
        raise HypothesisError("derivative chains need 1 <= p <= inf")
    name = _p(params, "entry")
    f = wb.fn(name)
    d = f.grid.dimension
    deltas = wb.deltas(name)
    sup_der = None
    if side in ("lower", "upper", "trebels1"):
        curves = [
            wb.curve(name, float(r), p, multi=multi) for multi in _multi_indices(d, m)
        ]
        sup_der = np.max([c.values for c in curves], axis=0)
    if side == "lower":
        chigh = wb.curve(name, float(r + m), p)
        lhs = chigh.values / deltas ** m
        return _assemble(
            "P11", dict(params, side=side), deltas, lhs, sup_der, "upper", wb.cfg
        )
    if side == "upper":
        big = wb.ext_curve(name, float(r + m), p)
        rhs = [
            log_integral(
                lambda t: big.interp(t) / t ** m,
                float(big.deltas[0] / 64.0),
                float(dd),
                wb.cfg["n_quad"],
            )
            for dd in deltas
        ]
        return _assemble(
            "P11", dict(params, side=side), deltas, sup_der, rhs, "upper", wb.cfg
        )
    if side in ("trebels1", "trebels2"):
        if p.is_inf or not (1.0 < p.p):
            raise HypothesisError("integral variants need 1 < p < inf")
        big = wb.ext_curve(name, float(r + m), p)
        expo = p.theta if side == "trebels1" else p.tau
        series = [
            log_integral(
                lambda t: (big.interp(t) / t ** m) ** expo,
                float(big.deltas[0] / 64.0),
                float(dd),
                wb.cfg["n_quad"],
            )
            ** (1.0 / expo)
            for dd in deltas
        ]
        if side == "trebels1":
            return _assemble(
                "P11", dict(params, side=side), deltas, sup_der, series, "upper", wb.cfg
            )
        axis_curves = [
            wb.curve(name, float(r), p, multi=tuple(m if j == ax else 0 for j in range(d)))
            for ax in range(d)
        ]
        rhs = np.max([c.values for c in axis_curves], axis=0)
        return _assemble(
            "P11", dict(params, side=side), deltas, series, rhs, "upper", wb.cfg
        )
    raise ParameterError(f"unknown side '{side}'")


def check_p12(wb, params):
    alpha = float(_p(params, "alpha"))
    p = _exponent(params, "p")
    form = _p(params, "form", "plain")
    if not SmoothnessOrder(alpha).admissible_for(p):
        raise HypothesisError(f"alpha={alpha} inadmissible for p={p.label()}")
    name = _p(params, "entry")
    ac = wb.acurve(name, p)
    sigmas = [s for s in ac.sigmas if s >= 1.0]
    if form == "plain":
        lhs = [ac.value_at(s) for s in sigmas]
        rhs = [wb.point_modulus(name, 1.0 / s, alpha, p) for s in sigmas]
        return _assemble(
            "P12", dict(params, form=form), sigmas, lhs, rhs, "upper", wb.cfg,
            asym="large",
        )
    if form == "sharp":
        if p.is_inf or not (1.0 < p.p):
            raise HypothesisError("the sharp summed form needs 1 < p < inf")
        tau = p.tau
        lhs = []
        for s in sigmas:
            total = sum(
                (k + 1.0) ** (alpha * tau - 1.0) * ac.value_at(float(k)) ** tau
                for k in range(1, int(s) + 1)
            )
            lhs.append(s ** (-alpha) * total ** (1.0 / tau))
        rhs = [wb.point_modulus(name, 1.0 / s, alpha, p) for s in sigmas]
        return _assemble(
            "P12", dict(params, form=form), sigmas, lhs, rhs, "upper", wb.cfg,
            asym="large",
        )
    raise ParameterError(f"unknown form '{form}'")


def check_p13(wb, params):
    alpha = float(_p(params, "alpha"))
    p = _exponent(params, "p")
    if not SmoothnessOrder(alpha).admissible_for(p):
        raise HypothesisError(f"alpha={alpha} inadmissible for p={p.label()}")
    name = _p(params, "entry")
    ac = wb.acurve(name, p)
    th = p.theta
    sigmas = [s for s in ac.sigmas if s >= 1.0]
    lhs = [wb.point_modulus(name, 1.0 / s, alpha, p) for s in sigmas]
    rhs = []
    for s in sigmas:
        total = sum(
            (k + 1.0) ** (alpha * th - 1.0) * ac.value_at(float(k)) ** th
            for k in range(0, int(s) + 1)
        )
        rhs.append(s ** (-alpha) * total ** (1.0 / th))
    return _assemble(
        "P13",
        params,
        sigmas,
        lhs,
        rhs,
        "upper",
        wb.cfg,
        asym="large",
        notes=["between dyadic bands the error curve is continued as a step"],
    )


def check_p14(wb, params):
    alpha = float(_p(params, "alpha"))
    p = _exponent(params, "p")
    side = _p(params, "side", "lower")
    if not SmoothnessOrder(alpha).admissible_for(p):
        raise HypothesisError(f"alpha={alpha} inadmissible for p={p.label()}")
    name = _p(params, "entry")
    f = wb.fn(name)
    k_top = wb.cfg["k_max_1d"] if f.grid.dimension == 1 else wb.cfg["k_max_2d"]
    sup_d = {
        k: sup_directional(wb.nearbest(name, float(2 ** k), p).witness, alpha, p)
        for k in range(k_top + 1)
    }
    ns = list(range(0, k_top))
    deltas = [2.0 ** (-n) for n in ns]
    om = [wb.point_modulus(name, d, alpha, p) for d in deltas]
    if side == "lower":
        lhs = [2.0 ** (-n * alpha) * sup_d[n] for n in ns]
        return _assemble(
            "P14", dict(params, side=side), deltas, lhs, om, "upper", wb.cfg
        )
    if side == "upper":
        rhs = [
            sum(2.0 ** (-k * alpha) * sup_d[k] for k in range(n + 1, k_top + 1))
            for n in ns
        ]
        return _assemble(
            "P14",
            dict(params, side=side),
            deltas,
            om,
            rhs,
            "upper",
            wb.cfg,
            notes=[f"series truncated at the top band 2^{k_top}"],
        )
    raise ParameterError(f"unknown side '{side}'")


def check_p15(wb, params):
    """Exploratory: does the modulus freeze across orders exactly when it
    tracks the approximation error?  Reported, never asserted."""
    alpha, beta = float(_p(params, "alpha")), float(_p(params, "beta"))
    p = _exponent(params, "p")
    name = _p(params, "entry")
    c1 = wb.curve(name, alpha, p)
    c2 = wb.curve(name, beta, p)
    ac = wb.acurve(name, p)
    sig_ratio = [
        wb.point_modulus(name, 1.0 / s, alpha, p) / max(ac.value_at(s), 1e-300)
        for s in ac.sigmas
        if s >= 1.0
    ]
    notes = [
        "order-ratio spread: "
        f"{float(np.max(c1.values / c2.values) / np.min(c1.values / c2.values)):.4g}",
        "modulus/error spread: "
        f"{float(np.max(sig_ratio) / np.min(sig_ratio)):.4g}",
        "both spreads should be moderate together or large together",
    ]
    return _assemble(
        "P15", params, c1.deltas, c1.values, c2.values, "info", wb.cfg, notes
    )


def check_p16(wb, params):
    alpha = float(_p(params, "alpha"))
    p = _exponent(params, "p")
    if not p.is_inf and p.p < 1.0:
        raise HypothesisError("K-functional equivalence needs p >= 1")
    name = _p(params, "entry")
    f = wb.fn(name)
    c = wb.curve(name, alpha, p)
    rhs = [k_functional(f, float(d), alpha, p) for d in c.deltas]
    return _assemble("P16", params, c.deltas, c.values, rhs, "band", wb.cfg)


def check_p17(wb, params):
    alpha = float(_p(params, "alpha"))
    p = _exponent(params, "p")
    if not SmoothnessOrder(alpha).admissible_for(p):
        raise HypothesisError(f"alpha={alpha} inadmissible for p={p.label()}")
    name = _p(params, "entry")
    f = wb.fn(name)
    c = wb.curve(name, alpha, p)
    rhs = [realization(f, float(d), alpha, p)[0] for d in c.deltas]
    return _assemble("P17", params, c.deltas, c.values, rhs, "band", wb.cfg)


def check_nsb(wb, params):
    alpha = float(_p(params, "alpha"))
    p = _exponent(params, "p")
    sigma = float(_p(params, "sigma", 8.0))
    n_seeds = int(_p(params, "n_seeds", 8))
    seed0 = int(_p(params, "seed", 0))
    d = int(_p(params, "d", 1))
    from .moduli import Step, frac_difference  # local import to avoid cycle noise
    from .spectral import Direction, directional_derivative

    zeta = Direction((1.0,)) if d == 1 else Direction.of(1.0, 1.0)
    hs = [(j + 1) / (8.0 * sigma) for j in range(8)]
    grid_vals, lhs, rhs = [], [], []
    end_devs = []
    for s in range(n_seeds):
        P = wb.poly(d, sigma, seed0 + s)
        der = quasi_norm(directional_derivative(P, zeta, alpha), p)
        for h in hs:
            dif = quasi_norm(frac_difference(P, Step(zeta, h), alpha), p) / h ** alpha
            grid_vals.append(h)
            lhs.append(der)
            rhs.append(dif)
            if h == hs[-1]:
                end_devs.append(abs(der / dif - 1.0))
    rep = _assemble(
        "NSB",
        params,
        grid_vals,
        lhs,
        rhs,
        "band",
        wb.cfg,
        band_limit=10.0,
        check_slope=False,
        notes=[f"max deviation from the h->0 limit at h = 1/sigma: {max(end_devs):.4g}"],
    )
    if max(end_devs) > 0.2 and rep.verdict == "pass":
        rep.verdict = "fail"
        rep.notes.append("deviation at h = 1/sigma exceeded 0.2")
    return rep


def check_bern(wb, params):
    alpha = float(_p(params, "alpha"))
    p = _exponent(params, "p")
    d = int(_p(params, "d", 1))
    n_seeds = int(_p(params, "n_seeds", 4))
    base_band = 1.0
    grid_vals, lhs, rhs, slopes = [], [], [], []
    sigmas = None
    for s in range(n_seeds):
        base = wb.poly(d, base_band, 1000 + s)
        if sigmas is None:
            # keep every dilated mode strictly inside the representable band
            top = base.grid.nyquist / base_band
            sigmas = [2.0 ** k for k in range(1, 7 if d == 1 else 5) if 2.0 ** k <= top]
        curve = []
        for sg in sigmas:
            P = _dilate_poly(base, int(sg))
            num = sup_directional(P, alpha, p)
            den = sg ** alpha * quasi_norm(P, p)
            grid_vals.append(sg)
            lhs.append(num)
            rhs.append(den)
            curve.append(num / den)
        slopes.append(_fit_slope(np.asarray(sigmas), np.asarray(curve)))
    worst = max(abs(s) for s in slopes if s is not None)
    rep = _assemble(
        "BERN",
        params,
        grid_vals,
        lhs,
        rhs,
        "upper",
        wb.cfg,
        check_slope=False,
        notes=[f"dilation family: worst per-seed |slope| = {worst:.3g}"],
    )
    if worst > wb.cfg["slope_tol"] and rep.verdict == "pass":
        rep.verdict = "fail"
    rep.stats["slope"] = worst
    return rep


def check_nik(wb, params):
    p, q = _exponent(params, "p"), _exponent(params, "q")
    d = int(_p(params, "d", 1))
    pv = p.p
    qv = math.inf if q.is_inf else q.p
    if not pv < qv:
        raise HypothesisError("needs p < q")
    gap = d * (1.0 / pv - (0.0 if q.is_inf else 1.0 / qv))
    sc = wb.cfg["scale_1d"] if d == 1 else wb.cfg["scale_2d"]
    grid = TorusGrid(d, sc["N"], sc["L"])
    sigmas = [2.0 ** k for k in range(0, 5 if d == 1 else 4)]
    lhs, rhs = [], []
    for sg in sigmas:
        mag = frequency_magnitude(grid)
        band = 4.0 * sg
        if band > grid.nyquist:
            break
        coeffs = np.clip(1.0 - mag / band, 0.0, None).astype(complex)
        P = inverse(SpectralFunction(grid, coeffs, band_radius=band))
        lhs.append(quasi_norm(P, q))
        rhs.append(band ** gap * quasi_norm(P, p))
    return _assemble(
        "NIK",
        params,
        sigmas[: len(lhs)],
        lhs,
        rhs,
        "upper",
        wb.cfg,
        notes=["witness family: dilated triangle-spectrum kernels"],
        asym="large",
    )


def _hln_common(wb, params, d: int):
    n_seeds = int(_p(params, "n_seeds", 4))
    tops = [2.0 ** k for k in range(1, 6 if d == 1 else 4)]
    return n_seeds, tops


def check_hln1(wb, params):
    alpha = float(_p(params, "alpha"))
    p, q = _exponent(params, "p"), _exponent(params, "q")
    d = int(_p(params, "d", 1))
    if p.is_inf or p.p > 1.0:
        raise HypothesisError("needs 0 < p <= 1")
    if q.is_inf or not (1.0 < q.p):
        raise HypothesisError("needs 1 < q < inf")
    gamma = d * (1.0 - 1.0 / q.p)
    ag = alpha + gamma
    if abs(ag - round(ag)) < 1e-9 and int(round(ag)) % 2 == 1:
        raise HypothesisError(
            f"alpha + gamma = {ag} is an odd whole number; the multiplier"
            " argument breaks down there and the bound is not asserted"
        )
    n_seeds, tops = _hln_common(wb, params, d)
    grid_vals, lhs, rhs = [], [], []
    for s in range(n_seeds):
        for sg in tops:
            P = wb.poly(d, sg, 2000 + s)
            num = sup_directional(P, alpha, q)
            den = (
                sg ** (d * (1.0 / p.p - 1.0))
                * math.log(sg + 1.0) ** (1.0 / q.p)
                * sup_directional(P, ag, p)
                + quasi_norm(P, q)
            )
            grid_vals.append(sg)
            lhs.append(num)
            rhs.append(den)
    return _assemble(
        "HLN1", dict(params, gamma=gamma), grid_vals, lhs, rhs, "upper", wb.cfg,
        asym="large",
    )


def check_hln2(wb, params):
    alpha = float(_p(params, "alpha"))
    p, q = _exponent(params, "p"), _exponent(params, "q")
    d = int(_p(params, "d", 2))
    if d < 2:
        raise HypothesisError("needs d >= 2")
    if p.is_inf or p.p > 1.0:
        raise HypothesisError("needs 0 < p <= 1")
    qv = math.inf if q.is_inf else q.p
    if not qv > 1.0:
        raise HypothesisError("needs q > 1")
    gamma = d * (1.0 - (0.0 if q.is_inf else 1.0 / qv))
    if gamma < 1.0:
        raise HypothesisError("needs d(1 - 1/q) >= 1")
    ag = alpha + gamma
    if abs(ag - round(ag)) > 1e-9:
        raise HypothesisError("needs alpha + gamma to be a whole number")
    n_seeds, tops = _hln_common(wb, params, d)
    grid_vals, lhs, rhs = [], [], []
    for s in range(n_seeds):
        for sg in tops:
            P = wb.poly(d, sg, 3000 + s)
            num = sup_directional(P, alpha, q)
            den = sg ** (d * (1.0 / p.p - 1.0)) * sup_directional(P, ag, p)
            grid_vals.append(sg)
            lhs.append(num)
            rhs.append(den)
    return _assemble(
        "HLN2", dict(params, gamma=gamma), grid_vals, lhs, rhs, "upper", wb.cfg,
        asym="large",
    )


def check_hln3(wb, params):
    alpha = float(_p(params, "alpha"))
    p = _exponent(params, "p")
    d = int(_p(params, "d", 1))
    if p.is_inf or not (1.0 < p.p):
        raise HypothesisError("needs 1 < p < inf")
    gamma = d / p.p
    n_seeds, tops = _hln_common(wb, params, d)
    grid_vals, lhs, rhs = [], [], []
    for s in range(n_seeds):
        for sg in tops:
            P = wb.poly(d, sg, 4000 + s)
            num = sup_directional(P, alpha, Exponent(math.inf))
            den = (
                math.log(sg + 1.0) ** (1.0 / p.conjugate)
                * sup_directional(P, alpha + gamma, p)
                + quasi_norm(P, p)
            )
            grid_vals.append(sg)
            lhs.append(num)
            rhs.append(den)
    return _assemble(
        "HLN3", dict(params, gamma=gamma), grid_vals, lhs, rhs, "upper", wb.cfg,
        asym="large",
    )


CHECKS = {
    "P1a": check_p1a,
    "P1b": check_p1b,
    "P1c": check_p1c,
    "P1d": check_p1d,
    "P2": check_p2,
    "P3": check_p3,
    "P4": check_p4,
    "P5": check_p5,
    "P6": check_p6,
    "P7": check_p7,
    "P8": check_p8,
    "P9": check_p9,
    "P10": check_p10,
    "P11": check_p11,
    "P12": check_p12,
    "P13": check_p13,
    "P14": check_p14,
    "P15": check_p15,
    "P16": check_p16,
    "P17": check_p17,
    "NSB": check_nsb,
    "BERN": check_bern,
    "NIK": check_nik,
    "HLN1": check_hln1,
    "HLN2": check_hln2,
    "HLN3": check_hln3,
}


def run_check(property_id: str, params: dict, config: dict | None = None,
              workbench: Workbench | None = None) -> InequalityReport:
    if property_id not in CHECKS:
        raise ParameterError(f"unknown property '{property_id}'")
    wb = workbench if workbench is not None else Workbench(make_config(config))
    return CHECKS[property_id](wb, dict(params))


# ---------------------------------------------------------------------------
# the default matrix
# ---------------------------------------------------------------------------


def default_matrix(cfg: dict) -> list:
    """One (property, params) row per regime the harness exercises."""
    rows = [
        ("P1a", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}),
        ("P1a", {"entry": "cusp05", "alpha": 1.5, "p": 0.5}),
        ("P1b", {"entry": "gaussian", "entry2": "bump", "alpha": 1.0, "p": 0.5}),
        ("P1c", {"entry": "gaussian", "alpha": 1.5, "p": 2.0}),
        ("P2", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "lam": 2.0}),
        ("P2", {"entry": "cusp05", "alpha": 2.0, "p": 0.5, "lam": 4.0}),
        ("P4", {"entry": "gaussian", "r": 1, "p": 2.0}),
        ("P5", {"entry": "gaussian", "entry2": "bump", "r": 2, "p": 2.0, "q": 2.0}),
        ("P6", {"entry": "gaussian", "r": 1, "p": 2.0, "q": 1.0}),
        ("P6", {"entry": "gaussian", "r": 1, "p": 2.0, "q": 2.0, "form": "inner"}),
        ("P7", {"entry": "gaussian", "alpha": 1.0, "gamma": 1.0, "p": 2.0}),
        ("P7", {"entry": "cusp05", "alpha": 1.5, "gamma": 1.0, "p": 0.5}),
        ("P7", {"entry": "bump", "alpha": 1.0, "gamma": 1.0, "p": "inf"}),
        ("P8", {"entry": "gaussian", "alpha": 1.0, "beta": 1.0, "p": 2.0}),
        ("P8", {"entry": "gaussian", "alpha": 1.0, "beta": 1.0, "p": 2.0,
                "form": "integral"}),
        ("P9", {"entry": "gaussian", "alpha": 2.0, "gamma": 1.0, "p": 0.5, "q": 1.0}),
        ("P9", {"entry": "cusp05", "alpha": 2.0, "gamma": 0.5, "p": 0.5, "q": 2.0}),
        ("P9", {"entry": "gaussian", "alpha": 2.0, "gamma": 0.5, "p": 1.0, "q": 2.0}),
        ("P9", {"entry": "gaussian", "alpha": 2.0, "gamma": 0.25, "p": 2.0, "q": 4.0}),
        ("P9", {"entry": "gaussian", "alpha": 2.0, "gamma": 0.5, "p": 2.0, "q": "inf"}),
        ("P10", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "q": 4.0}),
        ("P11", {"entry": "gaussian", "r": 1, "m": 1, "p": 2.0, "side": "lower"}),
        ("P11", {"entry": "gaussian", "r": 1, "m": 1, "p": 2.0, "side": "upper"}),
        ("P11", {"entry": "gaussian", "r": 1, "m": 1, "p": 2.0, "side": "trebels1"}),
        ("P11", {"entry": "gaussian", "r": 1, "m": 1, "p": 2.0, "side": "trebels2"}),
        ("P12", {"entry": "gaussian", "alpha": 2.0, "p": 2.0}),
        ("P12", {"entry": "cusp05", "alpha": 2.0, "p": 0.5}),
        ("P12", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "form": "sharp"}),
        ("P13", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}),
        ("P13", {"entry": "cusp05", "alpha": 1.5, "p": 0.5}),
        ("P14", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "side": "lower"}),
        ("P14", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "side": "upper"}),
        ("P15", {"entry": "fejer", "alpha": 1.0, "beta": 2.0, "p": 2.0}),
        ("P16", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}),
        ("P16", {"entry": "bump", "alpha": 1.5, "p": "inf"}),
        ("P17", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}),
        ("P17", {"entry": "cusp05", "alpha": 1.5, "p": 0.5}),
        ("NSB", {"alpha": 1.0, "p": 2.0, "sigma": 8.0}),
        ("NSB", {"alpha": 0.5, "p": 0.5, "sigma": 8.0}),
        ("BERN", {"alpha": 1.0, "p": 2.0}),
        ("BERN", {"alpha": 0.5, "p": "inf"}),
        ("NIK", {"p": 1.0, "q": 2.0}),
        ("NIK", {"p": 2.0, "q": "inf"}),
        ("HLN1", {"alpha": 1.0, "p": 0.5, "q": 2.0, "d": 1}),
        ("HLN3", {"alpha": 1.0, "p": 2.0, "d": 1}),
    ]
    if not cfg["quick"]:
        rows += [
            ("P3", {"entry": "gaussian2d", "r": 2, "p": 2.0}),
            ("P6", {"entry": "gaussian2d", "r": 1, "p": 2.0, "q": 1.0}),
            ("HLN2", {"alpha": 1.0, "p": 1.0, "q": 2.0, "d": 2}),
        ]
    return rows


def quick_matrix(cfg: dict) -> list:
    return [
        ("P1a", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}),
        ("P2", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "lam": 2.0}),
        ("P7", {"entry": "gaussian", "alpha": 1.0, "gamma": 1.0, "p": 2.0}),
        ("P12", {"entry": "gaussian", "alpha": 2.0, "p": 2.0}),
        ("P16", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}),
        ("P17", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}),
        ("NSB", {"alpha": 1.0, "p": 2.0, "sigma": 8.0}),
        ("BERN", {"alpha": 1.0, "p": 2.0}),
    ]


def resolve_threads(cfg: dict) -> int:
    value, source = cfg.get("threads"), "threads"
    if not value:
        value, source = os.environ.get("SMOOTHLAB_THREADS"), "SMOOTHLAB_THREADS"
    if not value:
        return 1
    try:
        return max(int(value), 1)
    except (TypeError, ValueError):
        raise ParameterError(f"{source} must be an integer, got {value!r}") from None


def verify_all(config: dict | None = None) -> dict:
    """Run the whole matrix; the report list is ordered like the matrix and
    is bitwise independent of the worker count."""
    cfg = make_config(config)
    wb = Workbench(cfg)
    matrix = quick_matrix(cfg) if cfg["quick"] else default_matrix(cfg)
    n_threads = resolve_threads(cfg)

    def job(row):
        pid, params = row
        return run_check(pid, params, workbench=wb)

    if n_threads == 1:
        reports = [job(row) for row in matrix]
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            reports = list(pool.map(job, matrix))
    n_fail = sum(1 for r in reports if r.verdict == "fail")
    return {
        "reports": [r.to_dict() for r in reports],
        "summary": {
            "n_checks": len(reports),
            "n_pass": sum(1 for r in reports if r.verdict == "pass"),
            "n_info": sum(1 for r in reports if r.verdict == "info"),
            "n_fail": n_fail,
            "all_pass": n_fail == 0,
        },
    }
