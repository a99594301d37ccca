"""Inequality verification harness.

Every check compares a left-hand side against a right-hand side over a
parameter grid and reports the ratio series.  "lhs <~ rhs" (an estimate
up to an unknowable constant) is operationalized as: the ratio stays
below a generous cap AND its log-log slope does not grow (a decaying
ratio cannot falsify a one-sided estimate, growth can).  Two-sided
equivalences require every ratio to lie in a band [1/cap, cap]; their
slope is reported, not tested.

Property identifiers
    P1a  monotonicity of the modulus in delta (exact, by the running max)
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

import functools
import json
import math
import threading
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from . import corpus as corpus_mod
from .approx import approx_curve, dyadic_bands, k_functional, realization, sup_directional
from .errors import HypothesisError, ParameterError, RegimeError
from .grid import Exponent, GridFunction, SmoothnessOrder, TorusGrid, is_whole, power, quasi_norm
from .moduli import (
    ModulusCurve,
    Step,
    averaged_modulus,
    binom_power_constant,
    default_deltas,
    frac_binomial,
    frac_difference,
    mixed_modulus,
    modulus,
    modulus_curve,
    partial_modulus,
    sobolev_seminorm,
)
from .spectral import (
    Direction,
    apply_symbol,
    derivative_symbol,
    directional_derivative,
    frequency_magnitude,
    multi_indices,
    synthesize,
    transform,
)

DEFAULTS = {
    "quick": False,
    "threads": 1,
    "n_quad": 96,
    "scale_1d": corpus_mod.DESK_1D,
    "scale_2d": corpus_mod.DESK_2D,
    "n_deltas_1d": 24,
    "n_deltas_2d": 8,
}

QUICK_OVERRIDES = {
    "quick": True,
    "scale_1d": {"N": 256, "L": 20.0},
    "n_deltas_1d": 8,
}


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    """A finite JSON number; a bool is none."""
    return _integer(v) or (isinstance(v, float) and math.isfinite(v))


def _scale_rule(top: int) -> tuple:
    """The rule of a grid scale whose N is at most ``top``."""
    return (lambda v: isinstance(v, dict) and set(v) == {"N", "L"} and _integer(v["N"])
            and 8 <= v["N"] <= top and v["N"] & (v["N"] - 1) == 0 and _number(v["L"])
            and v["L"] > 0,
            f'an object of exactly an "N" that is a power of 2 in [8, {top}]'
            ' and a positive finite "L"')


#: the rule of each config value: (holds, what it must be); counts stop at
#: 4096 and grids at 2^20 points
CONFIG_RULES = {
    "quick": (lambda v: isinstance(v, bool), "true or false"),
    "threads": (lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    **dict.fromkeys(("n_quad", "n_deltas_1d", "n_deltas_2d"),
                    (lambda v: _integer(v) and 2 <= v <= 4096, "an integer in [2, 4096]")),
    "scale_1d": _scale_rule(2 ** 20),
    "scale_2d": _scale_rule(2 ** 10),
}


def make_config(overrides: dict | None = None) -> dict:
    """DEFAULTS with ``overrides`` applied; an unknown key and a value that
    breaks its CONFIG_RULES entry raise ParameterError. A config it made
    comes back unchanged."""
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if overrides:
        unknown = [k for k in overrides if k not in DEFAULTS]
        if unknown:
            raise ParameterError(f"unknown config keys: {', '.join(map(repr, unknown))}")
        for k, v in overrides.items():
            if not CONFIG_RULES[k][0](v):
                raise ParameterError(f"config {k!r} must be {CONFIG_RULES[k][1]}, got {v!r}")
        if overrides.get("quick"):
            cfg.update(json.loads(json.dumps(QUICK_OVERRIDES)))
        for k, v in overrides.items():
            if k != "quick":
                cfg[k] = json.loads(json.dumps(v))  # a copy: the caller keeps theirs
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
        return asdict(self)

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "info")


def _finite_json(obj):
    """obj with each non-finite float spelled as the exponent labels spell
    it: "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    return [_finite_json(v) for v in obj] if isinstance(obj, (list, tuple)) else obj


def canonical_json(obj) -> str:
    """Deterministic, strict (RFC 8259) serialization: sorted keys, no
    whitespace drift, and non-finite floats as strings."""
    return json.dumps(_finite_json(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def report_rows(report: dict) -> list:
    """Flatten a report's ``to_dict`` form for CSV output, one row per grid
    point (lossy: stats and notes are left out)."""
    pblob = canonical_json(report["params"])
    return [
        {"property_id": report["property_id"], "params": pblob, "grid": g, "lhs": l, "rhs": r,
         "ratio": q, "verdict": report["verdict"]}
        for g, l, r, q in zip(report["grid"], report["lhs"], report["rhs"], report["ratio"])
    ]


def _fit_slope(xs: np.ndarray, ys: np.ndarray) -> float | None:
    mask = (xs > 0) & (ys > 0) & np.isfinite(ys)
    if int(mask.sum()) < 2:
        return None
    return float(np.polyfit(np.log(xs[mask]), np.log(ys[mask]), 1)[0])


#: the verdict rule's bounds: the ratio cap of "upper" rows, the slope
#: beyond which a ratio trends, and the band [1/cap, cap] of "band" rows;
#: a row's ``opts`` override them.  An exact statement is an "upper" row
#: whose cap is 1 + its tolerance, with no trend fit
BOUNDS = {"max_ratio": 100.0, "slope_tol": 0.05, "band_limit": 50.0}


def _assemble(pid: str, params: dict, sides, mode: str, opts: dict,
              notes: list) -> InequalityReport:
    """Turn a body's ``Sides`` into a report, under the row's settings
    ``opts``: ``BOUNDS`` with the row's overrides, and ``check_slope`` and
    ``asym``, which default to True and "small".

    ``asym`` names the asymptotic end of the grid where a hidden-constant
    blow-up would surface: "small" for step grids (delta -> 0), "large"
    for degree grids (sigma -> inf).  A one-sided check fails only when
    the ratio trends in that direction AND its end point escapes the bulk,
    3 times the median of the points kept for the fit; benign transitional
    drift across a finite window is reported, not punished.  A point whose
    lhs is below 1e-10 of the largest finite side is round-off and is left
    out of the fit, as is a point with a non-finite side.  A non-finite
    side (inf or nan) fails every mode but "info".  A set ``veto`` turns a
    pass into a fail and a set ``slope`` replaces the fitted one.  A series
    with no point is a ParameterError: the grid is too coarse for the
    check.
    """
    grid = np.asarray(sides.grid, dtype=float)
    if not grid.size:
        raise ParameterError(f"{pid} has no point on this grid: its bands lie beyond pi N/L")
    lhs = np.asarray(sides.lhs, dtype=float)
    rhs = np.asarray(sides.rhs, dtype=float)
    notes = list(notes)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.where(lhs > 0, np.inf, 1.0)
        )
    finite = ratio[np.isfinite(ratio)]
    # degenerate points (both sides in the noise floor) and points with a
    # side that overflowed are excluded from the trend fit; they carry no
    # rate information
    ends = np.isfinite(lhs) & np.isfinite(rhs)
    # the floor scales with both sides: a side made of round-off alone
    # (the error of a bandlimited f) must not set its own floor
    floor = 1e-10 * max(float(lhs[ends].max(initial=0.0)), float(rhs[ends].max(initial=0.0)),
                        1e-300)
    keep = ends & (lhs > floor) & (rhs > 0) & np.isfinite(ratio)
    for kind, left_out in (("underflow", ends & ~keep), ("non-finite", ~ends)):
        if left_out.any():
            notes.append(f"{int(left_out.sum())} {kind} points left out of the slope fit")
    fit = _fit_slope(grid[keep], ratio[keep]) if opts.get("check_slope", True) else None
    stats = {
        "max": float(finite.max()) if finite.size else math.inf,
        "min": float(finite.min()) if finite.size else math.inf,
        "median": float(np.median(finite)) if finite.size else math.inf,
        "slope": fit if sides.slope is None else sides.slope,
    }
    growing = False
    if fit is not None:  # so at least two points are kept
        kept_grid, kept_ratio = grid[keep], ratio[keep]
        small = opts.get("asym", "small") == "small"
        end_idx = int(np.argmin(kept_grid)) if small else int(np.argmax(kept_grid))
        trending = fit < -opts["slope_tol"] if small else fit > opts["slope_tol"]
        growing = trending and kept_ratio[end_idx] > 3.0 * float(np.median(kept_ratio))
        if growing:
            notes.append("ratio grows toward the asymptotic end of the grid")
    ok = bool(np.all(np.isfinite(ratio)) and ends.all())
    if mode == "upper":
        ok = ok and stats["max"] <= opts["max_ratio"] and not growing
    elif mode == "band":
        cap = opts["band_limit"]
        ok = ok and stats["max"] <= cap and stats["min"] >= 1.0 / cap
    elif mode != "info":
        raise ParameterError(f"unknown mode {mode}")
    verdict = "info" if mode == "info" else "pass" if ok else "fail"
    if sides.veto is not None and verdict == "pass":
        verdict = "fail"
        if sides.veto:
            notes.append(sides.veto)
    return InequalityReport(pid, params, grid.tolist(), lhs.tolist(), rhs.tolist(),
                            ratio.tolist(), stats, verdict, notes)


# ---------------------------------------------------------------------------
# Ulyanov rate function
# ---------------------------------------------------------------------------

_EQ_TOL = 1e-12


def _close(a, b):
    return abs(a - b) <= _EQ_TOL


def eta_regime(p: float, q: float, alpha: float, gamma: float, d: int) -> dict:
    """The case table of the sharp between-metrics inequality, most specific
    case first.  Each case gives the rate weight eta(t) = t^pow *
    ln^logpow(t+1) and whether the trailing delta^alpha ||f||_p term drops
    from the right-hand side.  Below the critical gamma the term drops only
    where gamma clears it by _EQ_TOL.  Returns {'pow', 'logpow', 'tag',
    'drop'}."""
    pe, qe = Exponent(p), Exponent(q)
    if not pe.p < qe.p:
        raise HypothesisError("needs 0 < p < q <= inf")
    rq = 1.0 / qe.p
    if pe.p <= 1.0:
        thr = d * max(1.0 - rq, 0.0)
        pw = d * (1.0 / pe.p - 1.0)
        whole = is_whole(alpha + gamma)
        if gamma > thr + _EQ_TOL:
            return {"pow": pw, "logpow": 0.0, "tag": "supercritical", "drop": False}
        if _close(gamma, thr) and thr >= 1.0 and d >= 2 and whole:
            return {"pow": pw, "logpow": 0.0, "tag": "critical-whole", "drop": gamma >= 1.0}
        if _close(gamma, thr) and thr >= 1.0 and d >= 2:
            return {"pow": pw, "logpow": 1.0 / qe.q1, "tag": "critical-log-q1", "drop": False}
        if _close(gamma, thr) and _close(thr, 1.0) and d == 1:
            return {"pow": pw, "logpow": rq, "tag": "critical-line", "drop": qe.is_inf}
        if _close(gamma, thr) and 0.0 < gamma < 1.0:
            return {"pow": pw, "logpow": rq, "tag": "critical-small",
                    "drop": qe.p <= 1.0 or gamma < thr - _EQ_TOL}
        if 0.0 < gamma < thr:
            return {"pow": d * (1.0 / pe.p - rq) - gamma, "logpow": 0.0, "tag": "subcritical",
                    "drop": gamma < thr - _EQ_TOL}
        if _close(gamma, 0.0):
            return {"pow": d * (1.0 / pe.p - rq), "logpow": 0.0, "tag": "no-smoothing",
                    "drop": qe.p <= 1.0 or gamma < thr - _EQ_TOL}
        raise RegimeError(f"no rate regime for p={p}, q={q}, gamma={gamma}, d={d}")
    gap = d * (1.0 / pe.p - rq)
    if not qe.is_inf and gamma >= gap - _EQ_TOL:
        return {"pow": 0.0, "logpow": 0.0, "tag": "flat", "drop": gamma <= gap + _EQ_TOL}
    if qe.is_inf and gamma > gap + _EQ_TOL:
        return {"pow": 0.0, "logpow": 0.0, "tag": "flat-sup", "drop": False}
    if qe.is_inf and _close(gamma, gap):
        return {"pow": 0.0, "logpow": 1.0 / pe.conjugate, "tag": "critical-sup", "drop": False}
    if 0.0 <= gamma < gap:
        return {"pow": gap - gamma, "logpow": 0.0, "tag": "subcritical",
                "drop": gamma < gap - _EQ_TOL}
    raise RegimeError(f"no rate regime for p={p}, q={q}, gamma={gamma}, d={d}")


def eta_value(t, regime: dict) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = t ** regime["pow"]
    if regime["logpow"]:
        out = out * np.log(t + 1.0) ** regime["logpow"]
    return out


# ---------------------------------------------------------------------------
# quadrature on modulus curves
# ---------------------------------------------------------------------------


#: an integral from 0 over a modulus curve starts at its first delta over
#: this factor; below deltas[0] ``ModulusCurve.interp`` continues the curve
#: by its fitted power law
_ZERO_CUT = 64.0


def log_integral(fn, a, b, n: int):
    """integral_a^b fn(t) dt/t by the trapezoid rule on a log grid of n
    nodes, elementwise over arrays of limits, and 0 wherever not
    0 < a < b.  fn is called once, on the array of every node (the nodes
    of one integral along the last axis)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ok = (0 < a) & (a < b)
    # a degenerate pair integrates over [1, 2] instead, and reads 0
    ts = np.geomspace(np.where(ok, a, 1.0), np.where(ok, b, 2.0), n, axis=-1)
    return np.where(ok, np.trapezoid(fn(ts), np.log(ts), axis=-1), 0.0)[()]


def marchaud_rhs(curve: ModulusCurve, delta, alpha: float, p, fnorm: float, n_quad: int):
    """delta^a (int_delta^1 (w(t)/t^a)^th dt/t + ||f||^th)^(1/th), th = min(p,2),
    elementwise over an array of deltas (or at one delta)."""
    th = Exponent.parse(p).theta
    integral = log_integral(lambda t: (curve.interp(t) / t ** alpha) ** th, delta, 1.0, n_quad)
    return delta ** alpha * (integral + fnorm ** th) ** (1.0 / th)


def ulyanov_rhs(
    curve: ModulusCurve,
    delta: float,
    p: float,
    q: float,
    alpha: float,
    gamma: float,
    d: int,
    fnorm: float,
    n_quad: int,
):
    """Sharp between-metrics right-hand side, elementwise over an array of
    deltas (or at one delta).

    curve must hold the order alpha+gamma modulus in the source metric p.
    The integral over (0, delta] starts at deltas[0] / _ZERO_CUT.
    Returns (value, regime_tag, dropped_norm_term).
    """
    regime = eta_regime(p, q, alpha, gamma, d)
    q1 = Exponent(q).q1

    def integrand(t):
        return (curve.interp(t) * t ** (-gamma) * eta_value(1.0 / t, regime)) ** q1

    value = log_integral(integrand, curve.deltas[0] / _ZERO_CUT, delta, n_quad) ** (1.0 / q1)
    if not regime["drop"]:
        value = value + delta ** alpha * fnorm
    return value, regime["tag"], regime["drop"]


# ---------------------------------------------------------------------------
# workbench: the one cache of a run
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
    return synthesize(grid, coeffs)


def _dilate_poly(base: GridFunction, factor: int) -> GridFunction:
    """x -> base(factor x): exact on the torus, moves mode k to mode k*factor."""
    F = transform(base)
    n, modes = base.grid.points_per_axis, base.grid.modes
    out = np.zeros(base.grid.shape, dtype=complex)
    src = np.nonzero(np.abs(F) > 0)
    np.add.at(out, tuple(np.mod(modes[s] * factor, n) for s in src), F[src])
    return synthesize(base.grid, out)


class Workbench:
    """The one Workbench of a run: its config and a cache of the expensive
    objects that checks share: grid functions (``fn``), modulus curves
    (``curve`` and the wider ``ext``), approximation curves (``acurve``)
    and seeded polynomials (``poly``).  A norm is cheap and is computed
    where a body reads it.  ``config`` holds overrides of DEFAULTS,
    checked by ``make_config``; ``cli.main`` builds one per call, and
    ``run_check`` and ``verify_all`` compute on the one they are given."""

    def __init__(self, config: dict | None = None):
        self.cfg = make_config(config)
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

    def setting(self, key: str, dimension: int):
        """The config value ``key_1d`` for d = 1, else ``key_2d``."""
        return self.cfg[f"{key}_1d" if dimension == 1 else f"{key}_2d"]

    def grid(self, dimension: int) -> TorusGrid:
        sc = self.setting("scale", dimension)
        return TorusGrid(dimension, sc["N"], sc["L"])

    def fn(self, name: str) -> GridFunction:
        """The corpus entry ``name`` at the configured scale of its dimension."""

        def build():
            e = corpus_mod.get_entry(name)
            scale = corpus_mod.default_scale(e, self.setting("scale", e.dimension))
            return corpus_mod.grid_function(e, scale["N"], scale["L"])

        return self._get(("fn", name), build)

    def deltas(self, name: str) -> np.ndarray:
        grid = self.fn(name).grid
        return default_deltas(grid, self.setting("n_deltas", grid.dimension))

    def curve(self, name: str, alpha: float, p, multi: tuple | None = None) -> ModulusCurve:
        return self._curve("curve", name, alpha, p, multi)

    def ext_curve(self, name: str, alpha: float, p, multi: tuple | None = None) -> ModulusCurve:
        """Wider curve (down to one grid cell) for quadrature inputs."""
        return self._curve("ext", name, alpha, p, multi)

    def _curve(self, kind: str, name: str, alpha: float, p, multi) -> ModulusCurve:
        plabel = Exponent.parse(p).label()

        def build():
            f = self.fn(name)
            if multi is not None:
                f = apply_symbol(f, derivative_symbol(f.grid, multi))
            if kind == "curve":
                return modulus_curve(f, alpha, p, deltas=self.deltas(name))
            n = self.setting("n_deltas", f.grid.dimension) + 8
            return modulus_curve(f, alpha, p, deltas=default_deltas(f.grid, n, floor_cells=1.0))

        return self._get((kind, name, multi, round(alpha, 12), plabel), build)

    def acurve(self, name: str, p):
        plabel = Exponent.parse(p).label()
        return self._get(("acurve", name, plabel), lambda: approx_curve(self.fn(name), p))

    def poly(self, dimension: int, sigma: float, seed: int) -> GridFunction:
        grid = self.grid(dimension)
        return self._get(
            ("poly", dimension, round(sigma, 12), seed),
            lambda: _random_poly(grid, sigma, seed),
        )


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """A hypothesis of the paper's statement: a check whose parsed
    parameters ``a`` fail ``holds(wb, a)`` is refused with ``error``."""

    holds: Callable
    text: str
    error: type = HypothesisError


def _open(e: Exponent) -> bool:
    return not e.is_inf and e.p > 1.0


def _whole(x: float) -> bool:
    """Whether a derived sum such as alpha + gamma is whole, to 1e-9: wider
    than ``grid.is_whole``, so NO_ODD_SUM also refuses the sums near the
    odd whole numbers."""
    return abs(x - round(x)) <= 1e-9


def _band_holds(wb, a, *sigmas) -> bool:
    """Whether the band [2 pi/L, pi N/L] of the d-dimensional grid holds each sigma."""
    grid = wb.grid(a.d)
    return all(2.0 * math.pi / grid.period <= s <= grid.nyquist for s in sigmas)


def _gap(a) -> float:
    """d (1/p - 1/q), the exponent shift between the metrics."""
    return a.d * (1.0 / a.p.p - 1.0 / a.q.p)


def admissible(*orders: str) -> Gate:
    """Each order (a parameter, or a sum such as 'alpha+gamma') is whole or
    above (1/p - 1)_+, so its binomial series is p-power summable."""

    def holds(wb, a):
        return all(
            SmoothnessOrder(sum(getattr(a, n) for n in o.split("+"))).admissible_for(a.p)
            for o in orders
        )

    return Gate(holds, f"{', '.join(orders)} whole or > (1/p - 1)_+")


P_OPEN = Gate(lambda wb, a: _open(a.p), "1 < p < inf")
Q_OPEN = Gate(lambda wb, a: _open(a.q), "1 < q < inf")
P_NORMED = Gate(lambda wb, a: a.p.p >= 1.0, "p >= 1")
P_SMALL = Gate(lambda wb, a: a.p.p <= 1.0, "0 < p <= 1")
P_BELOW_Q = Gate(lambda wb, a: a.p.p < a.q.p, "p < q")
MULTIVARIATE = Gate(lambda wb, a: a.d >= 2, "d >= 2")
SHARED_GRID = Gate(
    lambda wb, a: wb.fn(a.entry).grid == wb.fn(a.entry2).grid, "both entries on one grid"
)
AVERAGED = Gate(lambda wb, a: SmoothnessOrder(a.r).is_integer or _open(a.p) or a.d == 1,
                "a whole r, or 1 < p < inf, or d = 1")
Q_BELOW_P = Gate(lambda wb, a: a.q.q1 <= a.p.p, "q <= p")
NO_ODD_SUM = Gate(
    lambda wb, a: not (_whole(a.alpha + a.gamma) and int(round(a.alpha + a.gamma)) % 2 == 1),
    "alpha + gamma off the odd whole numbers, where the multiplier argument breaks down",
)


@dataclass
class Sides:
    """What a check body computes: the series and its computed notes.  A
    set ``veto`` turns a passing verdict into a fail (noted when nonempty);
    a set ``slope`` replaces the fitted slope in the stats."""

    grid: object
    lhs: object
    rhs: object
    notes: list = field(default_factory=list)
    veto: str | None = None
    slope: float | None = None


@dataclass(frozen=True)
class Check:
    """One row of the catalogue.

    ``params`` maps each parameter to its type, or to (type, default);
    ``variant`` is the (key, value) of the form or side this row checks,
    the first row of a property being its default; ``derive`` adds values
    computed from the parameters, which the report echoes.  ``mode`` is
    "upper", "band" or "info"; ``notes`` follow the body's notes; ``opts``
    override the verdict bounds ``BOUNDS`` for ``_assemble``, which also
    reads ``check_slope`` and ``asym`` from them, and may be a function of
    the parameters (``_bounds``).
    """

    pid: str
    body: Callable
    params: dict
    gates: tuple = ()
    variant: tuple = ()
    mode: str = "upper"
    notes: tuple = ()
    opts: dict | Callable = field(default_factory=dict)
    derive: Callable | None = None


def _parse(spec: dict, params: dict) -> SimpleNamespace:
    a = SimpleNamespace()
    for name, decl in spec.items():
        kind, default = decl if isinstance(decl, tuple) else (decl, None)
        raw = params.get(name, default)
        if raw is None:
            raise ParameterError(f"missing parameter '{name}'")
        if kind is int and not float(raw).is_integer():
            raise ParameterError(f"parameter '{name}' must be a whole number, got {raw!r}")
        setattr(a, name, kind(raw))
    if "entry" in spec:
        a.d = corpus_mod.get_entry(a.entry).dimension
    return a


def _run(rows: tuple, wb, params: dict) -> InequalityReport:
    """Parse, gate, compute and assemble one check of the table; a given
    parameter that the row neither declares nor reads as its variant key
    is refused after the gates (P1d refuses everything as a hypothesis)."""
    row, echo = rows[0], dict(params)
    if row.variant:
        key, value = row.variant[0], params.get(row.variant[0], row.variant[1])
        row = next((r for r in rows if r.variant[1] == value), None)
        if row is None:
            known = ", ".join(r.variant[1] for r in rows)
            raise ParameterError(f"unknown {key} '{value}' for {rows[0].pid}; know {known}")
        echo[key] = value
    a = _parse(row.params, params)
    label = row.pid
    if row.variant:
        setattr(a, *row.variant)
        label += " {}={}".format(*row.variant)
    if row.derive is not None:
        derived = row.derive(a)
        vars(a).update(derived)
        echo.update(derived)
    for gate in row.gates:
        if not gate.holds(wb, a):
            raise gate.error(f"{label} needs {gate.text}")
    undeclared = [k for k in params if k not in row.params and k not in row.variant[:1]]
    if undeclared:
        raise ParameterError(f"{row.pid} takes no parameter {', '.join(map(repr, undeclared))}")
    # a side beyond the double range is inf (or nan): the row fails
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = row.body(wb, a)
    return _assemble(row.pid, echo, s, row.mode, _bounds(row, a), [*s.notes, *row.notes])


def _bounds(row: Check, a) -> dict:
    """The verdict settings of ``row`` at the parsed parameters ``a``:
    ``BOUNDS`` with the row's ``opts`` over them."""
    return {**BOUNDS, **(row.opts(a) if callable(row.opts) else row.opts)}


# ---------------------------------------------------------------------------
# check bodies: the lhs/rhs computation of each row
# ---------------------------------------------------------------------------


def _p1a(wb, a):
    c = wb.curve(a.entry, a.alpha, a.p)
    return Sides(c.deltas[:-1], c.values[:-1], c.values[1:])


def _p1b(wb, a):
    deltas = wb.deltas(a.entry)
    csum = modulus_curve(wb.fn(a.entry) + wb.fn(a.entry2), a.alpha, a.p, deltas=deltas)
    c1, c2 = wb.curve(a.entry, a.alpha, a.p), wb.curve(a.entry2, a.alpha, a.p)
    const = power(2.0, a.p.deficiency)
    return Sides(deltas, csum.values, const * (c1.values + c2.values),
                 [f"quasi-triangle constant 2^(1/p-1)_+ = {const}"])


def _p1c(wb, a):
    c = wb.curve(a.entry, a.alpha, a.p)
    const = binom_power_constant(a.alpha, a.p)
    rhs = const * quasi_norm(wb.fn(a.entry), a.p) * np.ones_like(c.values)
    notes = [f"binomial-sum constant {const:.6g};"
             " off-grid translations add interpolation slack beyond p = 2"]
    return Sides(c.deltas, c.values, rhs, notes)


def _p2(wb, a):
    c = wb.curve(a.entry, a.alpha, a.p)
    const = power(1.0 + a.lam, a.alpha + a.d * a.p.deficiency)
    lhs = modulus(wb.fn(a.entry), a.lam * c.deltas, a.alpha, a.p)
    return Sides(c.deltas, lhs, const * c.values,
                 [f"scaling constant (1+lambda)^(alpha+d(1/p-1)_+) = {const:.6g}"])


def _p3(wb, a):
    f, r, deltas = wb.fn(a.entry), a.r, wb.deltas(a.entry)
    rhs = sum(partial_modulus(f, axis, deltas, r, a.p) for axis in (0, 1))
    for k in range(1, r):
        rhs += mixed_modulus(f, (k, r - k), deltas, a.p)
    return Sides(deltas, wb.curve(a.entry, float(r), a.p).values, rhs)


def _p4(wb, a):
    c = wb.curve(a.entry, float(a.r), a.p)
    lhs = np.maximum.accumulate(c.values / c.deltas ** a.r)
    sem = sobolev_seminorm(wb.fn(a.entry), a.r, a.p)
    return Sides(c.deltas, lhs, sem * np.ones_like(lhs))


def _p5(wb, a):
    r, p, q = a.r, a.p, a.q
    inv_s = 1.0 / p.p + 1.0 / q.p
    s = Exponent(math.inf if inv_s == 0 else 1.0 / inv_s)
    deltas, f, g = wb.deltas(a.entry), wb.fn(a.entry), wb.fn(a.entry2)
    lhs = modulus_curve(f * g, float(r), s, deltas=deltas).values
    rhs = np.zeros_like(lhs)
    for k in range(r + 1):
        ck = frac_binomial(float(r), k)
        wf = quasi_norm(f, p) if k == 0 else wb.curve(a.entry, float(k), p).values
        wg = quasi_norm(g, q) if k == r else wb.curve(a.entry2, float(r - k), q).values
        rhs = rhs + ck * np.asarray(wf) * np.asarray(wg)
    notes = []
    if s.p < 1.0:
        slack = power(r + 1, 1.0 / s.p - 1.0)
        rhs = rhs * slack
        notes.append(f"s < 1: quasi-triangle slack {slack:.6g} applied to the sum")
    return Sides(deltas, lhs, rhs, notes)


def _p6(wb, a):
    f, c = wb.fn(a.entry), wb.curve(a.entry, a.r, a.p)
    rhs = averaged_modulus(f, c.deltas, a.r, a.p, a.q, inner=(a.form == "inner"))
    return Sides(c.deltas, c.values, rhs)


def _p7(wb, a):
    c = wb.curve(a.entry, a.alpha, a.p)
    big = wb.ext_curve(a.entry, a.alpha + a.gamma, a.p)
    fnorm = quasi_norm(wb.fn(a.entry), a.p)
    rhs = marchaud_rhs(big, c.deltas, a.alpha, a.p, fnorm, wb.cfg["n_quad"])
    return Sides(c.deltas, c.values, rhs)


def _p8_pointwise(wb, a):
    chigh = wb.curve(a.entry, a.alpha + a.beta, a.p)
    clow = wb.curve(a.entry, a.beta, a.p)
    const = binom_power_constant(a.alpha, a.p)
    return Sides(chigh.deltas, chigh.values, const * clow.values,
                 [f"composition constant {const:.6g}"])


def _p8_integral(wb, a):
    alpha, tau = a.alpha, a.p.tau
    big = wb.ext_curve(a.entry, alpha + a.beta, a.p)
    clow = wb.curve(a.entry, a.beta, a.p)
    integral = log_integral(
        lambda t: (big.interp(t) / t ** alpha) ** tau, clow.deltas, 1.0, wb.cfg["n_quad"]
    )
    return Sides(clow.deltas, clow.deltas ** alpha * integral ** (1.0 / tau), clow.values)


def _p9(wb, a):
    c = wb.curve(a.entry, a.alpha, a.q)
    big = wb.ext_curve(a.entry, a.alpha + a.gamma, a.p)
    rhs, tag, dropped = ulyanov_rhs(big, c.deltas, a.p.p, a.q.p, a.alpha, a.gamma, a.d,
                                    quasi_norm(wb.fn(a.entry), a.p), wb.cfg["n_quad"])
    return Sides(c.deltas, c.values, rhs, [f"rate regime: {tag}", f"norm term dropped: {dropped}"])


def _p10(wb, a):
    alpha, p, q, th, n_quad = a.alpha, a.p.p, a.q.p, _gap(a), wb.cfg["n_quad"]
    cq = wb.ext_curve(a.entry, alpha, a.q)
    cp = wb.ext_curve(a.entry, alpha, a.p)
    deltas, top = wb.deltas(a.entry), cq.deltas[-1]
    # flat continuation of the curve beyond its top, integrated exactly
    tail = cq.values[-1] ** p * top ** (-(alpha - th) * p) / ((alpha - th) * p)
    outer = log_integral(lambda t: (cq.interp(t) / t ** (alpha - th)) ** p, deltas, top, n_quad)
    inner = log_integral(lambda t: (cp.interp(t) / t ** th) ** q, cp.deltas[0] / _ZERO_CUT,
                         deltas, n_quad)
    return Sides(deltas, deltas ** (alpha - th) * (outer + tail) ** (1.0 / p), inner ** (1.0 / q))


def _sup_derivative_modulus(wb, a) -> np.ndarray:
    """max over |multi| = m of the order-r curve of D^multi f."""
    curves = [wb.curve(a.entry, float(a.r), a.p, multi=multi)
              for multi in multi_indices(a.d, a.m)]
    return np.max([c.values for c in curves], axis=0)


def _derivative_tail(wb, a, expo: float) -> np.ndarray:
    """(int_0^delta (w_{r+m}(t) / t^m)^expo dt/t)^(1/expo) over the step grid."""
    big = wb.ext_curve(a.entry, float(a.r + a.m), a.p)
    integral = log_integral(lambda t: (big.interp(t) / t ** a.m) ** expo,
                            big.deltas[0] / _ZERO_CUT, wb.deltas(a.entry), wb.cfg["n_quad"])
    return integral ** (1.0 / expo)


def _p11_lower(wb, a):
    deltas = wb.deltas(a.entry)
    lhs = wb.curve(a.entry, float(a.r + a.m), a.p).values / deltas ** a.m
    return Sides(deltas, lhs, _sup_derivative_modulus(wb, a))


def _p11_upper(wb, a):
    return Sides(wb.deltas(a.entry), _sup_derivative_modulus(wb, a), _derivative_tail(wb, a, 1.0))


def _p11_trebels1(wb, a):
    tail = _derivative_tail(wb, a, a.p.theta)
    return Sides(wb.deltas(a.entry), _sup_derivative_modulus(wb, a), tail)


def _p11_trebels2(wb, a):
    axis_curves = [
        wb.curve(a.entry, float(a.r), a.p, multi=tuple(a.m if j == ax else 0 for j in range(a.d)))
        for ax in range(a.d)
    ]
    rhs = np.max([c.values for c in axis_curves], axis=0)
    return Sides(wb.deltas(a.entry), _derivative_tail(wb, a, a.p.tau), rhs)


def _bands(wb, a):
    """The approximation curve and its bands sigma >= 1."""
    ac = wb.acurve(a.entry, a.p)
    return ac, [s for s in ac.sigmas if s >= 1.0]


def _moduli_at(wb, a, sigmas) -> np.ndarray:
    return modulus(wb.fn(a.entry), 1.0 / np.asarray(sigmas, dtype=float), a.alpha, a.p)


def _band_sum(ac, alpha: float, expo: float, s: float, start: int) -> float:
    """s^-alpha (sum_{k=start}^{s} (k+1)^(alpha expo - 1) E_k^expo)^(1/expo)."""
    total = sum(
        power(k + 1.0, alpha * expo - 1.0) * ac.value_at(float(k)) ** expo
        for k in range(start, int(s) + 1)
    )
    return power(s, -alpha) * power(total, 1.0 / expo)


def _p12_plain(wb, a):
    ac, sigmas = _bands(wb, a)
    return Sides(sigmas, [ac.value_at(s) for s in sigmas], _moduli_at(wb, a, sigmas))


def _p12_sharp(wb, a):
    ac, sigmas = _bands(wb, a)
    lhs = [_band_sum(ac, a.alpha, a.p.tau, s, 1) for s in sigmas]
    return Sides(sigmas, lhs, _moduli_at(wb, a, sigmas))


def _p13(wb, a):
    ac, sigmas = _bands(wb, a)
    rhs = [_band_sum(ac, a.alpha, a.p.theta, s, 0) for s in sigmas]
    return Sides(sigmas, _moduli_at(wb, a, sigmas), rhs)


def _p14(wb, a):
    # the near-best approximants at the bands 2^0 .. 2^k_top of the approximation curve
    witnesses = wb.acurve(a.entry, a.p).witnesses
    k_top = len(witnesses) - 1
    sup_d = [sup_directional(w, a.alpha, a.p) for w in witnesses]
    ns = list(range(0, k_top))
    deltas = [2.0 ** (-n) for n in ns]
    om = modulus(wb.fn(a.entry), deltas, a.alpha, a.p)
    if a.side == "lower":
        return Sides(deltas, [2.0 ** (-n * a.alpha) * sup_d[n] for n in ns], om)
    rhs = [
        sum(2.0 ** (-k * a.alpha) * sup_d[k] for k in range(n + 1, k_top + 1)) for n in ns
    ]
    return Sides(deltas, om, rhs, [f"series truncated at the top band 2^{k_top}"])


def _p15(wb, a):
    """Exploratory: does the modulus freeze across orders exactly when it
    tracks the approximation error?  Reported, never asserted."""
    c1, c2 = wb.curve(a.entry, a.alpha, a.p), wb.curve(a.entry, a.beta, a.p)
    ac, sigmas = _bands(wb, a)
    sig_ratio = [
        om / max(ac.value_at(s), 1e-300) for om, s in zip(_moduli_at(wb, a, sigmas), sigmas)
    ]
    with np.errstate(invalid="ignore"):
        orders = c1.values / c2.values
    notes = [
        f"order-ratio spread: {float(np.max(orders) / np.min(orders)):.4g}",
        f"modulus/error spread: {float(np.max(sig_ratio) / np.min(sig_ratio)):.4g}",
    ]
    return Sides(c1.deltas, c1.values, c2.values, notes)


def _p16(wb, a):
    f, c = wb.fn(a.entry), wb.curve(a.entry, a.alpha, a.p)
    return Sides(c.deltas, c.values, [k_functional(f, float(d), a.alpha, a.p) for d in c.deltas])


def _p17(wb, a):
    f, c = wb.fn(a.entry), wb.curve(a.entry, a.alpha, a.p)
    rhs = [realization(f, float(d), a.alpha, a.p)[0] for d in c.deltas]
    return Sides(c.deltas, c.values, rhs)


def _seeded(points, pair: Callable, n_seeds: int = 1) -> Sides:
    """The series of ``pair(s, x) = (lhs, rhs)`` over the points x, seed by
    seed for s = 0, ..., n_seeds - 1."""
    if n_seeds < 1:
        raise ParameterError(f"n_seeds must be >= 1, got {n_seeds}")
    grid = [x for _ in range(n_seeds) for x in points]
    sides = [pair(s, x) for s in range(n_seeds) for x in points]
    return Sides(grid, [left for left, _ in sides], [right for _, right in sides])


def _nsb(wb, a):
    zeta = Direction((1.0,)) if a.d == 1 else Direction.of(1.0, 1.0)
    order = SmoothnessOrder(a.alpha)
    hs = [(j + 1) / (8.0 * a.sigma) for j in range(8)]

    @functools.cache
    def derivative(s):
        P = wb.poly(a.d, a.sigma, a.seed + s)
        return P, quasi_norm(directional_derivative(P, zeta, order), a.p)

    def pair(s, h):
        P, der = derivative(s)
        return der, quasi_norm(frac_difference(P, Step(zeta, h), order), a.p) / h ** a.alpha

    sides, n = _seeded(hs, pair, a.n_seeds), len(hs)
    # the last step of each seed is the coarsest, h = 1/sigma
    ends = zip(sides.lhs[n - 1::n], sides.rhs[n - 1::n])
    worst = max(abs(der / dif - 1.0) for der, dif in ends)
    sides.notes = [f"max deviation from the h->0 limit at h = 1/sigma: {worst:.4g}"]
    sides.veto = "deviation at h = 1/sigma exceeded 0.2" if worst > 0.2 else None
    return sides


def _bern(wb, a):
    # keep every dilated mode of the band-1 base inside the grid's band
    sigmas = dyadic_bands(wb.grid(a.d), 1, 6 if a.d == 1 else 4)

    def pair(s, sg):
        P = _dilate_poly(wb.poly(a.d, 1.0, 1000 + s), int(sg))
        return sup_directional(P, a.alpha, a.p), sg ** a.alpha * quasi_norm(P, a.p)

    sides = _seeded(sigmas, pair, a.n_seeds)
    curves = np.divide(sides.lhs, sides.rhs).reshape(a.n_seeds, len(sigmas))
    slopes = [_fit_slope(np.asarray(sigmas), curve) for curve in curves]
    # no seed has a slope when every ratio is non-finite, as at a tiny p
    worst = max((abs(s) for s in slopes if s is not None), default=math.inf)
    sides.notes = [f"dilation family: worst per-seed |slope| = {worst:.3g}"]
    sides.veto = "" if worst > BOUNDS["slope_tol"] else None
    sides.slope = worst
    return sides


def _nik(wb, a):
    grid, gap = wb.grid(a.d), _gap(a)
    mag = frequency_magnitude(grid)

    def pair(s, sg):
        band = 4.0 * sg
        P = synthesize(grid, np.clip(1.0 - mag / band, 0.0, None).astype(complex))
        return quasi_norm(P, a.q), power(band, gap) * quasi_norm(P, a.p)

    return _seeded(dyadic_bands(grid, 0, 4 if a.d == 1 else 3, scale=4.0), pair)


def _hln(seed0: int, pair: Callable) -> Callable:
    """A body over seeded random polynomials P of band sigma = 2, 4, ...
    (up to 32 in d = 1, 8 in d = 2, as far as the grid holds them);
    ``pair(P, sigma, a)`` is (lhs, rhs)."""

    def body(wb, a):
        sigmas = dyadic_bands(wb.grid(a.d), 1, 5 if a.d == 1 else 3)
        return _seeded(sigmas, lambda s, sg: pair(wb.poly(a.d, sg, seed0 + s), sg, a), a.n_seeds)

    return body


def _hln1(P, sg, a):
    weight = power(sg, a.d * (1.0 / a.p.p - 1.0)) * math.log(sg + 1.0) ** (1.0 / a.q.p)
    rhs = weight * sup_directional(P, a.alpha + a.gamma, a.p) + quasi_norm(P, a.q)
    return sup_directional(P, a.alpha, a.q), rhs


def _hln2(P, sg, a):
    rhs = power(sg, a.d * (1.0 / a.p.p - 1.0)) * sup_directional(P, a.alpha + a.gamma, a.p)
    return sup_directional(P, a.alpha, a.q), rhs


def _hln3(P, sg, a):
    weight = math.log(sg + 1.0) ** (1.0 / a.p.conjugate)
    rhs = weight * sup_directional(P, a.alpha + a.gamma, a.p) + quasi_norm(P, a.p)
    return sup_directional(P, a.alpha, Exponent(math.inf)), rhs


def _hln_gamma(a) -> dict:
    return {"gamma": a.d * (1.0 - 1.0 / a.q.p)}


def _order(raw) -> float:
    """An order parameter, refused unless positive and finite."""
    return SmoothnessOrder(float(raw)).alpha


EXP = Exponent.parse
EAP = {"entry": str, "alpha": _order, "p": EXP}
P6_PARAMS = {"entry": str, "r": float, "p": EXP, "q": EXP}
P11_PARAMS = {"entry": str, "r": int, "m": int, "p": EXP}
HLN_PARAMS = {"alpha": _order, "p": EXP, "n_seeds": (int, 4)}
EXACT = {"max_ratio": 1.0 + 1e-12, "check_slope": False}
LARGE = {"asym": "large"}

#: the catalogue: one row per property, and one per form/side variant
TABLE = (
    Check("P1a", _p1a, EAP, opts=EXACT,
          notes=("a running max over the step designs makes monotonicity exact",)),
    Check("P1b", _p1b, {**EAP, "entry2": str}, (SHARED_GRID,), opts=EXACT),
    Check("P1c", _p1c, EAP, opts={"max_ratio": 1.1, "check_slope": False}),
    Check("P1d", None, {}, (Gate(lambda wb, a: False, "delta -> infinity on R^d; on the torus"
                                 " the modulus saturates and the statement is vacuous"),)),
    Check("P2", _p2, {**EAP, "lam": (float, 2.0)},
          (Gate(lambda wb, a: not a.lam <= 1.0, "lambda > 1"),)),
    Check("P3", _p3, {"entry": str, "r": int, "p": EXP}, (MULTIVARIATE,), mode="band"),
    Check("P4", _p4, {"entry": str, "r": int, "p": EXP}, (P_OPEN,), mode="band",
          notes=("lhs is the running sup of modulus/delta^r over the step grid",)),
    Check("P5", _p5, {"entry": str, "entry2": str, "r": int, "p": EXP, "q": EXP},
          (SHARED_GRID,), notes=("product rule is exact at p = q = 2 up to aliasing",),
          opts=lambda a: {"max_ratio": 1.0 + 1e-6 if a.p.p == a.q.p == 2.0 else BOUNDS["max_ratio"],
                          "check_slope": False}),
    Check("P6", _p6, P6_PARAMS, (AVERAGED,), ("form", "outer"), mode="band"),
    Check("P6", _p6, P6_PARAMS, (AVERAGED, Q_BELOW_P), ("form", "inner"), mode="band"),
    Check("P7", _p7, {**EAP, "gamma": float},
          (Gate(lambda wb, a: not a.gamma <= 0, "gamma > 0"), admissible("alpha", "alpha+gamma"))),
    Check("P8", _p8_pointwise, {**EAP, "beta": float}, (admissible("alpha", "beta"),),
          ("form", "pointwise"),
          opts=lambda a: {"max_ratio": 1.0 + 1e-9 if a.p.p == 2.0 else BOUNDS["max_ratio"],
                          "check_slope": False}),
    Check("P8", _p8_integral, {**EAP, "beta": float}, (admissible("alpha", "beta"), P_OPEN),
          ("form", "integral")),
    Check("P9", _p9, {**EAP, "gamma": float, "q": EXP}, (
        P_BELOW_Q,
        Gate(lambda wb, a: not a.gamma < 0, "gamma >= 0"),
        Gate(lambda wb, a: SmoothnessOrder(a.alpha).is_integer
             or a.alpha > max(1.0 - 1.0 / a.q.p, 0.0), "alpha whole or > (1 - 1/q)_+"),
        admissible("alpha+gamma"),
    )),
    Check("P10", _p10, {**EAP, "q": EXP}, (
        Gate(lambda wb, a: not a.q.is_inf and a.p.p < a.q.p, "p < q < inf"),
        Gate(lambda wb, a: a.p.p > 1.0 or (a.p.p == 1.0 and a.d >= 2),
             "1 < p, or p = 1 with d >= 2 (the inequality fails for p = 1 in one dimension)"),
        Gate(lambda wb, a: a.alpha > _gap(a), "alpha > d(1/p - 1/q)"),
    ), notes=("upper limit continued flat beyond delta = 1 (closed-form tail)",)),
    Check("P11", _p11_lower, P11_PARAMS, (P_NORMED,), ("side", "lower")),
    Check("P11", _p11_upper, P11_PARAMS, (P_NORMED,), ("side", "upper")),
    Check("P11", _p11_trebels1, P11_PARAMS, (P_NORMED, P_OPEN), ("side", "trebels1")),
    Check("P11", _p11_trebels2, P11_PARAMS, (P_NORMED, P_OPEN), ("side", "trebels2")),
    Check("P12", _p12_plain, EAP, (admissible("alpha"),), ("form", "plain"), opts=LARGE),
    Check("P12", _p12_sharp, EAP, (admissible("alpha"), P_OPEN), ("form", "sharp"), opts=LARGE),
    Check("P13", _p13, EAP, (admissible("alpha"),), opts=LARGE,
          notes=("between dyadic bands the error curve is continued as a step",)),
    Check("P14", _p14, EAP, (admissible("alpha"),), ("side", "lower")),
    Check("P14", _p14, EAP, (admissible("alpha"),), ("side", "upper")),
    Check("P15", _p15, {**EAP, "beta": float}, mode="info",
          notes=("both spreads should be moderate together or large together",)),
    Check("P16", _p16, EAP, (P_NORMED,), mode="band"),
    Check("P17", _p17, EAP, (admissible("alpha"),), mode="band"),
    Check("NSB", _nsb, {"alpha": _order, "p": EXP, "sigma": (float, 8.0), "n_seeds": (int, 8),
                        "seed": (int, 0), "d": (int, 1)},
          (Gate(lambda wb, a: _band_holds(wb, a, a.sigma),
                "sigma in [2 pi/L, pi N/L], the band of its polynomial grid",
                ParameterError),),
          mode="band", opts={"band_limit": 10.0, "check_slope": False}),
    Check("BERN", _bern, {"alpha": _order, "p": EXP, "d": (int, 1), "n_seeds": (int, 4)},
          (Gate(lambda wb, a: _band_holds(wb, a, 1.0, 4.0),
                "a grid band [2 pi/L, pi N/L] that holds 1 and 4, so that the band-1 base"
                " polynomials are not constant and the per-seed slope has two dilations",
                ParameterError),),
          opts={"check_slope": False}),
    Check("NIK", _nik, {"p": EXP, "q": EXP, "d": (int, 1)}, (P_BELOW_Q,), opts=LARGE,
          notes=("witness family: dilated triangle-spectrum kernels",)),
    Check("HLN1", _hln(2000, _hln1), {**HLN_PARAMS, "q": EXP, "d": (int, 1)},
          (P_SMALL, Q_OPEN, NO_ODD_SUM), opts=LARGE, derive=_hln_gamma),
    Check("HLN2", _hln(3000, _hln2), {**HLN_PARAMS, "q": EXP, "d": (int, 2)},
          (MULTIVARIATE, P_SMALL, Gate(lambda wb, a: a.q.p > 1.0, "q > 1"),
           Gate(lambda wb, a: a.gamma >= 1.0, "d(1 - 1/q) >= 1"),
           Gate(lambda wb, a: _whole(a.alpha + a.gamma), "alpha + gamma a whole number")),
          opts=LARGE, derive=_hln_gamma),
    Check("HLN3", _hln(4000, _hln3), {**HLN_PARAMS, "d": (int, 1)}, (P_OPEN,),
          opts=LARGE, derive=lambda a: {"gamma": a.d / a.p.p}),
)

#: property id -> check(wb, params), each covering its gates, body and report
CHECKS = {
    pid: functools.partial(_run, tuple(row for row in TABLE if row.pid == pid))
    for pid in dict.fromkeys(row.pid for row in TABLE)
}


def run_check(property_id: str, params: dict, workbench: Workbench) -> InequalityReport:
    """Check ``property_id`` at ``params`` on ``workbench``, the one
    Workbench of the run, which also holds its config."""
    if property_id not in CHECKS:
        raise ParameterError(f"unknown property '{property_id}'")
    return CHECKS[property_id](workbench, dict(params))


# ---------------------------------------------------------------------------
# the default matrix
# ---------------------------------------------------------------------------

#: (property, params, in the quick matrix): one row per regime the harness
#: exercises; the three 2-D rows come last
MATRIX = (
    ("P1a", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}, True),
    ("P1a", {"entry": "cusp05", "alpha": 1.5, "p": 0.5}, False),
    ("P1b", {"entry": "gaussian", "entry2": "bump", "alpha": 1.0, "p": 0.5}, False),
    ("P1c", {"entry": "gaussian", "alpha": 1.5, "p": 2.0}, False),
    ("P2", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "lam": 2.0}, True),
    ("P2", {"entry": "cusp05", "alpha": 2.0, "p": 0.5, "lam": 4.0}, False),
    ("P4", {"entry": "gaussian", "r": 1, "p": 2.0}, False),
    ("P5", {"entry": "gaussian", "entry2": "bump", "r": 2, "p": 2.0, "q": 2.0}, False),
    ("P6", {"entry": "gaussian", "r": 1, "p": 2.0, "q": 1.0}, False),
    ("P6", {"entry": "gaussian", "r": 1, "p": 2.0, "q": 2.0, "form": "inner"}, False),
    ("P7", {"entry": "gaussian", "alpha": 1.0, "gamma": 1.0, "p": 2.0}, True),
    ("P7", {"entry": "cusp05", "alpha": 1.5, "gamma": 1.0, "p": 0.5}, False),
    ("P7", {"entry": "bump", "alpha": 1.0, "gamma": 1.0, "p": "inf"}, False),
    ("P8", {"entry": "gaussian", "alpha": 1.0, "beta": 1.0, "p": 2.0}, False),
    ("P8", {"entry": "gaussian", "alpha": 1.0, "beta": 1.0, "p": 2.0, "form": "integral"},
     False),
    ("P9", {"entry": "gaussian", "alpha": 2.0, "gamma": 1.0, "p": 0.5, "q": 1.0}, False),
    ("P9", {"entry": "cusp05", "alpha": 2.0, "gamma": 0.5, "p": 0.5, "q": 2.0}, False),
    ("P9", {"entry": "gaussian", "alpha": 2.0, "gamma": 0.5, "p": 1.0, "q": 2.0}, False),
    ("P9", {"entry": "gaussian", "alpha": 2.0, "gamma": 0.25, "p": 2.0, "q": 4.0}, False),
    ("P9", {"entry": "gaussian", "alpha": 2.0, "gamma": 0.5, "p": 2.0, "q": "inf"}, False),
    ("P10", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "q": 4.0}, False),
    ("P11", {"entry": "gaussian", "r": 1, "m": 1, "p": 2.0, "side": "lower"}, False),
    ("P11", {"entry": "gaussian", "r": 1, "m": 1, "p": 2.0, "side": "upper"}, False),
    ("P11", {"entry": "gaussian", "r": 1, "m": 1, "p": 2.0, "side": "trebels1"}, False),
    ("P11", {"entry": "gaussian", "r": 1, "m": 1, "p": 2.0, "side": "trebels2"}, False),
    ("P12", {"entry": "gaussian", "alpha": 2.0, "p": 2.0}, True),
    ("P12", {"entry": "cusp05", "alpha": 2.0, "p": 0.5}, False),
    ("P12", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "form": "sharp"}, False),
    ("P13", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}, False),
    ("P13", {"entry": "cusp05", "alpha": 1.5, "p": 0.5}, False),
    ("P14", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "side": "lower"}, False),
    ("P14", {"entry": "gaussian", "alpha": 1.0, "p": 2.0, "side": "upper"}, False),
    ("P15", {"entry": "fejer", "alpha": 1.0, "beta": 2.0, "p": 2.0}, False),
    ("P16", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}, True),
    ("P16", {"entry": "bump", "alpha": 1.5, "p": "inf"}, False),
    ("P17", {"entry": "gaussian", "alpha": 1.0, "p": 2.0}, True),
    ("P17", {"entry": "cusp05", "alpha": 1.5, "p": 0.5}, False),
    ("NSB", {"alpha": 1.0, "p": 2.0, "sigma": 8.0}, True),
    ("NSB", {"alpha": 0.5, "p": 0.5, "sigma": 8.0}, False),
    ("BERN", {"alpha": 1.0, "p": 2.0}, True),
    ("BERN", {"alpha": 0.5, "p": "inf"}, False),
    ("NIK", {"p": 1.0, "q": 2.0}, False),
    ("NIK", {"p": 2.0, "q": "inf"}, False),
    ("HLN1", {"alpha": 1.0, "p": 0.5, "q": 2.0, "d": 1}, False),
    ("HLN3", {"alpha": 1.0, "p": 2.0, "d": 1}, False),
    ("P3", {"entry": "gaussian2d", "r": 2, "p": 2.0}, False),
    ("P6", {"entry": "gaussian2d", "r": 1, "p": 2.0, "q": 1.0}, False),
    ("HLN2", {"alpha": 1.0, "p": 1.0, "q": 2.0, "d": 2}, False),
)


def default_matrix(cfg: dict) -> list:
    """The (property, params) rows of the matrix; with ``quick``, the quick rows."""
    return [(pid, dict(params)) for pid, params, quick in MATRIX if quick or not cfg["quick"]]


def verify_all(workbench: Workbench) -> dict:
    """Run the matrix of ``workbench``'s config on its ``threads`` workers,
    all on that one Workbench of the run; the report list is ordered like
    the matrix and is bitwise independent of the worker count."""
    cfg = workbench.cfg
    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        reports = list(pool.map(lambda row: run_check(*row, workbench), default_matrix(cfg)))
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
