"""The four workloads: their inputs, operations and output checks.

A workload is three functions of the imported smoothlab package ``sl``:

- ``setup(sl, seed)`` builds the Workbench and the inputs and returns a state;
- ``ops(sl, state)`` lists the operations of one round as (label, callable);
- ``check(state, results)`` returns (op index, message) for every operation
  whose output fails its check.  ``results[i]`` is the value op i returned,
  or None when it raised (it has failed already and is not checked again).

Functions are looked up on the smoothlab modules at call time, so the
traced run sees its wrappers.  cli_quick's untraced operations are whole
processes and are started by run.py; its worker-side entry points serve
set-up probes and the traced run.
"""

from __future__ import annotations

import io
import json
import math
import sys

import numpy as np

import oracles as O

#: everything a run writes goes here, inside the checkout
OUT_DIR = ".bench_out"

def _failures(checks, results) -> list:
    """(index, message) of every result that fails its check(value) -> (ok, message)."""
    bad = []
    for i, (chk, value) in enumerate(zip(checks, results)):
        if value is not None:
            ok, msg = chk(value)
            if not ok:
                bad.append((i, msg))
    return bad


def _verdict(want: str):
    return lambda report: (report.verdict == want, f"verdict {report.verdict}, expected {want}")


# ---------------------------------------------------------------------------
# matrix_1d: the one-dimensional catalogue rows through run_check
# ---------------------------------------------------------------------------


def _is_2d(sl, params) -> bool:
    if params.get("d") == 2:
        return True
    return any(
        sl.corpus.get_entry(params[k]).dimension == 2 for k in ("entry", "entry2") if k in params
    )


def setup_matrix(sl, seed):
    cfg = sl.verify.make_config()
    wb = sl.verify.Workbench(cfg)
    rows = [(pid, params) for pid, params in sl.verify.default_matrix(cfg)
            if not _is_2d(sl, params)]
    entries = {params[k] for _, params in rows for k in ("entry", "entry2") if k in params}
    for name in sorted(entries):
        wb.fn(name)
    return {"wb": wb, "rows": rows}


def ops_matrix(sl, state):
    wb = state["wb"]
    return [
        (f"{pid} {json.dumps(params, sort_keys=True)}",
         lambda pid=pid, params=params: sl.verify.run_check(pid, params, workbench=wb))
        for pid, params in state["rows"]
    ]


def _row_index(rows, pid, **want) -> int:
    for i, (rid, params) in enumerate(rows):
        if rid == pid and all(params.get(k) == v for k, v in want.items()):
            return i
    raise LookupError(f"no {pid} row with {want}")


def check_matrix(state, results):
    wb, rows = state["wb"], state["rows"]
    bad = _failures([_verdict("info" if pid == "P15" else "pass") for pid, _ in rows], results)
    # the first-order L2 curve of exp(-x^2), reported by the P1a row
    curve = wb.curve("gaussian", 1.0, 2.0)
    ok, msg = O.close(curve.values, O.gaussian_l2_modulus(curve.deltas))
    if not ok:
        row = _row_index(rows, "P1a", entry="gaussian", alpha=1.0, p=2.0)
        bad.append((row, f"gaussian L2 curve: {msg}"))
    # p = 2 near-best errors are the discrete Parseval tails (used by P12)
    ac = wb.acurve("gaussian", 2.0)
    grid = wb.fn("gaussian").grid
    ref = [O.gaussian_l2_norm()] + [
        O.gaussian_l2_tail(grid.points_per_axis, grid.period, s) for s in ac.sigmas[1:]
    ]
    ok, msg = O.close(ac.raw_values, ref, scale=O.gaussian_l2_norm())
    if not ok:
        row = _row_index(rows, "P12", entry="gaussian", alpha=2.0, p=2.0)
        bad.append((row, f"near-best L2 errors: {msg}"))
    return bad


# ---------------------------------------------------------------------------
# moduli_2d: gaussian2d at 256^2, one scale of the Workbench's 2-D delta grid
# ---------------------------------------------------------------------------


def setup_2d(sl, seed):
    wb = sl.verify.Workbench(sl.verify.make_config())
    f = wb.fn("gaussian2d")
    deltas = wb.deltas("gaussian2d")
    return {"f": f, "delta": float(deltas[seed % len(deltas)])}


def ops_2d(sl, state):
    f, d, m = state["f"], state["delta"], sl.moduli
    return [
        ("modulus alpha=1 p=2", lambda: m.modulus(f, d, 1.0, 2.0)),
        ("modulus alpha=1.5 p=2", lambda: m.modulus(f, d, 1.5, 2.0)),
        ("modulus alpha=2 p=2", lambda: m.modulus(f, d, 2.0, 2.0)),
        ("modulus alpha=1 p=0.5", lambda: m.modulus(f, d, 1.0, 0.5)),
        ("modulus alpha=1 p=inf", lambda: m.modulus(f, d, 1.0, "inf")),
        ("mixed_modulus (1,1) p=2", lambda: m.mixed_modulus(f, (1, 1), d, 2.0)),
        ("partial_modulus axis=0 r=2 p=2", lambda: m.partial_modulus(f, 0, d, 2, 2.0)),
        ("partial_modulus axis=1 r=2 p=2", lambda: m.partial_modulus(f, 1, d, 2, 2.0)),
        ("averaged_modulus r=1 p=2 q=1", lambda: m.averaged_modulus(f, d, 1.0, 2.0, 1.0)),
    ]


def refs_2d(delta: float, n: int, period: float) -> list:
    """(reference, check) per ops_2d entry; check(value) -> (ok, message).

    p = 2 values must equal closed forms (Parseval on the closed-form
    transform for alpha = 1.5).  p = inf must equal the sampled closed form
    and sit inside the Lipschitz bounds.  p = 1/2 must sit inside the
    interpolation bounds and inside the round-off bracket of the sampled
    closed form.
    """
    lhalf = O.gaussian2d_sampled_diff_norms(delta, n, period, 0.5)
    linf = O.gaussian2d_sampled_diff_norms(delta, n, period, math.inf)
    lhalf_bounds = O.gaussian2d_sup_lhalf_bounds(delta, period)
    linf_bounds = O.gaussian2d_sup_linf_bounds(delta)
    bracket = O.lhalf_noise_bracket(lhalf, period)
    exact = [
        O.gaussian2d_sup_l2(1.0, delta),
        O.gaussian2d_parseval_sup(1.5, delta, n, period),
        O.gaussian2d_sup_l2(2.0, delta),
    ]
    pairs = [(r, lambda v, r=r: O.close(v, r)) for r in exact]
    pairs += [
        (lhalf, lambda v: _all(_within(v, *lhalf_bounds), _within(v, *bracket))),
        (linf, lambda v: _all(_within(v, *linf_bounds), O.close(v, linf))),
    ]
    # along one axis the second difference has the radial closed form at |h| = delta
    partial = O.gaussian2d_l2_diff(2.0, delta)
    for r in (O.gaussian2d_mixed11_l2(delta), partial, partial, O.gaussian2d_averaged_l2(delta)):
        pairs.append((r, lambda v, r=r: O.close(v, r)))
    return pairs


def _within(value, lo, hi) -> tuple:
    return lo <= value <= hi, f"{value!r} outside [{lo!r}, {hi!r}]"


def _all(*verdicts) -> tuple:
    failed = [msg for ok, msg in verdicts if not ok]
    return not failed, "; ".join(failed)


def check_2d(state, results):
    g = state["f"].grid
    pairs = refs_2d(state["delta"], g.points_per_axis, g.period)
    return _failures([chk for _, chk in pairs], results)


# ---------------------------------------------------------------------------
# series_route: the binomial-series evaluation of the fractional difference
# ---------------------------------------------------------------------------

SERIES_ALPHAS = (0.5, 1.5, 3.2)
#: fixed steps: the series cost depends on how close h w comes to 2 pi Z,
#: so the steps stay fixed and only the polynomials follow the seed
SERIES_STEPS = tuple(float(h) for h in np.geomspace(0.01, 0.5, 5))
POLY_BAND = 8.0


def _band_poly(sl, grid, rng):
    """Random trigonometric polynomial with modes |w| <= POLY_BAND, unit l2
    coefficients.  Returns (grid function, FFT-ordered coefficients)."""
    n = grid.points_per_axis
    w = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / grid.period
    inside = np.abs(w) <= POLY_BAND
    c = np.zeros(n, dtype=complex)
    c[inside] = rng.standard_normal(inside.sum()) + 1j * rng.standard_normal(inside.sum())
    c /= math.sqrt(float(np.sum(np.abs(c) ** 2)))
    return sl.grid.GridFunction(grid, np.fft.ifft(c) * n), c


def setup_series(sl, seed):
    wb = sl.verify.Workbench(sl.verify.make_config())
    fejer, wave = wb.fn("fejer"), wb.fn("planewave")
    rng = np.random.default_rng(seed)
    poly_a, ca = _band_poly(sl, fejer.grid, rng)
    poly_b, cb = _band_poly(sl, fejer.grid, rng)
    fc = O.fejer_coefficients(fejer.grid.points_per_axis, fejer.grid.period)
    # the planewave entry samples e^{ix} on the centred cell [-L/2, L/2)
    xw = wave.grid.axis_coords() - wave.grid.period / 2.0
    inputs = [
        ("fejer", fejer, lambda a, h: O.apply_difference(fc, fejer.grid.period, a, h)),
        ("planewave", wave, lambda a, h: O.planewave_difference(a, h, xw)),
        ("poly-a", poly_a, lambda a, h: O.apply_difference(ca, fejer.grid.period, a, h)),
        ("poly-b", poly_b, lambda a, h: O.apply_difference(cb, fejer.grid.period, a, h)),
    ]
    cases = [(name, f, ref, a, h)
             for name, f, ref in inputs for a in SERIES_ALPHAS for h in SERIES_STEPS]
    return {"cases": cases}


def ops_series(sl, state):
    m, zeta = sl.moduli, sl.spectral.Direction((1.0,))
    return [
        (f"{name} alpha={a} h={h:.4g}",
         lambda f=f, a=a, h=h: m.frac_difference(f, m.Step(zeta, h), a, method="series").values)
        for name, f, _, a, h in state["cases"]
    ]


def check_series(state, results):
    checks = [
        lambda got, f=f, ref=ref, a=a, h=h: O.close(
            got, ref(a, h), rtol=O.SERIES_GATE, scale=np.abs(f.values).max())
        for _, f, ref, a, h in state["cases"]
    ]
    return _failures(checks, results)


# ---------------------------------------------------------------------------
# cli_quick: `smoothlab verify-all --quick --threads 2`, one process each
# ---------------------------------------------------------------------------

CLI_ARGS = ("verify-all", "--quick", "--threads", "2")
CLI_REFERENCE_ARGS = ("verify-all", "--quick", "--threads", "1")
#: invocations per round
CLI_ROUND = 4


def setup_cli(sl, seed):
    wb = sl.verify.Workbench(sl.verify.make_config({"quick": True}))
    wb.fn("gaussian")
    return {}


def run_cli_in_process(sl, argv) -> tuple:
    """cli.main with stdout captured: (exit code, report text)."""
    out, saved = io.StringIO(), sys.stdout
    sys.stdout = out
    try:
        code = sl.cli.main(list(argv))
    finally:
        sys.stdout = saved
    return code, out.getvalue()


def ops_cli(sl, state):
    return [(" ".join(CLI_ARGS), lambda: run_cli_in_process(sl, CLI_ARGS))]


def check_cli_output(code: int, text: str, reference: str | None) -> str | None:
    """None when the invocation is correct, else why not."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if report["summary"]["n_fail"] != 0:
        return f"n_fail = {report['summary']['n_fail']}"
    if reference is not None and text != reference:
        return "report bytes differ from the --threads 1 report"
    for row in report["reports"]:
        p = row["params"]
        gaussian_l2 = (p.get("entry"), p.get("alpha"), p.get("p")) == ("gaussian", 1.0, 2.0)
        if row["property_id"] == "P1a" and gaussian_l2:
            ok, msg = O.close(row["lhs"], O.gaussian_l2_modulus(row["grid"]))
            if not ok:
                return f"P1a gaussian L2 curve: {msg}"
            return None
    return "no P1a gaussian row in the quick report"


def check_cli(state, results):
    def check(result):
        why = check_cli_output(*result, state.get("reference"))
        return why is None, why

    return _failures([check] * len(results), results)


WORKLOADS = {
    "matrix_1d": (setup_matrix, ops_matrix, check_matrix),
    "moduli_2d": (setup_2d, ops_2d, check_2d),
    "series_route": (setup_series, ops_series, check_series),
    "cli_quick": (setup_cli, ops_cli, check_cli),
}
