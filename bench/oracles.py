"""Reference values computed apart from smoothlab, and the checks that use them.

Every reference here comes from a closed form (a Gaussian's transform and
autocorrelation, a plane wave's symbol) or from direct sampling of such a
closed form.  Nothing is read from a stored copy of smoothlab's output.
Only numpy and math are used; the program under test is never imported.
"""

from __future__ import annotations

import math

import numpy as np

#: relative tolerance of the exact oracles (spectrally exact quantities)
EXACT_RTOL = 1e-9
#: the series-route gate of the acceptance suite, relative to max |f|
SERIES_GATE = 1e-8


def rel_err(got, ref, scale=None) -> float:
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    den = float(np.max(np.abs(ref))) if scale is None else float(scale)
    return float(np.max(np.abs(got - ref))) / max(den, 1e-300)


def close(got, ref, rtol=EXACT_RTOL, scale=None) -> tuple[bool, str]:
    err = rel_err(got, ref, scale)
    return err <= rtol, f"relative error {err:.3g} (tolerance {rtol:.0e})"


# ---------------------------------------------------------------------------
# 1-D Gaussian exp(-x^2)
# ---------------------------------------------------------------------------


def gaussian_l2_modulus(delta) -> np.ndarray:
    """First-order L2 modulus of exp(-x^2) on R: sqrt(sqrt(2 pi)(1 - e^{-d^2/2}))."""
    d = np.asarray(delta, dtype=float)
    return np.sqrt(math.sqrt(2.0 * math.pi) * -np.expm1(-0.5 * d * d))


def gaussian_l2_norm() -> float:
    return (math.pi / 2.0) ** 0.25


def gaussian_l2_tail(n: int, period: float, sigma: float) -> float:
    """L2 error of the best type-sigma approximation of the periodized Gaussian.

    Discrete Parseval: the grid coefficients are F(w)/L with
    F(w) = sqrt(pi) e^{-w^2/4}, so the error is sqrt(sum_{|w|>sigma} |F|^2 / L).
    """
    w = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / period
    tail = np.abs(w) > sigma
    return math.sqrt(float(np.sum(math.pi * np.exp(-0.5 * w[tail] ** 2))) / period)


# ---------------------------------------------------------------------------
# 2-D Gaussian exp(-|x|^2) and the documented step design
# ---------------------------------------------------------------------------


def step_design(delta: float, n_magnitudes: int = 16) -> list:
    """16 half-slot-offset angles plus the 4 axes, at magnitudes delta(1 - j/16)."""
    dirs = [
        (math.cos((k + 0.5) * 2.0 * math.pi / 16.0), math.sin((k + 0.5) * 2.0 * math.pi / 16.0))
        for k in range(16)
    ]
    dirs += [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    mags = delta * (1.0 - np.arange(n_magnitudes) / n_magnitudes)
    return [(float(t) * c, float(t) * s) for t in mags for c, s in dirs]


def gaussian2d_l2_diff(alpha: float, t: float) -> float:
    """||Delta_h^alpha exp(-|x|^2)||_2 on R^2 for |h| = t, whole alpha in {1, 2}.

    ||f||_2^2 = pi/2 and the autocorrelation is ||f||_2^2 e^{-|h|^2/2}, so
    ||f(.+h) - f||^2 = pi (1 - e^{-t^2/2}) and the second difference has
    (pi/2)(6 - 8 e^{-t^2/2} + 2 e^{-2 t^2}).
    """
    s = 0.5 * t * t
    if alpha == 1.0:
        return math.sqrt(-math.pi * math.expm1(-s))
    if alpha == 2.0:
        return math.sqrt(0.5 * math.pi * (6.0 - 8.0 * math.exp(-s) + 2.0 * math.exp(-4.0 * s)))
    raise ValueError("closed form only for alpha = 1 or 2; use gaussian2d_parseval_sup")


def gaussian2d_sup_l2(alpha: float, delta: float) -> float:
    return max(gaussian2d_l2_diff(alpha, math.hypot(*h)) for h in step_design(delta))


def gaussian2d_mixed11_l2(delta: float) -> float:
    """Mixed (1,1) modulus: the Gaussian is a tensor product, so the norm of
    the composed axis differences is 2 pi (1 - e^{-h1^2/2})(1 - e^{-h2^2/2})
    under the square root."""
    return max(
        math.sqrt(2.0 * math.pi * math.expm1(-0.5 * h1 * h1) * math.expm1(-0.5 * h2 * h2))
        for h1, h2 in step_design(delta)
    )


def gaussian2d_averaged_l2(delta: float, n: int = 16) -> float:
    """Outer q=1 average of ||Delta_h f||_2 on the documented midpoint nodes."""
    edges = np.linspace(-delta, delta, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    w_cell = (2.0 * delta / n) ** 2
    total = sum(
        gaussian2d_l2_diff(1.0, math.hypot(h1, h2)) * w_cell
        for h1 in mids
        for h2 in mids
        if math.hypot(h1, h2) <= delta
    )
    return total / delta ** 2


def gaussian2d_sampled_diff_norms(delta: float, n: int, period: float, p: float) -> float:
    """max over the step design of the sampled L_p quasi-norm of
    exp(-|x+h|^2) - exp(-|x|^2), straight from the closed form.

    The grid is centred (fundamental cell [-L/2, L/2)); images of the
    periodization are below e^{-(L/2)^2} and are left out.
    """
    x = np.arange(n) * (period / n) - period / 2.0
    g0 = np.exp(-x * x)
    best = 0.0
    for h1, h2 in step_design(delta):
        g1 = np.exp(-(x + h1) ** 2)
        g2 = np.exp(-(x + h2) ** 2)
        diff = np.abs(np.outer(g1, g2) - np.outer(g0, g0))
        if math.isinf(p):
            val = float(diff.max())
        else:
            val = float((np.sum(diff ** p) * (period / n) ** 2) ** (1.0 / p))
        best = max(best, val)
    return best


def gaussian2d_sup_linf_bounds(delta: float) -> tuple:
    """1 - e^{-d^2} <= omega_1(f, d)_inf <= sqrt(2) e^{-1/2} d.

    Lower: the difference at x = 0 with |h| = d.  Upper: the Lipschitz
    constant of exp(-|x|^2) is max 2 r e^{-r^2} = sqrt(2) e^{-1/2}.
    """
    return -math.expm1(-delta * delta), math.sqrt(2.0) * math.exp(-0.5) * delta


def gaussian2d_sup_lhalf_bounds(delta: float, period: float) -> tuple:
    """Bounds for the p = 1/2 first-order modulus, from the closed forms.

    Lower: log-convexity of the L_p quasi-norms in 1/p gives
    ||g||_2 <= ||g||_{1/2}^{1/4} ||g||_inf^{3/4}, so
    ||g||_{1/2} >= ||g||_2^4 / ||g||_inf^3 with ||g||_2 the closed form at
    |h| = delta and ||g||_inf at most the Lipschitz bound.
    Upper: ||g||_{1/2} <= (L^2)^{3/2} ||g||_2 on the torus of area L^2.
    """
    l2 = gaussian2d_l2_diff(1.0, delta)
    linf_hi = gaussian2d_sup_linf_bounds(delta)[1]
    return l2 ** 4 / linf_hi ** 3, period ** 3 * l2


def lhalf_noise_bracket(ref: float, period: float, eps_abs: float = 64 * 2.0 ** -52) -> tuple:
    """Bracket for a sampled p = 1/2 quasi-norm whose samples carry FFT
    round-off of at most eps_abs each.

    With S = value^(1/2) = sum |g|^(1/2) h^2, subadditivity of t^(1/2)
    gives S_computed <= S_exact + L^2 eps_abs^(1/2).  Round-off in the tails
    (where the exact g is ~0) only adds, so the lower end stays at the
    exact value.
    """
    s = math.sqrt(ref) + period ** 2 * math.sqrt(eps_abs)
    return ref * (1.0 - EXACT_RTOL), s * s


def gaussian2d_parseval_sup(alpha: float, delta: float, n: int, period: float) -> float:
    """max over the step design of ||Delta_h^alpha f||_2 for the periodized
    2-D Gaussian, by discrete Parseval on its closed-form coefficients
    pi e^{-|w|^2/4} / L^2.

    For fractional alpha the symbol |2 sin(h.w/2)|^(2 alpha) has a kink on
    the line h.w = 0, so the lattice sum differs from the R^2 integral by
    ~2e-5; the lattice sum is what a grid computes exactly.
    """
    w = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / period
    weight = (math.pi ** 2 / period ** 2) * np.exp(-0.5 * (w[:, None] ** 2 + w[None, :] ** 2))
    best = 0.0
    for h1, h2 in step_design(delta):
        theta = h1 * w[:, None] + h2 * w[None, :]
        sym = np.abs(2.0 * np.sin(0.5 * theta)) ** (2.0 * alpha)
        best = max(best, float(np.sum(weight * sym)))
    return math.sqrt(best)


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------


def difference_symbol(alpha: float, theta: np.ndarray) -> np.ndarray:
    """e^{i a th} (1 - e^{-i th})^a on the principal branch."""
    return np.exp(1j * alpha * theta) * (1.0 - np.exp(-1j * theta)) ** alpha


def planewave_difference(alpha: float, h: float, x: np.ndarray) -> np.ndarray:
    """Delta_h^alpha e^{ix} = e^{i a h}(1 - e^{-ih})^a e^{ix}."""
    return difference_symbol(alpha, np.asarray(h)) * np.exp(1j * x)


def fejer_coefficients(n: int, period: float) -> np.ndarray:
    """Grid coefficients of the periodized sinc^2(2x) from its transform
    (pi/2)(1 - |w|/4)_+, with the half-period centring phase."""
    w = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / period
    F = (math.pi / 2.0) * np.clip(1.0 - np.abs(w) / 4.0, 0.0, None)
    return F / period * np.exp(-1j * w * period / 2.0)


def apply_difference(coeffs: np.ndarray, period: float, alpha: float, h: float) -> np.ndarray:
    """Samples of Delta_h^alpha of the trigonometric polynomial with these
    FFT-ordered coefficients."""
    n = coeffs.shape[0]
    w = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / period
    return np.fft.ifft(coeffs * difference_symbol(alpha, h * w)) * n
