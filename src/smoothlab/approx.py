"""Near-best bandlimited approximation, realizations and K-functionals.

The error of best approximation by functions of exponential type sigma
is bounded above by minimizing over a fixed candidate set: the hard and
smooth spectral cutoffs, a first-order Riesz mean, on a 1-D grid the
sampling quasi-interpolants over a set of offsets, and zero.  Every
candidate lies in the band |w| <= sigma, so the minimum is an upper
bound of the error of that band.  For p = 2 the hard cutoff is the exact
minimizer (Parseval), so there the bound is the true error.

Every candidate is a multiplier or a fold on the spectrum of f, and a
function's spectrum is computed once, on first use: the cutoffs and the
Riesz mean are the band windows of ``spectral.band_windows`` applied with
``apply_symbol``, the sampling operators are ``interp_V``, and every band
of a curve, every scale of a realization and every check on one f share
its one transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .grid import (Exponent, GridFunction, SmoothnessOrder, TorusGrid, power, quasi_norm,
                   readonly_array, step_sizes)
from .moduli import _sup_directions, direction_design
from .spectral import (apply_symbol, band_windows, directional_gain, directional_symbol, interp_V,
                       step_norms)

#: offsets (as multiples of 1/sigma, within [-1, 1]) for the sampling operator
N_OFFSETS = 8


@dataclass
class NearBest:
    """Outcome of the candidate minimization."""

    sigma: float
    p_label: str
    error: float
    witness: GridFunction
    candidate: str
    all_errors: dict = field(default_factory=dict)


def _sampling_offsets(sigma: float) -> list:
    return [(-1.0 + (2.0 * k + 1.0) / N_OFFSETS) / sigma for k in range(N_OFFSETS)]


def near_best(f: GridFunction, sigma: float, p) -> NearBest:
    """Upper bound for the type-sigma approximation error, with witness.

    Candidates enter in a fixed documented order (hard cutoff, smooth
    cutoff, Riesz mean, sampling operators, zero); ties keep the earliest,
    so for p = 2 the reported witness is the hard cutoff.  The sampling
    operators enter on a 1-D grid only, when L sigma is a whole number of at
    least 2 samples.
    """
    p = Exponent.parse(p)
    if not (0 < sigma <= f.grid.nyquist):
        raise ParameterError(
            f"sigma={sigma} outside (0, nyquist={f.grid.nyquist:.3f}]"
        )
    candidates = [(name, apply_symbol(f, window))
                  for name, window in band_windows(f.grid, sigma).items()]
    n_samples = f.grid.period * sigma
    # the sampling operator is 1-D: a 2-D tensor composite leaves the disk |w| <= sigma
    if f.grid.dimension == 1 and abs(n_samples - round(n_samples)) < 1e-9 and round(n_samples) >= 2:
        for lam in _sampling_offsets(sigma):
            candidates.append((f"sampling[{lam:.4f}]", interp_V(f, sigma, lam)))
    candidates.append(("zero", GridFunction(f.grid, np.zeros(f.grid.shape))))

    errors = {name: quasi_norm(f - g, p) for name, g in candidates}
    # min returns the first of equal keys: ties, all-inf ones too, keep the earliest
    name, witness = min(candidates, key=lambda c: errors[c[0]])
    return NearBest(sigma, p.label(), errors[name], witness, name, errors)


@dataclass(frozen=True)
class ApproximationCurve:
    """Near-best errors over dyadic bands 2^0 .. 2^K, plus sigma = 0.

    values are made nonincreasing by a running minimum (the raw sequence
    is retained); the zero-band error is the norm itself.  ``witnesses``
    holds the near-best approximant of each band sigmas[1:], which P14
    reads; ``to_dict`` leaves them out.  Frozen, with read-only arrays: a
    cached curve is shared by every check on its entry.
    """

    p_label: str
    sigmas: np.ndarray
    values: np.ndarray
    raw_values: np.ndarray
    witnesses: tuple = field(default=(), repr=False)

    def __post_init__(self):
        for name in ("sigmas", "values", "raw_values"):
            object.__setattr__(self, name, readonly_array(getattr(self, name), float))

    def value_at(self, sigma: float) -> float:
        """Step interpolation: the error at the largest band <= sigma.

        For bands between the dyadic points this is an upper bound of the
        true error, which is the safe direction when the curve feeds the
        right-hand side of an inverse estimate.
        """
        if sigma < 0:
            raise ParameterError("sigma must be nonnegative")
        idx = np.searchsorted(self.sigmas, sigma, side="right") - 1
        idx = max(idx, 0)
        return float(self.values[idx])

    def to_dict(self) -> dict:
        return {
            "p": self.p_label,
            "sigmas": [float(s) for s in self.sigmas],
            "values": [float(v) for v in self.values],
            "raw_values": [float(v) for v in self.raw_values],
            "metadata": {},
        }


#: the top dyadic band 2^K_MAX that an approximation curve and P14 ask for
K_MAX = 6


def dyadic_bands(grid: TorusGrid, start: int, top: int, scale: float = 1.0) -> list:
    """The bands 2^k, start <= k <= top, whose ``scale`` multiple the grid
    holds (at most its Nyquist band pi N/L)."""
    return [2.0 ** k for k in range(start, top + 1) if scale * 2.0 ** k <= grid.nyquist]


def approx_curve(f: GridFunction, p, k_max: int = K_MAX) -> ApproximationCurve:
    """Near-best errors, with their witnesses, at sigma = 0 (the norm) and
    at the bands ``dyadic_bands(f.grid, 0, k_max)``: 2^0 .. 2^k_max, as far
    as the grid holds them."""
    p = Exponent.parse(p)
    sigmas = [0.0] + dyadic_bands(f.grid, 0, k_max)
    bests = [near_best(f, s, p) for s in sigmas[1:]]
    raw_arr = np.asarray([quasi_norm(f, p)] + [nb.error for nb in bests])
    repaired = np.minimum.accumulate(raw_arr)
    return ApproximationCurve(p.label(), np.asarray(sigmas), repaired, raw_arr,
                              witnesses=tuple(nb.witness for nb in bests))


def sup_directional(P: GridFunction, alpha, p) -> float:
    """max over the shared direction design of ||D_zeta^alpha P||_p; at
    p = 2 a Parseval sum of the closed ``directional_gain`` over the first
    half of the design (``moduli._sup_directions``), whose negatives give
    the same sums bit for bit."""
    order = SmoothnessOrder.parse(alpha)
    p = Exponent.parse(p)
    return max(step_norms(P, _sup_directions(direction_design(P.grid.dimension), p),
                          lambda v: directional_symbol(P.grid, v, order), p,
                          lambda v: directional_gain(P.grid, v, order)))


def _penalty(P: GridFunction, delta: float, order: SmoothnessOrder, p) -> float:
    """delta^alpha sup ||D^alpha P||_p, which is 0 where the sup is 0, also
    where delta^alpha is beyond the double range."""
    seminorm = sup_directional(P, order, p)
    return power(delta, order.alpha) * seminorm if seminorm else 0.0


def realization(f: GridFunction, delta: float, alpha, p):
    """Realization functional ||f - P||_p + delta^alpha sup ||D^alpha P||_p
    at the near-best P of band 1/delta.  Returns (value, witness)."""
    order = SmoothnessOrder.parse(alpha)
    p = Exponent.parse(p)
    delta = float(step_sizes(delta))
    sigma = 1.0 / delta
    if sigma > f.grid.nyquist:
        raise ParameterError("delta below the grid resolution")
    nb = near_best(f, sigma, p)
    value = nb.error + _penalty(nb.witness, delta, order, p)
    return float(value), nb.witness


#: mollification scales (times delta) tried by the K-functional
K_SCALES = (0.25, 0.5, 1.0, 2.0)


def k_functional(f: GridFunction, delta: float, alpha, p) -> float:
    """Peetre K-functional inf_g ||f-g||_p + delta^alpha sup ||D^alpha g||_p.

    Defined for p >= 1 only (it collapses to zero for p < 1 and is
    refused there).  The infimum is taken over a fixed candidate set:
    smooth bandlimited projections and Gaussian mollifications of f at
    scales tied to delta, plus f itself and zero.
    """
    order = SmoothnessOrder.parse(alpha)
    p = Exponent.parse(p)
    if p.p < 1:
        raise ParameterError("K-functional degenerates for p < 1; use realization")
    delta = float(step_sizes(delta))
    candidates = [f, GridFunction(f.grid, np.zeros(f.grid.shape))]
    for scale in K_SCALES:
        sigma = scale / delta
        if 0 < sigma <= f.grid.nyquist:
            candidates.append(apply_symbol(f, band_windows(f.grid, sigma)["smooth"]))
    mag2 = sum(w ** 2 for w in f.grid.frequencies())
    for scale in K_SCALES:
        # past t = 1000 L the Gaussian is already 1 at the zero mode and 0 at
        # every other one, so the cap moves no value and keeps t^2 |w|^2 finite
        t = min(scale * delta, 1e3 * f.grid.period)
        candidates.append(apply_symbol(f, np.exp(-0.5 * t * t * mag2)))
    return float(min(quasi_norm(f - g, p) + _penalty(g, delta, order, p) for g in candidates))
