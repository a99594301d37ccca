"""Built-in test functions with known analytic structure.

Each entry is a profile centered at the origin together with whatever
closed forms it has (continuum Fourier transform, band radius, tail
bounds).  Grid realizations are periodizations over the torus; for an
entry with both a transform and a band radius (fejer and fejer2d) the
periodization is built directly from the exact Fourier coefficients,
which is the same sum evaluated in closed form, and synthesized with
``spectral.synthesize``.

``DESK_1D`` and ``DESK_2D`` are the desk scales {N, L} of every entry
without a period of its own; ``verify.DEFAULTS`` reads them.
``grid_function`` builds a new realization on every call and caches
nothing: ``verify.Workbench.fn`` keeps the one object a run shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, TorusGrid, periodize
from .spectral import synthesize

DESK_1D = {"N": 1024, "L": 40.0}
DESK_2D = {"N": 256, "L": 20.0}


def _bump(u):
    """C^inf bump: exp(1 - 1/(1-u^2)) on |u| < 1, zero outside."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def _sinc(u):
    return np.sinc(np.asarray(u, dtype=float) / math.pi)  # sin(u)/u


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    dimension: int
    evaluate: object  # callable(coords tuple) -> values
    description: str
    fourier: object = None  # callable(omega arrays) -> profile transform
    band_radius: float | None = None
    m_tail: int = 1
    tail_fn: object = None  # callable(L) -> relative outside mass bound
    period: float | None = None  # override of the desk-scale period

    def tail_bound(self, L: float) -> float:
        if self.tail_fn is None:
            return 0.0
        return float(self.tail_fn(L))


def _gauss_tail(L):
    # a product, not **, so that a huge L gives exp(-inf) = 0, not OverflowError
    return math.exp(-(L / 2.0) * (L / 2.0))


def _support_tail(radius):
    def tail(L):
        return 0.0 if L / 2.0 > radius else 1.0

    return tail


def _make_entries():
    entries = []

    entries.append(
        CorpusEntry(
            name="gaussian",
            dimension=1,
            evaluate=lambda c: np.exp(-c[0] ** 2),
            fourier=lambda w: math.sqrt(math.pi) * np.exp(-np.asarray(w) ** 2 / 4.0),
            description="Gaussian exp(-x^2)",
            tail_fn=_gauss_tail,
        )
    )
    entries.append(
        CorpusEntry(
            name="mod_gaussian",
            dimension=1,
            evaluate=lambda c: np.exp(3j * c[0]) * np.exp(-c[0] ** 2),
            fourier=lambda w: math.sqrt(math.pi)
            * np.exp(-((np.asarray(w) - 3.0) ** 2) / 4.0),
            description="plane-wave modulated Gaussian exp(3ix - x^2)",
            tail_fn=_gauss_tail,
        )
    )
    entries.append(
        CorpusEntry(
            name="fejer",
            dimension=1,
            evaluate=lambda c: _sinc(2.0 * c[0]) ** 2,
            fourier=lambda w: (math.pi / 2.0)
            * np.clip(1.0 - np.abs(np.asarray(w)) / 4.0, 0.0, None),
            description="squared-sinc kernel dilate, band radius 4",
            band_radius=4.0,
        )
    )
    entries.append(
        CorpusEntry(
            name="bump",
            dimension=1,
            evaluate=lambda c: _bump(c[0]),
            description="C^inf bump supported on [-1, 1]",
            tail_fn=_support_tail(1.0),
            m_tail=1,
        )
    )
    for beta in (0.3, 0.5, 1.5):
        entries.append(
            CorpusEntry(
                name=f"cusp{str(beta).replace('.', '')}",
                dimension=1,
                # |x| capped at 1, where the bump vanishes: |x|^beta of a huge
                # argument would be inf, and inf * 0 nan
                evaluate=(
                    lambda beta: lambda c: np.minimum(np.abs(c[0]), 1.0) ** beta * _bump(c[0])
                )(beta),
                description=f"|x|^{beta} times the bump (cusp at 0)",
                tail_fn=_support_tail(1.0),
                m_tail=1,
            )
        )
    entries.append(
        CorpusEntry(
            name="planewave",
            dimension=1,
            evaluate=lambda c: np.exp(1j * c[0]),
            description="pure frequency exp(ix) on its own period",
            band_radius=1.0,
            m_tail=0,
            period=2.0 * math.pi,
        )
    )
    entries.append(
        CorpusEntry(
            name="gaussian2d",
            dimension=2,
            evaluate=lambda c: np.exp(-(c[0] ** 2 + c[1] ** 2)),
            fourier=lambda w1, w2: math.pi
            * np.exp(-(np.asarray(w1) ** 2 + np.asarray(w2) ** 2) / 4.0),
            description="radial Gaussian exp(-|x|^2)",
            tail_fn=_gauss_tail,
        )
    )
    entries.append(
        CorpusEntry(
            name="bump2d",
            dimension=2,
            evaluate=lambda c: _bump(c[0]) * _bump(c[1]),
            description="tensor C^inf bump",
            tail_fn=_support_tail(1.0),
        )
    )
    entries.append(
        CorpusEntry(
            name="fejer2d",
            dimension=2,
            evaluate=lambda c: _sinc(2.0 * c[0]) ** 2 * _sinc(2.0 * c[1]) ** 2,
            fourier=lambda w1, w2: (math.pi / 2.0) ** 2
            * np.clip(1.0 - np.abs(np.asarray(w1)) / 4.0, 0.0, None)
            * np.clip(1.0 - np.abs(np.asarray(w2)) / 4.0, 0.0, None),
            description="tensor squared-sinc dilate, band radius 4*sqrt(2)",
            band_radius=4.0 * math.sqrt(2.0),
        )
    )
    return tuple(entries)


_ENTRIES = _make_entries()
_BY_NAME = {e.name: e for e in _ENTRIES}


def corpus_list() -> tuple:
    return _ENTRIES


def get_entry(name: str) -> CorpusEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ParameterError(
            f"unknown corpus entry '{name}'; know {sorted(_BY_NAME)}"
        ) from None


def default_scale(entry: CorpusEntry, scale: dict | None = None) -> dict:
    """``scale`` {N, L} (the desk scale of the entry's dimension when None),
    with L pinned to the entry's own period if it has one."""
    scale = dict(scale or (DESK_1D if entry.dimension == 1 else DESK_2D))
    if entry.period is not None:
        scale["L"] = entry.period
    return scale


def _build_spectral(entry: CorpusEntry, grid: TorusGrid) -> GridFunction:
    """Exact periodization of a bandlimited profile from its transform.

    The coefficients of the periodization are F(w_xi)/L^d; the extra
    phase matches the half-period centering used by ``periodize``.
    """
    ws = grid.frequencies()
    L = grid.period
    # coefficients past the double range (a tiny L) are inf or nan, which
    # GridFunction refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coeffs = np.asarray(entry.fourier(*ws), dtype=complex) / L ** grid.dimension
        phase = sum(ws) * (L / 2.0)
        coeffs = coeffs * np.exp(-1j * phase)
    return synthesize(grid, coeffs)


def grid_function(entry, N: int | None = None, L: float | None = None) -> GridFunction:
    """Periodized grid realization of a corpus entry; N and L default to
    its ``default_scale``."""
    if isinstance(entry, str):
        entry = get_entry(entry)
    scale = default_scale(entry)
    grid = TorusGrid(entry.dimension, scale["N"] if N is None else N,
                     float(scale["L"] if L is None else L))
    if entry.fourier is None or entry.band_radius is None:
        return periodize(entry, grid)
    if entry.band_radius > grid.nyquist:
        raise ParameterError("grid cannot hold the declared band")
    return _build_spectral(entry, grid)
