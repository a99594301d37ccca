"""Numerical toolkit for fractional moduli of smoothness on periodic grids.

Computes fractional differences and directional derivatives spectrally,
builds bandlimited near-best approximants, evaluates K-functionals and
realizations, and runs a verification harness over a catalogue of
smoothness inequalities.
"""

from .approx import (
    ApproximationCurve,
    NearBest,
    approx_curve,
    k_functional,
    near_best,
    realization,
    sup_directional,
)
from .corpus import CorpusEntry, corpus_list, get_entry, grid_function
from .errors import (
    AdmissibilityError,
    HypothesisError,
    ParameterError,
    RegimeError,
    SmoothlabError,
)
from .grid import Exponent, GridFunction, SmoothnessOrder, TorusGrid, quasi_norm
from .moduli import (
    ModulusCurve,
    Step,
    averaged_modulus,
    binom_power_constant,
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
    SpectralFunction,
    bandlimit_project,
    directional_derivative,
    fractional_laplacian,
    interp_V,
    interp_V_2d,
    inverse,
    sharp_project,
    transform,
)
from .verify import (
    InequalityReport,
    UlyanovParams,
    Workbench,
    canonical_json,
    eta_regime,
    make_config,
    run_check,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationCurve",
    "NearBest",
    "approx_curve",
    "k_functional",
    "near_best",
    "realization",
    "sup_directional",
    "CorpusEntry",
    "corpus_list",
    "get_entry",
    "grid_function",
    "AdmissibilityError",
    "HypothesisError",
    "ParameterError",
    "RegimeError",
    "SmoothlabError",
    "Exponent",
    "GridFunction",
    "SmoothnessOrder",
    "TorusGrid",
    "quasi_norm",
    "ModulusCurve",
    "Step",
    "averaged_modulus",
    "binom_power_constant",
    "frac_binomial",
    "frac_difference",
    "mixed_modulus",
    "modulus",
    "modulus_curve",
    "partial_modulus",
    "sobolev_seminorm",
    "Direction",
    "SpectralFunction",
    "bandlimit_project",
    "directional_derivative",
    "fractional_laplacian",
    "interp_V",
    "interp_V_2d",
    "inverse",
    "sharp_project",
    "transform",
    "InequalityReport",
    "UlyanovParams",
    "Workbench",
    "canonical_json",
    "eta_regime",
    "make_config",
    "run_check",
    "verify_all",
]
