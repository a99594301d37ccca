"""Numerical toolkit for fractional moduli of smoothness on periodic grids.

Computes fractional differences and directional derivatives spectrally,
builds bandlimited near-best approximants, evaluates K-functionals and
realizations, and runs a verification harness over a catalogue of
smoothness inequalities.

The package namespace is its modules: ``smoothlab.moduli.modulus``, not
``smoothlab.modulus``.  ``smoothlab.cli`` is not imported here; import it
on its own.
"""

from . import approx, corpus, errors, grid, moduli, spectral, verify

__version__ = "0.1.0"
