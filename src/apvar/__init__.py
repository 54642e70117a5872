"""Variance of arithmetic sequences in arithmetic progressions.

Desk-scale toolkit for the lower-bound method linking the variance of a
sequence over residue classes to minor-arc integrals of its exponential
sum, with exact identity checks, exact arc integrals, smooth sieve
windows, and Euler-product residue predictions.
"""

__version__ = "0.1.0"

from .arith import (CapacityError, Sequence, SieveTable, load_sequence,
                    ramanujan_sum, sieve_all)
from .circle import (ArcSystem, Spectrum, arc_masses, build_spectrum,
                     minor_arc_integral)
from .pipeline import (BoundReport, ExperimentConfig, resolve_params,
                       run_theorem1, run_theorem2)
from .variance import (check_identity_prop1, exp_variance_H, variance_mod_q,
                       variance_sweep, variance_total)
from .windows import SmoothWindow, WeightSet, build_weights, build_window

__all__ = [
    "ArcSystem", "BoundReport", "CapacityError", "ExperimentConfig",
    "Sequence", "SieveTable", "SmoothWindow", "Spectrum", "WeightSet",
    "arc_masses", "build_spectrum", "build_weights", "build_window", "check_identity_prop1",
    "exp_variance_H", "load_sequence", "minor_arc_integral",
    "ramanujan_sum", "resolve_params", "run_theorem1", "run_theorem2",
    "sieve_all", "variance_mod_q", "variance_sweep", "variance_total",
]
