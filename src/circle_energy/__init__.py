"""Numerical toolkit for weighted conformal energies of circle homeomorphisms.

Given an orientation-preserving circle homeomorphism phi (stored through its
lift) and an exponent lambda > -1, the package evaluates five truncated
quantities whose simultaneous finiteness or divergence the analysis report
checks against each other:

  (i)   Orlicz-type disk energy of the harmonic extension,
  (ii)  disk energy weighted by a boundary-distance logarithm,
  (iii) the double integral of |log|phi^-1(xi) - phi^-1(eta)||^(lambda+1)
        over S x S,
  (iv)  a dyadic sum of squared image arc lengths with weight j^lambda,
  (v)   the same sum with weight log^lambda(e + l * 2^j) per arc of length l.

Supporting machinery: dyadic/Whitney/annular decompositions of the circle
and disk, N-function (Orlicz) utilities with a discrete maximal operator,
and chord-arc versus internal chord-arc constants of polygonal domains,
including an inward-cusp example separating the two.
"""

from .analyzer import AnalysisConfig, analyze, sweep
from .chordarc import (CUSP_JUNCTION_X, PairSampler, PolygonDomain,
                       chordarc_constant, cusp_domain,
                       internal_chordarc_constant, load_vertices,
                       regular_polygon, save_vertices)
from .circle_map import CircleHomeomorphism, catalog
from .dyadic import (AnnularDecomposition, DyadicArc, WhitneyCell,
                     annular_decomposition, arcs_at_level, inducer_counts,
                     inducers, whitney_cell, whitney_cells_up_to,
                     whitney_covering_constant)
from .energy import (EnergyReport, chi_bound, classify_convergence,
                     classify_sequence, comparability_split, dyadic_energy_iv,
                     dyadic_energy_v, make_report)
from .errors import (CircleEnergyError, ConvergenceError, DomainError,
                     InsufficientDataError, NumericalError,
                     ResourceGuardError, ValidationError)
from .logkernel import (LogIntegralResult, band_weight, interval_weight,
                        lambda_weight, log_energy_direct, log_energy_dyadic,
                        sublevel_arc_measure)
from .orlicz import (ComplementaryPair, GridField, MaximalTestResult,
                     NFunction, check_kr_criterion, complementary_pair,
                     delta2_constant, doubling_window, field_from_extension,
                     log_weighted_square, maximal_field, maximal_on_grid,
                     orlicz_maximal_test)
from .poisson import DerivativePair, HarmonicExtension, operator_norm
from .report import (SCHEMA_VERSION, load_report, render_report,
                     validate_report, write_report)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "AnnularDecomposition", "CheckResult",
    "CircleEnergyError", "CircleHomeomorphism", "ComplementaryPair",
    "ConvergenceError", "CUSP_JUNCTION_X", "DerivativePair", "DomainError",
    "DyadicArc", "EnergyReport", "GridField", "HarmonicExtension",
    "InsufficientDataError", "LogIntegralResult", "MaximalTestResult",
    "NFunction", "NumericalError", "PairSampler", "PolygonDomain",
    "ResourceGuardError", "SCHEMA_VERSION", "ValidationError", "WhitneyCell",
    "analyze", "annular_decomposition", "arcs_at_level", "band_weight",
    "catalog", "check_kr_criterion", "chi_bound", "chordarc_constant",
    "classify_convergence", "classify_sequence", "comparability_split",
    "complementary_pair", "cusp_domain", "delta2_constant",
    "doubling_window", "dyadic_energy_iv", "dyadic_energy_v",
    "field_from_extension", "inducer_counts", "inducers", "interval_weight",
    "lambda_weight", "load_report", "load_vertices", "log_energy_direct",
    "log_energy_dyadic", "log_weighted_square", "make_report",
    "maximal_field", "maximal_on_grid", "operator_norm",
    "orlicz_maximal_test", "regular_polygon", "render_report", "run_suite",
    "save_vertices", "sublevel_arc_measure", "sweep", "validate_report",
    "whitney_cell", "whitney_cells_up_to", "whitney_covering_constant",
    "write_report",
]
