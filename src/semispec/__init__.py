"""semispec: spectra of 1-D non-selfadjoint semiclassical operators
f + i*eps*q via truncated matrix quantization, checked against the
Bohr-Sommerfeld predictions generated by complex action integrals.
"""

__version__ = "0.1.0"

from .action import (ActionMap, QuantizationPrediction, Rectangle,
                     predict_spectrum)
from .circle_quantize import quantize_circle
from .compare import MatchedPair, PairingSummary, pair_spectra
from .eig import SpectrumResult, eigenvalues, eigenvalues_of
from .errors import (BranchCutError, ConfigError, CriticalLevelError,
                     DegeneracyError, DomainError, InversionError,
                     LevelSetError, NumericError, NumericRangeError,
                     PipelineError, SemispecError, SolverError)
from .experiments import (ComparisonReport, ExperimentConfig,
                          ExperimentResult, PTReport, pt_verify,
                          reproduce_figures, run_experiment)
from .fock_quantize import LadderPair, ladder, quantize_plane, weyl_monomial
from .grammar import (format_circle, format_plane, parse_circle, parse_plane,
                      parse_symbol)
from .operators import Basis, TruncatedOperator
from .symbols import (CircleSymbol, PlaneSymbol, eval_circle, eval_plane,
                      pt_symmetry_check, theta_average)

__all__ = [
    "ActionMap", "Basis", "BranchCutError", "CircleSymbol",
    "ComparisonReport", "ConfigError", "CriticalLevelError",
    "DegeneracyError", "DomainError", "ExperimentConfig",
    "ExperimentResult", "InversionError", "LadderPair", "LevelSetError",
    "MatchedPair", "NumericError", "NumericRangeError", "PTReport",
    "PairingSummary", "PipelineError", "PlaneSymbol",
    "QuantizationPrediction", "Rectangle", "SemispecError",
    "SolverError", "SpectrumResult", "TruncatedOperator",
    "eigenvalues", "eigenvalues_of", "eval_circle",
    "eval_plane", "format_circle", "format_plane",
    "ladder", "pair_spectra", "parse_circle",
    "parse_plane", "parse_symbol", "predict_spectrum", "pt_symmetry_check",
    "pt_verify", "quantize_circle", "quantize_plane", "reproduce_figures",
    "run_experiment", "theta_average", "weyl_monomial",
]
