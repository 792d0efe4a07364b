"""Strategic network formation with misclassified links.

Solves symmetric equilibrium beliefs, simulates latent and recorded
networks, corrects the observed statistics for misclassification, and
inverts a quadratic-form test into confidence sets for the structural
parameters.  A semiparametric membership checker and a Monte Carlo harness
round out the toolkit.
"""

from .equilibrium import (
    BeliefMatrix,
    SolverConfig,
    simulate_true_network,
    solve_equilibrium,
)
from .estimation import (
    CellEstimates,
    Dataset,
    MomentEvaluator,
    cell_estimates,
)
from .exceptions import (
    ConfigError,
    DegenerateVariance,
    EmptyCell,
    EmptySet,
    FileFormatError,
    InvalidRates,
    MisnetError,
    NonConvergence,
    TooManyFailures,
)
from .inference import (
    ConfidenceSet,
    ThetaGrid,
    chi2_quantile,
    confidence_set,
    projection_intervals,
)
from .misclassification import apply_misclassification, population_correction
from .model import (
    CovariateSupport,
    Network,
    PairCovariates,
    Theta,
)
from .semiparametric import CellSummary, cell_summary, identified_set, membership

__version__ = "0.1.0"

__all__ = [
    "BeliefMatrix",
    "CellEstimates",
    "CellSummary",
    "ConfidenceSet",
    "ConfigError",
    "CovariateSupport",
    "Dataset",
    "DegenerateVariance",
    "EmptyCell",
    "EmptySet",
    "FileFormatError",
    "InvalidRates",
    "MisnetError",
    "MomentEvaluator",
    "Network",
    "NonConvergence",
    "PairCovariates",
    "SolverConfig",
    "Theta",
    "ThetaGrid",
    "TooManyFailures",
    "apply_misclassification",
    "cell_estimates",
    "cell_summary",
    "chi2_quantile",
    "confidence_set",
    "identified_set",
    "membership",
    "population_correction",
    "projection_intervals",
    "simulate_true_network",
    "solve_equilibrium",
]
