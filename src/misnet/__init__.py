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
    draw_network,
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
    FileFormatError,
    InvalidRates,
    MisnetError,
    NonConvergence,
    TooManyFailures,
)
from .inference import (
    ThetaGrid,
    chi2_quantile,
    confidence_set,
)
from .misclassification import apply_misclassification, population_correction
from .model import (
    CovariateSupport,
    Network,
    PairCovariates,
    Theta,
)
from .semiparametric import identified_set

__version__ = "0.1.0"

__all__ = [
    "BeliefMatrix",
    "CellEstimates",
    "ConfigError",
    "CovariateSupport",
    "Dataset",
    "DegenerateVariance",
    "EmptyCell",
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
    "chi2_quantile",
    "confidence_set",
    "draw_network",
    "identified_set",
    "population_correction",
    "solve_equilibrium",
]
