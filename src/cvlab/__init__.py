"""cvlab: a laboratory for resampling-based classifier performance estimators.

The package is organized around five concerns:

- ``core``          domain primitives: stratified two-class datasets, scoring
                    rules, the zero-one loss, and the Mann-Whitney AUC kernel.
- ``resampling``    fold maps as int arrays of fold ids, (n,) or seeded (M, n),
                    and bootstrap replicate generation under two sampling models.
- ``combinatorics`` exact rational identities for bootstrap out-of-bag counts.
- ``estimators``    every cross-validation / bootstrap estimator version and
                    variant, for error rate and AUC.
- ``analysis``      the normalized-MSE decomposition and convergence checks.
- ``simlab``        data generators, reference trainers, and the Monte-Carlo
                    campaigns (weak-correlation table, bootstrap ratio curve).
- ``cli``           config-driven command-line front end.
"""

from cvlab.core import (
    DomainError,
    LabeledPoint,
    ScoringRule,
    StratifiedDataset,
    empirical_auc,
    mw_kernel,
    zero_one_loss,
)
from cvlab.estimators import EstimationError, EstimatorReport

__all__ = [
    "DomainError",
    "EstimationError",
    "EstimatorReport",
    "LabeledPoint",
    "ScoringRule",
    "StratifiedDataset",
    "empirical_auc",
    "mw_kernel",
    "zero_one_loss",
]

__version__ = "0.1.0"
