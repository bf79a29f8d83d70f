"""cvlab: a laboratory for resampling-based classifier performance estimators.

The package is organized in seven modules:

- ``core``          domain primitives: stratified two-class datasets, scoring
                    rules, the zero-one loss, and the Mann-Whitney AUC kernel
                    (``pairwise_kernel``).
- ``resampling``    fold maps as int arrays of fold ids, (n,) or seeded (M, n),
                    and bootstrap replicate generation under two sampling models.
- ``combinatorics`` exact rational identities for bootstrap out-of-bag counts.
- ``estimators``    every cross-validation / bootstrap estimator version and
                    variant, for error rate and AUC: ten public functions over
                    one body, ``variant_values``.
- ``analysis``      the normalized-MSE decomposition of paired (true,
                    estimated) performance.
- ``simlab``        data generators, reference trainers, and the Monte-Carlo
                    campaigns (weak-correlation table, bootstrap ratio curve).
- ``cli``           config-driven command-line front end.
"""

from cvlab.core import (
    DomainError,
    ScoringRule,
    StratifiedDataset,
    empirical_auc,
    pairwise_kernel,
    zero_one_losses,
)
from cvlab.estimators import EstimationError, EstimatorReport

__all__ = [
    "DomainError",
    "EstimationError",
    "EstimatorReport",
    "ScoringRule",
    "StratifiedDataset",
    "empirical_auc",
    "pairwise_kernel",
    "zero_one_losses",
]

__version__ = "0.1.0"
