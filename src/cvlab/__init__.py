"""cvlab: a laboratory for resampling-based classifier performance estimators.

The package is organized in seven modules:

- ``core``          domain primitives: stratified two-class datasets and their
                    label vector, scoring rules, the zero-one loss, the
                    Mann-Whitney AUC kernel (``pairwise_kernel``, doubled to
                    int8 cells), and the CSV reader.
- ``resampling``    fold maps as int arrays of fold ids, the canonical (n,) map
                    or a seeded (M, n) repeated-CV map, and bootstrap replicate
                    generation under two sampling models.
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

__version__ = "0.1.0"
