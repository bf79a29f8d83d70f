"""Data generators, reference trainers, and the Monte-Carlo campaigns.

Two campaigns are provided:

- :func:`run_weak_correlation` draws many training sets from a two-class
  multinormal model, and for each one records the true conditional
  performance S (scored on a fresh pseudo-infinite test set), the apparent
  (resubstitution) performance Sbar, and a resampling estimate Shat.  The
  aggregated rows quantify how weakly the estimate correlates with the
  conditional truth.
- :func:`run_ratio_curve` measures the ratio between the two leave-one-out
  bootstrap error variants against sample size on a one-dimensional
  two-normal problem (unit variances, means 0 and 1), next to the published
  (2n-2)/(2n-1) closed form.  That column is the published curve, not the
  B -> infinity limit of this estimator's ratio: the exact mean of the
  out-of-bag weight is Pr[a_b != 0] (see :mod:`cvlab.combinatorics`), and
  at n1 = 5 under multiset sampling the enumerated limit is about 0.991
  against 18/19 = 0.947.

Both campaigns run their units (trials, or (n1, seed) pairs) across the CPUs
this process may use, through a fork map (:func:`_map_units`: one forked
worker per CPU, each sending its values down its own pipe), and read the
results in unit order, so every table and curve is the same, bit for bit, on
any number of CPUs.  While the workers run, OpenBLAS is held to one thread,
set before the fork so that every worker inherits it: a worker's BLAS helper
thread would otherwise spin against the other workers.  Where no OpenBLAS
thread control is found, the units run inline.

Data model: class 1 is N(0, I_p), class 2 is N(c * 1, I_p) with
c = delta / sqrt(p), so the Mahalanobis separation is delta and the
population AUC of the Bayes direction is Phi(delta / sqrt(2)).

Both reference trainers are linear:

- nearest-mean:  w = m2 - m1
- LDA:           w = (pooled covariance + ridge I)^(-1) (m2 - m1)

with score(x) = w . (x - (m1+m2)/2), so threshold 0 is the natural midpoint.
Each also implements the ``weighted_scores`` batch hook that every estimator
trains through (:func:`cvlab.estimators.task_scores`): given a (tasks, n)
matrix of observation weights, 0/1 for a fold task and replicate
multiplicities for a bootstrap one, it trains every task's rule and scores
all evaluation points in a few vectorized operations.
"""

from __future__ import annotations

import contextlib
import ctypes
import inspect
import math
import os
import pickle
from dataclasses import dataclass, replace
from typing import Iterator, NoReturn

import numpy as np

from cvlab import analysis, estimators
from cvlab.core import (
    DomainError,
    LinearScoringRule,
    ScoringRule,
    StratifiedDataset,
    Trainer,
    empirical_auc,
    zero_one_losses,
)
from cvlab.combinatorics import expected_oob_weight
from cvlab.estimators import (
    EstimationError,
    EstimatorConfig,
    Metric,
    Variant,
    Version,
)
from cvlab.resampling import SamplingModel, derive_rng, derive_seed, derive_seeds


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class MultinormalSpec:
    """Two-class multinormal model with identity covariances.

    ``delta`` is the Mahalanobis distance between the class means; the class-2
    mean is the constant vector c * 1 with c = delta / sqrt(p).
    """

    p: int
    delta: float
    n1: int
    n2: int

    def __post_init__(self):
        if self.p < 1:
            raise DomainError("p must be >= 1")
        if not 0 <= self.delta < math.inf:
            raise DomainError("delta must be finite and >= 0")
        if self.n1 < 1 or self.n2 < 1:
            raise DomainError("class sizes must be >= 1")

    @property
    def offset(self) -> float:
        """Per-coordinate mean shift c = delta / sqrt(p) of class 2."""
        return self.delta / math.sqrt(self.p)

    @property
    def population_auc(self) -> float:
        """AUC of the optimal direction in the infinite-sample limit.

        A linear rule w has conditional AUC Phi(w . (mu2 - mu1) / (sqrt(2) |w|)),
        which by Cauchy-Schwarz is at most this value, so the mean S of rules
        trained on finite samples stays below it.
        """
        return normal_cdf(self.delta / math.sqrt(2.0))

    def sample(self, n1: int, n2: int, rng: np.random.Generator) -> StratifiedDataset:
        class1 = rng.normal(0.0, 1.0, size=(n1, self.p))
        class2 = rng.normal(self.offset, 1.0, size=(n2, self.p))
        return StratifiedDataset(class1, class2)


def gen_multinormal(spec: MultinormalSpec, seed: int) -> StratifiedDataset:
    """Draw the spec's training set; deterministic per seed."""
    return spec.sample(spec.n1, spec.n2, derive_rng(seed, "data"))


def _weighted_class_moments(X, labels, counts):
    counts = np.asarray(counts, dtype=float)
    m1 = labels == 1
    m2 = labels == 2
    n1 = counts[:, m1].sum(axis=1)
    n2 = counts[:, m2].sum(axis=1)
    if np.any(n1 <= 0) or np.any(n2 <= 0):
        raise EstimationError("weighted batch: a replicate lost one class")
    mean1 = counts[:, m1] @ X[m1] / n1[:, None]
    mean2 = counts[:, m2] @ X[m2] / n2[:, None]
    return n1, n2, mean1, mean2


def _linear_batch_scores(directions, mean1, mean2, X_eval):
    mid = 0.5 * (mean1 + mean2)
    scores = directions @ X_eval.T
    scores -= (directions * mid).sum(axis=1, keepdims=True)
    return scores


class NearestMeanTrainer(Trainer):
    """Linear rule along the difference of the class sample means."""

    name = "nearest-mean"

    def train(self, dataset: StratifiedDataset) -> ScoringRule:
        m1 = dataset.class1.mean(axis=0)
        m2 = dataset.class2.mean(axis=0)
        w = m2 - m1
        return LinearScoringRule(w, -float(w @ (m1 + m2)) / 2.0)

    def weighted_scores(self, X, labels, counts, X_eval) -> np.ndarray:
        _, _, mean1, mean2 = _weighted_class_moments(X, labels, counts)
        return _linear_batch_scores(mean2 - mean1, mean1, mean2, np.asarray(X_eval, dtype=float))


class LdaTrainer(Trainer):
    """Fisher rule with pooled covariance (divide by n1+n2-2) plus a ridge.

    ``train`` and the batched ``weighted_scores`` share one fit rule
    (``_directions``), with n1+n2 the number of observations a task trains
    on: for the batch, each task's summed weights, the size of the subset
    ``train`` would see.  Either fit refuses fewer than three observations,
    and, without a ridge, n1+n2-2 < p, where the pooled covariance is
    singular.
    """

    def __init__(self, ridge: float = 0.0):
        self.ridge = float(ridge)
        if not 0 <= self.ridge < math.inf:
            raise DomainError("ridge must be finite and >= 0")

    @property
    def name(self) -> str:
        return f"lda(ridge={self.ridge:g})"

    def _directions(self, scatter, total, diff) -> np.ndarray:
        """Solutions of (scatter / (total - 2) + ridge I) w = diff, one per
        leading index of ``scatter`` ((..., p, p), overwritten) and ``diff``
        ((..., p)); ``total`` is the observation count of each fit."""
        total = np.asarray(total, dtype=float)
        p = diff.shape[-1]
        if np.any(total < 3):
            raise EstimationError("lda needs at least three observations")
        if self.ridge == 0.0 and np.any(total - 2 < p):
            raise EstimationError("pooled covariance is singular; set a ridge")
        scatter /= (total - 2.0)[..., None, None]
        scatter += self.ridge * np.eye(p)
        try:
            directions = np.linalg.solve(scatter, diff[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise EstimationError(f"singular pooled covariance: {exc}") from exc
        if not np.all(np.isfinite(directions)):
            raise EstimationError("lda produced non-finite coefficients")
        return directions

    def train(self, dataset: StratifiedDataset) -> ScoringRule:
        m1 = dataset.class1.mean(axis=0)
        m2 = dataset.class2.mean(axis=0)
        c1 = dataset.class1 - m1
        c2 = dataset.class2 - m2
        w = self._directions(c1.T @ c1 + c2.T @ c2, dataset.n, m2 - m1)
        return LinearScoringRule(w, -float(w @ (m1 + m2)) / 2.0)

    def weighted_scores(self, X, labels, counts, X_eval) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        counts = np.asarray(counts, dtype=float)  # the estimators pass float64: no copy
        n1, n2, mean1, mean2 = _weighted_class_moments(X, labels, counts)
        # One (B, p, p) buffer updated in place: second moments, scatter, covariance.
        # The second moments are one GEMM: counts (B, n) @ outer products (n, p*p).
        # Each class's n_k m_k m_k^T is subtracted one row of p at a time, as
        # (n_k m_ki) m_kj, so no second (B, p, p) array is made.  The buffer is
        # dropped once the directions are solved, before the scores are made.
        n, p = X.shape
        cov = (counts @ (X[:, :, None] * X[:, None, :]).reshape(n, p * p)).reshape(-1, p, p)
        for size, mean in ((n1, mean1), (n2, mean2)):
            scaled = size[:, None] * mean
            for i in range(p):
                cov[:, i, :] -= scaled[:, i, None] * mean
        directions = self._directions(cov, counts.sum(axis=1), mean2 - mean1)
        del cov
        return _linear_batch_scores(directions, mean1, mean2, np.asarray(X_eval, dtype=float))


_TRAINERS = {"nearest-mean": NearestMeanTrainer, "lda": LdaTrainer}


def trainer_from_id(trainer_id: str, params: dict | None = None) -> Trainer:
    """The built-in trainer ``trainer_id`` ('lda', 'nearest-mean'), made with
    the keys of ``params`` other than ``id`` as keywords.  A key its class
    does not take is a :class:`DomainError` naming it
    (``nearest-mean does not take 'ridge'``), as is an unknown id."""
    try:
        cls = _TRAINERS[trainer_id]
    except KeyError:
        raise DomainError(
            f"unknown trainer '{trainer_id}' (known: {sorted(_TRAINERS)})"
        ) from None
    kwargs = {k: v for k, v in (params or {}).items() if k != "id"}
    taken = inspect.signature(cls).parameters
    for key in kwargs:
        if key not in taken:
            raise DomainError(f"{trainer_id} does not take '{key}'")
    return cls(**kwargs)


def true_conditional_performance(
    rule: ScoringRule,
    spec: MultinormalSpec,
    test_per_class: int,
    seed: int,
    metric: Metric = Metric.AUC,
    th: float = 0.0,
) -> float:
    """Performance of one trained rule on a fresh pseudo-infinite test draw."""
    if test_per_class < 1:
        raise DomainError("test_per_class must be >= 1")
    test = spec.sample(test_per_class, test_per_class, derive_rng(seed, "test"))
    return _performance_on(rule, test, metric, th)


def _performance_on(rule: ScoringRule, data: StratifiedDataset, metric: Metric, th: float) -> float:
    s1 = rule.score_many(data.class1)
    s2 = rule.score_many(data.class2)
    if metric is Metric.AUC:
        return empirical_auc(s1, s2)
    return float(zero_one_losses(np.concatenate([s1, s2]), data.labels, th).mean())


def apparent_performance(
    rule: ScoringRule, dataset: StratifiedDataset, metric: Metric = Metric.AUC, th: float = 0.0
) -> float:
    """Resubstitution performance: score the training set itself."""
    return _performance_on(rule, dataset, metric, th)


DEFAULT_ESTIMATOR = EstimatorConfig(
    version=Version.LOOB,
    metric=Metric.AUC,
    variant=Variant.PARTITIONED,
    n_bootstrap=200,
    sampling=SamplingModel.ORDERED,
)


@dataclass(frozen=True)
class WeakCorrConfig:
    """Configuration of one weak-correlation campaign.

    Checked when it is made, so a bad campaign is refused before its first
    trial: the trial and test counts, and the spec's class sizes against the
    estimator (``estimators._checked_parts``: AUC needs two of each class,
    and a fold count must divide the observations it splits)."""

    spec: MultinormalSpec
    trials: int
    test_per_class: int
    trainer: Trainer
    estimator: EstimatorConfig = DEFAULT_ESTIMATOR
    seed: int = 0

    def __post_init__(self):
        if self.trials < 2:
            raise DomainError("trials must be >= 2")
        if self.test_per_class < 1:
            raise DomainError("test_per_class must be >= 1")
        estimators._checked_parts(self.estimator, self.spec.n1, self.spec.n2)


@dataclass(frozen=True)
class ExperimentRow:
    """One row of the campaign table (role is S, Sbar or Shat)."""

    role: str
    mean: float
    sigma: float
    rms_cond: float
    rms_mean: float
    rho: float
    n: int


@dataclass(frozen=True, eq=False)
class WeakCorrResult:
    rows: tuple[ExperimentRow, ExperimentRow, ExperimentRow]
    triples: np.ndarray  # (trials, 3): S, Sbar, Shat
    decomposition: analysis.DecompositionReport  # of Shat against S
    aborted: int


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_thread_controls() -> list:
    """(get, set) thread-count functions of each OpenBLAS this process has loaded.

    A library is found by its path in /proc/self/maps and opened with ctypes,
    which only takes another handle to a library already loaded.  Its pair is
    looked up by name: that of numpy's bundled scipy-openblas (64-bit
    integers), then that of a plain OpenBLAS.  Empty where there is no such
    file, as off Linux, or no library with either pair.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in maps}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in (
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"),
        ):
            pair = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if None not in pair:
                controls.append(pair)
                break
    return controls


def _run_share(unit, indices: range, sink) -> NoReturn:
    """A fork map worker: pickles ``(unit(i),)``, or None where it raised, of
    each index into ``sink`` in one list, and leaves by ``os._exit``, so it
    runs no ``atexit`` handler and flushes no stdio buffer it inherited."""
    try:
        values = []
        for i in indices:
            try:
                values.append((unit(i),))
            except Exception:
                values.append(None)
        pickle.dump(values, sink)
        sink.flush()
    finally:
        os._exit(0)


def _map_units(unit, count: int) -> Iterator:
    """``unit(0), ..., unit(count - 1)``, the units run across the CPUs this
    process may use.

    The units run in a fork map: W = min(CPUs, count) workers forked in the
    call, worker w running units w, w + W, ... and pickling their values
    down its own pipe.  Workers inherit ``unit`` and all it refers to (as
    with any fork, a caller's other threads must not hold locks meanwhile).
    The pipes are read in worker order, each worker reaped after its pipe,
    and the values in unit order, so the caller sees the serial values, bit
    for bit.  A unit that raised in a worker runs again here when its turn
    is read, to raise its own exception, as does every unit of a worker
    that died (say, by the OOM killer) or whose values could not be sent.
    On a raise, every worker not yet reaped is killed and reaped.

    While the workers run, every loaded OpenBLAS runs one thread.  The count
    is set in this process before the fork, so that workers inherit it, and
    set back on return and on raise.  A worker's BLAS helper thread would
    spin against the other workers, and a count set inside a worker makes
    OpenBLAS re-create its thread pool, which spins the same way.  So where
    there is one usable CPU, one unit, or no OpenBLAS thread control, the
    units run inline, as they are read.
    """
    workers = min(_usable_cpus(), count)
    blas = _blas_thread_controls() if workers > 1 else []
    if not blas:
        return map(unit, range(count))
    threads = [get() for get, _ in blas]
    for _, set_threads in blas:
        set_threads(1)
    pipes, pids = [], []  # read ends; workers not yet reaped
    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as sink:
                pid = os.fork()
                if not pid:
                    _run_share(unit, range(w, count, workers), sink)
            pids.append(pid)
        results = [None] * count
        for w, pipe in enumerate(pipes):
            with contextlib.suppress(Exception):  # a worker died, or its values cannot be read
                results[w::workers] = pickle.load(pipe)
            os.waitpid(pids.pop(0), 0)
    except BaseException:
        import signal  # here, not at the top: it costs every CLI call about 0.07 MB

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for (_, set_threads), old in zip(blas, threads):
            set_threads(old)
    return (unit(i) if r is None else r[0] for i, r in enumerate(results))


def run_weak_correlation(config: WeakCorrConfig) -> WeakCorrResult:
    """Run the campaign: per trial, draw / train / score S, Sbar and Shat.

    Trial t draws its data, its test set and its estimate from the seeds
    ``derive_seed(config.seed, tag, t)`` of the tags "trial-data",
    "trial-test" and "trial-est", each tag's seeds derived for all trials in
    one pass.  Trials whose estimator run fails are dropped and counted; the
    run aborts if more than 1% of trials fail.

    The trials run across the CPUs this process may use, in a fork map
    with OpenBLAS held to one thread per worker (see :func:`_map_units`);
    they run inline where there is one CPU or no OpenBLAS thread control.
    Their values are read in trial order, so the table and the triples are
    the same, bit for bit, either way.  A trial that fails other than in
    its estimator raises, the first such trial in trial order.
    """
    spec = config.spec
    metric = config.estimator.metric
    th = config.estimator.th
    trials = np.arange(config.trials)
    seeds = list(zip(*(
        derive_seeds(config.seed, [tag] * config.trials, trials).tolist()
        for tag in ("trial-data", "trial-test", "trial-est")
    )))

    def trial(t):
        """(S, Sbar, Shat) of trial t, or None where its estimator failed."""
        data_seed, test_seed, est_seed = seeds[t]
        dataset = gen_multinormal(spec, data_seed)
        rule = config.trainer.train(dataset)
        s_true = true_conditional_performance(
            rule, spec, config.test_per_class, test_seed, metric, th,
        )
        s_bar = apparent_performance(rule, dataset, metric, th)
        est_cfg = replace(config.estimator, seed=est_seed)
        try:
            s_hat = estimators.run(dataset, config.trainer, est_cfg).value
        except EstimationError:
            return None
        return s_true, s_bar, s_hat

    triples = [r for r in _map_units(trial, config.trials) if r is not None]
    aborted = config.trials - len(triples)
    if aborted > 0.01 * config.trials:
        raise EstimationError(
            f"{aborted}/{config.trials} trials aborted (more than 1%)"
        )
    arr = np.array(triples, dtype=float)
    reports = [
        analysis.decompose(analysis.PairedPerformanceSample(s=arr[:, 0], s_hat=values))
        for values in arr.T
    ]
    rows = tuple(
        ExperimentRow(
            role, rep.mean_s_hat, rep.sigma_s_hat, rep.rms_cond, rep.rms_mean,
            float("nan") if rep.rho is None else rep.rho, spec.n1 + spec.n2,
        )
        for role, rep in zip(("S", "Sbar", "Shat"), reports)
    )
    return WeakCorrResult(rows=rows, triples=arr, decomposition=reports[2], aborted=aborted)


@dataclass(frozen=True)
class RatioPoint:
    """One grid point of the bootstrap-variant ratio curve."""

    n1: int
    ratio_empirical: float
    ratio_theory: float
    model: SamplingModel


def _ratio_curve_spec(n1: int) -> MultinormalSpec:
    """The multinormal model at p = 1, delta = 1, with n1 points in each class."""
    return MultinormalSpec(p=1, delta=1.0, n1=n1, n2=n1)


def ratio_curve_dataset(n1: int, seed: int) -> StratifiedDataset:
    """One-dimensional two-normal draw (means 0 and 1, unit variance): the
    multinormal model at p = 1, delta = 1, with n1 points in each class."""
    return _ratio_curve_spec(n1).sample(n1, n1, derive_rng(seed, "ratio-data"))


def run_ratio_curve(
    n1_grid,
    trainer: Trainer,
    n_bootstrap: int,
    model: SamplingModel,
    seeds,
) -> list[RatioPoint]:
    """Bootstrap-variant error ratio vs class size, averaged over the seeds.

    For each n1 (with n2 = n1), every seed draws a fresh dataset; one
    :func:`cvlab.estimators.variant_values` call with a LOOB error config
    (threshold 0, seed ``derive_seed(seed, "ratio-est")``) trains its B
    replicates once and returns both variants.  That config is made once,
    without a seed, and each grid n1 is checked as a dataset spec, before the
    first unit runs: so a bad B or n1 is refused at once, and each unit sets
    only the seed.  The ratio is the seed-mean of the partitioned variant
    over the seed-mean of the pooled variant.
    ``ratio_theory`` is the published closed form (2n-2)/(2n-1) with
    n = 2*n1, reported for comparison; it is not the B -> infinity limit of
    ``ratio_empirical``, which lies above it.

    The (n1, seed) units are independent, and run across the CPUs this
    process may use, in a fork map with OpenBLAS held to one thread per
    worker (see :func:`_map_units`); they run inline where there is one
    CPU, one unit, or no OpenBLAS thread control.  Each n1's units are read
    when its turn comes, in unit order (grid, then seeds), into one
    (seeds, 2) array, and each variant's mean is taken over its own column,
    so every mean sees the same floats in the same order either way.  The
    first failing unit in that order raises its own exception, unless an
    earlier n1's pooled mean is zero, which raises first.
    """
    n1_grid = list(n1_grid)
    seeds = list(seeds)
    if not n1_grid or not seeds:
        raise DomainError("both the n1 grid and the seed list must be non-empty")
    cfg = EstimatorConfig(Version.LOOB, Metric.ERROR, n_bootstrap=n_bootstrap, sampling=model)
    for n1 in n1_grid:
        _ratio_curve_spec(n1)

    units = [(n1, seed) for n1 in n1_grid for seed in seeds]

    def unit(index):
        n1, seed = units[index]
        dataset = ratio_curve_dataset(n1, seed)
        est_cfg = replace(cfg, seed=derive_seed(seed, "ratio-est"))
        values = estimators.variant_values(dataset, trainer, est_cfg)
        return values.pick(Variant.POOLED)[0], values.pick(Variant.PARTITIONED)[0]

    results = _map_units(unit, len(units))
    points = []
    for n1 in n1_grid:
        values = np.array([next(results) for _ in seeds], dtype=float)
        pooled_mean, partitioned_mean = (float(column.mean()) for column in values.T)
        if pooled_mean == 0.0:
            raise EstimationError(f"n1={n1}: pooled error mean is zero, ratio undefined")
        points.append(
            RatioPoint(
                n1=int(n1),
                ratio_empirical=partitioned_mean / pooled_mean,
                ratio_theory=float(expected_oob_weight(2 * int(n1))),
                model=model,
            )
        )
    return points
