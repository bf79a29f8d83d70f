import math
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cvlab import estimators, simlab
from cvlab.core import (
    DomainError,
    LinearScoringRule,
    ScoringRule,
    StratifiedDataset,
    Trainer,
)
from cvlab.estimators import (
    EstimationError,
    EstimatorConfig,
    Metric,
    Variant,
    Version,
)
from cvlab.resampling import SamplingModel, derive_seed
from cvlab.simlab import (
    LdaTrainer,
    MultinormalSpec,
    NearestMeanTrainer,
    WeakCorrConfig,
    apparent_performance,
    gen_multinormal,
    ratio_curve_dataset,
    run_ratio_curve,
    run_weak_correlation,
    trainer_from_id,
    true_conditional_performance,
)
from oracles import children_left

TABLE_SPEC = MultinormalSpec(p=5, delta=0.8, n1=10, n2=10)


def normal_cdf(z: float) -> float:
    """Phi(z), the standard normal distribution function."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _bivariate_normal_orthant(a: float, rho: float) -> float:
    """Pr[Z1 < a, Z2 < a] for standard normals with correlation rho, by
    trapezoid quadrature of phi(x) Phi((a - rho x) / sqrt(1 - rho^2))."""
    x = np.linspace(-12.0, a, 40_001)
    inner = np.array([normal_cdf(v) for v in (a - rho * x) / math.sqrt(1.0 - rho * rho)])
    y = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * inner
    return float(((y[:-1] + y[1:]) * 0.5 * np.diff(x)).sum())


class TestMultinormalSpec:
    def test_offset_is_delta_over_sqrt_p(self):
        assert TABLE_SPEC.offset == pytest.approx(0.8 / math.sqrt(5), abs=1e-12)
        assert TABLE_SPEC.offset == pytest.approx(0.3578, abs=5e-5)

    def test_validation(self):
        with pytest.raises(DomainError):
            MultinormalSpec(p=0, delta=1.0, n1=2, n2=2)
        for delta in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                MultinormalSpec(p=2, delta=delta, n1=2, n2=2)

    def test_sample_separation_matches_delta(self):
        # Mahalanobis cross-check on a large draw: with identity covariance
        # the distance is just the norm of the mean difference
        spec = MultinormalSpec(p=5, delta=0.8, n1=500_000, n2=500_000)
        ds = gen_multinormal(spec, seed=7)
        diff = ds.class2.mean(axis=0) - ds.class1.mean(axis=0)
        assert np.linalg.norm(diff) == pytest.approx(0.8, abs=0.01)


class TestGenMultinormal:
    def test_deterministic_per_seed(self):
        a = gen_multinormal(TABLE_SPEC, seed=3)
        b = gen_multinormal(TABLE_SPEC, seed=3)
        np.testing.assert_array_equal(a.class1, b.class1)
        np.testing.assert_array_equal(a.class2, b.class2)

    def test_zero_delta_classes_overlap(self):
        spec = MultinormalSpec(p=3, delta=0.0, n1=20_000, n2=20_000)
        ds = gen_multinormal(spec, seed=5)
        diff = ds.class2.mean(axis=0) - ds.class1.mean(axis=0)
        assert np.linalg.norm(diff) < 0.03


class TestNearestMean:
    def test_symmetric_midpoint_scores_zero(self):
        ds = StratifiedDataset(np.array([[-1.0]]), np.array([[1.0]]))
        rule = NearestMeanTrainer().train(ds)
        assert rule.score_many(np.array([[0.0]]))[0] == 0.0

    def test_class2_mean_scores_positive(self):
        rng = np.random.default_rng(2)
        ds = StratifiedDataset(rng.normal(0, 1, (10, 3)), rng.normal(1, 1, (10, 3)))
        rule = NearestMeanTrainer().train(ds)
        assert rule.score_many(ds.class2.mean(axis=0)[None, :])[0] > 0

    def test_coefficients_by_hand(self):
        ds = StratifiedDataset(
            np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([[3.0, 1.0], [5.0, 3.0]])
        )
        # m1 = (1, 0), m2 = (4, 2): w = (3, 2), offset = -w.(m1+m2)/2 = -9.5
        rule = NearestMeanTrainer().train(ds)
        np.testing.assert_allclose(rule.weights, [3.0, 2.0])
        assert rule.offset == pytest.approx(-9.5)


class TestLda:
    def test_identity_covariance_approaches_nearest_mean(self):
        spec = MultinormalSpec(p=3, delta=1.0, n1=60_000, n2=60_000)
        ds = gen_multinormal(spec, seed=11)
        lda = LdaTrainer().train(ds)
        nm = NearestMeanTrainer().train(ds)
        cos = (lda.weights @ nm.weights) / (
            np.linalg.norm(lda.weights) * np.linalg.norm(nm.weights)
        )
        assert cos == pytest.approx(1.0, abs=1e-3)

    def test_one_dimensional_score_is_affine_increasing(self):
        rng = np.random.default_rng(4)
        ds = StratifiedDataset(rng.normal(0, 1, (30, 1)), rng.normal(1, 1, (30, 1)))
        rule = LdaTrainer().train(ds)
        xs = np.array([[-1.0], [0.0], [2.0]])
        scores = rule.score_many(xs)
        slopes = np.diff(scores) / np.diff(xs[:, 0])
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-9)
        assert slopes[0] > 0

    def test_tiny_system_solved_by_hand(self):
        ds = StratifiedDataset(
            np.array([[0.0, 0.0], [2.0, 2.0]]), np.array([[3.0, 0.0], [5.0, 2.0]])
        )
        # centered classes both contribute scatter [[2,2],[2,2]]; pooled
        # covariance (divide by 2) is [[2,2],[2,2]], singular, so a unit
        # ridge gives [[3,2],[2,3]]; m2-m1 = (3,0); solving gives
        # w = (9/5, -6/5); offset = -w.(m1+m2)/2 = -(9/5*2.5 - 6/5*1.0) = -3.3
        rule = LdaTrainer(1.0).train(ds)
        np.testing.assert_allclose(rule.weights, [9 / 5, -6 / 5], rtol=1e-12)
        assert rule.offset == pytest.approx(-3.3, rel=1e-12)

    def test_singular_covariance_errors_without_ridge(self):
        ds = StratifiedDataset(np.zeros((2, 4)), np.ones((2, 4)))
        with pytest.raises(EstimationError):
            LdaTrainer().train(ds)

    @pytest.mark.parametrize("ridge", [-0.1, math.nan, math.inf])
    def test_ridge_must_be_finite_and_non_negative(self, ridge):
        with pytest.raises(DomainError):
            LdaTrainer(ridge)

    def test_ridge_restores_solvability(self):
        ds = StratifiedDataset(np.zeros((2, 4)), np.ones((2, 4)))
        rule = LdaTrainer(1e-3).train(ds)
        assert np.isfinite(rule.score_many(np.ones((1, 4)))).all()


class TestWeightedBatchHook:
    @pytest.mark.parametrize(
        "trainer,n,p,replicates",
        [
            (NearestMeanTrainer(), 9, 2, 6),
            (LdaTrainer(1e-6), 9, 2, 6),
            (LdaTrainer(1e-6), 60, 20, 30),
        ],
        ids=["trainer0", "trainer1", "lda-p20"],
    )
    def test_matches_per_replicate_training(self, trainer, n, p, replicates):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (n, p))
        labels = np.repeat([1, 2], [n // 2, n - n // 2])
        weights = rng.integers(0, 3, size=(replicates, n))
        weights[:, 0] = np.maximum(weights[:, 0], 1)  # keep class 1 populated
        weights[:, -1] = np.maximum(weights[:, -1], 1)
        batch = trainer.weighted_scores(X, labels, weights)
        for r in range(replicates):
            reps = np.repeat(np.arange(n), weights[r])
            subset = StratifiedDataset(
                X[reps][labels[reps] == 1], X[reps][labels[reps] == 2]
            )
            rule = trainer.train(subset)
            np.testing.assert_allclose(batch[r], rule.score_many(X), atol=1e-9)


class UnbatchedLda(Trainer):
    """Ridgeless LDA without ``weighted_scores``: tasks are trained one by one."""

    name = "unbatched-lda"

    def train(self, dataset):
        return LdaTrainer().train(dataset)


def _two_normal(n, p, seed):
    rng = np.random.default_rng(seed)
    return StratifiedDataset(rng.normal(0, 1, (n, p)), rng.normal(0.5, 1, (n, p)))


class TestLdaFitRule:
    """``train`` and the batched ``weighted_scores`` refuse the same fits."""

    SINGULAR = "pooled covariance is singular; set a ridge"

    @pytest.mark.parametrize("estimate", [
        lambda ds, trainer: estimators.err_loob(ds, trainer, 0.0, 50, 1),
        lambda ds, trainer: estimators.auc_cvk(ds, trainer, 2, 2),
        lambda ds, trainer: estimators.auc_lpobs(ds, trainer, 50, 1),
    ], ids=["err_loob", "auc_cvk", "auc_lpobs"])
    def test_both_paths_refuse_a_ridgeless_fit_below_p_plus_two(self, estimate):
        ds = _two_normal(6, 20, 0)
        with pytest.raises(EstimationError) as batched:
            estimate(ds, LdaTrainer())
        assert str(batched.value) == self.SINGULAR
        with pytest.raises(EstimationError) as unbatched:
            estimate(ds, UnbatchedLda())
        assert str(unbatched.value).endswith(f": {self.SINGULAR}")

    def test_weighted_scores_refuses_what_train_refuses(self):
        ds = _two_normal(3, 5, 1)  # 6 observations, 6 - 2 < 5
        X, labels = ds.pooled()
        with pytest.raises(EstimationError, match=self.SINGULAR):
            LdaTrainer().train(ds)
        with pytest.raises(EstimationError, match=self.SINGULAR):
            LdaTrainer().weighted_scores(X, labels, np.ones((1, ds.n)))
        # a ridge lifts the rule on both paths
        LdaTrainer(1e-3).train(ds)
        LdaTrainer(1e-3).weighted_scores(X, labels, np.ones((1, ds.n)))

    def test_both_paths_fit_at_p_plus_two(self):
        ds = _two_normal(3, 4, 2)  # 6 observations, 6 - 2 == 4
        X, labels = ds.pooled()
        batch = LdaTrainer().weighted_scores(X, labels, np.ones((1, ds.n)))
        np.testing.assert_allclose(batch[0], LdaTrainer().train(ds).score_many(X), atol=1e-9)
        folds = _two_normal(6, 4, 3)  # each K1 = K2 = 2 fold task trains on 6 of 12
        batched = estimators.auc_cvk(folds, LdaTrainer(), 2, 2).value
        assert batched == estimators.auc_cvk(folds, UnbatchedLda(), 2, 2).value


class TestTrainerRegistry:
    def test_lookup(self):
        assert trainer_from_id("nearest-mean", {}).name == "nearest-mean"
        assert trainer_from_id("lda", {"ridge": "0.5"}).ridge == 0.5

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            trainer_from_id("svm", {})


class TestTrueConditionalPerformance:
    def test_wide_separation_scores_one(self):
        spec = MultinormalSpec(p=2, delta=50.0, n1=4, n2=4)
        rule = LinearScoringRule(np.ones(2), 0.0)
        value = true_conditional_performance(rule, spec, 500, seed=1)
        assert value == 1.0

    def test_uninformative_rule_near_half(self):
        # a direction orthogonal to the class shift carries no signal
        spec = MultinormalSpec(p=2, delta=1.0, n1=4, n2=4)
        rule = LinearScoringRule(np.array([1.0, -1.0]), 0.0)
        value = true_conditional_performance(rule, spec, 2000, seed=2)
        assert abs(value - 0.5) < 3 / math.sqrt(2000)

    def test_bayes_direction_hits_population_auc(self):
        spec = MultinormalSpec(p=5, delta=0.8, n1=4, n2=4)
        rule = LinearScoringRule(np.ones(5), 0.0)
        value = true_conditional_performance(rule, spec, 100_000, seed=3)
        assert value == pytest.approx(normal_cdf(0.8 / math.sqrt(2)), abs=0.003)

    @pytest.mark.parametrize("trainer", [NearestMeanTrainer(), LdaTrainer(1e-6)], ids=["nm", "lda"])
    def test_trained_rule_matches_closed_form_auc(self, trainer):
        # For a linear rule w on N(mu_k, I) the conditional AUC is exactly
        # Phi(w.(mu2-mu1) / (sqrt(2) |w|)), which Cauchy-Schwarz keeps below
        # the population AUC.  The sampled S must agree with it within 3 SE
        # of the Mann-Whitney statistic, so the gap between mean S and the
        # population AUC at finite n is bias of the trained rule, not noise.
        spec = MultinormalSpec(p=5, delta=0.8, n1=100, n2=100)
        shift = np.full(spec.p, spec.offset)
        m = 20_000
        for seed in range(4):
            rule = trainer.train(gen_multinormal(spec, seed))
            w = rule.weights
            a = float(w @ shift) / (math.sqrt(2.0) * np.linalg.norm(w))
            exact = normal_cdf(a)
            # exact U-statistic variance: both covariance terms equal
            # Pr[Z1 < a, Z2 < a] at correlation 1/2
            q = _bivariate_normal_orthant(a, 0.5)
            se = math.sqrt(exact * (1 - exact) + 2 * (m - 1) * (q - exact**2)) / m
            sampled = true_conditional_performance(rule, spec, m, seed=100 + seed)
            assert exact < normal_cdf(spec.delta / math.sqrt(2.0))
            assert abs(sampled - exact) <= 3 * se

    def test_error_metric_uses_threshold(self):
        spec = MultinormalSpec(p=1, delta=50.0, n1=4, n2=4)
        rule = LinearScoringRule(np.ones(1), 0.0)
        # midpoint threshold separates the two far-apart classes
        value = true_conditional_performance(
            rule, spec, 500, seed=4, metric=Metric.ERROR, th=25.0
        )
        assert value == 0.0

    def test_apparent_performance_is_resubstitution(self):
        ds = StratifiedDataset(np.array([[-1.0], [1.0]]), np.array([[0.5], [2.0]]))
        rule = LinearScoringRule(np.ones(1), 0.0)
        # kernel values by hand: pairs (-1,.5)=1 (-1,2)=1 (1,.5)=0 (1,2)=1
        assert apparent_performance(rule, ds) == 0.75


class TestWeakCorrelation:
    def test_two_trial_regression_snapshot(self):
        # golden values computed once from this implementation and frozen
        spec = MultinormalSpec(p=2, delta=1.0, n1=6, n2=6)
        cfg = WeakCorrConfig(
            spec=spec, trials=2, test_per_class=50,
            trainer=NearestMeanTrainer(), seed=424242,
        )
        res = run_weak_correlation(cfg)
        np.testing.assert_allclose(
            res.triples,
            [
                [0.6356, 0.8333333333333334, 0.7851473922902494],
                [0.6696, 0.6388888888888888, 0.4683562428407789],
            ],
            rtol=0, atol=1e-15,
        )
        assert res.rows[0].mean == pytest.approx(0.6526000000000001, abs=1e-15)
        assert res.rows[1].mean == pytest.approx(0.7361111111111112, abs=1e-15)
        assert res.rows[2].mean == pytest.approx(0.6267518175655142, abs=1e-15)
        assert res.aborted == 0

    def test_zero_delta_centers_on_half(self):
        spec = MultinormalSpec(p=2, delta=0.0, n1=8, n2=8)
        cfg = WeakCorrConfig(
            spec=spec, trials=60, test_per_class=400,
            trainer=NearestMeanTrainer(), seed=99,
        )
        res = run_weak_correlation(cfg)
        assert abs(res.rows[0].mean - 0.5) < 0.02

    def test_custom_estimator_config_is_used(self):
        spec = MultinormalSpec(p=2, delta=1.0, n1=6, n2=6)
        cvk = EstimatorConfig(
            version=Version.CVK, metric=Metric.AUC, variant=Variant.POOLED,
            n_folds1=3, n_folds2=3,
        )
        cfg = WeakCorrConfig(
            spec=spec, trials=5, test_per_class=50,
            trainer=NearestMeanTrainer(), estimator=cvk, seed=13,
        )
        res = run_weak_correlation(cfg)
        assert res.triples.shape == (5, 3)

    def test_failing_trials_abort_run(self):
        # ridgeless LDA cannot invert a 5-D covariance from 3+3 points, so
        # every trial's leave-pair-out estimator fails and the run aborts
        spec = MultinormalSpec(p=5, delta=0.8, n1=4, n2=4)
        cfg = WeakCorrConfig(
            spec=spec, trials=10, test_per_class=50,
            trainer=LdaTrainer(0.0),
            estimator=EstimatorConfig(
                version=Version.CVN, metric=Metric.AUC, variant=Variant.POOLED
            ),
            seed=3,
        )
        with pytest.raises(EstimationError):
            run_weak_correlation(cfg)

    def test_trial_seeds_are_the_derived_ints(self, monkeypatch):
        seen = {"trial-data": [], "trial-test": [], "trial-est": []}
        gen, true_s, run = simlab.gen_multinormal, simlab.true_conditional_performance, estimators.run

        def record(tag, seed):
            assert type(seed) is int
            seen[tag].append(seed)

        def gen_recorded(spec, seed):
            record("trial-data", seed)
            return gen(spec, seed)

        def true_s_recorded(rule, spec, test_per_class, seed, *args):
            record("trial-test", seed)
            return true_s(rule, spec, test_per_class, seed, *args)

        def run_recorded(dataset, trainer, cfg):
            record("trial-est", cfg.seed)
            return run(dataset, trainer, cfg)

        monkeypatch.setattr(simlab, "_usable_cpus", lambda: 1)  # the spies record in-process
        monkeypatch.setattr(simlab, "gen_multinormal", gen_recorded)
        monkeypatch.setattr(simlab, "true_conditional_performance", true_s_recorded)
        monkeypatch.setattr(estimators, "run", run_recorded)
        cvkr = EstimatorConfig(Version.CVKR, Metric.AUC, Variant.POOLED, n_folds1=2, n_folds2=2,
                               repetitions=1)
        run_weak_correlation(WeakCorrConfig(
            spec=MultinormalSpec(p=2, delta=1.0, n1=4, n2=4), trials=40, test_per_class=10,
            trainer=NearestMeanTrainer(), estimator=cvkr, seed=12345,
        ))
        for tag, seeds in seen.items():
            assert seeds == [derive_seed(12345, tag, t) for t in range(40)]

    @pytest.mark.parametrize("version", [Version.CVN])
    def test_a_version_that_does_not_draw_gets_no_seed(self, monkeypatch, version):
        """CVN takes no seed, so each trial runs the campaign's config as it
        is, which ``EstimatorConfig`` would refuse with one."""
        seen, run = [], estimators.run

        def run_recorded(dataset, trainer, cfg):
            seen.append(cfg)
            return run(dataset, trainer, cfg)

        monkeypatch.setattr(simlab, "_usable_cpus", lambda: 1)  # the spy records in-process
        monkeypatch.setattr(estimators, "run", run_recorded)
        cfg = EstimatorConfig(version, Metric.AUC)
        result = run_weak_correlation(WeakCorrConfig(
            spec=MultinormalSpec(p=2, delta=1.0, n1=4, n2=4), trials=5, test_per_class=10,
            trainer=NearestMeanTrainer(), estimator=cfg, seed=12345,
        ))
        assert result.aborted == 0
        assert seen == [cfg] * 5
        with pytest.raises(DomainError, match="does not take 'seed'"):
            replace(cfg, seed=1)

    def test_reproducible(self):
        spec = MultinormalSpec(p=2, delta=1.0, n1=6, n2=6)
        cfg = WeakCorrConfig(
            spec=spec, trials=4, test_per_class=30,
            trainer=NearestMeanTrainer(), seed=8,
        )
        a = run_weak_correlation(cfg)
        b = run_weak_correlation(cfg)
        np.testing.assert_array_equal(a.triples, b.triples)


class TestRatioCurve:
    def test_theory_column(self):
        points = run_ratio_curve(
            [5], LdaTrainer(1e-6), 50, SamplingModel.ORDERED, seeds=[1, 2]
        )
        assert points[0].ratio_theory == pytest.approx(18 / 19, abs=1e-15)

    def test_theory_approaches_one(self):
        points = run_ratio_curve(
            [3, 30], NearestMeanTrainer(), 30, SamplingModel.ORDERED, seeds=[4]
        )
        assert points[1].ratio_theory > points[0].ratio_theory
        assert points[1].ratio_theory < 1.0

    def test_deterministic(self):
        args = ([4], LdaTrainer(1e-6), 40, SamplingModel.UNORDERED_MULTISET, [7, 8])
        a = run_ratio_curve(*args)
        b = run_ratio_curve(*args)
        assert a[0].ratio_empirical == b[0].ratio_empirical

    def test_dataset_is_one_dimensional_unit_setting(self):
        ds = ratio_curve_dataset(40_000, seed=5)
        assert ds.p == 1
        assert ds.class1.mean() == pytest.approx(0.0, abs=0.02)
        assert ds.class2.mean() == pytest.approx(1.0, abs=0.02)
        assert ds.class1.std() == pytest.approx(1.0, abs=0.02)

    def test_empty_grid_rejected(self):
        for grid in ([], [4, -2]):
            with pytest.raises(DomainError):
                run_ratio_curve(grid, NearestMeanTrainer(), 10, SamplingModel.ORDERED, [1])


class FailOnFourOrFivePerClass(LdaTrainer):
    """LDA that fails on every ratio-curve dataset with n1 = 4, naming it by
    its first feature, and on ``slow_x0`` it first sleeps, so that later
    failing units finish before it; it fails at once on every one with n1 = 5,
    with another message."""

    def __init__(self, slow_x0: float):
        super().__init__(1e-6)
        self.slow_x0 = slow_x0

    def weighted_scores(self, X, labels, counts):
        if len(labels) == 8:
            if X[0, 0] == self.slow_x0:
                time.sleep(0.3)
            raise EstimationError(f"unit with x0={X[0, 0]!r} failed")
        if len(labels) == 10:
            raise EstimationError("a later unit failed")
        return super().weighted_scores(X, labels, counts)


class PerfectOnThreeFailOnFour(LdaTrainer):
    """Scores every ratio-curve point of n1 = 3 on its own side of threshold 0
    (zero error), and fails on every dataset of n1 = 4."""

    def weighted_scores(self, X, labels, counts):
        if len(labels) == 6:
            return np.broadcast_to(np.where(labels == 2, 1.0, -1.0), (len(counts), 6))
        if len(labels) == 8:
            raise EstimationError("unit of n1=4 failed")
        return super().weighted_scores(X, labels, counts)


class PidRecordingLda(LdaTrainer):
    """LDA that appends the id of each process that trains with it to a file."""

    def __init__(self, path):
        super().__init__(1e-6)
        self.path = path

    def weighted_scores(self, X, labels, counts):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return super().weighted_scores(X, labels, counts)

    def pids(self) -> set[int]:
        pids = {int(line) for line in self.path.read_text(encoding="utf-8").split()}
        self.path.unlink()
        return pids


class UnpicklableError(Exception):
    """Its constructor takes two arguments, so pickle cannot rebuild it."""

    def __init__(self, name, n):
        super().__init__(f"{name}-{n}")


class UnscorableRule(ScoringRule):
    def score_many(self, X):
        raise UnpicklableError("score_many", len(X))


class UnscorableTrainer(Trainer):
    """Trains (one task at a time) a rule whose scoring raises UnpicklableError."""

    def train(self, dataset):
        return UnscorableRule()


# Each worker test takes a few seconds at most; a map that waits forever
# fails at this deadline rather than stalling the suite.
WORKER_TEST_DEADLINE_S = 60


class DeadlinePassed(BaseException):
    """A worker test outlived its deadline.  Not an ``Exception``, so no
    ``except Exception`` under test swallows it, and the map ends and reaps
    its workers as on any other raise."""


@pytest.fixture
def deadline():
    """Fail the test at WORKER_TEST_DEADLINE_S: SIGALRM's handler, which
    Python runs in the main thread, raises :class:`DeadlinePassed` there.
    Forked workers inherit no interval timer."""

    def expire(signum, frame):
        raise DeadlinePassed(f"still running after {WORKER_TEST_DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WORKER_TEST_DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestRatioCurveWorkers:
    """The (n1, seed) units run in a fork map; results merge in unit order."""

    def run_with(self, monkeypatch, cpus, *args):
        monkeypatch.setattr(simlab, "_usable_cpus", lambda: cpus)
        return run_ratio_curve(*args)

    def test_points_identical_with_one_and_three_workers(self, monkeypatch, tmp_path):
        trainer = PidRecordingLda(tmp_path / "pids")
        args = ([3, 5], trainer, 60, SamplingModel.UNORDERED_MULTISET, [21, 22, 23])
        serial = self.run_with(monkeypatch, 1, *args)
        assert trainer.pids() == {os.getpid()}
        pooled = self.run_with(monkeypatch, 3, *args)
        assert os.getpid() not in trainer.pids()
        assert [p.n1 for p in serial] == [3, 5]
        assert pooled == serial
        assert children_left() == []

    def test_first_failing_unit_in_unit_order_wins(self, monkeypatch):
        # Units in order: n1 = 3 (all pass), n1 = 4 (all fail, the first one
        # slowly), n1 = 5 (each fails at once).
        first = ratio_curve_dataset(4, 11).class1[0, 0]
        args = ([3, 4, 5], FailOnFourOrFivePerClass(first), 20, SamplingModel.ORDERED,
                [11, 12, 13])
        raised = {}
        for cpus in (1, 3):
            with pytest.raises(EstimationError) as info:
                self.run_with(monkeypatch, cpus, *args)
            raised[cpus] = info.value
            assert children_left() == []
        assert str(raised[1]) == str(raised[3]) == f"unit with x0={first!r} failed"
        assert type(raised[1]) is type(raised[3]) is EstimationError

    def test_zero_mean_of_an_earlier_n1_wins_over_a_later_failing_unit(self, monkeypatch):
        # Points are checked as their units are read, as in a serial loop.
        args = ([3, 4], PerfectOnThreeFailOnFour(), 20, SamplingModel.ORDERED, [1, 2])
        for cpus in (1, 3):
            with pytest.raises(EstimationError, match="^n1=3: pooled error mean is zero"):
                self.run_with(monkeypatch, cpus, *args)
            assert children_left() == []

    def test_exception_that_cannot_be_unpickled_is_raised(self, monkeypatch):
        args = ([4], UnscorableTrainer(), 10, SamplingModel.ORDERED, [1, 2])
        for cpus in (1, 3):
            with pytest.raises(UnpicklableError, match="^score_many-8$"):
                self.run_with(monkeypatch, cpus, *args)
            assert children_left() == []


class AbortOnData(NearestMeanTrainer):
    """Nearest-mean whose estimator runs fail (EstimationError) on the
    datasets whose first feature is in ``abort_x0``."""

    def __init__(self, abort_x0):
        self.abort_x0 = set(abort_x0)

    def weighted_scores(self, X, labels, counts):
        if X[0, 0] in self.abort_x0:
            raise EstimationError("aborted on purpose")
        return super().weighted_scores(X, labels, counts)


class RaiseOnData(NearestMeanTrainer):
    """Nearest-mean whose campaign fit raises RuntimeError on the datasets
    whose first feature is in ``fail_x0``, naming it; on ``slow_x0`` it first
    sleeps, so that later failing trials finish before it."""

    def __init__(self, fail_x0, slow_x0):
        self.fail_x0 = set(fail_x0)
        self.slow_x0 = slow_x0

    def train(self, dataset):
        x0 = dataset.class1[0, 0]
        if x0 in self.fail_x0:
            if x0 == self.slow_x0:
                time.sleep(0.3)
            raise RuntimeError(f"trial with x0={x0!r} failed")
        return super().train(dataset)


def trial_x0(config: WeakCorrConfig, trial: int) -> float:
    """First feature of the trial's training set."""
    return gen_multinormal(config.spec, derive_seed(config.seed, "trial-data", trial)).class1[0, 0]


@pytest.mark.usefixtures("deadline")
class TestCampaignWorkers:
    """The campaign's trials run in a fork map; results merge in trial order."""

    def run_with(self, monkeypatch, cpus, config):
        monkeypatch.setattr(simlab, "_usable_cpus", lambda: cpus)
        return run_weak_correlation(config)

    @pytest.mark.parametrize("size", ["small", "threaded-blas"])
    def test_results_identical_with_one_and_three_workers(self, monkeypatch, tmp_path, size):
        trainer = PidRecordingLda(tmp_path / "pids")
        if size == "small":  # the default estimator, LOOB AUC partitioned
            config = WeakCorrConfig(
                spec=MultinormalSpec(p=2, delta=1.0, n1=8, n2=8), trials=6,
                test_per_class=50, trainer=trainer, seed=31,
            )
        else:  # GEMMs large enough that a serial run's OpenBLAS uses its threads
            config = WeakCorrConfig(
                spec=MultinormalSpec(p=5, delta=0.8, n1=20, n2=20), trials=4,
                test_per_class=100, trainer=trainer, seed=32,
                estimator=EstimatorConfig(
                    Version.CVKM, Metric.ERROR, Variant.POOLED, n_folds=2, repetitions=2000,
                ),
            )
        serial = self.run_with(monkeypatch, 1, config)
        assert trainer.pids() == {os.getpid()}
        pooled = self.run_with(monkeypatch, 3, config)
        assert os.getpid() not in trainer.pids()
        np.testing.assert_array_equal(pooled.triples, serial.triples)
        assert pooled.rows == serial.rows
        assert pooled.aborted == serial.aborted == 0
        assert children_left() == []

    def test_aborted_trials_are_dropped_and_counted(self, monkeypatch):
        config = WeakCorrConfig(
            spec=MultinormalSpec(p=2, delta=1.0, n1=6, n2=6), trials=200,
            test_per_class=20, trainer=NearestMeanTrainer(), seed=33,
            estimator=replace(simlab.DEFAULT_ESTIMATOR, n_bootstrap=20),
        )
        config = replace(config, trainer=AbortOnData([trial_x0(config, 3), trial_x0(config, 150)]))
        results = {cpus: self.run_with(monkeypatch, cpus, config) for cpus in (1, 3)}
        for result in results.values():
            assert result.aborted == 2
            assert result.triples.shape == (198, 3)
        np.testing.assert_array_equal(results[3].triples, results[1].triples)
        assert results[3].rows == results[1].rows
        # a third aborted trial is more than 1% of 200
        config = replace(config, trainer=AbortOnData(
            [trial_x0(config, 3), trial_x0(config, 150), trial_x0(config, 199)]
        ))
        for cpus in (1, 3):
            with pytest.raises(EstimationError, match=r"^3/200 trials aborted \(more than 1%\)$"):
                self.run_with(monkeypatch, cpus, config)
            assert children_left() == []

    def test_first_trial_failing_otherwise_raises(self, monkeypatch):
        config = WeakCorrConfig(
            spec=MultinormalSpec(p=2, delta=1.0, n1=6, n2=6), trials=8,
            test_per_class=20, trainer=NearestMeanTrainer(), seed=34,
        )
        first = trial_x0(config, 2)
        config = replace(config, trainer=RaiseOnData([first, trial_x0(config, 5)], slow_x0=first))
        raised = {}
        for cpus in (1, 3):
            with pytest.raises(RuntimeError) as info:
                self.run_with(monkeypatch, cpus, config)
            raised[cpus] = info.value
            assert children_left() == []
        assert str(raised[1]) == str(raised[3]) == f"trial with x0={first!r} failed"
        assert type(raised[1]) is type(raised[3]) is RuntimeError


def blas_threads() -> list[int]:
    return [get() for get, _ in simlab._blas_thread_controls()]


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at two threads for the test, so a cap to one shows."""
    controls = simlab._blas_thread_controls()
    if not controls:
        pytest.skip("numpy's BLAS has no OpenBLAS thread control here")
    before = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    yield
    for (_, set_threads), threads in zip(controls, before):
        set_threads(threads)


def pid_and_blas_threads(index):
    if index == 4:
        raise KeyError("unit 4")
    return os.getpid(), blas_threads()


def unit_logged_to(path):
    """Unit that logs its index to ``path``; unit 0 fails at once, the others
    take a while, so they are still running when it fails."""

    def unit(index):
        if index == 0:
            raise KeyError("unit 0")
        time.sleep(0.05)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{index}\n")
        return index

    return unit


KILLED_WORKER_SCRIPT = """
import os, signal
from cvlab import simlab

parent = os.getpid()

def unit(index):
    if index == 1 and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return index * index

simlab._usable_cpus = lambda: 3
simlab._blas_thread_controls = lambda: [(lambda: 1, lambda count: None)]
print(list(simlab._map_units(unit, 6)))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


class Unpicklable:
    """A value that pickle refuses to send."""

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        return type(other) is type(self) and other.n == self.n

    def __reduce__(self):
        raise pickle.PicklingError("not sent on purpose")


class Unloadable(Unpicklable):
    """A value that pickles, but that pickle cannot rebuild: its reduction
    leaves out the constructor's argument."""

    def __reduce__(self):
        return Unloadable, ()


@pytest.fixture
def three_workers(monkeypatch):
    """The fork map at three workers, with a stand-in BLAS thread control,
    so that it forks whatever BLAS numpy uses."""
    threads = [4]

    def set_threads(count):
        threads[0] = count

    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(simlab, "_blas_thread_controls", lambda: [(lambda: threads[0], set_threads)])
    yield
    assert threads == [4]


@pytest.mark.usefixtures("deadline")
class TestUnitPool:
    """The one fork map path: OpenBLAS is held to one thread while the
    workers run (set before the fork), worker w of W runs units w, w + W, ...,
    and a unit whose worker died or whose value could not be sent runs again
    here."""

    def test_lookup_finds_numpys_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" in blas["name"]:
            assert simlab._blas_thread_controls()
            assert blas_threads()

    def test_workers_run_one_thread_and_the_count_is_restored(self, monkeypatch, two_blas_threads):
        monkeypatch.setattr(simlab, "_usable_cpus", lambda: 3)
        before = blas_threads()
        assert set(before) == {2}
        results = list(simlab._map_units(pid_and_blas_threads, 4))
        assert blas_threads() == before
        assert all(pid != os.getpid() and threads == [1] * len(before) for pid, threads in results)
        with pytest.raises(KeyError, match="unit 4"):
            list(simlab._map_units(pid_and_blas_threads, 6))
        assert blas_threads() == before
        assert children_left() == []

        fork, forked = os.fork, []

        def fork_once():
            if forked:
                raise BlockingIOError("fork: resource temporarily unavailable")
            forked.append(fork())
            return forked[-1]

        monkeypatch.setattr(os, "fork", fork_once)
        with pytest.raises(BlockingIOError):
            simlab._map_units(pid_and_blas_threads, 4)
        assert len(forked) == 1
        assert children_left() == []  # the first worker was killed and reaped
        assert blas_threads() == before

    def test_units_run_inline_without_a_thread_control(self, monkeypatch):
        monkeypatch.setattr(simlab, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(simlab, "_blas_thread_controls", lambda: [])
        results = list(simlab._map_units(pid_and_blas_threads, 4))
        assert results == [(os.getpid(), [])] * 4

    def test_failure_is_raised_after_every_unit_ran(self, monkeypatch, tmp_path):
        # Every worker runs all of its units before the first value is read.
        monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
        path = tmp_path / "ran"
        with pytest.raises(KeyError, match="unit 0"):
            list(simlab._map_units(unit_logged_to(path), 12))
        assert sorted(map(int, path.read_text(encoding="utf-8").split())) == list(range(1, 12))
        assert children_left() == []

    def test_worker_w_runs_the_units_congruent_to_w(self, three_workers):
        pids = list(simlab._map_units(lambda index: os.getpid(), 7))
        assert os.getpid() not in pids
        assert len(set(pids)) == 3
        assert [pids.index(pid) for pid in pids] == [0, 1, 2, 0, 1, 2, 0]

    def test_killed_worker_costs_time_not_a_hang(self):
        # Worker 1 of 3 (units 1 and 4) SIGKILLs itself; both its units run
        # again in the parent.  In a fresh process group, under a timeout, so
        # that a map that hangs fails the test and is killed with its workers.
        src = str(Path(simlab.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", KILLED_WORKER_SCRIPT], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src}, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the map still ran 20 s after a worker was killed")
        assert out.split("\n")[:2] == [str([index * index for index in range(6)]), "no child left"]

    @pytest.mark.parametrize("kind", [Unpicklable, Unloadable])
    def test_value_that_cannot_be_sent_is_the_serial_value(self, three_workers, kind):
        def unit(index):
            if index == 5:
                raise KeyError("unit 5")
            return kind(index) if index == 2 else index

        with pytest.raises(pickle.PicklingError if kind is Unpicklable else TypeError):
            pickle.loads(pickle.dumps(kind(2)))
        values = simlab._map_units(unit, 6)  # worker 2 of 3 runs units 2 and 5
        assert [next(values) for _ in range(5)] == [0, 1, kind(2), 3, 4]
        with pytest.raises(KeyError, match="unit 5"):
            next(values)
        assert children_left() == []
