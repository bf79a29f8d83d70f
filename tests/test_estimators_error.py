"""Error-rate estimator tests.

Every DERIVED expectation is computed by a brute-force oracle written here:
plain loops that materialize each training subset, call ``trainer.train``
directly, and apply the zero-one loss, bypassing the estimators' batched
scoring path entirely.  The oracles share only the partition / replicate
definitions with the code under test, since those define the estimand.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlab import cli, estimators
from cvlab.combinatorics import prob_some_unseen
from cvlab.core import (
    DivisibilityError,
    DomainError,
    LinearScoringRule,
    StratifiedDataset,
    Trainer,
)
from cvlab.estimators import (
    CoverageError,
    EstimationError,
    EstimatorConfig,
    Metric,
    Variant,
    Version,
    _redraw_one_class_rows,
    auc_cvk,
    auc_lpobs,
    err_cvk,
    err_cvkm,
    err_cvkr,
    err_cvn,
    err_loob,
    variant_values,
)
from cvlab.resampling import (
    SamplingModel,
    bootstrap_counts_matrix,
    derive_seed,
    make_partition,
    repeated_partitions,
)
from cvlab.simlab import LdaTrainer, NearestMeanTrainer
from oracles import (
    complete_cv,
    cvk_loss,
    fresh_process_peak,
    loob_limits,
    one_class_tasks,
    pooled_value,
    random_permutation,
    redraw_one_class_rows,
    replicate_weights,
    traced_peak,
    two_class_multisets,
)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def train_on_pool(trainer, features, labels, keep):
    feats, labs = features[keep], labels[keep]
    return trainer.train(StratifiedDataset(feats[labs == 1], feats[labs == 2]))


def loss_of(rule, x, label, th=0.0):
    predicted = 2 if rule.score_many(x[None, :])[0] >= th else 1
    return float(predicted != label)


def oracle_cvn(dataset, trainer, th=0.0):
    features, labels = dataset.pooled()
    n = len(labels)
    total = 0.0
    for i in range(n):
        keep = np.arange(n) != i
        rule = train_on_pool(trainer, features, labels, keep)
        total += loss_of(rule, features[i], labels[i], th)
    return total / n


def oracle_fold_losses(dataset, trainer, assign, th=0.0):
    """Per-observation losses for one explicit fold assignment."""
    features, labels = dataset.pooled()
    losses = np.empty(len(labels))
    for k in sorted(set(assign.tolist())):
        rule = train_on_pool(trainer, features, labels, assign != k)
        for i in np.flatnonzero(assign == k):
            losses[i] = loss_of(rule, features[i], labels[i], th)
    return losses


def oracle_cvk(dataset, trainer, n_folds, variant, th=0.0, perm=None):
    assign = make_partition(dataset.n, n_folds, perm)
    losses = oracle_fold_losses(dataset, trainer, assign, th)
    if variant is Variant.POOLED:
        return losses.mean()
    per_fold = [losses[assign == k].mean() for k in range(1, n_folds + 1)]
    return float(np.mean(per_fold))


def oracle_cvkr(dataset, trainer, n_folds, repetitions, seed, variant, th=0.0):
    maps = repeated_partitions(dataset.n, n_folds, repetitions, seed)
    all_losses = np.array([oracle_fold_losses(dataset, trainer, a, th) for a in maps])
    if variant is Variant.POOLED:
        return float(all_losses.mean(axis=0).mean())
    run_values = []
    for m, assign in enumerate(maps):
        per_fold = [all_losses[m][assign == k].mean() for k in range(1, n_folds + 1)]
        run_values.append(np.mean(per_fold))
    return float(np.mean(run_values))


def oracle_cvkm(dataset, trainer, n_folds, repetitions, seed, th=0.0):
    """Both Monte-Carlo CV variants from one loop over the runs."""
    features, labels = dataset.pooled()
    maps = repeated_partitions(dataset.n, n_folds, repetitions, seed)
    n = len(labels)
    num = np.zeros(n)
    hits = np.zeros(n)
    run_means = []
    for assign in maps:
        rule = train_on_pool(trainer, features, labels, assign != 1)
        members = np.flatnonzero(assign == 1)
        fold_losses = [loss_of(rule, features[i], labels[i], th) for i in members]
        num[members] += fold_losses
        hits[members] += 1
        run_means.append(np.mean(fold_losses))
    covered = hits > 0
    pooled = float((num[covered] / hits[covered]).mean())
    return pooled, float(np.mean(run_means)), int((~covered).sum())


def oracle_loob(dataset, trainer, counts_matrix, th=0.0):
    """Both bootstrap variants from stored replicate counts."""
    features, labels = dataset.pooled()
    n = len(labels)
    num = np.zeros(n)
    hits = np.zeros(n)
    rep_means = []
    for counts in counts_matrix:
        reps = np.repeat(np.arange(n), counts)
        rule = train_on_pool(trainer, features, labels, reps)
        oob = np.flatnonzero(counts == 0)
        if oob.size == 0:
            continue
        losses = [loss_of(rule, features[i], labels[i], th) for i in oob]
        num[oob] += losses
        hits[oob] += 1
        rep_means.append(np.mean(losses))
    covered = hits > 0
    pooled = float((num[covered] / hits[covered]).mean())
    return pooled, float(np.mean(rep_means))


# ---------------------------------------------------------------------------
# Fixtures and helper trainers
# ---------------------------------------------------------------------------


class FirstFeatureTrainer(Trainer):
    """Ignores the training data: the rule scores by the first feature.

    Losses are therefore identical across replicates ("B-stable"), which
    pins the bootstrap variant ratio to its sampling-only limit.
    """

    name = "first-feature"

    def train(self, dataset):
        return LinearScoringRule(
            np.eye(dataset.p)[0], 0.0
        )


SEPARABLE = StratifiedDataset(
    np.array([[-2.0], [-1.5], [-1.0]]), np.array([[1.0], [1.5], [2.0]])
)

# every leave-one-out training misclassifies the held-out point (hand check)
PATHOLOGICAL = StratifiedDataset(np.array([[1.0], [3.0]]), np.array([[0.0], [4.0]]))

SIX_POINT = StratifiedDataset(
    np.array([[-1.1], [0.2], [0.9]]), np.array([[-0.3], [0.8], [1.7]])
)

rng_eight = np.random.default_rng(8)
EIGHT_POINT = StratifiedDataset(rng_eight.normal(0, 1, (3, 2)), rng_eight.normal(0.7, 1, (5, 2)))

OVERLAP_TEN = StratifiedDataset(
    np.array([[-1.2], [-0.5], [0.3], [1.1], [2.0]]),
    np.array([[-0.8], [0.1], [0.7], [1.5], [2.2]]),
)


class TestErrCvn:
    def test_separable_is_zero(self):
        assert err_cvn(SEPARABLE, NearestMeanTrainer()).value == 0.0

    def test_pathological_is_one(self):
        assert err_cvn(PATHOLOGICAL, NearestMeanTrainer()).value == 1.0

    def test_six_point_matches_oracle(self):
        trainer = NearestMeanTrainer()
        report = err_cvn(SIX_POINT, trainer)
        assert report.value == pytest.approx(oracle_cvn(SIX_POINT, trainer), abs=1e-12)
        assert report.version is Version.CVN
        assert report.metric is Metric.ERROR

    def test_degenerate_pair_fails(self):
        # removing either point of a 1-vs-1 pool leaves a one-class training set
        with pytest.raises(EstimationError):
            err_cvn(
                StratifiedDataset(np.array([[0.0]]), np.array([[1.0]])),
                NearestMeanTrainer(),
            )


class TestErrCvk:
    def test_reduces_to_cvn_at_k_equals_n(self):
        for seed in range(5):
            r = np.random.default_rng(seed)
            ds = StratifiedDataset(r.normal(0, 1, (4, 2)), r.normal(0.5, 1, (5, 2)))
            trainer = NearestMeanTrainer()
            gap = abs(
                err_cvk(ds, trainer, 0.0, ds.n, Variant.POOLED).value
                - err_cvn(ds, trainer).value
            )
            assert gap <= 1e-12

    def test_separable_is_zero_for_any_k(self):
        # k = 2 would hold all of class 1 in the first contiguous fold
        for k in (3, 6):
            assert err_cvk(SEPARABLE, NearestMeanTrainer(), 0.0, k).value == 0.0

    @pytest.mark.parametrize("n_folds", [2, 4])
    def test_matches_fold_enumeration_oracle(self, n_folds):
        # a permutation mixes the classes so even K=2 folds keep both classes
        trainer = LdaTrainer(1e-6)
        perm = random_permutation(8, seed=0)
        for variant in (Variant.POOLED, Variant.PARTITIONED):
            got = err_cvk(EIGHT_POINT, trainer, 0.0, n_folds, variant, perm=perm).value
            want = oracle_cvk(EIGHT_POINT, trainer, n_folds, variant, perm=perm)
            assert got == pytest.approx(want, abs=1e-12)

    def test_pooled_equals_partitioned(self):
        trainer = NearestMeanTrainer()
        a = err_cvk(EIGHT_POINT, trainer, 0.0, 4, Variant.POOLED).value
        b = err_cvk(EIGHT_POINT, trainer, 0.0, 4, Variant.PARTITIONED).value
        assert abs(a - b) <= 1e-12

    def test_permutation_is_honored(self):
        trainer = NearestMeanTrainer()
        perm = random_permutation(8, seed=21)
        got = err_cvk(EIGHT_POINT, trainer, 0.0, 2, Variant.POOLED, perm=perm).value
        want = oracle_cvk(EIGHT_POINT, trainer, 2, Variant.POOLED, perm=perm)
        assert got == pytest.approx(want, abs=1e-12)

    def test_divisibility_error(self):
        with pytest.raises(DivisibilityError):
            err_cvk(SEPARABLE, NearestMeanTrainer(), 0.0, 4)

    def test_one_class_fold_fails(self):
        # fold 1 holds the entire first class: training loses a class
        ds = StratifiedDataset(np.array([[0.0], [0.1]]), np.array([[1.0], [1.1]]))
        with pytest.raises(EstimationError):
            err_cvk(ds, NearestMeanTrainer(), 0.0, 2)


class TestErrCvkr:
    def test_single_repetition_equals_cvk_with_same_permutation(self):
        trainer = NearestMeanTrainer()
        seed = 12
        got = err_cvkr(SIX_POINT, trainer, 0.0, 3, 1, seed, Variant.POOLED).value
        perm = random_permutation(6, seed, 0)
        want = err_cvk(SIX_POINT, trainer, 0.0, 3, Variant.POOLED, perm=perm).value
        assert got == pytest.approx(want, abs=1e-15)

    def test_separable_is_zero(self):
        assert err_cvkr(SEPARABLE, NearestMeanTrainer(), 0.0, 3, 5, 0).value == 0.0

    def test_matches_double_loop_oracle(self):
        trainer = NearestMeanTrainer()
        for variant in (Variant.POOLED, Variant.PARTITIONED):
            got = err_cvkr(SIX_POINT, trainer, 0.0, 3, 2, 99, variant).value
            want = oracle_cvkr(SIX_POINT, trainer, 3, 2, 99, variant)
            assert got == pytest.approx(want, abs=1e-12)

    def test_pooled_equals_partitioned(self):
        trainer = LdaTrainer(1e-6)
        a = err_cvkr(EIGHT_POINT, trainer, 0.0, 4, 7, 5, Variant.POOLED).value
        b = err_cvkr(EIGHT_POINT, trainer, 0.0, 4, 7, 5, Variant.PARTITIONED).value
        assert abs(a - b) <= 1e-12

    def test_deterministic(self):
        trainer = NearestMeanTrainer()
        a = err_cvkr(SIX_POINT, trainer, 0.0, 3, 4, 7).value
        b = err_cvkr(SIX_POINT, trainer, 0.0, 3, 4, 7).value
        assert a == b


class TestErrCvkm:
    def test_single_run_pooled_equals_partitioned(self):
        trainer = NearestMeanTrainer()
        pooled = err_cvkm(SIX_POINT, trainer, 0.0, 3, 1, 4, Variant.POOLED)
        part = err_cvkm(SIX_POINT, trainer, 0.0, 3, 1, 4, Variant.PARTITIONED)
        assert pooled.value == part.value
        assert pooled.excluded_count == 4  # only fold 1 (2 of 6) is covered

    def test_separable_is_zero_for_both_variants(self):
        for variant in (Variant.POOLED, Variant.PARTITIONED):
            assert err_cvkm(SEPARABLE, NearestMeanTrainer(), 0.0, 3, 6, 1, variant).value == 0.0

    def test_matches_oracle(self):
        trainer = NearestMeanTrainer()
        pooled_want, part_want, excluded_want = oracle_cvkm(SIX_POINT, trainer, 3, 4, 17)
        pooled = err_cvkm(SIX_POINT, trainer, 0.0, 3, 4, 17, Variant.POOLED)
        part = err_cvkm(SIX_POINT, trainer, 0.0, 3, 4, 17, Variant.PARTITIONED)
        assert pooled.value == pytest.approx(pooled_want, abs=1e-12)
        assert part.value == pytest.approx(part_want, abs=1e-12)
        assert pooled.excluded_count == excluded_want

    def test_finite_run_witness_gap(self):
        # frozen witness: the variants differ at a finite run count
        rng = np.random.default_rng(31415)
        ds = StratifiedDataset(rng.normal(0, 1, (3, 1)), rng.normal(1.2, 1, (3, 1)))
        trainer = NearestMeanTrainer()
        a = err_cvkm(ds, trainer, 0.0, 3, 50, 0, Variant.POOLED).value
        b = err_cvkm(ds, trainer, 0.0, 3, 50, 0, Variant.PARTITIONED).value
        assert abs(a - b) > 1e-6

    def test_strict_mode_raises_on_uncovered(self):
        with pytest.raises(CoverageError):
            err_cvkm(SIX_POINT, NearestMeanTrainer(), 0.0, 3, 1, 4, Variant.POOLED, strict=True)


class TestErrLoob:
    def test_separable_is_zero(self):
        for variant in (Variant.POOLED, Variant.PARTITIONED):
            report = err_loob(
                SEPARABLE, NearestMeanTrainer(), 0.0, 30, 3, SamplingModel.ORDERED, variant
            )
            assert report.value == 0.0

    @pytest.mark.parametrize("model", list(SamplingModel))
    def test_matches_stored_replicate_oracle(self, model):
        trainer = NearestMeanTrainer()
        seed = 424
        counts = bootstrap_counts_matrix(OVERLAP_TEN.n, 20, model, seed)
        # the seed is chosen so no replicate needs the one-class redraw; the
        # oracle can then share the stored counts verbatim
        assert all((c[:5].sum() > 0) and (c[5:].sum() > 0) for c in counts)
        pooled_want, part_want = oracle_loob(OVERLAP_TEN, trainer, counts)
        pooled = err_loob(OVERLAP_TEN, trainer, 0.0, 20, seed, model, Variant.POOLED).value
        part = err_loob(OVERLAP_TEN, trainer, 0.0, 20, seed, model, Variant.PARTITIONED).value
        assert pooled == pytest.approx(pooled_want, abs=1e-12)
        assert part == pytest.approx(part_want, abs=1e-12)

    def test_one_class_replicates_are_redrawn_deterministically(self):
        # a 3-vs-1 pool sheds its single class-2 point in most replicates
        ds = StratifiedDataset(np.array([[-1.0], [-0.5], [-0.2]]), np.array([[1.0]]))
        trainer = NearestMeanTrainer()
        for model in SamplingModel:
            a = err_loob(ds, trainer, 0.0, 30, 11, model, Variant.POOLED)
            b = err_loob(ds, trainer, 0.0, 30, 11, model, Variant.PARTITIONED)
            assert a.value == err_loob(ds, trainer, 0.0, 30, 11, model, Variant.POOLED).value
            assert 0.0 <= a.value <= 1.0
            # both variants are those of the replicates the per-row reference redraws
            counts = redraw_one_class_rows(
                bootstrap_counts_matrix(4, 30, model, 11), ds.pooled()[1], model, 11,
                estimators.MAX_ONE_CLASS_RETRIES,
            )
            pooled_want, part_want = oracle_loob(ds, trainer, counts)
            assert a.value == pytest.approx(pooled_want, abs=1e-12)
            assert b.value == pytest.approx(part_want, abs=1e-12)

    def test_b_stable_ratio_matches_exact_weight_mean(self):
        """With replicate-independent losses the variant ratio converges to
        Pr[a_b != 0], not to the published (2n-2)/(2n-1) closed form."""
        trainer = FirstFeatureTrainer()
        pooled = err_loob(
            OVERLAP_TEN, trainer, 0.0, 20000, 5, SamplingModel.UNORDERED_MULTISET, Variant.POOLED
        ).value
        part = err_loob(
            OVERLAP_TEN, trainer, 0.0, 20000, 5, SamplingModel.UNORDERED_MULTISET, Variant.PARTITIONED
        ).value
        ratio = part / pooled
        assert pooled == pytest.approx(0.4)  # fixed rule: 4 of 10 points misclassified
        assert ratio == pytest.approx(float(prob_some_unseen(10)), abs=0.01)
        assert abs(ratio - 18 / 19) > 0.03

    def test_ratio_is_classifier_insensitive(self):
        # two genuinely different trainers give ratios within 2 MC standard errors
        rng = np.random.default_rng(2)
        ds = StratifiedDataset(rng.normal(0, 1, (5, 2)), rng.normal(0.6, 1, (5, 2)))
        ratios = {}
        for trainer in (LdaTrainer(1e-6), NearestMeanTrainer()):
            per_seed = []
            for seed in range(8):
                pooled = err_loob(
                    ds, trainer, 0.0, 5000, seed, SamplingModel.UNORDERED_MULTISET, Variant.POOLED
                ).value
                part = err_loob(
                    ds, trainer, 0.0, 5000, seed, SamplingModel.UNORDERED_MULTISET, Variant.PARTITIONED
                ).value
                per_seed.append(part / pooled)
            ratios[trainer.name] = np.array(per_seed)
        values = list(ratios.values())
        diff = values[0].mean() - values[1].mean()
        se = np.hypot(values[0].std(ddof=1), values[1].std(ddof=1)) / np.sqrt(8)
        assert abs(diff) <= 2 * se + 1e-12

    def test_rejects_bad_budget(self):
        with pytest.raises(DomainError):
            err_loob(SEPARABLE, NearestMeanTrainer(), 0.0, 0, 1)


class TestLoobMemory:
    def test_peak_memory_stays_bounded_in_a_fresh_process(self):
        """LOOB error (LDA, p = 5) at n1 = n2 = 1000 and B = 10000: the whole
        (B, n) count matrix and its draw would peak near 340 MB, one tile's
        draw near 50 MB."""
        script = (
            "import numpy as np\n"
            "from cvlab.core import StratifiedDataset\n"
            "from cvlab.estimators import err_loob\n"
            "from cvlab.simlab import LdaTrainer\n"
            "rng = np.random.default_rng(0)\n"
            "ds = StratifiedDataset(rng.normal(0, 1, (1000, 5)), rng.normal(0.5, 1, (1000, 5)))\n"
            "print(repr(err_loob(ds, LdaTrainer(1e-6), 0.0, 10000, 3).value))\n"
        )
        peak_kib, value = fresh_process_peak(script)
        assert peak_kib < 100 * 1024
        assert value == "0.28337732683932143"  # the value of one whole (B, n) draw


class TestTracedTileMemory:
    """An estimate holds one tile's arrays at a time: on 100 + 100
    observations (p = 20), after a warm-up call, six tiles of tasks peak
    (``tracemalloc``) as one tile does.  Only a fold estimator's map, which is
    made whole before the first tile, grows with the tasks."""

    _rng = np.random.default_rng(0)
    DATA = StratifiedDataset(_rng.normal(0, 1, (100, 20)), _rng.normal(0.3, 1, (100, 20)))
    TILE = estimators.TASK_TILE_CELLS // DATA.n
    TRAINERS = [LdaTrainer(1e-6), NearestMeanTrainer()]

    def peaks(self, estimate):
        """Traced peaks of ``estimate(tasks)`` at one tile and at six tiles."""
        estimate(self.TILE)
        one = traced_peak(lambda: estimate(self.TILE))
        return one, traced_peak(lambda: estimate(6 * self.TILE))

    @pytest.mark.parametrize("trainer", TRAINERS, ids=lambda t: t.name)
    @pytest.mark.parametrize("loob", [err_loob, auc_lpobs], ids=lambda f: f.__name__)
    def test_loob_six_tiles_peak_as_one(self, loob, trainer):
        one, six = self.peaks(lambda b: loob(self.DATA, trainer, n_bootstrap=b, seed=3))
        assert six <= 1.1 * one, (one, six)

    @pytest.mark.parametrize("trainer", TRAINERS, ids=lambda t: t.name)
    def test_cvkm_grows_by_its_fold_map(self, trainer):
        one, six = self.peaks(lambda m: err_cvkm(self.DATA, trainer, 0.0, 2, m, 3))
        fold_map_growth = 5 * self.TILE * repeated_partitions(self.DATA.n, 2, 1, 0).nbytes
        assert six - one <= fold_map_growth + 0.5e6, (one, six, fold_map_growth)


class TestOneClassRedraw:
    """The redraw against the per-row reference in ``oracles``."""

    @staticmethod
    def both(counts, labels, model, seed):
        """(rows, error) of the redraw, then of the reference."""

        def redraw():
            rows = counts.copy()
            _redraw_one_class_rows(rows, labels, model, seed, 0)
            return rows

        def reference():
            retries = estimators.MAX_ONE_CLASS_RETRIES
            return redraw_one_class_rows(counts, labels, model, seed, retries)

        outcomes = []
        for run in (redraw, reference):
            try:
                outcomes.append((run(), None))
            except EstimationError as exc:
                outcomes.append((None, str(exc)))
        return outcomes

    @pytest.mark.parametrize("model", list(SamplingModel))
    @pytest.mark.parametrize("sizes", [(1, 5), (3, 1), (5, 5)])
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**63 - 1, 2**70 + 9])
    def test_rows_match_reference(self, model, sizes, seed):
        labels = np.repeat([1, 2], sizes)
        counts = bootstrap_counts_matrix(labels.size, 2000, model, seed)
        (rows, error), (want, want_error) = self.both(counts, labels, model, seed)
        assert error is None and want_error is None
        np.testing.assert_array_equal(rows, want)
        assert not np.array_equal(rows, counts)  # every case redraws some rows

    @pytest.mark.parametrize("model", list(SamplingModel))
    @pytest.mark.parametrize("retries", [1, 2])
    def test_exhausted_retries_raise_as_reference(self, model, retries, monkeypatch):
        monkeypatch.setattr(estimators, "MAX_ONE_CLASS_RETRIES", retries)
        labels = np.repeat([1, 2], (1, 5))
        counts = bootstrap_counts_matrix(6, 200, model, 3)
        (_, error), (_, want_error) = self.both(counts, labels, model, 3)
        assert error is not None
        assert error == want_error
        assert error.endswith(f"still one-class after {retries} redraws")

    def test_no_row_to_redraw_leaves_counts(self):
        labels = np.repeat([1, 2], (5, 5))
        counts = np.ones((3, 10), dtype=int)
        _redraw_one_class_rows(counts, labels, SamplingModel.ORDERED, 0, 0)
        np.testing.assert_array_equal(counts, 1)

    def test_redraw_builds_no_seed_sequence(self, monkeypatch):
        labels = np.repeat([1, 2], (1, 5))
        counts = bootstrap_counts_matrix(6, 200, SamplingModel.ORDERED, 0)
        built = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        _redraw_one_class_rows(counts, labels, SamplingModel.ORDERED, 0, 0)
        assert built == []
        derive_seed(0, "retry-0", 1)  # the count sees the per-row derivation
        assert len(built) == 1


class RaisingTrainer(Trainer):
    """Its ``train`` fails like a broken user trainer."""

    name = "raising"

    def train(self, dataset):
        raise ValueError("no convergence")


class BatchedTrainer(NearestMeanTrainer):
    """Nearest-mean whose batched hook is replaced by ``hook``."""

    def __init__(self, hook):
        self.hook = hook

    def weighted_scores(self, X, labels, counts, X_eval):
        return self.hook(counts)


class TestErrorPaths:
    """Each bound names its config key; each trainer failure its task."""

    @pytest.mark.parametrize("metric, sizes, message", [
        (Metric.ERROR, {"n_folds": 1}, "err_cvkr requires K >= 2"),
        (Metric.AUC, {"n_folds1": 1, "n_folds2": 2}, "auc_cvkr requires K1 >= 2 and K2 >= 2"),
        (Metric.AUC, {"n_folds1": 2, "n_folds2": 1}, "auc_cvkr requires K1 >= 2 and K2 >= 2"),
        (Metric.ERROR, {"n_folds": 2, "repetitions": 0}, "err_cvkr requires M >= 1"),
        (Metric.AUC, {"n_folds1": 2, "n_folds2": 2, "repetitions": 0},
         "auc_cvkr requires M >= 1"),
    ])
    def test_bounds_name_the_config_key(self, metric, sizes, message):
        with pytest.raises(DomainError) as caught:
            cfg = EstimatorConfig(Version.CVKR, metric, seed=0, **{"repetitions": 1, **sizes})
            variant_values(EIGHT_POINT, NearestMeanTrainer(), cfg)
        assert str(caught.value) == message

    def test_unbatched_failure_names_the_task(self):
        with pytest.raises(EstimationError) as caught:
            err_cvk(SIX_POINT, RaisingTrainer(), 0.0, 3)
        assert str(caught.value) == "trainer failed on fold 1: no convergence"
        assert isinstance(caught.value.__cause__, ValueError)

    def test_batched_failure_is_an_estimation_error(self):
        def hook(counts):
            raise np.linalg.LinAlgError("singular batch")

        with pytest.raises(EstimationError) as caught:
            err_loob(SIX_POINT, BatchedTrainer(hook), 0.0, 20, 1)
        assert str(caught.value) == "trainer failed on batched tasks: singular batch"

    def test_batched_estimation_error_passes_unchanged(self):
        def hook(counts):
            raise EstimationError("lda needs at least three observations")

        with pytest.raises(EstimationError) as caught:
            err_loob(SIX_POINT, BatchedTrainer(hook), 0.0, 20, 1)
        assert str(caught.value) == "lda needs at least three observations"

    @pytest.mark.parametrize("shape", [lambda c: c[:1], lambda c: c[:, :1], lambda c: c.T])
    def test_batched_misshaped_matrix(self, shape):
        with pytest.raises(EstimationError) as caught:
            err_loob(SIX_POINT, BatchedTrainer(shape), 0.0, 20, 1)
        assert str(caught.value) == "weighted_scores returned a misshaped matrix"


class NonFiniteOnCall(Trainer):
    """Nearest-mean without the batched hook, whose ``call``-th rule scores
    every point ``score``."""

    name = "non-finite-on-call"

    def __init__(self, call, score):
        self.call, self.score, self.calls = call, score, 0

    def train(self, dataset):
        self.calls += 1
        if self.calls == self.call:
            return LinearScoringRule(np.zeros(dataset.p), self.score)
        return NearestMeanTrainer().train(dataset)


class TestNonFiniteScores:
    """A NaN or infinite score is an EstimationError naming its task, on the
    batched and on the per-task path, for error and for AUC."""

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("estimate", [
        lambda t: err_loob(SIX_POINT, t, 0.0, 20, 1),
        lambda t: auc_lpobs(SIX_POINT, t, 20, 1),
    ], ids=["error", "auc"])
    def test_batched(self, estimate, score):
        def hook(counts):
            scores = np.zeros(counts.shape)
            scores[2, 4] = score
            return scores

        with pytest.raises(EstimationError) as caught:
            estimate(BatchedTrainer(hook))
        assert str(caught.value) == "trainer gave a non-finite score on replicate 2"

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("estimate, message", [
        (lambda t: err_cvk(SIX_POINT, t, 0.0, 3), "fold 2"),
        (lambda t: auc_cvk(SIX_POINT, t, 3, 3), "fold pair (1, 2)"),
    ], ids=["error", "auc"])
    def test_unbatched(self, estimate, message, score):
        with pytest.raises(EstimationError) as caught:
            estimate(NonFiniteOnCall(2, score))
        assert str(caught.value) == f"trainer gave a non-finite score on {message}"


def taken(metric, version, values):
    """The entries of ``values`` whose fields the (metric, version) estimator
    takes: a config may set no other."""
    fields = estimators._DISPATCH[metric, version][1].split()
    return {field: value for field, value in values.items() if field in fields}


# (metric, version, variant) for each variant ``_run`` can report: CVN takes
# no variant, and only AUC CVK has the reduced one
SWITCH_CASES = [
    (metric, version, variant)
    for metric, version in estimators._DISPATCH
    for variant in Variant
    if variant is Variant.POOLED or version is not Version.CVN
    if variant is not Variant.REDUCED or (metric, version) == (Metric.AUC, Version.CVK)
]


class TestPooledSwitch:
    """``_run`` asks for the pooled variant only when it reports it, and reports
    what ``variant_values`` gives with both variants on."""

    @pytest.mark.parametrize("metric, version, variant", SWITCH_CASES,
                             ids=[f"{m.value}-{v.value}-{w.value}" for m, v, w in SWITCH_CASES])
    def test_run_matches_both_variants(self, monkeypatch, metric, version, variant):
        cfg = EstimatorConfig(version, metric, variant, **taken(metric, version, {
            "n_folds": 3, "n_folds1": 3, "n_folds2": 3, "repetitions": 4, "n_bootstrap": 20,
            "seed": 5}))
        both = variant_values(SIX_POINT, NearestMeanTrainer(), cfg)
        asked = []

        def spy(*args, pooled=True):
            asked.append(pooled)
            return variant_values(*args, pooled=pooled)

        monkeypatch.setattr(estimators, "variant_values", spy)
        report = estimators._run(SIX_POINT, NearestMeanTrainer(), cfg)
        value, excluded = both.pick(Variant.PARTITIONED if cfg.reduced else variant)
        assert (repr(report.value), report.excluded_count) == (repr(value), excluded)
        assert asked == [variant is Variant.POOLED]
        partitioned_only = variant_values(SIX_POINT, NearestMeanTrainer(), cfg, pooled=False)
        assert partitioned_only.pooled is None
        assert repr(partitioned_only.partitioned) == repr(both.partitioned)
        assert partitioned_only.skipped == both.skipped


class FailingOnCall(Trainer):
    """Nearest-mean without the batched hook, whose ``call``-th training fails."""

    name = "failing-on-call"

    def __init__(self, call):
        self.call, self.calls = call, 0

    def train(self, dataset):
        self.calls += 1
        if self.calls == self.call:
            raise ValueError("no convergence")
        return NearestMeanTrainer().train(dataset)


class TestTiles:
    """Tasks train in tiles; messages name the task's index over every tile."""

    # two class-1 points: a task that leaves out the fold holding both of
    # them trains on class 2 only
    ONE_CLASS_LAST = StratifiedDataset(
        np.array([[0.0], [0.1]]), np.array([[1.0], [1.1], [1.2], [1.3]])
    )

    @pytest.mark.parametrize("trainer", [RaisingTrainer(), BatchedTrainer(lambda c: 1 / 0)],
                             ids=["unbatched", "batched"])
    @pytest.mark.parametrize("estimate, message", [
        # the permutation puts both class-1 points in fold 3, the last task
        (lambda d, t: err_cvk(d, t, 0.0, 3, perm=[5, 6, 1, 2, 3, 4]), "fold 3"),
        # seed 0: run 0 splits class 1; run 1 holds both its points in fold 3
        (lambda d, t: err_cvkr(d, t, 0.0, 3, 2, 0), "run 1 fold 3"),
        # seed 39: only run 1 holds both class-1 points in its test fold 1
        (lambda d, t: err_cvkm(d, t, 0.0, 3, 2, 39), "run 1 fold 1"),
    ], ids=["cvk", "cvkr", "cvkm"])
    def test_one_class_task_of_a_later_tile_fails_before_any_training(self, monkeypatch,
                                                                       estimate, message,
                                                                       trainer):
        monkeypatch.setattr(estimators, "TASK_TILE_CELLS", 1)
        with pytest.raises(EstimationError) as caught:
            estimate(self.ONE_CLASS_LAST, trainer)
        assert str(caught.value) == f"{message} leaves a one-class training set"

    @pytest.mark.parametrize("estimate, call, message", [
        (lambda t: err_cvk(SIX_POINT, t, 0.0, 3), 3, "fold 3"),
        (lambda t: err_cvkr(SIX_POINT, t, 0.0, 3, 2, 5), 4, "run 1 fold 1"),
        (lambda t: err_loob(SIX_POINT, t, 0.0, 20, 1), 3, "replicate 2"),
    ])
    def test_trainer_failure_in_tile_two_names_its_global_task(self, monkeypatch, estimate,
                                                              call, message):
        # two tasks per tile: trainings 3 and 4 are the tasks of tile 2
        monkeypatch.setattr(estimators, "TASK_TILE_CELLS", 2 * SIX_POINT.n)
        with pytest.raises(EstimationError) as caught:
            estimate(FailingOnCall(call))
        assert str(caught.value) == f"trainer failed on {message}: no convergence"

    # a 3-vs-1 pool sheds its single class-2 point in about a third of the replicates
    THREE_VS_ONE = StratifiedDataset(np.array([[-1.0], [-0.5], [-0.2]]), np.array([[1.0]]))
    # (model, seed, the first replicate still one-class after one redraw)
    EXHAUSTED = [(SamplingModel.ORDERED, 6, 10), (SamplingModel.UNORDERED_MULTISET, 3, 13)]

    @pytest.mark.parametrize("model, seed, replicate", EXHAUSTED, ids=["ordered", "multiset"])
    def test_exhausted_redraw_in_a_later_tile_names_its_global_replicate(self, monkeypatch,
                                                                        model, seed, replicate):
        monkeypatch.setattr(estimators, "MAX_ONE_CLASS_RETRIES", 1)
        monkeypatch.setattr(estimators, "TASK_TILE_CELLS", 2 * self.THREE_VS_ONE.n)
        message = f"replicate {replicate}: still one-class after 1 redraws"
        counts = bootstrap_counts_matrix(4, 20, model, seed)
        with pytest.raises(EstimationError, match=f"^{message}$"):
            redraw_one_class_rows(counts, self.THREE_VS_ONE.pooled()[1], model, seed, 1)
        trainer = FailingOnCall(0)  # never fails; counts its trainings
        with pytest.raises(EstimationError) as caught:
            err_loob(self.THREE_VS_ONE, trainer, 0.0, 20, seed, model)
        assert str(caught.value) == message
        # the replicate's tile is drawn after the tiles before it trained
        assert trainer.calls == replicate - replicate % 2

    @pytest.mark.parametrize("model, seed, replicate", EXHAUSTED, ids=["ordered", "multiset"])
    @pytest.mark.parametrize("call", [1, 3])
    def test_trainer_failure_in_an_earlier_tile_wins_over_an_exhausted_redraw(
            self, monkeypatch, model, seed, replicate, call):
        monkeypatch.setattr(estimators, "MAX_ONE_CLASS_RETRIES", 1)
        monkeypatch.setattr(estimators, "TASK_TILE_CELLS", 2 * self.THREE_VS_ONE.n)
        with pytest.raises(EstimationError) as caught:
            err_loob(self.THREE_VS_ONE, FailingOnCall(call), 0.0, 20, seed, model)
        assert str(caught.value) == f"trainer failed on replicate {call - 1}: no convergence"


# (metric, version, estimator name, field) for each size or seed an estimator takes
UNSET_CASES = [
    (metric, version, name, field)
    for (metric, version), (name, fields) in estimators._DISPATCH.items()
    for field in fields.split()
    if field in estimators._CONFIG_KEYS
]
UNSET_IDS = [f"{name}-{field}" for _, _, name, field in UNSET_CASES]


class TestUnsetParameters:
    """An unset size or seed is a DomainError naming its config key, however
    the estimator is called."""

    @pytest.mark.parametrize("metric, version, name, field", UNSET_CASES, ids=UNSET_IDS)
    def test_public_function(self, metric, version, name, field):
        with pytest.raises(DomainError) as caught:
            getattr(estimators, name)(EIGHT_POINT, NearestMeanTrainer(), **{field: None})
        assert str(caught.value) == f"{version.value} needs '{estimators._CONFIG_KEYS[field]}'"

    @pytest.mark.parametrize("metric, version, name, field", UNSET_CASES, ids=UNSET_IDS)
    def test_variant_values(self, metric, version, name, field):
        sizes = taken(metric, version, {
            "n_folds": 2, "n_folds1": 2, "n_folds2": 2, "repetitions": 1, "n_bootstrap": 1,
            "seed": 0})
        with pytest.raises(DomainError) as caught:
            cfg = EstimatorConfig(version, metric, **{**sizes, field: None})
            variant_values(EIGHT_POINT, NearestMeanTrainer(), cfg)
        assert str(caught.value) == f"{version.value} needs '{estimators._CONFIG_KEYS[field]}'"


class CountingTrainer(Trainer):
    """Nearest-mean without the batched hook, counting its trainings."""

    name = "counting"

    def __init__(self):
        self.tasks = 0

    def train(self, dataset):
        self.tasks += 1
        return NearestMeanTrainer().train(dataset)


class TestReducedIsAucCvkOnly:
    """Only AUC CVK has a reduced variant; any other reduced config is refused
    when it is made, so no task trains."""

    @pytest.mark.parametrize("metric, version", [
        key for key in estimators._DISPATCH if key != (Metric.AUC, Version.CVK)
    ], ids=lambda v: v.value)
    def test_config_refuses_it(self, metric, version):
        name = estimators._DISPATCH[metric, version][0]
        message = (f"{name} does not take 'variant'" if version is Version.CVN
                   else "variant reduced not defined for this estimator")
        with pytest.raises(DomainError) as caught:
            EstimatorConfig(version, metric, Variant.REDUCED, **taken(metric, version, {
                "n_folds": 2, "n_folds1": 2, "n_folds2": 2, "repetitions": 1, "n_bootstrap": 1,
                "seed": 0}))
        assert str(caught.value) == message

    CALLS = [
        ("err_cvk", {}), ("err_cvkr", {"repetitions": 20}), ("err_cvkm", {"repetitions": 20}),
        ("err_loob", {"n_bootstrap": 40}), ("auc_cvkr", {"repetitions": 20}),
        ("auc_cvkm", {"repetitions": 20}), ("auc_lpobs", {"n_bootstrap": 40}),
    ]

    @pytest.mark.parametrize("name, sizes", CALLS, ids=[name for name, _ in CALLS])
    def test_public_function_trains_nothing(self, name, sizes):
        trainer = CountingTrainer()
        with pytest.raises(DomainError) as caught:
            getattr(estimators, name)(EIGHT_POINT, trainer, variant=Variant.REDUCED, **sizes)
        assert str(caught.value) == "variant reduced not defined for this estimator"
        assert trainer.tasks == 0


rng_twelve = np.random.default_rng(12)
TWELVE_POINT = StratifiedDataset(rng_twelve.normal(0, 1, (6, 2)), rng_twelve.normal(0.7, 1, (6, 2)))

# A value other than the default for each field an estimator takes; the
# public functions take ``sampling`` as ``model``.
RUN_FIELDS = {
    "th": 0.25, "n_folds": 4, "n_folds1": 3, "n_folds2": 2, "repetitions": 3, "n_bootstrap": 9,
    "seed": 7, "sampling": SamplingModel.UNORDERED_MULTISET, "strict": True,
}
RUN_CASES = [
    (metric, version, name, variant)
    for (metric, version), (name, fields) in estimators._DISPATCH.items()
    for variant in (tuple(Variant) if "variant" in fields.split() else (Variant.POOLED,))
]
# (metric, version, field) for each field other than the seed that an
# estimator does not take: 56 of the 90 pairs
UNTAKEN_CASES = [
    (metric, version, field)
    for (metric, version), (_, fields) in estimators._DISPATCH.items()
    for field in ("variant", *RUN_FIELDS)
    if field != "seed" and field not in fields.split()
]


def report_outcome(call):
    """(value, excluded count, JSON dict) of ``call()``, or its exception's
    type and message."""
    try:
        report = call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return repr(report.value), report.excluded_count, report.to_json_dict()


class TestRun:
    """``run`` forwards every field its function takes; a config that sets
    any other is refused when it is made."""

    @pytest.mark.parametrize("metric, version, name, variant", RUN_CASES,
                             ids=[f"{c[2]}-{c[3].value}" for c in RUN_CASES])
    def test_matches_the_public_function(self, metric, version, name, variant):
        fields = [f for f in estimators._DISPATCH[metric, version][1].split() if f != "variant"]
        given = {f: RUN_FIELDS[f] for f in fields}
        if variant is not Variant.POOLED:
            given["variant"] = variant
        kwargs = {"model" if f == "sampling" else f: v for f, v in given.items()}
        trainer = NearestMeanTrainer()
        want = report_outcome(lambda: getattr(estimators, name)(TWELVE_POINT, trainer, **kwargs))
        got = report_outcome(
            lambda: estimators.run(TWELVE_POINT, trainer, EstimatorConfig(version, metric, **given)))
        assert got == want

    @pytest.mark.parametrize("metric, version, field", UNTAKEN_CASES,
                             ids=[f"{m.value}-{v.value}-{f}" for m, v, f in UNTAKEN_CASES])
    def test_refuses_a_field_its_function_does_not_take(self, tmp_path, capsys, metric, version,
                                                        field):
        """Refused when the config is made, and by ``cvlab estimate`` before
        it reads the dataset (the file does not exist) or writes a file."""
        name, fields = estimators._DISPATCH[metric, version]
        given = {f: RUN_FIELDS[f] for f in fields.split() if f != "variant"}
        given[field] = RUN_FIELDS.get(
            field, Variant.PARTITIONED if metric is Metric.ERROR else Variant.REDUCED)
        message = f"{name} does not take '{estimators._CONFIG_KEYS.get(field, field)}'"
        with pytest.raises(DomainError) as caught:
            EstimatorConfig(version, metric, **given)
        assert str(caught.value) == message

        keys = [f"{estimators._CONFIG_KEYS.get(f, f)} = {getattr(v, 'value', v)}"
                for f, v in given.items()]
        out = tmp_path / "out"
        config = tmp_path / "est.ini"
        config.write_text("\n".join([
            "[estimator]", f"version = {version.value}", f"metric = {metric.value}", *keys,
            "[trainer]", "id = nearest-mean",
            "[io]", f"dataset = {tmp_path / 'data.csv'}", f"out_json = {out / 'est.json'}",
        ]) + "\n", encoding="utf-8")
        assert cli.main(["estimate", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def divisor_of(n):
    """A fold count K >= 2 that divides n."""
    return st.sampled_from([k for k in range(2, n + 1) if n % k == 0])


@st.composite
def pooled_fold_case(draw):
    """(n1, n2, K): class sizes in 1..6 and a fold count dividing n1 + n2."""
    n1, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return n1, n2, draw(divisor_of(n1 + n2))


class TestOneClassFoldTasks:
    """The fold-id check flags exactly the tasks the dense one-class rule flags."""

    @staticmethod
    def expect(estimate, maps, folds, n1, n2):
        """``estimate()`` raises for the oracle's first one-class task, or runs."""
        weights = np.array([m != g for m in maps for g in folds], dtype=int)
        bad = one_class_tasks(weights, np.repeat([1, 2], (n1, n2)))
        if not bad:
            estimate()
            return
        run, fold = divmod(bad[0], len(folds))
        name = f"fold {folds[fold]}"
        task = f"run {run} {name}" if len(maps) > 1 else name
        with pytest.raises(EstimationError) as caught:
            estimate()
        assert str(caught.value) == f"{task} leaves a one-class training set"

    @staticmethod
    def dataset(n1, n2):
        return StratifiedDataset(np.arange(n1)[:, None] * 1.0, np.arange(n2)[:, None] + 0.5)

    @given(pooled_fold_case(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_cvk(self, case, data):
        n1, n2, k = case
        perm = data.draw(st.permutations(range(1, n1 + n2 + 1)))
        maps = [make_partition(n1 + n2, k, perm)]
        self.expect(lambda: err_cvk(self.dataset(n1, n2), NearestMeanTrainer(), 0.0, k, perm=perm),
                    maps, list(range(1, k + 1)), n1, n2)

    @given(pooled_fold_case(), st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.sampled_from([err_cvkr, err_cvkm]))
    @settings(max_examples=150, deadline=None)
    def test_repeated(self, case, m, seed, estimate):
        n1, n2, k = case
        maps = repeated_partitions(n1 + n2, k, m, seed)
        folds = list(range(1, k + 1)) if estimate is err_cvkr else [1]
        self.expect(lambda: estimate(self.dataset(n1, n2), NearestMeanTrainer(), 0.0, k, m, seed),
                    maps, folds, n1, n2)

    @given(st.integers(2, 6), st.integers(2, 6), st.data(), st.integers(1, 5),
           st.integers(0, 2**32 - 1), st.sampled_from(list(SamplingModel)))
    @settings(max_examples=100, deadline=None)
    def test_auc_tasks_keep_both_classes(self, n1, n2, data, m, seed, model):
        labels = np.repeat([1, 2], (n1, n2))
        k1, k2 = data.draw(divisor_of(n1)), data.draw(divisor_of(n2))
        s1, s2 = derive_seed(seed, "class1"), derive_seed(seed, "class2")
        m1, m2 = repeated_partitions(n1, k1, m, s1), repeated_partitions(n2, k2, m, s2)
        weights = np.array([
            np.concatenate([m1[r] != g1, m2[r] != g2])
            for r in range(m) for g1 in range(1, k1 + 1) for g2 in range(1, k2 + 1)
        ], dtype=int)
        assert one_class_tasks(weights, labels) == []
        counts = np.hstack([bootstrap_counts_matrix(n1, 20, model, s1),
                            bootstrap_counts_matrix(n2, 20, model, s2)])
        assert one_class_tasks(counts, labels) == []


class TestEstimatorConfig:
    @pytest.mark.parametrize("th", [np.nan, np.inf, -np.inf])
    def test_threshold_must_be_finite(self, th):
        with pytest.raises(DomainError):
            EstimatorConfig(Version.CVN, Metric.ERROR, th=th)


class TestAsymptoticBehaviour:
    def test_cvkm_variants_and_cvkr_converge_together(self):
        """Both Monte-Carlo CV claims at once: the pooled/partitioned gap and
        the distance to repeated CV shrink as the run budget grows (medians
        over 50 seeds, run budgets 100 / 1000 / 20000)."""
        trainer = NearestMeanTrainer()
        ds = StratifiedDataset(
            np.array([[-1.0], [0.2], [0.9]]), np.array([[-0.4], [0.5], [1.3]])
        )
        budgets = (100, 1000, 20000)
        variant_gaps = {m: [] for m in budgets}
        redundancy_gaps = {m: [] for m in budgets}
        for seed in range(50):
            for m in budgets:
                pooled = err_cvkm(ds, trainer, 0.0, 3, m, seed, Variant.POOLED).value
                part = err_cvkm(ds, trainer, 0.0, 3, m, seed, Variant.PARTITIONED).value
                cvkr = err_cvkr(ds, trainer, 0.0, 3, m, seed, Variant.POOLED).value
                variant_gaps[m].append(abs(pooled - part))
                redundancy_gaps[m].append(abs(pooled - cvkr))
        med_variant = {m: float(np.median(variant_gaps[m])) for m in budgets}
        med_redundancy = {m: float(np.median(redundancy_gaps[m])) for m in budgets}
        assert med_variant[20000] < med_variant[100]
        assert med_redundancy[20000] < med_redundancy[100]
        # successive-gap medians also decrease through the middle budget
        assert med_variant[20000] <= med_variant[1000] <= med_variant[100]


class TestCompleteCV:
    """Repeated K-fold CV against complete CV, every distinct fold map of the
    convergence test's dataset enumerated with its per-fold losses as
    Fractions (``oracles.complete_cv``).  Nothing here depends on how the
    maps are drawn: the lookups read the maps the estimator draws."""

    DATASET = StratifiedDataset(np.array([[-1.0], [0.2], [0.9]]), np.array([[-0.4], [0.5], [1.3]]))

    @pytest.fixture(scope="class")
    def units(self):
        return complete_cv(self.DATASET, NearestMeanTrainer(), (3,))

    @pytest.fixture(scope="class")
    def per_map(self, units):
        return {fold_map: tuple(map(cvk_loss, tasks)) for fold_map, tasks in units.items()}

    def test_limit_is_complete_cv(self, per_map):
        # 6! / (2! 2! 2!) labelled maps; CVKR's and CVKM's M -> infinity limits
        assert len(per_map) == 90
        assert sum(sum(losses) / 3 for losses in per_map.values()) / 90 == Fraction(7, 10)
        assert sum(losses[0] for losses in per_map.values()) / 90 == Fraction(7, 10)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_partitioned_value_is_the_mean_over_the_drawn_maps(self, per_map, seed):
        drawn = [per_map[(tuple(row),)] for row in repeated_partitions(6, 3, 1000, seed)]
        cvkr = np.array([float(sum(losses) / 3) for losses in drawn]).mean()
        cvkm = np.array([float(losses[0]) for losses in drawn]).mean()  # CVKM tests fold 1
        trainer = NearestMeanTrainer()
        for estimator, want in ((err_cvkr, cvkr), (err_cvkm, cvkm)):
            report = estimator(self.DATASET, trainer, 0.0, 3, 1000, seed, Variant.PARTITIONED)
            assert report.value == want

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_pooled_value_is_the_unit_mean_over_the_drawn_maps(self, units, seed):
        # each unit sum is an integer, so no order of addition can move it
        drawn = [units[(tuple(row),)] for row in repeated_partitions(6, 3, 1000, seed)]
        trainer = NearestMeanTrainer()
        for estimator, tested in ((err_cvkr, slice(None)), (err_cvkm, slice(1))):
            want = pooled_value(task for tasks in drawn for task in tasks[tested])
            report = estimator(self.DATASET, trainer, 0.0, 3, 1000, seed, Variant.POOLED)
            assert report.value == want


def loob_standard_errors(losses, oob, weights, n_bootstrap):
    """(pooled, partitioned) standard errors of the leave-one-out bootstrap
    at B = ``n_bootstrap`` replicates drawn from the enumerated distribution,
    row b with probability proportional to ``weights[b]``.

    Partitioned is a mean over the usable replicates (those with a non-empty
    out-of-bag set): its variance is Var(X | usable) / (B Pr[usable]), X
    being a replicate's mean out-of-bag loss.  Pooled is a mean over
    observations of ratio estimators; to first order it moves by the mean
    over replicates of Z = mean_i oob_i (loss_i - r_i) / Pr[oob_i], r_i being
    observation i's limit, so its variance is E[Z^2] / B.
    """
    prob = np.array([float(w) for w in weights]) / float(sum(weights))
    losses, oob = losses.astype(float), oob.astype(float)
    unseen = oob.sum(axis=1)
    usable = unseen > 0
    x = (losses * oob).sum(axis=1)[usable] / unseen[usable]
    p_usable = prob[usable].sum()
    var_x = prob[usable] @ (x - prob[usable] @ x / p_usable) ** 2 / p_usable
    p_oob = prob @ oob
    r = (prob @ (losses * oob)) / p_oob
    z = (oob * (losses - r) / p_oob).mean(axis=1)
    return math.sqrt(prob @ z**2 / n_bootstrap), math.sqrt(var_x / (n_bootstrap * p_usable))


class TestLoobLimits:
    """The leave-one-out bootstrap against its exact B -> infinity limits,
    every two-class replicate of a 3 + 3 dataset enumerated and weighted by
    its probability under the sampling model (``oracles.loob_limits``)."""

    DATASET = StratifiedDataset(
        np.array([[-0.9, 0.3], [0.4, -0.6], [0.7, 1.2]]),
        np.array([[-0.2, 0.8], [1.1, 0.1], [0.5, 1.6]]),
    )

    @pytest.mark.parametrize("model", list(SamplingModel))
    def test_large_b_lies_within_4_se_of_both_limits(self, model):
        features, labels = self.DATASET.pooled()
        counts = two_class_multisets(labels)
        weights = replicate_weights(counts, model is SamplingModel.ORDERED)
        trainer = NearestMeanTrainer()
        scores = trainer.weighted_scores(features, labels, counts, features)
        losses = np.where(scores >= 0.0, 2, 1) != labels
        limits = loob_limits(losses, counts == 0, weights)
        assert all(isinstance(limit, Fraction) for limit in limits)
        ses = loob_standard_errors(losses, counts == 0, weights, 100_000)
        cfg = EstimatorConfig(Version.LOOB, Metric.ERROR, n_bootstrap=100_000, sampling=model,
                              seed=3)
        values = variant_values(self.DATASET, trainer, cfg)
        for value, limit, se in zip((values.pooled, values.partitioned), limits, ses):
            assert abs(value - limit) <= 4 * se


class TestReportContract:
    def test_config_echo_and_bounds(self):
        report = err_cvk(EIGHT_POINT, NearestMeanTrainer(), 0.0, 4, Variant.PARTITIONED)
        payload = report.to_json_dict()
        assert payload["schema"] == 1
        assert payload["version"] == "CVK"
        assert payload["variant"] == "partitioned"
        assert payload["metric"] == "error"
        assert payload["n_folds"] == 4
        assert payload["n1"] == 3 and payload["n2"] == 5
        assert 0.0 <= payload["value"] <= 1.0

    def test_csv_fields_align(self):
        # the CLI writes the payload as one CSV row: one scalar field per key
        payload = err_cvn(SIX_POINT, NearestMeanTrainer()).to_json_dict()
        assert all(v is None or isinstance(v, (str, int, float)) for v in payload.values())
        assert "value" in payload
