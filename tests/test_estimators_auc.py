"""AUC estimator tests.

Oracles mirror the error-rate suite: explicit loops over fold pairs / runs /
replicates that call ``trainer.train`` on materialized subsets and average
the rank kernel by hand.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlab.core import (
    DomainError,
    LinearScoringRule,
    StratifiedDataset,
    Trainer,
)
from cvlab import estimators
from cvlab.estimators import (
    CoverageError,
    Metric,
    Variant,
    Version,
    auc_cvk,
    auc_cvkm,
    auc_cvkr,
    auc_cvn,
    auc_lpobs,
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
    float_pair_sums,
    fresh_process_peak,
    mw_kernel,
    pooled_value,
    random_permutation,
)


class ConstantScoreTrainer(Trainer):
    """Every rule scores every point identically: all kernel values are 0.5."""

    name = "constant"

    def train(self, dataset):
        return LinearScoringRule(np.zeros(dataset.p), 1.0)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def score(rule, x):
    return rule.score_many(x[None, :])[0]


def train_pair_subset(trainer, dataset, keep1, keep2):
    return trainer.train(
        StratifiedDataset(dataset.class1[keep1], dataset.class2[keep2])
    )


def oracle_auc_cvn(dataset, trainer):
    total = 0.0
    for i in range(dataset.n1):
        for j in range(dataset.n2):
            rule = train_pair_subset(
                trainer, dataset, np.arange(dataset.n1) != i, np.arange(dataset.n2) != j
            )
            total += mw_kernel(
                score(rule, dataset.class1[i]), score(rule, dataset.class2[j])
            )
    return total / (dataset.n1 * dataset.n2)


def oracle_cell_kernel(dataset, trainer, assign1, assign2, k1, k2):
    rule = train_pair_subset(trainer, dataset, assign1 != k1, assign2 != k2)
    values = [
        mw_kernel(score(rule, dataset.class1[i]), score(rule, dataset.class2[j]))
        for i in np.flatnonzero(assign1 == k1)
        for j in np.flatnonzero(assign2 == k2)
    ]
    return float(np.mean(values)), len(values)


def oracle_auc_cvk(dataset, trainer, n_folds1, n_folds2, variant, perms=(None, None)):
    assign1 = make_partition(dataset.n1, n_folds1, perms[0])
    assign2 = make_partition(dataset.n2, n_folds2, perms[1])
    cell_means = []
    pooled_total = 0.0
    for k1 in range(1, n_folds1 + 1):
        for k2 in range(1, n_folds2 + 1):
            mean, count = oracle_cell_kernel(dataset, trainer, assign1, assign2, k1, k2)
            cell_means.append(mean)
            pooled_total += mean * count
    if variant is Variant.POOLED:
        return pooled_total / (dataset.n1 * dataset.n2)
    return float(np.mean(cell_means))


def oracle_auc_cvkr(dataset, trainer, n_folds1, n_folds2, repetitions, seed, variant):
    rep1 = repeated_partitions(dataset.n1, n_folds1, repetitions, derive_seed(seed, "class1"))
    rep2 = repeated_partitions(dataset.n2, n_folds2, repetitions, derive_seed(seed, "class2"))
    pooled_runs = []
    partitioned_runs = []
    for m in range(repetitions):
        a1, a2 = rep1[m], rep2[m]
        cell_means = []
        pooled_total = 0.0
        for k1 in range(1, n_folds1 + 1):
            for k2 in range(1, n_folds2 + 1):
                mean, count = oracle_cell_kernel(dataset, trainer, a1, a2, k1, k2)
                cell_means.append(mean)
                pooled_total += mean * count
        pooled_runs.append(pooled_total / (dataset.n1 * dataset.n2))
        partitioned_runs.append(np.mean(cell_means))
    if variant is Variant.POOLED:
        # per-pair average over runs, then over pairs: every pair appears once
        # per run, so this equals the mean of the per-run pooled values
        return float(np.mean(pooled_runs))
    return float(np.mean(partitioned_runs))


def oracle_auc_cvkm(dataset, trainer, n_folds1, n_folds2, repetitions, seed):
    rep1 = repeated_partitions(dataset.n1, n_folds1, repetitions, derive_seed(seed, "class1"))
    rep2 = repeated_partitions(dataset.n2, n_folds2, repetitions, derive_seed(seed, "class2"))
    pair_sums = np.zeros((dataset.n1, dataset.n2))
    pair_hits = np.zeros((dataset.n1, dataset.n2))
    run_means = []
    for m in range(repetitions):
        a1, a2 = rep1[m], rep2[m]
        rule = train_pair_subset(trainer, dataset, a1 != 1, a2 != 1)
        values = []
        for i in np.flatnonzero(a1 == 1):
            for j in np.flatnonzero(a2 == 1):
                psi = mw_kernel(score(rule, dataset.class1[i]), score(rule, dataset.class2[j]))
                pair_sums[i, j] += psi
                pair_hits[i, j] += 1
                values.append(psi)
        run_means.append(np.mean(values))
    covered = pair_hits > 0
    pooled = float((pair_sums[covered] / pair_hits[covered]).mean())
    return pooled, float(np.mean(run_means)), int((~covered).sum())


def oracle_lpobs(dataset, trainer, counts1, counts2):
    pair_sums = np.zeros((dataset.n1, dataset.n2))
    pair_hits = np.zeros((dataset.n1, dataset.n2))
    rep_means = []
    for c1, c2 in zip(counts1, counts2):
        rule = trainer.train(
            StratifiedDataset(
                np.repeat(dataset.class1, c1, axis=0), np.repeat(dataset.class2, c2, axis=0)
            )
        )
        rows = np.flatnonzero(c1 == 0)
        cols = np.flatnonzero(c2 == 0)
        if rows.size == 0 or cols.size == 0:
            continue
        values = []
        for i in rows:
            for j in cols:
                psi = mw_kernel(score(rule, dataset.class1[i]), score(rule, dataset.class2[j]))
                pair_sums[i, j] += psi
                pair_hits[i, j] += 1
                values.append(psi)
        rep_means.append(np.mean(values))
    covered = pair_hits > 0
    pooled = float((pair_sums[covered] / pair_hits[covered]).mean())
    return pooled, float(np.mean(rep_means)), int((~covered).sum())


SEPARABLE = StratifiedDataset(
    np.array([[-2.0], [-1.5], [-1.0], [-0.8]]), np.array([[1.0], [1.5], [2.0], [2.5]])
)

THREE_BY_THREE = StratifiedDataset(
    np.array([[-0.9], [0.4], [1.2]]), np.array([[-0.2], [0.8], [1.9]])
)

rng_fixed = np.random.default_rng(2718)
FOUR_BY_FOUR = StratifiedDataset(rng_fixed.normal(0, 1, (4, 2)), rng_fixed.normal(0.6, 1, (4, 2)))

OVERLAP = StratifiedDataset(
    np.array([[-0.5], [0.3], [1.1], [2.0], [-1.2]]),
    np.array([[0.1], [-0.8], [1.5], [0.7], [2.2]]),
)


class TestAucCvn:
    def test_separable_is_one(self):
        assert auc_cvn(SEPARABLE, NearestMeanTrainer()).value == 1.0

    def test_constant_scores_give_half(self):
        assert auc_cvn(THREE_BY_THREE, ConstantScoreTrainer()).value == 0.5

    def test_matches_nine_training_oracle(self):
        trainer = NearestMeanTrainer()
        got = auc_cvn(THREE_BY_THREE, trainer).value
        assert got == pytest.approx(oracle_auc_cvn(THREE_BY_THREE, trainer), abs=1e-12)

    def test_size_precondition(self):
        tiny = StratifiedDataset(np.array([[0.0]]), np.array([[1.0], [2.0]]))
        with pytest.raises(DomainError):
            auc_cvn(tiny, NearestMeanTrainer())


class TestAucCvk:
    def test_reduces_to_cvn(self):
        for seed in range(5):
            r = np.random.default_rng(seed)
            ds = StratifiedDataset(r.normal(0, 1, (3, 2)), r.normal(0.5, 1, (4, 2)))
            trainer = NearestMeanTrainer()
            gap = abs(
                auc_cvk(ds, trainer, ds.n1, ds.n2, Variant.POOLED).value
                - auc_cvn(ds, trainer).value
            )
            assert gap <= 1e-12

    def test_separable_is_one_for_all_variants(self):
        trainer = NearestMeanTrainer()
        for variant in (Variant.POOLED, Variant.PARTITIONED, Variant.REDUCED):
            assert auc_cvk(SEPARABLE, trainer, 2, 2, variant).value == 1.0

    def test_pooled_and_partitioned_match_oracle(self):
        trainer = NearestMeanTrainer()
        for variant in (Variant.POOLED, Variant.PARTITIONED):
            got = auc_cvk(FOUR_BY_FOUR, trainer, 2, 2, variant).value
            want = oracle_auc_cvk(FOUR_BY_FOUR, trainer, 2, 2, variant)
            assert got == pytest.approx(want, abs=1e-12)

    def test_pooled_equals_partitioned(self):
        trainer = LdaTrainer(1e-6)
        a = auc_cvk(FOUR_BY_FOUR, trainer, 2, 4, Variant.POOLED).value
        b = auc_cvk(FOUR_BY_FOUR, trainer, 2, 4, Variant.PARTITIONED).value
        assert abs(a - b) <= 1e-12

    def test_permutations_are_honored(self):
        trainer = NearestMeanTrainer()
        perms = (random_permutation(4, 3, 0), random_permutation(4, 3, 1))
        got = auc_cvk(FOUR_BY_FOUR, trainer, 2, 2, Variant.POOLED, perms=perms).value
        want = oracle_auc_cvk(FOUR_BY_FOUR, trainer, 2, 2, Variant.POOLED, perms=perms)
        assert got == pytest.approx(want, abs=1e-12)

    def test_reduced_variant_differs_on_witness(self):
        # frozen witness dataset: the same-index pairing changes the value
        r = np.random.default_rng(0)
        ds = StratifiedDataset(r.normal(0, 1, (6, 2)), r.normal(0.8, 1, (6, 2)))
        trainer = LdaTrainer(1e-6)
        part = auc_cvk(ds, trainer, 3, 3, Variant.PARTITIONED).value
        reduced = auc_cvk(ds, trainer, 3, 3, Variant.REDUCED).value
        assert abs(part - reduced) > 1e-6

    def test_reduced_matches_matched_fold_oracle(self):
        trainer = NearestMeanTrainer()
        assign = make_partition(4, 2)
        cell_means = [
            oracle_cell_kernel(FOUR_BY_FOUR, trainer, assign, assign, k, k)[0]
            for k in (1, 2)
        ]
        got = auc_cvk(FOUR_BY_FOUR, trainer, 2, 2, Variant.REDUCED).value
        assert got == pytest.approx(float(np.mean(cell_means)), abs=1e-12)

    def test_reduced_requires_matching_fold_counts(self):
        with pytest.raises(DomainError):
            auc_cvk(FOUR_BY_FOUR, NearestMeanTrainer(), 2, 4, Variant.REDUCED)

    def test_divisibility(self):
        with pytest.raises(DomainError):
            auc_cvk(FOUR_BY_FOUR, NearestMeanTrainer(), 3, 2)


class TestAucCvkr:
    def test_single_repetition_equals_cvk_on_same_permutations(self):
        trainer = NearestMeanTrainer()
        seed = 5
        got = auc_cvkr(FOUR_BY_FOUR, trainer, 2, 2, 1, seed, Variant.POOLED).value
        perms = (
            random_permutation(4, derive_seed(seed, "class1"), 0),
            random_permutation(4, derive_seed(seed, "class2"), 0),
        )
        want = auc_cvk(FOUR_BY_FOUR, trainer, 2, 2, Variant.POOLED, perms=perms).value
        assert got == pytest.approx(want, abs=1e-15)

    def test_constant_scores_give_half(self):
        assert auc_cvkr(FOUR_BY_FOUR, ConstantScoreTrainer(), 2, 2, 3, 1).value == 0.5

    def test_matches_oracle(self):
        trainer = NearestMeanTrainer()
        for variant in (Variant.POOLED, Variant.PARTITIONED):
            got = auc_cvkr(FOUR_BY_FOUR, trainer, 2, 2, 3, 11, variant).value
            want = oracle_auc_cvkr(FOUR_BY_FOUR, trainer, 2, 2, 3, 11, variant)
            assert got == pytest.approx(want, abs=1e-12)

    def test_pooled_equals_partitioned(self):
        trainer = LdaTrainer(1e-6)
        a = auc_cvkr(FOUR_BY_FOUR, trainer, 2, 2, 4, 9, Variant.POOLED).value
        b = auc_cvkr(FOUR_BY_FOUR, trainer, 2, 2, 4, 9, Variant.PARTITIONED).value
        assert abs(a - b) <= 1e-12


class TestAucCvkm:
    def test_separable_is_one_for_both_variants(self):
        trainer = NearestMeanTrainer()
        for variant in (Variant.POOLED, Variant.PARTITIONED):
            assert auc_cvkm(SEPARABLE, trainer, 2, 2, 5, 2, variant).value == 1.0

    def test_constant_scores_give_half(self):
        assert auc_cvkm(FOUR_BY_FOUR, ConstantScoreTrainer(), 2, 2, 5, 3).value == 0.5

    def test_matches_oracle(self):
        trainer = NearestMeanTrainer()
        pooled_want, part_want, excl_want = oracle_auc_cvkm(FOUR_BY_FOUR, trainer, 2, 2, 6, 23)
        pooled = auc_cvkm(FOUR_BY_FOUR, trainer, 2, 2, 6, 23, Variant.POOLED)
        part = auc_cvkm(FOUR_BY_FOUR, trainer, 2, 2, 6, 23, Variant.PARTITIONED)
        assert pooled.value == pytest.approx(pooled_want, abs=1e-12)
        assert part.value == pytest.approx(part_want, abs=1e-12)
        assert pooled.excluded_count == excl_want

    def test_finite_run_witness_gap(self):
        trainer = NearestMeanTrainer()
        a = auc_cvkm(OVERLAP, trainer, 5, 5, 8, 0, Variant.POOLED).value
        b = auc_cvkm(OVERLAP, trainer, 5, 5, 8, 0, Variant.PARTITIONED).value
        assert abs(a - b) > 1e-6

    def test_strict_mode_raises_on_uncovered_pairs(self):
        with pytest.raises(CoverageError):
            auc_cvkm(FOUR_BY_FOUR, NearestMeanTrainer(), 2, 2, 1, 3, Variant.POOLED, strict=True)


class TestAucLpobs:
    def test_separable_is_one(self):
        trainer = NearestMeanTrainer()
        for variant in (Variant.POOLED, Variant.PARTITIONED):
            report = auc_lpobs(SEPARABLE, trainer, 25, 6, SamplingModel.ORDERED, variant)
            assert report.value == 1.0

    @pytest.mark.parametrize("model", list(SamplingModel))
    def test_matches_stored_replicate_oracle(self, model):
        trainer = NearestMeanTrainer()
        seed = 77
        counts1 = bootstrap_counts_matrix(OVERLAP.n1, 25, model, derive_seed(seed, "class1"))
        counts2 = bootstrap_counts_matrix(OVERLAP.n2, 25, model, derive_seed(seed, "class2"))
        pooled_want, part_want, excl_want = oracle_lpobs(OVERLAP, trainer, counts1, counts2)
        pooled = auc_lpobs(OVERLAP, trainer, 25, seed, model, Variant.POOLED)
        part = auc_lpobs(OVERLAP, trainer, 25, seed, model, Variant.PARTITIONED)
        assert pooled.value == pytest.approx(pooled_want, abs=1e-12)
        assert part.value == pytest.approx(part_want, abs=1e-12)
        assert pooled.excluded_count == excl_want

    def test_finite_budget_witness_gap(self):
        trainer = NearestMeanTrainer()
        a = auc_lpobs(OVERLAP, trainer, 50, 0, SamplingModel.ORDERED, Variant.POOLED).value
        b = auc_lpobs(OVERLAP, trainer, 50, 0, SamplingModel.ORDERED, Variant.PARTITIONED).value
        assert abs(a - b) > 1e-6

    def test_flat_kernel_makes_both_variants_exactly_half(self):
        # constant scores: every kernel value is a tie, so both variants are
        # 0.5 whenever defined and their ratio carries no sampling factor
        trainer = ConstantScoreTrainer()
        for variant in (Variant.POOLED, Variant.PARTITIONED):
            report = auc_lpobs(OVERLAP, trainer, 200, 9, SamplingModel.UNORDERED_MULTISET, variant)
            assert report.value == 0.5

    def test_skipped_replicates_are_counted(self):
        # tiny classes make empty out-of-bag sides common
        ds = StratifiedDataset(np.array([[0.0], [0.5]]), np.array([[1.0], [1.5]]))
        report = auc_lpobs(ds, NearestMeanTrainer(), 60, 4, SamplingModel.ORDERED, Variant.PARTITIONED)
        assert report.excluded_count > 0

    def test_strict_mode_on_uncovered_pairs(self):
        ds = StratifiedDataset(np.array([[0.0], [0.5]]), np.array([[1.0], [1.5]]))
        with pytest.raises(CoverageError):
            auc_lpobs(ds, NearestMeanTrainer(), 1, 12, SamplingModel.ORDERED, Variant.POOLED, strict=True)

    def test_deterministic(self):
        trainer = LdaTrainer(1e-6)
        a = auc_lpobs(FOUR_BY_FOUR, trainer, 40, 5).value
        b = auc_lpobs(FOUR_BY_FOUR, trainer, 40, 5).value
        assert a == b


class TestCompleteCV:
    """Repeated K1 x K2-fold AUC CV against complete CV, every distinct pair
    of class fold maps enumerated with its per-fold-pair values as Fractions
    (``oracles.complete_cv``); the lookups read the maps the estimator draws."""

    @pytest.fixture(scope="class")
    def units(self):
        return complete_cv(FOUR_BY_FOUR, NearestMeanTrainer(), (2, 2))

    @pytest.fixture(scope="class")
    def per_map(self, units):
        return {fold_map: tuple(map(cvk_loss, tasks)) for fold_map, tasks in units.items()}

    def test_full_grid_reduced_diagonal_and_one_fold_pair_share_the_limit(self, per_map):
        assert len(per_map) == 36  # 4! / (2! 2!) maps per class
        full = sum(sum(values) / 4 for values in per_map.values()) / 36
        assert sum((values[0] + values[3]) / 2 for values in per_map.values()) / 36 == full
        assert sum(values[0] for values in per_map.values()) / 36 == full

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_partitioned_value_is_the_mean_over_the_drawn_maps(self, per_map, seed):
        maps = [repeated_partitions(4, 2, 1000, derive_seed(seed, c)) for c in ("class1", "class2")]
        drawn = [per_map[tuple(map(tuple, rows))] for rows in zip(*maps)]
        cvkr = np.array([np.mean([float(v) for v in values]) for values in drawn]).mean()
        cvkm = np.array([float(values[0]) for values in drawn]).mean()  # fold pair (1, 1)
        trainer = NearestMeanTrainer()
        for estimator, want in ((auc_cvkr, cvkr), (auc_cvkm, cvkm)):
            report = estimator(FOUR_BY_FOUR, trainer, 2, 2, 1000, seed, Variant.PARTITIONED)
            assert report.value == want

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_pooled_value_is_the_pair_mean_over_the_drawn_maps(self, units, seed):
        # each pair sum is a multiple of 1/2, so no order of addition can move it
        maps = [repeated_partitions(4, 2, 1000, derive_seed(seed, c)) for c in ("class1", "class2")]
        drawn = [units[tuple(map(tuple, rows))] for rows in zip(*maps)]
        trainer = NearestMeanTrainer()
        for estimator, tested in ((auc_cvkr, slice(None)), (auc_cvkm, slice(1))):
            want = pooled_value(task for tasks in drawn for task in tasks[tested])
            report = estimator(FOUR_BY_FOUR, trainer, 2, 2, 1000, seed, Variant.POOLED)
            assert report.value == want


class TestPairBlocks:
    def test_one_task_per_block_gives_identical_values(self, monkeypatch):
        """With TASK_TILE_CELLS = 1 every training tile and every pair block
        holds one task."""
        trainer = LdaTrainer(1e-6)
        calls = [
            lambda: auc_cvn(FOUR_BY_FOUR, trainer),
            lambda: auc_cvk(FOUR_BY_FOUR, trainer, 2, 4, Variant.POOLED),
            lambda: auc_cvk(FOUR_BY_FOUR, trainer, 2, 2, Variant.PARTITIONED),
            lambda: auc_cvk(FOUR_BY_FOUR, trainer, 2, 2, Variant.REDUCED),
            lambda: auc_cvkr(OVERLAP, trainer, 5, 5, 3, 4, Variant.POOLED),
            lambda: auc_cvkr(OVERLAP, trainer, 5, 5, 3, 4, Variant.PARTITIONED),
            lambda: auc_cvkm(FOUR_BY_FOUR, trainer, 2, 2, 5, 1, Variant.POOLED),
            lambda: auc_cvkm(FOUR_BY_FOUR, trainer, 2, 2, 5, 1, Variant.PARTITIONED),
            lambda: auc_lpobs(OVERLAP, trainer, 30, 2, variant=Variant.POOLED),
            lambda: auc_lpobs(OVERLAP, trainer, 30, 2, variant=Variant.PARTITIONED),
        ]
        default = [call() for call in calls]
        monkeypatch.setattr(estimators, "TASK_TILE_CELLS", 1)
        blocked = [call() for call in calls]
        for a, b in zip(default, blocked):
            assert repr(a.value) == repr(b.value)
            assert a.excluded_count == b.excluded_count


@st.composite
def scores_and_test_masks(draw):
    """(scores, test, n1): tie-heavy integer scores of tasks x (n1 + n2)
    observations and a random test mask, in which one task tests nothing (all
    in bag), one no class-1 and one no class-2 observation."""
    tasks, n1, n2 = draw(st.integers(3, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = tasks * (n1 + n2)
    scores = draw(st.lists(st.integers(-3, 3), min_size=cells, max_size=cells))
    test = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    test = test.reshape(tasks, n1 + n2)
    test[0], test[1, :n1], test[2, n1:] = False, False, False
    order = draw(st.permutations(range(tasks)))
    return np.array(scores, float).reshape(tasks, -1), test[order], n1


class TestPairSums:
    """The doubled integer kernel with padding gives the masked float cells'
    sums exactly, block by block."""

    @pytest.mark.parametrize("block_cells", [1, estimators.TASK_TILE_CELLS])
    @given(scores_and_test_masks(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_float_cell_oracle(self, block_cells, case, pooled):
        scores, test, n1 = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "TASK_TILE_CELLS", block_cells)
            blocks = list(estimators._pair_sums(scores, test, n1, pooled))
        expected = list(float_pair_sums(scores, test, n1, block_cells))
        assert len(blocks) == len(expected)
        for got, (unit_sums, unit_hits, task_sums, task_hits) in zip(blocks, expected):
            assert len(got) == (4 if pooled else 2)
            np.testing.assert_array_equal(got[0], task_sums)
            np.testing.assert_array_equal(got[1], task_hits)
            if pooled:
                np.testing.assert_array_equal(got[2], unit_sums)
                np.testing.assert_array_equal(got[3], unit_hits)


class TestTileMemory:
    def test_cvn_peak_memory_stays_bounded_in_a_fresh_process(self):
        """Leave-pair-out CV at n1 = n2 = 200 trains 40000 tasks; its whole
        (task, observation) grid would peak near 600 MB, one tile near 50 MB."""
        script = (
            "import numpy as np\n"
            "from cvlab.core import StratifiedDataset\n"
            "from cvlab.estimators import auc_cvn\n"
            "from cvlab.simlab import LdaTrainer\n"
            "rng = np.random.default_rng(0)\n"
            "ds = StratifiedDataset(rng.normal(0, 1, (200, 5)), rng.normal(0.5, 1, (200, 5)))\n"
            "auc_cvn(ds, LdaTrainer(1e-6))\n"
        )
        peak_kib, _ = fresh_process_peak(script)
        assert peak_kib < 150 * 1024


class TestReportContract:
    def test_metadata(self):
        report = auc_lpobs(FOUR_BY_FOUR, NearestMeanTrainer(), 10, 3)
        assert report.version is Version.LOOB
        assert report.metric is Metric.AUC
        payload = report.to_json_dict()
        assert payload["sampling"] == "ordered"
        assert payload["n_bootstrap"] == 10
