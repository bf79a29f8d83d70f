import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvlab.core import (
    DomainError,
    LinearScoringRule,
    StratifiedDataset,
    empirical_auc,
    pairwise_kernel,
    read_dataset_csv,
    write_dataset_csv,
    zero_one_losses,
)
from oracles import mw_kernel

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestMwKernel:
    def test_ordered(self):
        assert mw_kernel(1.0, 2.0) == 1.0

    def test_tie(self):
        assert mw_kernel(3.5, 3.5) == 0.5

    def test_reversed(self):
        assert mw_kernel(2.0, 1.0) == 0.0

    @pytest.mark.parametrize("a,b", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(DomainError):
            mw_kernel(a, b)

    @given(finite_floats, finite_floats)
    def test_antisymmetry(self, a, b):
        assert mw_kernel(a, b) + mw_kernel(b, a) == 1.0


class TestEmpiricalAuc:
    def test_perfectly_ordered_pair(self):
        assert empirical_auc([0.0], [1.0]) == 1.0

    def test_all_ties(self):
        assert empirical_auc([0, 0], [0, 0]) == 0.5

    def test_four_pair_enumeration(self):
        # oracle: kernel values over the 4 pairs are 1, 1, 0, 1
        s1, s2 = [1.0, 2.0], [1.5, 3.0]
        oracle = np.mean([mw_kernel(a, b) for a in s1 for b in s2])
        assert oracle == 0.75
        assert empirical_auc(s1, s2) == oracle

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            empirical_auc([], [1.0])
        with pytest.raises(DomainError):
            empirical_auc([1.0], [])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            empirical_auc([float("nan")], [1.0])

    @given(
        st.lists(finite_floats, min_size=1, max_size=12),
        st.lists(finite_floats, min_size=1, max_size=12),
    )
    def test_complement_under_swap(self, s1, s2):
        assert empirical_auc(s1, s2) + empirical_auc(s2, s1) == pytest.approx(1.0, abs=1e-15)

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12),
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12),
    )
    def test_matches_pairwise_kernel_mean(self, s1, s2):
        # integer grids force plenty of ties; the kernel's cells are doubled
        doubled = pairwise_kernel(np.array(s1, float), np.array(s2, float))
        assert empirical_auc(s1, s2) == doubled.mean() / 2

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=10),
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=10),
    )
    def test_increasing_transform_invariance(self, s1, s2):
        before = empirical_auc(s1, s2)
        after = empirical_auc([2.0 * v + 1.0 for v in s1], [2.0 * v + 1.0 for v in s2])
        assert before == after

    @given(st.floats(min_value=-10, max_value=10), st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8))
    def test_constant_scores_give_half(self, v, n1, n2):
        assert empirical_auc([v] * n1, [v] * n2) == 0.5


class TestPairwiseKernel:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_batched_call_equals_stacked_single_calls(self, tasks, n1, n2, data):
        # integer grids force plenty of ties
        ints = st.integers(min_value=-5, max_value=5)
        s1 = np.array(data.draw(st.lists(ints, min_size=tasks * n1, max_size=tasks * n1)), float)
        s2 = np.array(data.draw(st.lists(ints, min_size=tasks * n2, max_size=tasks * n2)), float)
        s1, s2 = s1.reshape(tasks, n1), s2.reshape(tasks, n2)
        batched = pairwise_kernel(s1, s2)
        assert batched.shape == (tasks, n1, n2)
        assert batched.dtype == np.int8
        np.testing.assert_array_equal(
            batched, np.stack([pairwise_kernel(a, b) for a, b in zip(s1, s2)])
        )

    def test_one_dimensional_shape_and_values(self):
        np.testing.assert_array_equal(
            pairwise_kernel(np.array([0.0, 2.0]), np.array([1.0, 2.0, 3.0])),
            [[2, 2, 2], [0, 1, 2]],
        )

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6),
           st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6))
    def test_cells_are_twice_the_scalar_kernel(self, s1, s2):
        np.testing.assert_array_equal(
            pairwise_kernel(np.array(s1, float), np.array(s2, float)),
            [[2 * mw_kernel(a, b) for b in s2] for a in s1],
        )

    def test_padding_scores_zero(self):
        # +inf pads class 1 and -inf pads class 2: every padded cell is 0
        np.testing.assert_array_equal(
            pairwise_kernel(np.array([np.inf, -1e300, 0.0]), np.array([-np.inf, -1e300, 1e300])),
            [[0, 0, 0], [0, 1, 2], [0, 0, 2]],
        )


class TestZeroOneLoss:
    rule = LinearScoringRule(weights=np.array([1.0]), offset=0.0)

    def test_correct_class1(self):
        scores = self.rule.score_many(np.array([[-1.0]]))
        assert list(zero_one_losses(scores, np.array([1]), 0.0)) == [0.0]

    def test_missed_class1(self):
        scores = self.rule.score_many(np.array([[1.0]]))
        assert list(zero_one_losses(scores, np.array([1]), 0.0)) == [1.0]

    def test_tie_break_goes_to_class2(self):
        scores = self.rule.score_many(np.array([[0.0], [0.0]]))
        assert list(zero_one_losses(scores, np.array([2, 1]), 0.0)) == [0.0, 1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            self.rule.score_many(np.array([[0.0, 1.0]]))

    def test_bool_mask_over_task_rows(self):
        scores = np.array([[-1.0, 0.0, 2.0], [1.0, -3.0, 0.5]])
        mask = zero_one_losses(scores, np.array([1, 2, 1]), 0.5)
        assert mask.dtype == bool
        assert mask.tolist() == [[False, True, True], [True, True, True]]


class TestStratifiedDataset:
    def test_shapes_and_pooling(self):
        ds = StratifiedDataset(np.zeros((3, 2)), np.ones((4, 2)))
        assert (ds.n1, ds.n2, ds.n, ds.p) == (3, 4, 7, 2)
        features, labels = ds.pooled()
        assert features.shape == (7, 2)
        assert list(labels) == [1, 1, 1, 2, 2, 2, 2]

    def test_labels_built_once_and_read_only(self):
        ds = StratifiedDataset(np.zeros((2, 1)), np.ones((3, 1)))
        assert ds.labels is ds.pooled()[1] is ds.labels
        with pytest.raises(ValueError):
            ds.labels[0] = 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            StratifiedDataset(np.zeros((3, 2)), np.ones((4, 3)))

    def test_non_finite_rejected(self):
        bad = np.array([[np.nan, 0.0]])
        with pytest.raises(DomainError):
            StratifiedDataset(bad, np.ones((2, 2)))

    def test_empty_class_rejected(self):
        with pytest.raises(DomainError):
            StratifiedDataset(np.zeros((0, 2)), np.ones((2, 2)))

    def test_immutable(self):
        ds = StratifiedDataset(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.class1[0, 0] = 5.0

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = StratifiedDataset(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(ds.class1, back.class1)
        np.testing.assert_array_equal(ds.class2, back.class2)

    def test_csv_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("klass,f1\n1,0.0\n")
        with pytest.raises(DomainError):
            read_dataset_csv(path)
