"""Exact-identity tests.

The brute-force oracle used throughout enumerates index multisets directly
with ``itertools.combinations_with_replacement`` (every multiset exactly
once, matching the uniform unordered-sampling model), independent of the
package's stars-and-bars decoding.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlab import combinatorics
from cvlab.combinatorics import (
    _oob_weight_by_count,
    binom,
    expected_inv_one_plus_unseen,
    expected_oob_weight,
    expected_unseen,
    identity_checks,
    inclusion_probability,
    pmf_unseen_count,
    prob_some_unseen,
)
from cvlab.core import DomainError
from cvlab.resampling import _counts_from_uniform_keys
from oracles import (
    inv_one_plus_unseen_by_summation,
    pmf_total,
    subset_keys,
    unseen_mean_by_summation,
)


def unseen_distribution_by_enumeration(n: int, m: int) -> dict[int, Fraction]:
    """Exact distribution of the unseen count when drawing m from n symbols."""
    counts: dict[int, int] = {}
    total = 0
    for multiset in combinations_with_replacement(range(n), m):
        unseen = n - len(set(multiset))
        counts[unseen] = counts.get(unseen, 0) + 1
        total += 1
    return {k: Fraction(v, total) for k, v in counts.items()}


class TestBinom:
    def test_basic(self):
        assert binom(5, 3) == 10

    def test_out_of_range_is_zero(self):
        assert binom(4, 7) == 0
        assert binom(4, -1) == 0

    def test_zero_zero(self):
        assert binom(0, 0) == 1

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            binom(-1, 0)


class TestPmfUnseenCount:
    def test_bootstrap_case_by_enumeration(self):
        assert pmf_unseen_count(3, 3, 1) == Fraction(6, 10)
        assert unseen_distribution_by_enumeration(3, 3)[1] == Fraction(6, 10)

    def test_out_of_support(self):
        assert pmf_unseen_count(3, 3, 3) == 0
        assert pmf_unseen_count(3, 3, -1) == 0

    def test_normalization_for_unequal_m(self):
        assert pmf_total(7, 5) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_general_pmf_matches_enumeration(self, n, m):
        oracle = unseen_distribution_by_enumeration(n, m)
        for k in range(n + 1):
            assert pmf_unseen_count(n, m, k) == oracle.get(k, Fraction(0))

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    @settings(max_examples=60)
    def test_normalization_exact(self, n, m):
        assert pmf_total(n, m) == 1


class TestMomentIdentities:
    def test_expected_unseen_examples(self):
        assert expected_unseen(3) == Fraction(6, 5)
        assert expected_unseen(1) == 0
        assert expected_unseen(10) == Fraction(90, 19)

    def test_expected_inv_examples(self):
        assert expected_inv_one_plus_unseen(3) == Fraction(1, 2)
        assert expected_inv_one_plus_unseen(1) == 1
        assert expected_inv_one_plus_unseen(5) == Fraction(1, 3)

    @pytest.mark.parametrize("n", list(range(1, 51)) + [100, 150, 200])
    def test_closed_forms_equal_pmf_summation(self, n):
        assert unseen_mean_by_summation(n) == expected_unseen(n)
        assert inv_one_plus_unseen_by_summation(n) == expected_inv_one_plus_unseen(n)

    def test_moments_against_enumeration(self):
        for n in (2, 3, 4, 5, 6):
            dist = unseen_distribution_by_enumeration(n, n)
            mean = sum(k * p for k, p in dist.items())
            inv_mean = sum(p / (1 + k) for k, p in dist.items())
            assert mean == expected_unseen(n)
            assert inv_mean == expected_inv_one_plus_unseen(n)


class TestInclusionProbability:
    def test_small_case_via_complement(self):
        # 1 - C(4,3)/C(5,3): replicates avoiding one fixed index
        assert inclusion_probability(3) == 1 - Fraction(binom(4, 3), binom(5, 3))
        assert inclusion_probability(3) == Fraction(3, 5)

    def test_degenerate(self):
        assert inclusion_probability(1) == 1

    def test_closed_form(self):
        assert inclusion_probability(100) == Fraction(100, 199)


class TestOobWeight:
    """The published closed form (2n-2)/(2n-1) versus the exact mean.

    Enumerating every multiset shows that the mean of the weight
    w = n * I_1 / a (with 0 when nothing is unseen) equals Pr[a != 0]
    exactly, in both its per-observation and summed readings; the closed
    form matches only at n <= 2.  Both quantities are exposed and must stay
    distinct.
    """

    def test_closed_form_values(self):
        assert expected_oob_weight(2) == Fraction(2, 3)
        assert expected_oob_weight(3) == Fraction(4, 5)

    def test_limit_approaches_one(self):
        assert abs(1 - expected_oob_weight(10**6)) < 1e-5

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exact_weight_mean_by_brute_force(self, n):
        per_observation = Fraction(0)
        summed = Fraction(0)
        total = 0
        for multiset in combinations_with_replacement(range(n), n):
            present = set(multiset)
            unseen = n - len(present)
            total += 1
            if unseen:
                summed += 1  # sum_i I_i / a = a/a
                if 0 not in present:
                    per_observation += Fraction(n, unseen)
        assert Fraction(per_observation, total) == prob_some_unseen(n)
        assert Fraction(summed, total) == prob_some_unseen(n)
        assert prob_some_unseen(n) == 1 - pmf_unseen_count(n, n, 0)

    def test_closed_form_diverges_from_exact_mean_beyond_two(self):
        assert expected_oob_weight(2) == prob_some_unseen(2)
        for n in (3, 4, 5, 6, 10):
            assert expected_oob_weight(n) != prob_some_unseen(n)


class TestEnumerationOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sampler_decode_induces_lemma_pmf(self, n):
        # walk the sampler's own stars-and-bars decode over all subsets
        freq: dict[int, int] = {}
        total = 0
        for counts in _counts_from_uniform_keys(subset_keys(n), n):
            unseen = int((counts == 0).sum())
            freq[unseen] = freq.get(unseen, 0) + 1
            total += 1
        assert total == binom(2 * n - 1, n)
        for k in range(n):
            assert Fraction(freq.get(k, 0), total) == pmf_unseen_count(n, n, k)


class TestIdentityChecks:
    def test_all_pass_for_small_range(self):
        for n in range(2, 40):
            assert all(ok for _, ok in identity_checks(n))

    def test_perturbed_pmf_is_caught(self, monkeypatch):
        def bad_pmf(n, m, k):
            value = pmf_unseen_count(n, m, k)  # the real pmf, imported before the patch
            return value + Fraction(1, 1000) if k == 0 else value

        monkeypatch.setattr(combinatorics, "pmf_unseen_count", bad_pmf)
        results = dict(identity_checks(5))
        assert not all(results.values())
        assert not results["pmf-normalization"]

    def test_a_wrong_pmf_fails_the_oob_weight_line(self, monkeypatch):
        def bad_pmf(n, m, k):
            value = pmf_unseen_count(n, m, k)  # the real pmf, imported before the patch
            return value + Fraction(1, 7) if k == 0 else value

        monkeypatch.setattr(combinatorics, "pmf_unseen_count", bad_pmf)
        for n in range(2, 8):
            results = dict(identity_checks(n))
            assert not results["oob-weight-vs-prob-some-unseen"]
            assert not results["pmf-normalization"]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_oob_weight_count_matches_enumeration(self, n):
        multisets = list(combinations_with_replacement(range(n), n))
        weight = sum((Fraction(n, n - len(set(multiset))) for multiset in multisets
                      if 0 not in multiset), start=Fraction(0))
        assert _oob_weight_by_count(n) == weight / len(multisets) == prob_some_unseen(n)
