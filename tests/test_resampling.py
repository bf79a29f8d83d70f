import math
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvlab.combinatorics import inclusion_probability, pmf_unseen_count
from cvlab.core import DivisibilityError, DomainError
from cvlab.resampling import (
    SamplingModel,
    _KEY_BLOCK,
    _counts_from_uniform_keys,
    _stream_keys,
    bootstrap_counts_matrix,
    derive_rng,
    derive_seed,
    derive_seed_sequence,
    derive_seeds,
    make_partition,
    repeated_partitions,
    retry_counts,
)
from oracles import (
    canonical_map, enumerate_multiset_counts, random_permutation, subset_keys, traced_peak,
)


class TestMakePartition:
    def test_contiguous_blocks(self):
        assert list(make_partition(6, 3)) == [1, 1, 2, 2, 3, 3]

    def test_loo_special_case(self):
        assert list(make_partition(4, 4)) == [1, 2, 3, 4]

    def test_with_permutation(self):
        # the oracle composing the canonical map with a permutation: assign(i)
        # is the canonical fold of perm(i), computed by hand
        assert list(canonical_map([3, 1, 4, 2], 2)) == [2, 1, 2, 1]
        assert list(canonical_map([1, 2, 3, 4], 2)) == list(make_partition(4, 2))

    def test_divisibility_enforced(self):
        with pytest.raises(DivisibilityError):
            make_partition(7, 3)

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=6))
    def test_preimages_are_equal_blocks(self, folds, size):
        # the canonical map, and the shuffled one-run map (row 0 of a
        # repeated-CV map) against its oracle
        n = folds * size
        identity = np.arange(1, n + 1)
        np.testing.assert_array_equal(make_partition(n, folds), canonical_map(identity, folds))
        assign = repeated_partitions(n, folds, 1, seed=n)[0]
        np.testing.assert_array_equal(assign, canonical_map(random_permutation(n, n, 0), folds))
        seen = []
        for k in range(1, folds + 1):
            members = np.flatnonzero(assign == k)
            assert members.size == size
            seen.extend(members.tolist())
        assert sorted(seen) == list(range(n))


class TestRepeatedPartitions:
    def test_fold_sizes(self):
        rp = repeated_partitions(6, 3, 1, seed=11)
        assert rp.shape == (1, 6)
        assert all(np.flatnonzero(rp[0] == k).size == 2 for k in (1, 2, 3))

    def test_deterministic(self):
        a = repeated_partitions(6, 3, 50, seed=5)
        b = repeated_partitions(6, 3, 50, seed=5)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma, mb)

    def test_seed_changes_maps(self):
        a = repeated_partitions(8, 2, 4, seed=1)
        b = repeated_partitions(8, 2, 4, seed=2)
        assert any(not np.array_equal(ma, mb) for ma, mb in zip(a, b))

    @pytest.mark.parametrize(
        "n,folds,reps,seed",
        [
            (6, 3, 5, 0),
            (8, 2, 7, 11),
            (10, 5, 3, 2**40),
            (2, 2, 50, 0),
            (40, 2, 300, 2**130),
            (200, 4, 20, 7),
        ],
    )
    def test_row_m_is_stream_m(self, n, folds, reps, seed):
        rp = repeated_partitions(n, folds, reps, seed)
        assert rp.shape == (reps, n)
        for m in range(reps):
            want = canonical_map(random_permutation(n, seed, m), folds)
            np.testing.assert_array_equal(rp[m], want)

    def test_validation(self):
        with pytest.raises(DivisibilityError):
            repeated_partitions(7, 3, 2, seed=0)
        with pytest.raises(DomainError):
            repeated_partitions(6, 3, 0, seed=0)
        with pytest.raises(DomainError):
            repeated_partitions(6, 3, 2, seed=-1)

    def test_loo_shuffles_are_relabeled_singletons(self):
        rp = repeated_partitions(6, 6, 3, seed=3)
        for assign in rp:
            for k in range(1, 7):
                assert np.flatnonzero(assign == k).size == 1


class TestRepeatedPartitionsMemory:
    """The map is the only (M, n) array ``repeated_partitions`` makes, held in
    the smallest signed integer dtype that holds n."""

    @pytest.mark.parametrize("n,folds,dtype", [(2, 2, np.int8), (127, 127, np.int8),
                                               (128, 2, np.int16), (300, 3, np.int16)])
    def test_compact_map_is_its_only_row_array(self, n, folds, dtype):
        reps, seed = 2000, 9
        repeated_partitions(n, folds, 1, seed)
        rp = repeated_partitions(n, folds, reps, seed)
        assert rp.dtype == dtype
        for m in range(0, reps, 97):
            want = canonical_map(random_permutation(n, seed, m), folds)
            assert want.dtype == np.int64
            np.testing.assert_array_equal(rp[m], want)
        peak = traced_peak(lambda: repeated_partitions(n, folds, reps, seed))
        # At most the larger of one key pass over all M rows and the M stream
        # keys (16 bytes each) plus the map, plus a tenth of a map; the blocked
        # key pass (test_key_pass_is_bounded_by_its_block) keeps inside it.
        keys = traced_peak(lambda: _stream_keys(seed, _crc("partition"), np.arange(reps)))
        assert peak <= max(keys, 16 * reps + rp.nbytes) + 0.1 * rp.nbytes, (peak, keys)

    def test_key_pass_is_bounded_by_its_block(self):
        # At n = 2 the int8 map is 2 bytes a row, and a key pass about 90.
        n, folds, reps, seed = 2, 2, 20000, 9
        rp = repeated_partitions(n, folds, reps, seed)
        for m in (0, _KEY_BLOCK - 1, _KEY_BLOCK, reps - 1):  # across a block boundary
            np.testing.assert_array_equal(
                rp[m], canonical_map(random_permutation(n, seed, m), folds)
            )
        peak = traced_peak(lambda: repeated_partitions(n, folds, reps, seed))
        block = traced_peak(lambda: _stream_keys(
            seed, _crc("partition"), np.arange(_KEY_BLOCK, dtype=np.uint32)
        ))
        # The last block's keys live on while the next block's are derived;
        # 8 KB covers the bit generator, its state and the loop's objects.
        assert peak <= rp.nbytes + block + 16 * _KEY_BLOCK + 8192, (peak, block)


def _crc(tag: str) -> int:
    """The tag word of a stream: crc32 of the tag's UTF-8 bytes."""
    return zlib.crc32(tag.encode("utf-8"))


def _philox_key(seed: int, tag: str, counter: int) -> list[int]:
    """The key of ``Philox(derive_seed_sequence(seed, tag, counter))``."""
    return np.random.Philox(derive_seed_sequence(seed, tag, counter)).state["state"]["key"]


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**130]


class TestPhiloxKeys:
    """``_stream_keys`` against one SeedSequence per stream, in each of the
    ways it is called: a counter per row, a tag per row, a seed per row, and
    every word shared."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tag", ["partition", "bootstrap"])
    def test_keys_match_seed_sequence(self, seed, tag):
        keys = _stream_keys(seed, _crc(tag), np.arange(100))
        assert keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, [_philox_key(seed, tag, c) for c in range(100)])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_of_a_tag_per_row_match_seed_sequence(self, seed):
        tags = [f"retry-{b}" for b in (0, 1, 7, 45, 1999, 10**6, 2**40)]
        keys = _stream_keys(seed, np.array([_crc(tag) for tag in tags], dtype=np.uint32), 4)
        np.testing.assert_array_equal(keys, [_philox_key(seed, tag, 4) for tag in tags])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_of_shared_words_match_seed_sequence(self, seed):
        keys = _stream_keys(seed, _crc("bootstrap"), 5)
        np.testing.assert_array_equal(keys, [_philox_key(seed, "bootstrap", 5)])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derive_seeds_match_derive_seed(self, seed):
        rows = [0, 1, 7, 45, 1999, 10**6, 2**40]
        tags = [f"retry-{b}" for b in rows]
        attempts = np.array([1, 100, 3, 1, 2, 57, 2**32 - 1])
        seeds = derive_seeds(seed, tags, attempts)
        assert seeds.dtype == np.uint64
        want = [derive_seed(seed, tag, a) for tag, a in zip(tags, attempts)]
        np.testing.assert_array_equal(seeds, np.array(want, dtype=np.uint64))
        shared = np.array([derive_seed(seed, tag, 4) for tag in tags], dtype=np.uint64)
        np.testing.assert_array_equal(derive_seeds(seed, tags, 4), shared)

    def test_keys_of_a_seed_array_match_seed_sequence(self):
        seeds = np.array(
            [0, 1, 2**32 - 1, 2**32, 2**32 + 7, 2**63 - 1, 2**64 - 1, 123456789012345],
            dtype=np.uint64,
        )
        keys = _stream_keys(seeds, _crc("bootstrap"), 0)
        np.testing.assert_array_equal(keys, [_philox_key(int(s), "bootstrap", 0) for s in seeds])


class TestStarsAndBars:
    """The multiset sampler's decode, ``_counts_from_uniform_keys``, fed 0/1
    keys whose zeros sit at each n-subset of {0, ..., 2n-2}, against the
    multisets enumerated directly."""

    def test_decode_is_bijective_for_small_n(self):
        for n in (2, 3, 4, 5):
            support = enumerate_multiset_counts(n)
            assert len({tuple(row) for row in support}) == len(support) == math.comb(2 * n - 1, n)
            assert (support.sum(axis=1) == n).all()
            # row i of the decode is row i of the support: each multiset once
            np.testing.assert_array_equal(_counts_from_uniform_keys(subset_keys(n), n), support)

    def test_decode_example(self):
        # ascending element s_j of the subset becomes the multiset value s_j - j
        keys = np.ones((2, 5))
        keys[0, [0, 1, 2]] = 0  # {0, 1, 2}: the multiset {0, 0, 0}
        keys[1, [0, 2, 4]] = 0  # {0, 2, 4}: one copy of each index
        np.testing.assert_array_equal(_counts_from_uniform_keys(keys, 3), [[3, 0, 0], [1, 1, 1]])


class TestBootstrapSampling:
    def test_counts_shape_and_sum(self):
        counts = bootstrap_counts_matrix(7, 25, SamplingModel.ORDERED, seed=1)
        assert counts.shape == (25, 7)
        assert (counts.sum(axis=1) == 7).all()

    def test_single_draw_matches_first_batch_row(self):
        for model in SamplingModel:
            single = bootstrap_counts_matrix(9, 1, model, seed=42)
            batch = bootstrap_counts_matrix(9, 5, model, seed=42)
            np.testing.assert_array_equal(single[0], batch[0])

    @pytest.mark.parametrize("model", list(SamplingModel))
    def test_rows_match_one_draw_per_seed(self, model):
        """Row i of a redraw round is one draw from replicate i's retry seed."""
        replicates = [0, 1, 2, 7, 39, 1999, 10**6]
        for seed, attempt in [(3, 1), (3, 2), (3, 100), (2**130, 1)]:
            rows = retry_counts(7, model, seed, np.array(replicates), attempt)
            want = [
                bootstrap_counts_matrix(7, 1, model, derive_seed(seed, f"retry-{b}", attempt))[0]
                for b in replicates
            ]
            np.testing.assert_array_equal(rows, want)

    @pytest.mark.parametrize("model", list(SamplingModel))
    @pytest.mark.parametrize("n, draws, tile", [(200, 10000, 1310), (20, 200, 7), (7, 1000, 1),
                                                (40, 64, 3)])
    def test_tile_draws_continue_one_stream(self, model, n, draws, tile):
        """Consecutive blocks drawn from one generator are the rows of one draw."""
        rng = derive_rng(5, "bootstrap")
        tiles = [bootstrap_counts_matrix(n, len(range(draws)[s : s + tile]), model, rng)
                 for s in range(0, draws, tile)]
        np.testing.assert_array_equal(np.concatenate(tiles),
                                      bootstrap_counts_matrix(n, draws, model, 5))

    def test_replicate_invariants(self):
        counts = bootstrap_counts_matrix(6, 200, SamplingModel.UNORDERED_MULTISET, seed=3)
        assert (counts >= 0).all()
        assert (counts.sum(axis=1) == 6).all()
        unseen = (counts == 0).sum(axis=1)
        assert unseen.min() >= 0 and unseen.max() <= 5

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            bootstrap_counts_matrix(1, 1, SamplingModel.ORDERED, seed=0)

    def test_multiset_unseen_pmf_concordance(self):
        # Pr[a_b = 1] for n = 3 is exactly 6/10 under the multiset model
        counts = bootstrap_counts_matrix(3, 100_000, SamplingModel.UNORDERED_MULTISET, seed=7)
        unseen = (counts == 0).sum(axis=1)
        p = float(pmf_unseen_count(3, 3, 1))
        se = (p * (1 - p) / 100_000) ** 0.5
        assert abs((unseen == 1).mean() - p) < 3 * se

    def test_ordered_all_seen_probability(self):
        # Pr[a_b = 0] for n = 3 ordered draws is 3!/3^3 = 6/27
        counts = bootstrap_counts_matrix(3, 100_000, SamplingModel.ORDERED, seed=8)
        p = 6 / 27
        se = (p * (1 - p) / 100_000) ** 0.5
        assert abs(((counts == 0).sum(axis=1) == 0).mean() - p) < 3 * se

    def test_ordered_oob_rate(self):
        # Pr[observation 0 unseen] -> (1 - 1/n)^n
        n = 10
        counts = bootstrap_counts_matrix(n, 100_000, SamplingModel.ORDERED, seed=9)
        p = (1 - 1 / n) ** n
        se = (p * (1 - p) / 100_000) ** 0.5
        assert abs((counts[:, 0] == 0).mean() - p) < 3 * se

    def test_multiset_inclusion_probability(self):
        # Pr[observation 0 appears] = n/(2n-1)
        n = 10
        counts = bootstrap_counts_matrix(n, 100_000, SamplingModel.UNORDERED_MULTISET, seed=10)
        p = float(inclusion_probability(n))
        se = (p * (1 - p) / 100_000) ** 0.5
        assert abs((counts[:, 0] > 0).mean() - p) < 3 * se


class TestSeedDerivation:
    def test_streams_are_stable(self):
        a = derive_rng(1, "stream", 0).integers(0, 1 << 30, 4)
        b = derive_rng(1, "stream", 0).integers(0, 1 << 30, 4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_tag_and_counter(self):
        base = derive_rng(1, "stream", 0).integers(0, 1 << 30, 4)
        other_tag = derive_rng(1, "maerts", 0).integers(0, 1 << 30, 4)
        other_counter = derive_rng(1, "stream", 1).integers(0, 1 << 30, 4)
        assert not np.array_equal(base, other_tag)
        assert not np.array_equal(base, other_counter)

    def test_derive_seed_is_deterministic(self):
        assert derive_seed(9, "x", 2) == derive_seed(9, "x", 2)
        assert derive_seed(9, "x", 2) != derive_seed(9, "x", 3)
