"""Fold assignment and bootstrap replicate generation.

Fold maps
---------
The canonical K-fold assignment over n observations (K must divide n, folds of
size n_K = n/K) places observation i (1-based) in fold ceil(i / n_K), i.e.
contiguous blocks.  A randomized assignment composes the canonical map with a
uniformly random permutation; repeating that M times gives the repeated-CV
fold maps.

Bootstrap sampling models
-------------------------
``ORDERED``
    n i.i.d. uniform index draws (the standard bootstrap); the replicate is
    the histogram of the draws.
``UNORDERED_MULTISET``
    uniform over all C(2n-1, n) index multisets, realized by drawing a uniform
    n-subset of {0, ..., 2n-2} and decoding it through the stars-and-bars
    bijection.  This is the model under which the exact out-of-bag identities
    in :mod:`cvlab.combinatorics` hold; it is exposed to verify them, while
    ORDERED is the default model for the estimators.

Randomness
----------
Every randomized operation takes an explicit integer master seed.  Stream
seeds are derived as (master seed, crc32(stream tag), counter) through
``numpy.random.SeedSequence`` feeding a Philox generator, so independent
streams can be drawn in any order without interfering.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from cvlab.core import DivisibilityError, DomainError


def derive_seed_sequence(seed: int, tag: str, counter: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(seed), spawn_key=(zlib.crc32(tag.encode("utf-8")), int(counter))
    )


def derive_rng(seed: int, tag: str, counter: int = 0) -> np.random.Generator:
    """Independent generator for stream (seed, tag, counter)."""
    return np.random.Generator(np.random.Philox(derive_seed_sequence(seed, tag, counter)))


def derive_seed(seed: int, tag: str, counter: int = 0) -> int:
    """A 63-bit integer seed for a derived stream (usable as a new master)."""
    return int(derive_seed_sequence(seed, tag, counter).generate_state(1, np.uint64)[0] >> 1)


@dataclass(frozen=True, eq=False)
class PartitionMap:
    """Assignment of n observations to K equal folds.

    ``assign[i]`` is the fold (1..K) of observation i (0-based position).
    """

    n: int
    n_folds: int
    assign: np.ndarray

    def __post_init__(self):
        if self.n_folds < 1 or self.n < 1:
            raise DomainError("n and K must be positive")
        if self.n % self.n_folds != 0:
            raise DivisibilityError(f"K={self.n_folds} does not divide n={self.n}")
        assign = np.asarray(self.assign, dtype=int)
        if assign.shape != (self.n,):
            raise DomainError("assign must have length n")
        size = self.n // self.n_folds
        counts = np.bincount(assign, minlength=self.n_folds + 1)
        if counts[0] != 0 or assign.min() < 1 or assign.max() > self.n_folds:
            raise DomainError("fold ids must lie in 1..K")
        if not np.all(counts[1:] == size):
            raise DomainError("every fold must contain exactly n/K observations")
        assign = assign.copy()
        assign.flags.writeable = False
        object.__setattr__(self, "assign", assign)

    @property
    def fold_size(self) -> int:
        return self.n // self.n_folds

    def fold_members(self, k: int) -> np.ndarray:
        """0-based indices of the observations in fold k (1..K)."""
        return np.flatnonzero(self.assign == k)


@dataclass(frozen=True, eq=False)
class RepeatedPartition:
    """M independently shuffled K-fold maps, reproducible from the seed."""

    maps: tuple[PartitionMap, ...]
    repetitions: int
    seed: int

    def __post_init__(self):
        if self.repetitions != len(self.maps) or self.repetitions < 1:
            raise DomainError("repetitions must match the number of maps")

    @property
    def assign(self) -> np.ndarray:
        """(M, n) fold assignments, one row per repetition."""
        return np.stack([pm.assign for pm in self.maps])


class SamplingModel(Enum):
    ORDERED = "ordered"
    UNORDERED_MULTISET = "unordered-multiset"


def make_partition(n: int, n_folds: int, perm: Sequence[int] | None = None) -> PartitionMap:
    """Contiguous-block K-fold map, optionally composed with a permutation.

    ``perm``, when given, lists 1-based images: observation at position i
    (0-based) is assigned the fold of perm[i] under the canonical map.
    """
    if n < 1 or n_folds < 1:
        raise DomainError("n and K must be positive")
    if n % n_folds != 0:
        raise DivisibilityError(f"K={n_folds} does not divide n={n}")
    size = n // n_folds
    if perm is None:
        images = np.arange(1, n + 1)
    else:
        images = np.asarray(perm, dtype=int)
        if images.shape != (n,) or not np.array_equal(np.sort(images), np.arange(1, n + 1)):
            raise DomainError("perm must be a permutation of 1..n")
    assign = (images - 1) // size + 1
    return PartitionMap(n=n, n_folds=n_folds, assign=assign)


def random_permutation(n: int, seed: int, counter: int = 0) -> np.ndarray:
    """Uniform 1-based permutation from stream (seed, 'partition', counter)."""
    rng = derive_rng(seed, "partition", counter)
    return rng.permutation(n) + 1


@lru_cache(maxsize=16)
def repeated_partitions(n: int, n_folds: int, repetitions: int, seed: int) -> RepeatedPartition:
    """M shuffled K-fold maps; repetition m uses stream counter m.

    Results are immutable and memoized, so the two variants of an estimator
    can share one set of maps.
    """
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    maps = tuple(
        make_partition(n, n_folds, random_permutation(n, seed, m))
        for m in range(repetitions)
    )
    return RepeatedPartition(maps=maps, repetitions=repetitions, seed=seed)


def decode_stars_and_bars(subset: Sequence[int], n: int) -> np.ndarray:
    """Counts vector for a sorted n-subset of {0, ..., 2n-2}.

    The bijection sends subset element s_j (j = 0..n-1, ascending) to the
    multiset value s_j - j; the result is the multiplicity histogram of those
    values over {0, ..., n-1}.
    """
    positions = np.asarray(subset, dtype=int)
    values = positions - np.arange(n)
    return np.bincount(values, minlength=n)


def enumerate_multiset_counts(n: int) -> Iterator[np.ndarray]:
    """All C(2n-1, n) bootstrap count vectors, one per index multiset.

    Walks every n-subset of {0, ..., 2n-2} through the same decoding used by
    the UNORDERED_MULTISET sampler; feasible for small n only.
    """
    for subset in combinations(range(2 * n - 1), n):
        yield decode_stars_and_bars(subset, n)


def _counts_from_uniform_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Decode one replicate per row: rank the n smallest keys of 2n-1."""
    b = keys.shape[0]
    subset = np.sort(np.argpartition(keys, n - 1, axis=1)[:, :n], axis=1)
    values = subset - np.arange(n)[None, :]
    counts = np.zeros((b, n), dtype=int)
    np.add.at(counts, (np.repeat(np.arange(b), n), values.ravel()), 1)
    return counts


def bootstrap_counts_matrix(n: int, draws: int, model: SamplingModel, seed: int) -> np.ndarray:
    """(draws, n) matrix of replicate counts, all rows from one Philox stream."""
    if n < 2:
        raise DomainError("bootstrap requires n >= 2")
    if draws < 1:
        raise DomainError("draws must be >= 1")
    rng = derive_rng(seed, "bootstrap")
    if model is SamplingModel.ORDERED:
        idx = rng.integers(0, n, size=(draws, n))
        counts = np.zeros((draws, n), dtype=int)
        np.add.at(counts, (np.repeat(np.arange(draws), n), idx.ravel()), 1)
        return counts
    if model is SamplingModel.UNORDERED_MULTISET:
        keys = rng.random((draws, 2 * n - 1))
        return _counts_from_uniform_keys(keys, n)
    raise DomainError(f"unknown sampling model {model!r}")

