"""Fold assignment and bootstrap replicate generation.

Fold maps
---------
A fold map is an int array of fold ids 1..K: (n,) for one run, (M, n) for M
runs.  The canonical map over n observations (K divides n, folds of size
n_K = n/K) puts observation i (1-based) in fold ceil(i / n_K).  A randomized
map composes it with a uniform permutation; the repeated-CV maps take row m
from permutation stream m.  They are memoized, since one study asks for the
same (n, K, M, seed) several times (CVKR, pooled and partitioned CVKM); the
cached array is shared between callers, so it is read-only.

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
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from cvlab.core import DivisibilityError, DomainError


def derive_seed_sequence(seed: int, tag: str, counter: int = 0) -> np.random.SeedSequence:
    """Seed sequence of stream (seed, tag, counter); seeds must be non-negative."""
    if int(seed) < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence(
        entropy=int(seed), spawn_key=(zlib.crc32(tag.encode("utf-8")), int(counter))
    )


def derive_rng(seed: int, tag: str, counter: int = 0) -> np.random.Generator:
    """Independent generator for stream (seed, tag, counter)."""
    return np.random.Generator(np.random.Philox(derive_seed_sequence(seed, tag, counter)))


def derive_seed(seed: int, tag: str, counter: int = 0) -> int:
    """A 63-bit integer seed for a derived stream (usable as a new master)."""
    return int(derive_seed_sequence(seed, tag, counter).generate_state(1, np.uint64)[0] >> 1)


class SamplingModel(Enum):
    ORDERED = "ordered"
    UNORDERED_MULTISET = "unordered-multiset"


def _fold_size(n: int, n_folds: int) -> int:
    if n < 1 or n_folds < 1:
        raise DomainError("n and K must be positive")
    if n % n_folds != 0:
        raise DivisibilityError(f"K={n_folds} does not divide n={n}")
    return n // n_folds


def make_partition(n: int, n_folds: int, perm: Sequence[int] | None = None) -> np.ndarray:
    """(n,) fold ids 1..K: contiguous blocks, optionally composed with a permutation.

    ``perm``, when given, lists 1-based images: observation at position i
    (0-based) is assigned the fold of perm[i] under the canonical map.
    """
    size = _fold_size(n, n_folds)
    if perm is None:
        images = np.arange(1, n + 1)
    else:
        images = np.asarray(perm, dtype=int)
        if images.shape != (n,) or not np.array_equal(np.sort(images), np.arange(1, n + 1)):
            raise DomainError("perm must be a permutation of 1..n")
    return (images - 1) // size + 1


def random_permutation(n: int, seed: int, counter: int = 0) -> np.ndarray:
    """Uniform 1-based permutation from stream (seed, 'partition', counter)."""
    rng = derive_rng(seed, "partition", counter)
    return rng.permutation(n) + 1


@lru_cache(maxsize=16)
def repeated_partitions(n: int, n_folds: int, repetitions: int, seed: int) -> np.ndarray:
    """Read-only (M, n) fold ids; row m maps ``random_permutation(n, seed, m)``."""
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    size = _fold_size(n, n_folds)
    images = np.stack([random_permutation(n, seed, m) for m in range(repetitions)])
    assign = (images - 1) // size + 1
    assign.flags.writeable = False
    return assign


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

