"""Fold assignment and bootstrap replicate generation.

Fold maps
---------
A fold map is an int array of fold ids 1..K: (n,) for one run, (M, n) for M
runs.  The canonical map over n observations (K divides n, folds of size
n_K = n/K) puts observation i (1-based) in fold ceil(i / n_K).  A randomized
map composes it with a uniform permutation; the repeated-CV maps take row m
from permutation stream m.

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
streams can be drawn in any order without interfering.  The repeated-CV maps
derive the Philox keys of all M streams in one vectorised pass of
SeedSequence's mixing and draw every row through one re-keyed generator; the
streams, and so the rows, are the same as one generator per repetition gives.
"""

from __future__ import annotations

import zlib
from enum import Enum
from itertools import combinations
from typing import Sequence

import numpy as np

from cvlab.core import DivisibilityError, DomainError


def _checked_seed(seed: int) -> int:
    if int(seed) < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return int(seed)


def derive_seed_sequence(seed: int, tag: str, counter: int = 0) -> np.random.SeedSequence:
    """Seed sequence of stream (seed, tag, counter); seeds must be non-negative."""
    return np.random.SeedSequence(
        entropy=_checked_seed(seed), spawn_key=(zlib.crc32(tag.encode("utf-8")), int(counter))
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
    """Uniform 1-based permutation from stream (seed, 'partition', counter).

    The per-stream reference: row m of ``repeated_partitions`` matches
    ``random_permutation(n, seed, m)`` bit for bit.
    """
    rng = derive_rng(seed, "partition", counter)
    return rng.permutation(n) + 1


# numpy.random.SeedSequence: pool of 4 uint32 words and its hash constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's hashmix on an int or uint32 array; returns (value, next const)."""
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's mix; x and y are ints or uint32 arrays (x an int only if y is)."""
    result = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _philox_keys(seed: int, tag: str, counters: np.ndarray) -> np.ndarray:
    """(len(counters), 2) uint64 keys of ``Philox(derive_seed_sequence(seed, tag, c))``.

    A transcription of numpy's SeedSequence mixing, whose output numpy keeps
    stream-compatible.  The entropy words are the seed's 32-bit words (padded
    with zeros to the pool size), crc32(tag) and the counter; only the last
    word differs between streams, so everything before it is mixed once.
    Counters must lie in [0, 2^32).
    """
    seed = _checked_seed(seed)
    words = []
    while seed > 0 or not words:
        words.append(seed & _MASK32)
        seed >>= 32
    words += [0] * (_POOL_SIZE - len(words)) + [zlib.crc32(tag.encode("utf-8"))]
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    # The last word, one counter per stream, turns the pool into (M,) arrays.
    for word in words[_POOL_SIZE:] + [np.asarray(counters, dtype=np.uint32)]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    hash_const = _INIT_B
    for dst in range(_POOL_SIZE):  # generate_state(2, np.uint64)
        pool[dst], hash_const = _hashmix(pool[dst], hash_const, _MULT_B)
    low0, high0, low1, high1 = (word.astype(np.uint64) for word in pool)
    return np.stack([low0 | high0 << 32, low1 | high1 << 32], axis=1)


def repeated_partitions(n: int, n_folds: int, repetitions: int, seed: int) -> np.ndarray:
    """(M, n) fold ids; row m maps ``random_permutation(n, seed, m)``.

    All M stream keys come from one ``_philox_keys`` pass; one Philox
    generator is re-keyed (counter 0, empty buffer) before each row.
    """
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    size = _fold_size(n, n_folds)
    keys = _philox_keys(seed, "partition", np.arange(repetitions))
    bit_generator = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bit_generator)
    # A fresh stream's state: its key, counter 0, empty buffer.
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": keys[0]},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    images = np.tile(np.arange(1, n + 1), (repetitions, 1))
    for key, row in zip(keys, images):
        state["state"]["key"] = key
        bit_generator.state = state
        rng.shuffle(row)
    return (images - 1) // size + 1


def enumerate_multiset_counts(n: int) -> np.ndarray:
    """(C(2n-1, n), n) array of all bootstrap count vectors, one row per index
    multiset.

    Decodes every n-subset of {0, ..., 2n-2} as the UNORDERED_MULTISET
    sampler does: ascending element s_j becomes the multiset value s_j - j;
    feasible for small n only.
    """
    subsets = np.array(list(combinations(range(2 * n - 1), n)), dtype=int)
    return _row_histograms(subsets - np.arange(n), n)


def _counts_from_uniform_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Decode one replicate per row: rank the n smallest keys of 2n-1."""
    subset = np.sort(np.argpartition(keys, n - 1, axis=1)[:, :n], axis=1)
    return _row_histograms(subset - np.arange(n)[None, :], n)


def _row_histograms(values: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) counts of each row's values in 0..n-1, from one bincount."""
    rows = values.shape[0]
    flat = (values + n * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, minlength=rows * n).reshape(rows, n)


def bootstrap_counts_matrix(n: int, draws: int, model: SamplingModel, seed: int) -> np.ndarray:
    """(draws, n) matrix of replicate counts, all rows from one Philox stream."""
    if n < 2:
        raise DomainError("bootstrap requires n >= 2")
    if draws < 1:
        raise DomainError("draws must be >= 1")
    rng = derive_rng(seed, "bootstrap")
    if model is SamplingModel.ORDERED:
        return _row_histograms(rng.integers(0, n, size=(draws, n)), n)
    if model is SamplingModel.UNORDERED_MULTISET:
        keys = rng.random((draws, 2 * n - 1))
        return _counts_from_uniform_keys(keys, n)
    raise DomainError(f"unknown sampling model {model!r}")

