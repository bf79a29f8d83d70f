"""Fold assignment and bootstrap replicate generation.

Fold maps
---------
A fold map is an int array of fold ids 1..K: (n,) for one run, (M, n) for M
runs.  The canonical map over n observations (K divides n, folds of size
n_K = n/K) puts observation i (1-based) in fold ceil(i / n_K); leave-one-out
CV uses it.  Every shuffled map is a row of a repeated-CV map, which composes
the canonical map with the uniform permutation of stream m for row m (see
Randomness): one-run K-fold CV takes row 0.

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
Every randomized operation takes an explicit integer master seed, and every
stream follows one rule: stream (seed, tag, counter) is
``SeedSequence(entropy=seed, spawn_key=(crc32(tag), counter))`` feeding a
Philox generator, so independent streams can be drawn in any order without
interfering.  ``derive_rng`` and ``derive_seed`` build one stream.
``_stream_keys`` derives many at once: one vectorised pass of SeedSequence's
mixing gives the words one SeedSequence per stream gives, and so each
stream's Philox key.  The repeated-CV maps and the one-class redraw rows
re-key one Philox bit generator per row to the start of its stream
(``_rekeyed_streams``), so the rows are those of one generator per stream.

Row m of the repeated-CV map of (n, K, seed) composes the canonical map
with the permutation ``derive_rng(seed, "partition", m).permutation(n) + 1``:
the 1-based permutation that stream (seed, "partition", m) draws.  It is
drawn through a legacy ``RandomState``, whose shuffle draws as the
``Generator``'s does, and the keys come in passes of ``_KEY_BLOCK`` rows,
so that a pass never outgrows a compact map.  The one-class redraw of
replicate b at attempt a is the first replicate of master seed
``derive_seed(seed, f"retry-{b}", a)``; ``retry_counts`` draws a round of
them through a ``Generator``, from one pass for the retry seeds and one for
their keys.

A bootstrap stream splits: drawn in consecutive row blocks from one
generator, ``integers(0, n, (B, n))`` (ORDERED) and ``random((B, 2n-1))``
(UNORDERED_MULTISET) give the rows of one whole draw.  So the estimators
draw each training tile's replicates as its turn comes, continuing one
generator per part (``bootstrap_counts_matrix`` takes it in place of a
seed), and B x n counts are never held at once.
"""

from __future__ import annotations

import zlib
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from cvlab.core import DivisibilityError, DomainError


def _checked_seed(seed: int) -> int:
    if int(seed) < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return int(seed)


def _crc(tag: str) -> int:
    return zlib.crc32(tag.encode("utf-8"))


def derive_seed_sequence(seed: int, tag: str, counter: int = 0) -> np.random.SeedSequence:
    """Seed sequence of stream (seed, tag, counter); seeds must be non-negative."""
    return np.random.SeedSequence(entropy=_checked_seed(seed), spawn_key=(_crc(tag), int(counter)))


def derive_rng(seed: int, tag: str, counter: int = 0) -> np.random.Generator:
    """Independent generator for stream (seed, tag, counter)."""
    return np.random.Generator(np.random.Philox(derive_seed_sequence(seed, tag, counter)))


def derive_seed(seed: int, tag: str, counter: int = 0) -> int:
    """A 63-bit integer seed for a derived stream (usable as a new master)."""
    return int(derive_seed_sequence(seed, tag, counter).generate_state(1, np.uint64)[0] >> 1)


class SamplingModel(Enum):
    ORDERED = "ordered"
    UNORDERED_MULTISET = "unordered-multiset"


def fold_size(n: int, n_folds: int) -> int:
    """n / K, the size of each of K equal folds of n; refused unless K divides n."""
    if n < 1 or n_folds < 1:
        raise DomainError("n and K must be positive")
    if n % n_folds != 0:
        raise DivisibilityError(f"K={n_folds} does not divide n={n}")
    return n // n_folds


def make_partition(n: int, n_folds: int) -> np.ndarray:
    """(n,) fold ids 1..K of the canonical map: K contiguous blocks of n/K."""
    return np.arange(n) // fold_size(n, n_folds) + 1


# numpy.random.SeedSequence: pool of 4 uint32 words and its hash constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) uint32: the hash constant before each of ``count`` hashmixes, and after."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


_OUTPUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, _POOL_SIZE)
_OTHER_WORDS = [np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE)]
# Rows whose stream keys one pass derives in repeated_partitions: a pass
# peaks at about 90 bytes a row, so 256 rows hold it near 24 KB.
_KEY_BLOCK = 256


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, row i under consts[i] then consts[i + 1] (uint32 wraps)."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of uint32 arrays."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _stream_keys(seed: int | np.ndarray, tag_words, counters) -> np.ndarray:
    """(m, 2) uint64: row i is ``generate_state(2, np.uint64)`` of stream i,
    ``derive_seed_sequence(seed, tag, counter)`` with crc32(tag) its tag
    word, and so that stream's Philox key.

    A transcription of numpy's SeedSequence mixing, whose output numpy keeps
    stream-compatible, over m streams in one vectorised pass: ``seed`` (an
    int or a uint64 array), ``tag_words`` and ``counters`` (ints or arrays
    below 2^32) broadcast together.  The entropy is the seed's 32-bit words,
    zero-padded to the pool size, then the tag word and the counter; the
    padding makes a 1-word and a 2-word seed mix the same, so an array seed
    is two words.  The pool is held as a (4, m) array (m = 1 while every
    word so far is shared), so each word is mixed into all four pool words
    in one step.  The first key word does not depend on how many words are
    generated: it is ``generate_state(1, np.uint64)``, as ``derive_seed``
    reads it.
    """
    if isinstance(seed, np.ndarray):
        words = [seed & _MASK32, seed >> 32]
    else:
        seed = _checked_seed(seed)
        words = []
        while seed > 0 or not words:
            words.append(seed & _MASK32)
            seed >>= 32
    words += [0] * (_POOL_SIZE - len(words)) + [tag_words, counters]
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * len(words))
    pool = np.empty((_POOL_SIZE, max(np.size(w) for w in words[:_POOL_SIZE])), dtype=np.uint32)
    for dst, word in enumerate(words[:_POOL_SIZE]):
        pool[dst] = word
    pool = _hashmix(pool, consts[: _POOL_SIZE + 1])
    for src, dst in enumerate(_OTHER_WORDS):  # every pool word into every other one
        k = _POOL_SIZE + (_POOL_SIZE - 1) * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + _POOL_SIZE]))
    for i, word in enumerate(words[_POOL_SIZE:], start=_POOL_SIZE):  # into all four
        word = np.asarray(word, dtype=np.uint32)
        pool = _mix(pool, _hashmix(word, consts[_POOL_SIZE * i : _POOL_SIZE * (i + 1) + 1]))
    low0, high0, low1, high1 = _hashmix(pool, _OUTPUT_CONSTS).astype(np.uint64)
    return np.stack([low0 | high0 << 32, low1 | high1 << 32], axis=1)


def derive_seeds(seed: int, tags: Sequence[str], counters) -> np.ndarray:
    """(len(tags),) uint64: entry i is ``derive_seed(seed, tags[i], counters[i])``.

    One vectorised pass; ``counters`` is an int shared by every tag, or an
    array in [0, 2^32) with one counter per tag.
    """
    tag_words = np.array([_crc(tag) for tag in tags], dtype=np.uint32)
    return _stream_keys(seed, tag_words, counters)[:, 0] >> 1


def _rekeyed_streams(keys, wrap) -> Iterator:
    """For each Philox key in turn (``keys`` yields (2,) uint64 arrays),
    ``wrap`` (``np.random.Generator`` or ``np.random.RandomState``) of a
    Philox bit generator at the start of its stream.

    One Philox bit generator, wrapped once, is re-keyed to a fresh stream's
    state (the key, counter 0, an empty buffer) before each yield; draw from
    it before the next.  The state is held in Python ints, which the state
    setter reads faster than numpy scalars; each key is converted as its turn
    comes, so no list of all M keys is held.
    """
    bit_generator = np.random.Philox(key=0)
    rng = wrap(bit_generator)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in keys:
        state["state"]["key"] = key.tolist()
        bit_generator.state = state
        yield rng


def repeated_partitions(n: int, n_folds: int, repetitions: int, seed: int) -> np.ndarray:
    """(M, n) fold ids; row m is the canonical map composed with the
    permutation ``p = derive_rng(seed, "partition", m).permutation(n) + 1``:
    the observation at position i (0-based) gets the canonical fold of p[i].

    The map is held in the smallest signed integer dtype that holds n, and
    is the only (M, n) array made: its rows of images less one, 0..n-1, are
    shuffled and then mapped to fold ids in place.  A shuffle permutes
    positions whatever the values and the itemsize, so the rows are those of
    the int64 permutations.  The stream keys come from one ``_stream_keys``
    pass per ``_KEY_BLOCK`` rows, as those rows' turn comes, and every row is
    shuffled by one re-keyed Philox bit generator through a legacy
    ``RandomState``, whose ``shuffle`` draws as ``Generator.shuffle`` does
    (Fisher-Yates on the same bounded 32-bit draws) with less overhead per
    call.
    """
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    size = fold_size(n, n_folds)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= n)
    _checked_seed(seed)  # now: the keys below are derived as their rows come
    keys = (
        key
        for start in range(0, repetitions, _KEY_BLOCK)
        for key in _stream_keys(seed, _crc("partition"), np.arange(
            start, min(start + _KEY_BLOCK, repetitions), dtype=np.uint32
        ))
    )
    images = np.empty((repetitions, n), dtype)
    images[:] = np.arange(n, dtype=dtype)  # the images 1..n, less one
    for rng, row in zip(_rekeyed_streams(keys, np.random.RandomState), images):
        rng.shuffle(row)
    images //= size
    images += 1
    return images


def _counts_from_uniform_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Decode one replicate per row: rank the n smallest keys of 2n-1."""
    subset = np.sort(np.argpartition(keys, n - 1, axis=1)[:, :n], axis=1)
    return _row_histograms(subset - np.arange(n)[None, :], n)


def _row_histograms(values: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) counts of each row's values in 0..n-1, from one bincount.

    ``values`` is a C-contiguous integer temporary of the caller's; the row
    offsets are added to it in place, so no second (rows, n) array is made.
    """
    rows = values.shape[0]
    values += n * np.arange(rows)[:, None]
    return np.bincount(values.ravel(), minlength=rows * n).reshape(rows, n)


def _replicate_counts(n: int, model: SamplingModel, rngs, rows: int) -> np.ndarray:
    """Counts of ``rows`` replicates from each generator of ``rngs`` in turn, stacked."""
    if model is SamplingModel.ORDERED:
        draws = [rng.integers(0, n, size=(rows, n)) for rng in rngs]
        decode = _row_histograms
    elif model is SamplingModel.UNORDERED_MULTISET:
        draws = [rng.random((rows, 2 * n - 1)) for rng in rngs]
        decode = _counts_from_uniform_keys
    else:
        raise DomainError(f"unknown sampling model {model!r}")
    # One generator's draws are decoded as they are: B x n can be large.
    return decode(draws[0] if len(draws) == 1 else np.concatenate(draws), n)


def bootstrap_counts_matrix(
    n: int, draws: int, model: SamplingModel, seed: int | np.random.Generator
) -> np.ndarray:
    """(draws, n) matrix of replicate counts, all rows from one Philox stream.

    ``seed`` is a master seed, whose "bootstrap" stream is drawn from its
    start, or a generator of such a stream to continue.  The stream splits:
    consecutive calls on ``derive_rng(seed, "bootstrap")`` give, stacked, the
    rows of one call with their ``draws`` summed.
    """
    if n < 2:
        raise DomainError("bootstrap requires n >= 2")
    if draws < 1:
        raise DomainError("draws must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed, "bootstrap")
    return _replicate_counts(n, model, [rng], draws)


def retry_counts(n: int, model: SamplingModel, seed: int, replicates, attempt: int) -> np.ndarray:
    """The one-class redraw's rows: (len(replicates), n), row i is
    ``bootstrap_counts_matrix(n, 1, model, derive_seed(seed, f"retry-{b}", attempt))``
    for b = replicates[i].

    ``replicates`` is a non-empty sequence of replicate indices.  Their retry
    seeds come from one ``derive_seeds`` pass, the keys of those seeds'
    "bootstrap" streams from one ``_stream_keys`` pass, and every row is
    drawn by one re-keyed Philox generator.
    """
    seeds = derive_seeds(seed, [f"retry-{b}" for b in replicates], attempt)
    keys = _stream_keys(seeds, _crc("bootstrap"), 0)
    return _replicate_counts(n, model, _rekeyed_streams(keys, np.random.Generator), 1)
