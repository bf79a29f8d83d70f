"""Reference computations the tests compare the library against.

Each one is written independently of the code under test, as a direct
transcription of its definition: a scalar rank kernel, sums over the exact
out-of-bag pmf, the decomposition residual, the canonical fold map composed
with a permutation, the documented stream of each repeated-CV fold map (row
0 of which is the one-run K-fold map), the multiset support of the bootstrap
by direct enumeration (with 0/1 keys that make the sampler's decode walk
it), each replicate's weight under a sampling model (for AUC, of every pair of class
replicates), the enumerated (weighted, exact) B -> infinity limits of the
leave-one-out bootstrap variants and their standard errors at a finite B,
every K-fold map of a small dataset with its per-task, per-unit losses,
complete CV as the mean over its distinct held-out sets, each map's unit
losses and test mask as one row (so the leave-one-out bootstrap's standard
errors serve repeated CV, a map being a replicate), and the pooled
variant over a set of those tasks, the AUC pair sums from masked
float kernel cells, the one-class rule on dense task weights, and the
one-class redraw replicate by replicate.  Two probes
measure rather than compute: the peak memory of a script run in a fresh
interpreter, read from the child's own ``VmHWM``, and the traced
(``tracemalloc``) peak of a call in this one.  One check looks for child processes left behind.
"""

import math
import os
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from pathlib import Path

import numpy as np

import cvlab
from cvlab.analysis import decompose
from cvlab.combinatorics import pmf_unseen_count
from cvlab.core import DomainError, StratifiedDataset
from cvlab.estimators import EstimationError
from cvlab.resampling import bootstrap_counts_matrix, derive_rng, derive_seed


def mw_kernel(a: float, b: float) -> float:
    """Two-sample rank kernel of one pair: 0 if a > b, 0.5 if a == b, 1 if a < b."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("mw_kernel requires finite scores")
    if a > b:
        return 0.0
    if a < b:
        return 1.0
    return 0.5


def identity_residual(s, s_hat) -> float:
    """|lhs - rhs| of the decomposition identity of ``s`` and ``s_hat``;
    raises when degenerate."""
    report = decompose(s, s_hat)
    if report.degenerate:
        raise DomainError("zero variance: identity is undefined")
    return abs(report.residual)


def pmf_total(n: int, m: int) -> Fraction:
    """Sum of the pmf over its support; exactly 1 for valid (n, m)."""
    return sum((pmf_unseen_count(n, m, k) for k in range(n)), start=Fraction(0))


def unseen_mean_by_summation(n: int) -> Fraction:
    """E a_b computed from the pmf, for cross-checking the closed form."""
    return sum((k * pmf_unseen_count(n, n, k) for k in range(n)), start=Fraction(0))


def inv_one_plus_unseen_by_summation(n: int) -> Fraction:
    """E 1/(1+a_b) computed from the pmf."""
    return sum(
        (pmf_unseen_count(n, n, k) / (1 + k) for k in range(n)), start=Fraction(0)
    )


def canonical_map(perm, k: int) -> np.ndarray:
    """(n,) fold ids 1..k: the canonical K-fold map composed with ``perm``, a
    1-based permutation of 1..n (k divides n).  The observation at position i
    (0-based) gets fold ceil(perm[i] / (n / k)), the canonical fold of perm[i]."""
    perm = np.asarray(perm)
    assert perm.size % k == 0 and sorted(perm.tolist()) == list(range(1, perm.size + 1))
    return (perm - 1) // (perm.size // k) + 1


def random_permutation(n: int, seed: int, counter: int = 0) -> np.ndarray:
    """The 1-based permutation that stream (seed, "partition", counter)
    draws: the documented permutation of row ``counter`` of
    ``repeated_partitions(n, K, M, seed)``."""
    return derive_rng(seed, "partition", counter).permutation(n) + 1


def enumerate_multiset_counts(n: int) -> np.ndarray:
    """(C(2n-1, n), n): the count vector of every multiset of n indices in
    0..n-1, one row each, the multisets in lexicographic order.

    The stars-and-bars decode maps the n-subsets of {0, ..., 2n-2}, in
    ``itertools.combinations`` order, to these rows in this order.
    """
    multisets = combinations_with_replacement(range(n), n)
    return np.array([np.bincount(m, minlength=n) for m in multisets])


def subset_keys(n: int) -> np.ndarray:
    """(C(2n-1, n), 2n-1) float keys, one row per n-subset of {0, ..., 2n-2}
    in ``itertools.combinations`` order: 0 at the subset, 1 elsewhere.  The
    n smallest keys of a row sit at its subset."""
    subsets = list(combinations(range(2 * n - 1), n))
    keys = np.ones((len(subsets), 2 * n - 1))
    for row, subset in zip(keys, subsets):
        row[list(subset)] = 0
    return keys


def two_class_multisets(labels: np.ndarray) -> np.ndarray:
    """Every unordered-multiset replicate of the pooled sample that keeps both
    classes.  The one-class redraw is rejection sampling, so the accepted
    replicate is uniform over exactly these rows."""
    counts = np.array(list(enumerate_multiset_counts(labels.size)))
    keep = (counts[:, labels == 1].sum(axis=1) > 0) & (counts[:, labels == 2].sum(axis=1) > 0)
    return counts[keep]


def replicate_weights(counts: np.ndarray, ordered: bool) -> np.ndarray:
    """Integer weight of each row of ``counts`` (replicates x observations)
    under the bootstrap's sampling model: the number of ordered draws that
    give it, n! / prod(c_i!), for ORDERED; 1 for UNORDERED_MULTISET, which
    draws every multiset equally often."""
    if not ordered:
        return np.ones(len(counts), dtype=object)
    orderings = math.factorial(int(counts[0].sum()))
    return np.array(
        [orderings // math.prod(map(math.factorial, map(int, row))) for row in counts],
        dtype=object,
    )


def loob_limits(losses: np.ndarray, oob: np.ndarray, weights=None) -> tuple:
    """(pooled, partitioned) leave-one-out bootstrap values when row b of
    ``losses``/``oob`` (replicates x observations) is drawn with probability
    proportional to ``weights[b]`` (every row alike if None), i.e. their
    B -> infinity limits over the enumerated replicate distribution.
    Integer (or bool) losses give exact Fractions; float losses give floats.

    Pooled: per observation, the weighted out-of-bag loss sum over the
    weighted out-of-bag count, then the mean over observations.
    Partitioned: per replicate with a non-empty out-of-bag set, its mean
    out-of-bag loss, then the weighted mean over those replicates.
    """
    exact = losses.dtype.kind in "biu"
    if weights is None:
        weights = np.ones(len(oob), dtype=int)
    if exact:  # Python ints, so every sum is exact and every ratio a Fraction
        losses, oob, weights = (np.asarray(a).astype(object) for a in (losses, oob, weights))
    ratio = np.frompyfunc(Fraction, 2, 1) if exact else np.divide
    held = oob * weights[:, None]
    pooled = ratio((losses * held).sum(axis=0), held.sum(axis=0)).sum() / oob.shape[1]
    unseen = oob.sum(axis=1)
    usable = unseen > 0
    per_replicate = ratio((losses * oob).sum(axis=1)[usable], unseen[usable])
    partitioned = (weights[usable] * per_replicate).sum() / weights[usable].sum()
    return pooled, partitioned


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


def class_replicates(n1: int, n2: int, ordered: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every AUC bootstrap replicate of classes of n1 and n2 observations,
    with its integer weight under the sampling model.

    Row i * R2 + j pairs row i of ``enumerate_multiset_counts(n1)`` (R1 rows)
    with row j of ``enumerate_multiset_counts(n2)`` (R2 rows), as one
    (R1 R2, n1 + n2) count matrix over the pooled observations; its weight is
    the product of the two rows' ``replicate_weights``.  Each class resamples
    itself, so every row keeps both classes and none is conditioned away.
    """
    rows1, rows2 = enumerate_multiset_counts(n1), enumerate_multiset_counts(n2)
    counts = np.hstack([np.repeat(rows1, len(rows2), axis=0), np.tile(rows2, (len(rows1), 1))])
    weights = np.outer(replicate_weights(rows1, ordered), replicate_weights(rows2, ordered))
    return counts, weights.ravel()


def complete_cv(dataset, trainer, folds: tuple[int, ...], th: float = 0.0) -> dict:
    """{fold map: per task, its per-unit losses} over every distinct fold map
    of ``dataset``.

    ``folds`` holds one fold count per part: (K,) for error, whose one part
    is the pooled observations, class 1 then class 2; (K1, K2) for AUC, whose
    parts are class 1 and class 2.  A part's maps are the distinct
    arrangements of its fold ids 1..K_c, n_c / K_c of each; a map of the
    dataset is one map per part, keyed as the tuple of the parts' fold-id
    tuples.  Task (k_1, ...) of a map, class-1 fold major, trains on all but
    fold k_c of each part and tests what it held out.  Its entry maps each
    unit it tests to that unit's loss as a Fraction: for error, unit i is
    pooled observation i and its loss is zero-one (a score >= th predicts
    class 2); for AUC, unit i * n2 + j is the pair of class-1 observation i
    and class-2 observation j and its loss is the kernel (1 if the class-1
    score is below the class-2 one, 1/2 on a tie).  A task's CVK loss is the
    mean over its units (:func:`cvk_loss`); the mean over maps of a map's
    mean task loss is complete CV.
    """
    auc = len(folds) == 2
    features = np.vstack([dataset.class1, dataset.class2])
    labels = np.repeat([1, 2], [dataset.n1, dataset.n2])
    sizes = (dataset.n1, dataset.n2) if auc else (dataset.n,)
    losses = {}

    def loss(held):
        """The unit losses of the task that holds out ``held``, one index tuple per part."""
        if held not in losses:
            out = np.concatenate([np.isin(np.arange(n), h) for n, h in zip(sizes, held)])
            train = [features[~out & (labels == c)] for c in (1, 2)]
            scores = trainer.train(StratifiedDataset(*train)).score_many(features[out])
            tested = labels[out]
            if auc:
                s1, s2 = scores[tested == 1], scores[tested == 2]
                losses[held] = {
                    i * dataset.n2 + j: Fraction(2 * int(a < b) + int(a == b), 2)
                    for i, a in zip(held[0], s1) for j, b in zip(held[1], s2)
                }
            else:
                wrong = (scores >= th) != (tested == 2)
                losses[held] = {i: Fraction(int(w)) for i, w in zip(held[0], wrong)}
        return losses[held]

    def part_maps(n, k):
        return sorted(set(permutations([f for f in range(1, k + 1) for _ in range(n // k)])))

    per_map = {}
    for fold_map in product(*(part_maps(n, k) for n, k in zip(sizes, folds))):
        per_map[fold_map] = tuple(
            loss(tuple(tuple(i for i, f in enumerate(m) if f == k) for m, k in zip(fold_map, task)))
            for task in product(*(range(1, k + 1) for k in folds))
        )
    return per_map


def cvk_loss(units: dict) -> Fraction:
    """A ``complete_cv`` task's CVK loss: the mean of its unit losses."""
    return sum(units.values()) / len(units)


def held_out_mean(per_map: dict) -> tuple[Fraction, int]:
    """Complete CV read off a ``complete_cv`` result by its definition: the
    mean CVK loss over every distinct held-out set (for AUC, every pair of
    class held-out sets), each counted once; with the number of those sets."""
    losses = {frozenset(units): cvk_loss(units) for tasks in per_map.values() for units in tasks}
    return sum(losses.values()) / len(losses), len(losses)


def fold_map_rows(per_map: dict, tested: slice, n_units: int) -> tuple[np.ndarray, np.ndarray]:
    """(losses, test), each (maps, ``n_units``): row r holds, for the r-th map
    of a ``complete_cv`` result, each unit's loss in the task of
    ``tasks[tested]`` that tests it (0 where none does) and whether one does.
    Every unit is tested at most once per map: CVKR's tasks (all of them)
    hold out disjoint sets, and CVKM has one (``slice(1)``).  Drawn uniformly,
    as repeated CV draws its maps, these rows are the replicates of
    :func:`loob_standard_errors`, whose pooled and partitioned variants are
    CVKR's or CVKM's."""
    losses = np.zeros((len(per_map), n_units))
    test = np.zeros((len(per_map), n_units), dtype=bool)
    for r, tasks in enumerate(per_map.values()):
        for units in tasks[tested]:
            assert not test[r, list(units)].any(), "a unit tested twice in one map"
            for unit, loss in units.items():
                losses[r, unit], test[r, unit] = loss, True
    return losses, test


def pooled_value(tasks) -> float:
    """The pooled variant over ``tasks``, an iterable of ``complete_cv`` task
    entries: per unit tested, float(its exact loss sum) over the number of
    tasks that test it, then ``np.mean`` over those units in unit order."""
    sums, hits = {}, {}
    for units in tasks:
        for unit, value in units.items():
            sums[unit] = sums.get(unit, 0) + value
            hits[unit] = hits.get(unit, 0) + 1
    return np.mean([float(sums[unit]) / hits[unit] for unit in sorted(sums)])


def float_pair_sums(scores: np.ndarray, test: np.ndarray, n1: int, block_cells: int):
    """Per block of tasks: per pair i * n2 + j the tested kernel values and the
    tested cells summed over the block's tasks, then per task the same summed
    over pairs.

    Each task's tested observations of each class are gathered in index order
    and padded to the most any task tests; every gathered cell holds the float
    kernel (0, 0.5 or 1) times the mask of its two slots both being tested.  A
    block holds max(1, block_cells // gathered pairs per task) tasks.
    """

    def gather(part):
        t = test[:, part]
        order = np.argsort(~t, axis=1, kind="stable")[:, : max(1, t.sum(axis=1).max())]
        return order, np.take_along_axis(t, order, 1), np.take_along_axis(scores[:, part], order, 1)

    (rows, ok1, s1), (cols, ok2, s2) = gather(slice(None, n1)), gather(slice(n1, None))
    n2 = test.shape[1] - n1
    step = max(1, block_cells // (rows.shape[1] * cols.shape[1]))
    for start in range(0, len(test), step):
        block = slice(start, start + step)
        ok = ok1[block, :, None] & ok2[block, None, :]
        a, b = s1[block, :, None], s2[block, None, :]
        loss = ((a < b).astype(float) + 0.5 * (a == b)) * ok
        pair = (rows[block, :, None] * n2 + cols[block, None, :]).ravel()
        yield (np.bincount(pair, loss.ravel(), n1 * n2), np.bincount(pair, ok.ravel(), n1 * n2),
               loss.sum(axis=(1, 2)), ok.sum(axis=(1, 2)))


def one_class_tasks(weights: np.ndarray, labels: np.ndarray) -> list[int]:
    """Indices, in order, of the training tasks (rows of the dense tasks x
    observations ``weights``) that give class 1 or class 2 no weight."""
    return [
        r for r, row in enumerate(weights)
        if row[labels == 1].sum() == 0 or row[labels == 2].sum() == 0
    ]


def redraw_one_class_rows(
    counts: np.ndarray, labels: np.ndarray, model, seed: int, max_retries: int
) -> np.ndarray:
    """A copy of ``counts`` with each replicate that lost a class redrawn.

    Replicate by replicate: attempt a = 1, 2, ... draws replicate b again as
    the one row of ``bootstrap_counts_matrix`` under ``derive_seed(seed,
    f"retry-{b}", a)`` and keeps the first draw that holds both classes.
    """

    def one_class(row):
        return row[labels == 1].sum() == 0 or row[labels == 2].sum() == 0

    counts = counts.copy()
    for b, row in enumerate(counts):
        if not one_class(row):
            continue
        for attempt in range(1, max_retries + 1):
            retry = bootstrap_counts_matrix(
                counts.shape[1], 1, model, derive_seed(seed, f"retry-{b}", attempt)
            )[0]
            if not one_class(retry):
                counts[b] = retry
                break
        else:
            raise EstimationError(f"replicate {b}: still one-class after {max_retries} redraws")
    return counts


def fresh_process_peak(script: str) -> tuple[int, str]:
    """(peak KiB, stdout) of ``script`` run in a fresh interpreter with the
    ``cvlab`` source on its path.

    The peak is the child's own VmHWM, read from ``/proc/self/status`` after
    the script and printed last (Linux only).  ``ru_maxrss`` would not do: on
    Linux a child's ru_maxrss after exec also holds the peak of the process
    that spawned it, so under pytest it can read pytest's own peak.
    """
    probe = (
        "\nwith open('/proc/self/status') as _status:\n"
        "    print(next(line.split()[1] for line in _status if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(cvlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script + probe], capture_output=True, text=True, env=env,
        timeout=120,
    )
    if proc.returncode:
        raise RuntimeError(f"script failed:\n{proc.stderr}")
    out, peak = proc.stdout.rstrip("\n").rpartition("\n")[::2]
    return int(peak), out


def traced_peak(call) -> int:
    """Peak bytes that ``tracemalloc`` traced while ``call()`` ran, above
    those traced when it began; numpy traces its array buffers.  The result
    is held until the peak is read, so a returned array counts."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()  # noqa: F841  (held while the peak is read)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def children_left() -> list[int]:
    """Pids of this process's children, live or exited but unreaped; each is
    ended (SIGKILL) and reaped, so a second call returns [].

    ``os.waitpid(-1, WNOHANG)`` raising ChildProcessError means there is no
    child; a live one is found in ``/proc/self/task/*/children`` (Linux).
    Callers of ``subprocess`` reap their own children, so they leave none.
    """
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return left
        if not pid:  # only live children: end them, then reap one
            for task in Path("/proc/self/task").glob("*/children"):
                for child in task.read_text().split():
                    os.kill(int(child), signal.SIGKILL)
            pid, _ = os.waitpid(-1, 0)
        left.append(pid)
