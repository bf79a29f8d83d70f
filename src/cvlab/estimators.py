"""Cross-validation and bootstrap estimators for error rate and AUC.

Five estimator versions are implemented, each in a pooled variant (outer
average over observations or pairs) and a partitioned variant (average per
fold / repetition / replicate first, then across them):

===========  =============================  ====================================
version      pooled variant                 partitioned variant
===========  =============================  ====================================
CVN          leave-one-out (leave-pair-out  (identical; single variant)
             for AUC)
CVK          one shuffled K-fold run: row   per-fold means, then fold average
             0 of the repeated-CV map, so
             CVKR at M = 1
CVKR         M shuffled K-fold runs,        per-run K-fold value, then run
             per-observation average first  average
CVKM         Monte-Carlo CV: one test fold  per-run test-fold mean, then run
             per run, per-observation       average
             out-of-fold ratio
LOOB         leave-one-out bootstrap:       per-replicate out-of-bag mean,
             per-observation out-of-bag     then replicate average
             ratio (leave-pair-out for
             AUC)
===========  =============================  ====================================

For CVN, CVK and CVKR the two variants are algebraically identical (the
equal-fold-size condition makes the nested averages collapse); for CVKM they
agree only as the number of runs grows, and for LOOB they differ even in the
limit.  The AUC estimator for CVK additionally has a reduced variant that
pairs only same-index folds, trading the full n1*n2 pair coverage for K
trainings.  Error-rate estimators pool both classes into one set of n =
n1+n2 points before partitioning or resampling; AUC estimators resample the
two classes independently.

One computation serves every version and variant.  A grid of training tasks
(rows) meets a set of test units (columns): the pooled observations for
error, the n1*n2 (class-1, class-2) pairs for AUC.  Task r trains on a weight
vector over the observations (0/1 for a fold complement, counts for a
bootstrap replicate) and tests exactly the observations it gave zero weight;
an AUC task tests the pairs whose two observations it both left out.  Every
(task, unit) cell holds a loss: the zero-one loss, or the rank kernel.  A
task's scores must be finite; a trainer that gives a NaN or an infinite score
is an :class:`EstimationError` naming the task.

- *Pooled*: per unit, the tested losses summed over tasks over the number of
  tasks testing it; then the mean over units.  Units never tested are dropped
  and counted in ``EstimatorReport.excluded_count``.
- *Partitioned*: per task, the tested losses summed over units over the
  number of units it tests; then the mean over the tasks of each run (the K
  folds or K1*K2 fold pairs of one repetition), then the mean over runs.
  Tasks testing nothing (all-in-bag replicates) are skipped and counted.

A caller that needs one variant asks for it: the per-unit sums (for AUC the
per-pair scatter, the largest part of its aggregation) are built only when
the pooled variant is asked for.

The estimators differ only in their tasks: CVK has K, on row 0 of the
repeated-CV map that CVKR draws its M*K from (CVN is K = n, on the canonical
map), CVKM M each testing fold 1, LOOB one per replicate.  An AUC fold task
leaves out one fold of each class (all K1*K2 fold pairs, or the K diagonal
ones for the reduced variant); an AUC bootstrap task pairs the two classes'
replicates.  A pooled bootstrap replicate that lost a class is redrawn, up
to 100 attempts, from the retry streams that
:func:`cvlab.resampling.retry_counts` defines; the attempts run in rounds,
each redrawing every row still one-class in one ``retry_counts`` call.

Tasks are trained in tiles of ``max(1, TASK_TILE_CELLS // n)`` consecutive
tasks, aligned to task 0, each scored in one :func:`task_scores` call:
batched through a trainer's ``weighted_scores(X, labels, weights)`` hook,
which scores the rows it trains on, or task by task on materialized
subsets.  A tile's weights are float64, the dtype the batched trainers
compute in, so training makes no second copy of them; its weights, scores,
test mask and losses are built, summed and dropped before the next tile's
weights are built.  Fold tasks build their weights from the fold maps (a
repeated-CV map is an (M, n) array in the smallest signed integer dtype
that holds n: int8 up to n = 127, int16 up to 32767); LOOB draws each
tile's replicates when the tile's turn comes, continuing one bootstrap
generator per part, which gives the rows of one whole (B, n) draw.  An AUC
tile's pairs are scored in blocks of its tasks under the same bound,
``max(1, TASK_TILE_CELLS // m)`` tasks of m gathered pairs each, and
streamed to the sums one block at a time.  So beyond the inputs and the
fold maps, the memory of an estimate is bounded by one tile of about
TASK_TILE_CELLS cells, whatever the number of tasks (CVN AUC has n1*n2,
LOOB B).  An estimate is one pass: resample, check, then train and sum each
tile once.  A task that would train on one class is caught
where the resampling can make it: an error fold task from its run's fold ids, before
the first tile trains; an error replicate by the redraw above, as its tile
is drawn.  So a replicate whose redraws run out raises after the tiles
before its own have trained, and a trainer failure in one of those tiles
raises first.  An AUC task always keeps both classes.  Error cells are 0/1
losses; AUC cells are doubled kernel values, the integers 0, 1 or 2, and each
AUC sum is halved once.  So all sums are exact (whole numbers of halves), and
the divisions and means see fixed orders (units observation- or
pair-row-major, tasks run-major): results reproduce bit-for-bit from
(dataset, config, seed).  A batched trainer's scores can move in the last
bits with the tile size (BLAS picks kernels by shape), which changes a loss
only when a score sits on the threshold or on another score; that is why the
tile size is a constant and the tiles are aligned to task 0.

Each (metric, version) is declared once, as its ``_DISPATCH`` row: the
estimator's name and the config fields its function takes after the
trainer, in signature order.  The ten public ``err_*`` / ``auc_*`` functions
are thin wrappers: each hands its arguments, in row order, to ``_run``,
which zips them with the row into an :class:`EstimatorConfig`.  The config
checks every config rule as it is made and refuses any field its version
does not take, so a bad config is refused before any resampling or
training.  ``_run`` hands it to :func:`variant_values`, which checks only
what a config cannot (an unset seed, which campaigns set per trial, and the
class sizes, through :meth:`EstimatorConfig.parts`, which a campaign also
calls once before its first trial) and computes both variants from the
config and the dataset alone (no caller hands in fold maps), asking for the
pooled one only when it is reported; ``_run`` then picks the requested
variant and echoes the row's fields.  :func:`run` only dispatches: it calls
the public function its row names with the config's fields, looking the name
up at call time, so a tracer that rebinds an estimator in this module also
sees the calls ``run`` makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from cvlab.core import (
    DomainError,
    StratifiedDataset,
    Trainer,
    pairwise_kernel,
    zero_one_losses,
)
from cvlab.resampling import (
    SamplingModel,
    bootstrap_counts_matrix,
    derive_rng,
    derive_seed,
    fold_size,
    make_partition,
    repeated_partitions,
    retry_counts,
)

MAX_ONE_CLASS_RETRIES = 100

# Upper bound on the cells of one block of tasks: a training tile holds
# max(1, TASK_TILE_CELLS // n) tasks of n (task, observation) cells, and an AUC
# pair block inside it max(1, TASK_TILE_CELLS // m) tasks of m gathered
# (task, pair) cells.  So the arrays alive at once stay about this size
# however many tasks an estimator trains.
TASK_TILE_CELLS = 1 << 18


class EstimationError(RuntimeError):
    """A training/testing step failed (bad fold, singular trainer, ...)."""


class Version(Enum):
    CVN = "CVN"
    CVK = "CVK"
    CVKR = "CVKR"
    CVKM = "CVKM"
    LOOB = "LOOB"


class Variant(Enum):
    POOLED = "pooled"
    PARTITIONED = "partitioned"
    REDUCED = "reduced"


class Metric(Enum):
    ERROR = "error"
    AUC = "auc"


@dataclass(frozen=True)
class EstimatorReport:
    """Value plus the full configuration that produced it."""

    value: float
    version: Version
    variant: Variant
    metric: Metric
    config: dict
    excluded_count: int = 0

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise EstimationError(f"estimator value {self.value} outside [0, 1]")
        if self.excluded_count < 0:
            raise EstimationError("excluded_count must be non-negative")

    def to_json_dict(self) -> dict:
        out = {
            "schema": 1,
            "value": self.value,
            "version": self.version.value,
            "variant": self.variant.value,
            "metric": self.metric.value,
            "excluded_count": self.excluded_count,
        }
        for k, v in sorted(self.config.items()):
            out[k] = v.value if isinstance(v, Enum) else v
        return out


# ---------------------------------------------------------------------------
# The kernel: tasks x units
# ---------------------------------------------------------------------------


def task_scores(
    trainer: Trainer,
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    context: Callable[[int], str],
) -> np.ndarray:
    """Scores of every original point under each training task's rule.

    ``weights`` is (tasks, n): row r gives the multiplicity of each pooled
    observation in task r's training set (0/1 for fold complements, counts
    for bootstrap replicates); every row trains on both classes.  The
    estimators pass float64 weights, the dtype a batched trainer computes
    in, so the batch makes no copy of them; the task-by-task loop reads each
    row as integer counts.  A trainer failure names the task through
    ``context(r)``.  Returns a (tasks, n) float matrix of finite scores: a
    NaN or infinite score raises :class:`EstimationError` naming its task.
    """
    weights = np.asarray(weights)
    weighted = getattr(trainer, "weighted_scores", None)
    if weighted is not None:
        try:
            scores = np.asarray(weighted(features, labels, weights), dtype=float)
        except EstimationError:
            raise
        except Exception as exc:
            raise EstimationError(f"trainer failed on batched tasks: {exc}") from exc
        if scores.shape != weights.shape:
            raise EstimationError("weighted_scores returned a misshaped matrix")
    else:
        scores = np.empty(weights.shape, dtype=float)
        index = np.arange(weights.shape[1])
        for r in range(weights.shape[0]):
            reps = np.repeat(index, weights[r].astype(int))
            subset = StratifiedDataset(
                features[reps][labels[reps] == 1], features[reps][labels[reps] == 2]
            )
            try:
                rule = trainer.train(subset)
            except Exception as exc:
                raise EstimationError(f"trainer failed on {context(r)}: {exc}") from exc
            scores[r] = rule.score_many(features)
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        first = int(finite.argmin())
        raise EstimationError(f"trainer gave a non-finite score on {context(first)}")
    return scores


@dataclass(frozen=True)
class VariantValues:
    """Both variants of one estimator run (None where undefined), with the
    units the pooled variant dropped and the tasks the partitioned one skipped."""

    pooled: float | None
    uncovered: int
    partitioned: float | None
    skipped: int
    unit: str

    def pick(self, variant: Variant) -> tuple[float, int]:
        """(value, excluded count) of ``variant``: the pooled value, or else the
        partitioned one (the reduced variant is partitioned over its diagonal
        tasks).  Raises where no unit or task was tested."""
        if variant is Variant.POOLED:
            if self.pooled is None:
                raise EstimationError(f"no {self.unit} was ever tested")
            return self.pooled, self.uncovered
        if self.partitioned is None:
            raise EstimationError(f"no task tested any {self.unit}")
        return self.partitioned, self.skipped


def _ratio_of_sums(sums: Iterable[tuple], tasks_per_run: int, unit: str,
                   pooled: bool) -> VariantValues:
    """Partitioned, and if ``pooled`` pooled, values of a tasks x units grid of
    tested losses.

    ``sums`` yields one tuple per block of consecutive tasks: per task, the
    tested losses and the tested cells summed over units; then, if
    ``pooled``, per unit the same summed over the block's tasks.  Partitioned
    is the mean over runs of the mean over each run's ``tasks_per_run`` tasks
    of the ratio of the task sums; pooled is the mean over units of the ratio
    of the unit sums, or None (no unit counted as uncovered) if not asked for.
    """
    unit_sums = unit_hits = 0
    per_task = []
    for block_task_sums, block_task_hits, *block_units in sums:
        per_task.append((block_task_sums, block_task_hits))
        if pooled:
            unit_sums, unit_hits = unit_sums + block_units[0], unit_hits + block_units[1]
    task_sums, task_hits = (np.concatenate(a) for a in zip(*per_task))
    usable = task_hits > 0
    pooled_value = partitioned = None
    uncovered = 0
    if pooled:
        covered = unit_hits > 0
        uncovered = int(np.count_nonzero(~covered))
        if covered.any():
            pooled_value = float((unit_sums[covered] / unit_hits[covered]).mean())
    if usable.any():
        means = task_sums[usable] / task_hits[usable]
        partitioned = float(means.reshape(-1, tasks_per_run).mean(axis=1).mean())
    return VariantValues(
        pooled_value, uncovered, partitioned, int(np.count_nonzero(~usable)), unit
    )


def _pair_sums(scores: np.ndarray, test: np.ndarray, n1: int, pooled: bool):
    """``_ratio_of_sums`` blocks for AUC, the units being the pairs i * n2 + j.

    Each task's untested scores are padded, class 1 with +inf and class 2
    with -inf, so a padded cell scores 0 against the finite tested scores.
    Sorted, a task's padding comes last in class 1 and first in class 2, so
    each class is cut to the most observations any task tests.  A block of
    ``max(1, TASK_TILE_CELLS // m)`` tasks, m being the gathered pairs per
    task, the bound the training tiles use, is scored in one
    ``pairwise_kernel`` call, whose doubled int8 cells sum to exact integers;
    each integer sum is halved once.  A task testing m1 and m2 observations
    of the two classes tests m1 * m2 pairs.  Only if ``pooled`` are the cells
    scattered to their pairs (the sort order names each cell's observations),
    and the tasks testing each pair counted, as ``t1.T @ t2`` over the
    classes' test masks.
    """
    n2 = test.shape[1] - n1

    def gather(part, pad):
        t = test[:, part]
        tested = t.sum(axis=1)
        width = max(1, tested.max())
        keep = slice(None, width) if pad > 0 else slice(-width, None)
        padded = np.where(t, scores[:, part], pad)
        if not pooled:
            return t, tested, None, np.sort(padded, axis=1)[:, keep]
        order = np.argsort(padded, axis=1)[:, keep]
        return t, tested, order, np.take_along_axis(padded, order, 1)

    (t1, m1, rows, s1), (t2, m2, cols, s2) = (
        gather(slice(None, n1), np.inf), gather(slice(n1, None), -np.inf)
    )
    hits = m1 * m2
    step = max(1, TASK_TILE_CELLS // (s1.shape[1] * s2.shape[1]))
    for start in range(0, len(test), step):
        block = slice(start, start + step)
        twice = pairwise_kernel(s1[block], s2[block])
        sums = (twice.sum(axis=(1, 2)) / 2, hits[block])
        if pooled:
            pair = (rows[block, :, None] * n2 + cols[block, None, :]).ravel()
            pair_hits = t1[block].T.astype(float) @ t2[block].astype(float)
            sums += (np.bincount(pair, twice.ravel(), n1 * n2) / 2, pair_hits.ravel())
        yield sums


def _estimate(dataset, trainer, metric, weights, tasks, context, tasks_per_run=1,
              th=0.0, pooled=True) -> VariantValues:
    """Both variants (the partitioned one only, unless ``pooled``) after
    training each of ``tasks`` tasks once, in one pass over tiles: each tile
    builds its weights through ``weights(tile)`` (the (tile tasks, n1+n2)
    float64 weights of a slice of tasks, following ``dataset.pooled()``:
    class 1, then class 2), trains, and is summed, its arrays dropped, before
    the next is built.  ``weights`` is called once per tile, in task order,
    so it may draw each tile's rows from a stream it continues.  Every task
    must train on both classes; the callers guarantee it."""
    features, labels = dataset.pooled()
    step = max(1, TASK_TILE_CELLS // dataset.n)

    def tile(start):
        """The ``_ratio_of_sums`` blocks of the tile at ``start``.  Its arrays
        are this frame's, so they die when it returns; an AUC tile's scores
        and test mask live on in its pair-block generator until that runs
        out."""
        w = weights(slice(start, start + step))
        scores = task_scores(trainer, features, labels, w, lambda r: context(start + r))
        test = w == 0  # built after training, so it is not alive during it
        if metric is Metric.AUC:
            return _pair_sums(scores, test, dataset.n1, pooled)
        loss = zero_one_losses(scores, labels, th) & test
        sums = (loss.sum(axis=1), test.sum(axis=1))
        return [sums + ((loss.sum(axis=0), test.sum(axis=0)) if pooled else ())]

    blocks = (block for start in range(0, tasks, step) for block in tile(start))
    unit = "pair" if metric is Metric.AUC else "observation"
    return _ratio_of_sums(blocks, tasks_per_run, unit, pooled)


def _fold_tasks(dataset, trainer, metric, assigns, folds, th=0.0, pooled=True) -> VariantValues:
    """Both variants (the partitioned one only, unless ``pooled``) over fold
    tasks, run-major.  Task t of a run leaves out fold ``folds[c][t]`` of map
    ``assigns[c]`` ((runs, n_c) or (n_c,)) for each part c: the pooled
    observations for error, class 1 and class 2 for AUC.  Each tile's 0/1
    weights are built from the fold ids.

    An error task loses class c when every class-c observation of its run
    carries the fold it leaves out; the first such task, run-major, raises
    before any tile trains.  An AUC task cannot lose a class: each part is one
    class, and leaving out one of K >= 2 equal folds keeps the rest of it (as
    a bootstrap replicate of a class keeps n_c >= 2 draws of it)."""
    maps = [np.atleast_2d(a) for a in assigns]
    runs, per_run = len(maps[0]), len(folds[0])
    tasks = np.arange(runs * per_run)

    def weights(tile):
        r = tasks[tile]
        return np.concatenate(
            [m[r // per_run] != f[r % per_run, None] for m, f in zip(maps, folds)], axis=1
        ).astype(float)

    def context(r):
        held = ", ".join(str(f[r % per_run]) for f in folds)
        name = f"fold {held}" if len(folds) == 1 else f"fold pair ({held})"
        return f"run {r // per_run} {name}" if runs > 1 else name

    if metric is Metric.ERROR:  # pooled columns: class 1, then class 2
        lost = np.zeros((runs, per_run), dtype=bool)
        for part in (maps[0][:, : dataset.n1], maps[0][:, dataset.n1 :]):
            lost |= (part.min(axis=1) == part.max(axis=1))[:, None] & (part[:, :1] == folds[0])
        if lost.any():
            first = np.flatnonzero(lost)[0]
            raise EstimationError(f"{context(first)} leaves a one-class training set")
    return _estimate(dataset, trainer, metric, weights, len(tasks), context, per_run, th, pooled)


def _one_class_rows(weights: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``weights`` that give one class no weight."""
    per_class = weights @ np.stack([labels == 1, labels == 2], axis=1)
    return np.flatnonzero((per_class <= 0).any(axis=1))


def _redraw_one_class_rows(counts: np.ndarray, labels, model: SamplingModel, seed: int,
                           first: int) -> None:
    """Redraw, in place, each replicate row that lost a class; row 0 is
    replicate ``first``.

    The attempts run in rounds: round a redraws every row still one-class,
    all from one ``retry_counts`` call at attempt a, which defines their
    streams.
    """
    rows = _one_class_rows(counts, labels)
    for attempt in range(1, MAX_ONE_CLASS_RETRIES + 1):
        if not rows.size:
            return
        retry = retry_counts(counts.shape[1], model, seed, first + rows, attempt)
        still = np.zeros(rows.size, dtype=bool)
        still[_one_class_rows(retry, labels)] = True
        counts[rows[~still]] = retry[~still]
        rows = rows[still]
    if rows.size:
        raise EstimationError(
            f"replicate {first + rows[0]}: still one-class after {MAX_ONE_CLASS_RETRIES} redraws"
        )


# ---------------------------------------------------------------------------
# Configuration and the one estimator body
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything needed to run one estimator; the CLI parses into this.

    Every config rule is checked here, when the config is made, in this
    order, each a :class:`DomainError`: ``th`` is finite; a field the
    version's function does not take (see :attr:`taken`) is left at its
    default, or else it is refused as ``<function> does not take '<key>'``,
    with its [estimator] key; a size the version takes (K, or K1 and K2, M,
    B) is set; each size is at least its least value (``_SIZES``); the
    reduced variant has K1 == K2; reduced is asked only of AUC CVK; and a
    seed, where set, is non-negative.  So a config names only what its
    version uses, with one exception for library callers: a field set to its
    default passes, as the config cannot tell it from one left out
    (:meth:`from_keys`, which reads the CLI's keys, can, and refuses it).
    The seed is refused like any other field (only CVN, which draws nothing,
    does not take it); a version that takes it may leave it unset here (a
    campaign stamps one on every trial), and :func:`variant_values` demands
    it.  The class sizes are checked by :meth:`parts`.
    """

    version: Version
    metric: Metric
    variant: Variant = Variant.POOLED
    th: float = 0.0
    n_folds: int | None = None
    n_folds1: int | None = None
    n_folds2: int | None = None
    repetitions: int | None = None
    n_bootstrap: int | None = None
    sampling: SamplingModel = SamplingModel.ORDERED
    seed: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.th):
            raise DomainError("th must be finite")
        name, taken = _DISPATCH[self.metric, self.version]
        for f in fields(self):
            if f.name not in ("version", "metric", *taken) and getattr(self, f.name) != f.default:
                raise DomainError(f"{name} does not take '{_SIZES.get(f.name, (f.name,))[0]}'")
        sizes = {field: _SIZES[field] for field in taken if field in _SIZES}
        for field, (key, _) in sizes.items():
            if getattr(self, field) is None:
                raise DomainError(f"{self.version.value} needs '{key}'")
        low = [least for field, (_, least) in sizes.items() if getattr(self, field) < least]
        if low:
            bounds = " and ".join(f"{key} >= {m}" for key, m in sizes.values() if m == low[0])
            raise DomainError(f"{name} requires {bounds}")
        if self.reduced and self.n_folds1 != self.n_folds2:
            raise DomainError("reduced variant requires K1 == K2")
        if self.variant is Variant.REDUCED and not self.reduced:
            raise DomainError("variant reduced not defined for this estimator")
        if self.seed is not None and self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def from_keys(cls, section: dict) -> EstimatorConfig:
        """The checked config of an [estimator] section ({key: value}): each
        key names the field whose [estimator] key it is.  Once the config's
        own checks pass, a given key its version does not take is refused as
        ``<function> does not take '<key>'`` whatever its value, its default
        among them."""
        field_of = {key: field for field, (key, _) in _SIZES.items()}
        cfg = cls(**{field_of.get(k, k): v for k, v in section.items()})
        for key in section:
            if field_of.get(key, key) not in ("version", "metric", *cfg.taken):
                raise DomainError(f"{_DISPATCH[cfg.metric, cfg.version][0]} does not take '{key}'")
        return cfg

    @property
    def taken(self) -> tuple[str, ...]:
        """The fields this config's estimator function takes after the
        trainer, in its signature order: its ``_DISPATCH`` row."""
        return _DISPATCH[self.metric, self.version][1]

    @property
    def reduced(self) -> bool:
        """The reduced CVK AUC variant: same-index fold pairs only."""
        return (self.metric, self.version, self.variant) == (
            Metric.AUC, Version.CVK, Variant.REDUCED
        )

    def parts(self, n1: int, n2: int) -> tuple[tuple, tuple | None]:
        """(part sizes, fold counts) of this config on classes of n1 and n2
        observations, after checking that the sizes suit it.

        The parts are class 1 and class 2 for AUC, the n = n1 + n2 pooled
        observations for error.  Each part's fold count is the part size for
        CVN, and else the fold count the version takes (K, or K1 and K2 for
        AUC); LOOB takes none, and its fold counts are None.  Refused, each a
        :class:`DomainError`: an AUC estimator on n1 < 2 or n2 < 2, and a fold
        count that does not divide its part, by the partition code's own
        check.  :func:`variant_values` calls this for each dataset; a campaign
        calls it once for its spec, before its first trial.
        """
        auc = self.metric is Metric.AUC
        if auc and (n1 < 2 or n2 < 2):
            raise DomainError("AUC estimators require n1 >= 2 and n2 >= 2")
        sizes = (n1, n2) if auc else (n1 + n2,)
        ks = sizes if self.version is Version.CVN else tuple(
            getattr(self, f) for f in self.taken if f.startswith("n_folds")) or None
        for n, k in zip(sizes, ks or ()):
            fold_size(n, k)
        return sizes, ks


# Size field -> (its [estimator] key, its least value).  A version must set
# each size it takes, and the first one below its least value is refused
# naming every size it takes with that least value; every field not here is
# its own key.
_SIZES = {
    "n_folds": ("K", 2), "n_folds1": ("K1", 2), "n_folds2": ("K2", 2),
    "repetitions": ("M", 1), "n_bootstrap": ("B", 1),
}

# (metric, version) -> (estimator name, the config fields it takes after the
# trainer): the one statement of what each estimator takes.  Each row is its
# function's parameters after (dataset, trainer), in order, so ``_run``
# builds the config from a wrapper's arguments and ``run`` calls the wrapper
# with the config's fields, both positionally.  The fields other than
# variant are echoed in the report's config.  ``EstimatorConfig`` refuses
# any other field set to other than its default (``from_keys`` any other
# key), and a campaign stamps its trial seed only on a version that takes
# ``seed``: every version that draws, CVK among them, and so all but CVN.
_DISPATCH = {
    (Metric.ERROR, Version.CVN): ("err_cvn", ("th",)),
    (Metric.ERROR, Version.CVK): ("err_cvk", ("th", "n_folds", "variant", "seed")),
    (Metric.ERROR, Version.CVKR): ("err_cvkr", ("th", "n_folds", "repetitions", "seed", "variant")),
    (Metric.ERROR, Version.CVKM): ("err_cvkm", ("th", "n_folds", "repetitions", "seed", "variant")),
    (Metric.ERROR, Version.LOOB): (
        "err_loob", ("th", "n_bootstrap", "seed", "sampling", "variant")),
    (Metric.AUC, Version.CVN): ("auc_cvn", ()),
    (Metric.AUC, Version.CVK): ("auc_cvk", ("n_folds1", "n_folds2", "variant", "seed")),
    (Metric.AUC, Version.CVKR): (
        "auc_cvkr", ("n_folds1", "n_folds2", "repetitions", "seed", "variant")),
    (Metric.AUC, Version.CVKM): (
        "auc_cvkm", ("n_folds1", "n_folds2", "repetitions", "seed", "variant")),
    (Metric.AUC, Version.LOOB): ("auc_lpobs", ("n_bootstrap", "seed", "sampling", "variant")),
}


def variant_values(
    dataset: StratifiedDataset,
    trainer: Trainer,
    cfg: EstimatorConfig,
    pooled: bool = True,
) -> VariantValues:
    """Both variants of the estimator ``cfg`` describes, training each task once.

    With ``pooled`` False only the partitioned variant is computed, and the
    pooled one is None.

    ``cfg`` was checked when it was made; what it cannot check is checked
    here, before any resampling: an unset seed the version takes is a
    :class:`DomainError` naming its config key, the dataset's class sizes
    must suit ``cfg`` (see :meth:`EstimatorConfig.parts`).
    The estimator resamples parts: the pooled observations for error; class 1
    and class 2 for AUC, each from the derived seed ``derive_seed(seed,
    "classC")``.  LOOB draws B replicate counts per part, tile by tile from
    the part's one "bootstrap" stream (an error replicate that lost a class is
    redrawn).  The other versions build one fold map per part, per run for
    CVKR and CVKM: CVN the canonical map with K = the part size, the others
    the part's repeated-CV map, one run of it for CVK (so CVK is CVKR at
    M = 1).  They train one task per fold of the parts' fold grid, class-1
    fold major; CVKM tests fold 1 of each part only, and
    the reduced CVK AUC variant the diagonal fold pairs.
    """
    if "seed" in cfg.taken and cfg.seed is None:
        raise DomainError(f"{cfg.version.value} needs 'seed'")
    auc = cfg.metric is Metric.AUC
    sizes, ks = cfg.parts(dataset.n1, dataset.n2)

    def part_seed(c):
        return derive_seed(cfg.seed, f"class{c + 1}") if auc else cfg.seed

    if cfg.version is Version.LOOB:
        rngs = [derive_rng(part_seed(c), "bootstrap") for c in range(len(sizes))]
        replicates = range(cfg.n_bootstrap)

        def weights(tile):
            b = replicates[tile]
            counts = [bootstrap_counts_matrix(n, len(b), cfg.sampling, rng)
                      for n, rng in zip(sizes, rngs)]
            if auc:
                return np.hstack(counts, dtype=float)
            _redraw_one_class_rows(counts[0], dataset.labels, cfg.sampling, cfg.seed, b.start)
            return counts[0].astype(float)

        return _estimate(dataset, trainer, cfg.metric, weights, cfg.n_bootstrap,
                         "replicate {}".format, th=cfg.th, pooled=pooled)
    if cfg.version is Version.CVN:
        maps = [make_partition(n, k) for n, k in zip(sizes, ks)]
    else:
        maps = [repeated_partitions(n, k, cfg.repetitions or 1, part_seed(c))
                for c, (n, k) in enumerate(zip(sizes, ks))]
    grid = (1,) * len(ks) if cfg.version is Version.CVKM else ks[:1] if cfg.reduced else ks
    folds = [a.ravel() + 1 for a in np.indices(grid)] * (2 if cfg.reduced else 1)
    return _fold_tasks(dataset, trainer, cfg.metric, maps, folds, cfg.th, pooled)


def _run(dataset, trainer, metric: Metric, version: Version, *values) -> EstimatorReport:
    """The report of the (metric, version) estimator whose function was given
    ``values``, its arguments after the trainer in its ``_DISPATCH`` row's
    order: the config they make, checked as it is made, runs its variant,
    echoing the dataset sizes, the trainer and the row's fields other than
    variant.  The pooled variant is computed only if it is the one reported."""
    row = _DISPATCH[metric, version][1]
    cfg = EstimatorConfig(version, metric, **dict(zip(row, values, strict=True)))
    both = variant_values(dataset, trainer, cfg, pooled=cfg.variant is Variant.POOLED)
    value, excluded = both.pick(cfg.variant)
    echo = {"n1": dataset.n1, "n2": dataset.n2, "trainer": trainer.name}
    echo.update((field, getattr(cfg, field)) for field in cfg.taken if field != "variant")
    return EstimatorReport(value, cfg.version, cfg.variant, cfg.metric, echo, excluded)


# ---------------------------------------------------------------------------
# Error rate
# ---------------------------------------------------------------------------


def err_cvn(dataset: StratifiedDataset, trainer: Trainer, th: float = 0.0) -> EstimatorReport:
    """Leave-one-out CV: train n times on n-1 points, test the held-out one."""
    return _run(dataset, trainer, Metric.ERROR, Version.CVN, th)


def err_cvk(
    dataset: StratifiedDataset,
    trainer: Trainer,
    th: float = 0.0,
    n_folds: int = 2,
    variant: Variant = Variant.POOLED,
    seed: int = 0,
) -> EstimatorReport:
    """One shuffled K-fold CV run over the pooled observations: the fold map
    is row 0 of ``repeated_partitions(n, n_folds, M, seed)``, so this is
    ``err_cvkr`` at M = 1, bit for bit.

    The pooled variant averages the per-observation losses once; the
    partitioned variant averages within each fold first.  With equal fold
    sizes the two coincide; with ``n_folds == n`` both reduce to ``err_cvn``.
    """
    return _run(dataset, trainer, Metric.ERROR, Version.CVK, th, n_folds, variant, seed)


def err_cvkr(
    dataset: StratifiedDataset,
    trainer: Trainer,
    th: float = 0.0,
    n_folds: int = 2,
    repetitions: int = 1,
    seed: int = 0,
    variant: Variant = Variant.POOLED,
) -> EstimatorReport:
    """Repeated K-fold CV: M independently shuffled K-fold runs.

    Pooled: every observation's loss is averaged over the M runs first, then
    across observations.  Partitioned: per-run partitioned K-fold values are
    averaged across runs.
    """
    return _run(dataset, trainer, Metric.ERROR, Version.CVKR,
                th, n_folds, repetitions, seed, variant)


def err_cvkm(
    dataset: StratifiedDataset,
    trainer: Trainer,
    th: float = 0.0,
    n_folds: int = 2,
    repetitions: int = 1,
    seed: int = 0,
    variant: Variant = Variant.POOLED,
) -> EstimatorReport:
    """Monte-Carlo CV: each run trains once and tests on the first fold only.

    Pooled: per observation, the out-of-fold losses are summed over runs and
    divided by the number of runs that tested it; observations never tested
    are dropped and counted.  Partitioned: the test-fold mean of each run is
    averaged over runs.  The variants differ for finite run counts.
    """
    return _run(dataset, trainer, Metric.ERROR, Version.CVKM,
                th, n_folds, repetitions, seed, variant)


def err_loob(
    dataset: StratifiedDataset,
    trainer: Trainer,
    th: float = 0.0,
    n_bootstrap: int = 1,
    seed: int = 0,
    sampling: SamplingModel = SamplingModel.ORDERED,
    variant: Variant = Variant.POOLED,
) -> EstimatorReport:
    """Leave-one-out bootstrap error (pooled) and its replicate-averaged variant.

    Pooled: each observation's losses over the replicates that left it out
    are averaged, then averaged across observations; never-left-out
    observations are dropped and counted.  Partitioned: each replicate
    contributes the mean loss over its out-of-bag set; all-in-bag replicates
    are skipped and counted.  The two variants are not equal, even for many
    replicates.
    """
    return _run(dataset, trainer, Metric.ERROR, Version.LOOB,
                th, n_bootstrap, seed, sampling, variant)


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def auc_cvn(dataset: StratifiedDataset, trainer: Trainer) -> EstimatorReport:
    """Leave-pair-out CV: n1*n2 trainings, one per held-out pair."""
    return _run(dataset, trainer, Metric.AUC, Version.CVN)


def auc_cvk(
    dataset: StratifiedDataset,
    trainer: Trainer,
    n_folds1: int = 2,
    n_folds2: int = 2,
    variant: Variant = Variant.POOLED,
    seed: int = 0,
) -> EstimatorReport:
    """One shuffled K-fold CV run for AUC with per-class fold counts K1, K2:
    each class's fold map is row 0 of its repeated-CV map, so the pooled and
    partitioned variants are ``auc_cvkr`` at M = 1, bit for bit.

    Pooled and partitioned variants train K1*K2 times and agree exactly; the
    reduced variant (K1 == K2 required) pairs only same-index folds, training
    K times, and generally differs.  ``n_folds1 == n1`` with ``n_folds2 == n2``
    reduces to ``auc_cvn``.
    """
    return _run(dataset, trainer, Metric.AUC, Version.CVK, n_folds1, n_folds2, variant, seed)


def auc_cvkr(
    dataset: StratifiedDataset,
    trainer: Trainer,
    n_folds1: int = 2,
    n_folds2: int = 2,
    repetitions: int = 1,
    seed: int = 0,
    variant: Variant = Variant.POOLED,
) -> EstimatorReport:
    """Repeated K-fold CV for AUC over M independent per-class shuffles."""
    return _run(dataset, trainer, Metric.AUC, Version.CVKR,
                n_folds1, n_folds2, repetitions, seed, variant)


def auc_cvkm(
    dataset: StratifiedDataset,
    trainer: Trainer,
    n_folds1: int = 2,
    n_folds2: int = 2,
    repetitions: int = 1,
    seed: int = 0,
    variant: Variant = Variant.POOLED,
) -> EstimatorReport:
    """Monte-Carlo CV for AUC: one test fold per class per run.

    Pooled: per pair, kernel values from runs where both members sat in the
    test folds, divided by the number of such runs; uncovered pairs are
    dropped and counted.  Partitioned: per-run mean over the test-fold pair
    block, averaged over runs.  Not equal for finite run counts.
    """
    return _run(dataset, trainer, Metric.AUC, Version.CVKM,
                n_folds1, n_folds2, repetitions, seed, variant)


def auc_lpobs(
    dataset: StratifiedDataset,
    trainer: Trainer,
    n_bootstrap: int = 1,
    seed: int = 0,
    sampling: SamplingModel = SamplingModel.ORDERED,
    variant: Variant = Variant.POOLED,
) -> EstimatorReport:
    """Leave-pair-out bootstrap AUC; the classes are resampled independently.

    Pooled: per pair, kernel values from replicates where both members are
    out-of-bag, divided by the number of such replicates; never-covered pairs
    are dropped and counted.  Partitioned: per replicate, the mean kernel
    over its out-of-bag pair block, averaged over replicates; replicates with
    an empty out-of-bag set on either class are skipped and counted.  The
    variants differ even in the many-replicate limit.
    """
    return _run(dataset, trainer, Metric.AUC, Version.LOOB, n_bootstrap, seed, sampling, variant)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def run(dataset: StratifiedDataset, trainer: Trainer, cfg: EstimatorConfig) -> EstimatorReport:
    """Run the estimator selected by ``cfg`` on ``dataset``.

    Holds no check: :class:`EstimatorConfig` checked ``cfg`` when it was
    made.  Calls the public function by its name, looked up at call time, so
    that rebinding an estimator in this module (as a tracer does) reroutes
    ``run``.
    """
    name = _DISPATCH[cfg.metric, cfg.version][0]
    return globals()[name](dataset, trainer, *(getattr(cfg, f) for f in cfg.taken))
