"""Domain primitives for two-class performance assessment.

Conventions used throughout the package:

- A dataset is stratified into class 1 and class 2 feature matrices.
- A trained classifier is represented by a :class:`ScoringRule` mapping a
  feature vector to a real score.  Scores are oriented so that *higher score
  means class 2*; a well-behaved classifier therefore has AUC above 0.5.
- The pooled observation order is class 1, then class 2;
  :attr:`StratifiedDataset.labels` is the one {1,2} label vector in that order.
- The zero-one loss (:func:`zero_one_losses`) classifies as class 1 when
  ``score < th`` and as class 2 when ``score >= th`` (equality breaks toward
  class 2, a fixed convention so the loss is deterministic).  The true
  performance S, the apparent Sbar and the estimate Shat all score it here.
- The two-sample rank kernel of a class-1 score a and a class-2 score b is
  0, 0.5, 1 for a > b, a == b, a < b; :func:`pairwise_kernel` evaluates
  twice it, 0, 1 or 2 as int8, for every pair, so sums of it are exact
  integers.  Ties are exact floating-point ties, no epsilon.
- The empirical AUC of score samples ``s1`` (class 1) and ``s2`` (class 2) is
  the mean of the kernel over all n1*n2 pairs.
- Every CSV input (a dataset, a ``decompose`` pairs file) is read by
  :func:`read_csv_table`, which refuses a row whose width is not the
  header's and a field that is not a float; its callers check only their
  own header and, for a dataset, the labels.
"""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np


class DomainError(ValueError):
    """Invalid input: wrong shape, non-finite values, empty class, bad label."""


class DivisibilityError(DomainError):
    """A fold count that does not divide the number of observations."""


def _as_float_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DomainError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DomainError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class StratifiedDataset:
    """Two-class dataset: n1 x p features for class 1, n2 x p for class 2."""

    class1: np.ndarray
    class2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "class1", _as_float_matrix(self.class1, "class1"))
        object.__setattr__(self, "class2", _as_float_matrix(self.class2, "class2"))
        if self.class1.shape[1] != self.class2.shape[1]:
            raise DomainError(
                "class matrices disagree on dimension: "
                f"{self.class1.shape[1]} vs {self.class2.shape[1]}"
            )

    @property
    def n1(self) -> int:
        return self.class1.shape[0]

    @property
    def n2(self) -> int:
        return self.class2.shape[0]

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def p(self) -> int:
        return self.class1.shape[1]

    @cached_property
    def labels(self) -> np.ndarray:
        """The (n,) {1,2} label vector of the pooled observations: n1 ones, then
        n2 twos.  Built once per dataset, read-only."""
        labels = np.repeat(np.array([1, 2]), [self.n1, self.n2])
        labels.flags.writeable = False
        return labels

    def pooled(self) -> tuple[np.ndarray, np.ndarray]:
        """All observations as one matrix plus :attr:`labels`.

        Class-1 rows come first; the row order is the fixed observation order
        used by the pooled (error-rate) resampling estimators.
        """
        return np.vstack([self.class1, self.class2]), self.labels


class ScoringRule(ABC):
    """A trained classifier: a deterministic map from feature vector to score.

    Higher scores point toward class 2.
    """

    @abstractmethod
    def score_many(self, X: np.ndarray) -> np.ndarray:
        """Scores of the rows of an (m, p) matrix, as an (m,) vector."""


@dataclass(frozen=True, eq=False)
class LinearScoringRule(ScoringRule):
    """score(x) = weights . x + offset"""

    weights: np.ndarray
    offset: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def p(self) -> int:
        return self.weights.shape[0]

    def score_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.p:
            raise DomainError(f"expected dimension {self.p}, got {X.shape[1]}")
        return X @ self.weights + self.offset


class Trainer(ABC):
    """A training procedure: deterministic map from dataset to scoring rule.

    Implementations must be pure functions of the dataset and their own
    hyperparameters; any internal randomness has to be seed-parameterized.
    """

    name: str = "trainer"

    @abstractmethod
    def train(self, dataset: StratifiedDataset) -> ScoringRule:
        ...


def empirical_auc(scores1, scores2) -> float:
    """Mean of the rank kernel over all pairs (class-1 score, class-2 score).

    Equals the Mann-Whitney statistic normalized to [0, 1]; 0.5 for all-tied
    scores, 1.0 when every class-2 score exceeds every class-1 score.
    Computed from a sort of each class and two binary searches per class-1
    score, so large samples cost O(n log n) rather than one kernel
    evaluation per pair; searching in ascending order keeps the searches
    cache-friendly, and the counts are sums, so the order does not change
    them.  The pair count is a whole number of halves, which keeps the
    result exactly equal to the pair-averaged kernel.
    """
    s1 = np.asarray(scores1, dtype=float).reshape(-1)
    s2 = np.asarray(scores2, dtype=float).reshape(-1)
    if s1.size == 0 or s2.size == 0:
        raise DomainError("empirical_auc requires non-empty score vectors")
    if not (np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))):
        raise DomainError("empirical_auc requires finite scores")
    n1, n2 = s1.size, s2.size
    s1 = np.sort(s1)
    s2 = np.sort(s2)
    # n2 - left counts the class-2 scores >= s, n2 - right those > s.
    left = np.searchsorted(s2, s1, side="left")
    right = np.searchsorted(s2, s1, side="right")
    twice_wins_plus_ties = 2 * n1 * n2 - int(left.sum()) - int(right.sum())
    return twice_wins_plus_ties / 2 / (n1 * n2)


def pairwise_kernel(scores1: np.ndarray, scores2: np.ndarray) -> np.ndarray:
    """Twice the kernel for all score pairs, ``2 * (a < b) + (a == b)`` as
    int8: (n1, n2) for 1-D inputs.

    Leading axes batch: inputs of shapes (..., n1) and (..., n2) give
    (..., n1, n2), one pair matrix per leading index.  A +inf class-1 or a
    -inf class-2 score scores 0 against every finite score, which is how the
    estimators pad the untested slots of a task.
    """
    s1 = np.asarray(scores1, dtype=float)[..., :, None]
    s2 = np.asarray(scores2, dtype=float)[..., None, :]
    return (s1 < s2).view(np.int8) * np.int8(2) + (s1 == s2)


def zero_one_losses(scores: np.ndarray, labels: np.ndarray, th: float) -> np.ndarray:
    """Bool mask, True where the score misclassifies its {1,2} label at
    threshold ``th``; ``score >= th`` predicts class 2.  ``scores`` may carry
    leading task axes over the labels' axis."""
    return (np.asarray(scores, dtype=float) >= float(th)) != (np.asarray(labels) == 2)


def read_csv_table(
    path: str | Path, what: str, check_header: Callable[[list[str]], str | None]
) -> tuple[list[int], np.ndarray]:
    """The line numbers and the (rows, columns) float values of the non-blank
    rows under the header of a UTF-8 CSV file; ``what`` names the file's kind
    in the error messages.  A row's line number is the physical line it ends
    on, so rows after a quoted field that spans lines keep their own line
    numbers.

    Each a :class:`DomainError`, in this order: a file that cannot be read
    (missing, a directory, not UTF-8, a path with a NUL byte, an over-long
    field) or is empty; the problem ``check_header(header)`` names (None when
    the header suits the caller); then, row by row, a row whose width is not
    the header's, or a field that is not a float.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: a NUL byte or not UTF-8
        raise DomainError(f"cannot read {what} {path}: {exc}") from exc
    if not rows:
        raise DomainError(f"{path}: empty {what} file")
    header = rows[0][1]
    problem = check_header(header)
    if problem:
        raise DomainError(f"{path}: {problem}")
    lines, values = [], []
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(header):
            raise DomainError(f"{path}:{lineno}: expected {len(header)} fields")
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from None
        lines.append(lineno)
    return lines, np.array(values, dtype=float).reshape(len(lines), len(header))


def _dataset_header_problem(header: list[str]) -> str | None:
    if not header or header[0] != "class":
        return "first column must be 'class'"
    if len(header) < 2:
        return "no feature columns"
    expected = ["class"] + [f"f{j}" for j in range(1, len(header))]
    return None if header == expected else f"header must be {','.join(expected)}"


def read_dataset_csv(path: str | Path) -> StratifiedDataset:
    """Load a dataset CSV with header ``class,f1,...,fp`` and labels in {1,2}
    (read as floats, so ``1.0`` is class 1)."""
    lines, table = read_csv_table(path, "dataset", _dataset_header_problem)
    labels = table[:, 0]
    bad = np.flatnonzero((labels != 1) & (labels != 2))
    if bad.size:
        raise DomainError(f"{Path(path)}:{lines[bad[0]]}: class must be 1 or 2")
    if not (labels == 1).any() or not (labels == 2).any():
        raise DomainError(f"{Path(path)}: both classes must be present")
    return StratifiedDataset(table[labels == 1, 1:], table[labels == 2, 1:])


def write_dataset_csv(dataset: StratifiedDataset, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class"] + [f"f{j}" for j in range(1, dataset.p + 1)])
        for row in dataset.class1:
            writer.writerow([1] + [repr(float(v)) for v in row])
        for row in dataset.class2:
            writer.writerow([2] + [repr(float(v)) for v in row])
