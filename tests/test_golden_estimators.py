"""Golden values for every estimator version, variant and metric.

Each case calls one public ``err_*`` / ``auc_*`` function with fixed
arguments and records ``repr(value)`` and ``excluded_count``, or the name of
the exception it raised.  The recorded outcomes live in
``golden_estimators.json`` next to this file; any refactor of the estimators
must reproduce them exactly, also with one and with seven training tasks per
tile.

The grid covers three small datasets (one whose scores tie exactly), the two
built-in trainers plus one without the batched ``weighted_scores`` hook, and
several fold counts, repetition counts, bootstrap budgets, sampling models
and seeds.

To re-record after a deliberate change of values::

    PYTHONPATH=src python tests/test_golden_estimators.py
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from cvlab import estimators
from cvlab.core import StratifiedDataset, Trainer
from cvlab.estimators import Variant
from cvlab.resampling import SamplingModel
from cvlab.simlab import LdaTrainer, NearestMeanTrainer

GOLDEN_PATH = Path(__file__).with_name("golden_estimators.json")


class UnbatchedNearestMean(Trainer):
    """Nearest-mean without ``weighted_scores``: tasks are trained one by one."""

    name = "unbatched-nearest-mean"

    def train(self, dataset):
        return NearestMeanTrainer().train(dataset)


def _datasets():
    rng = np.random.default_rng(20190731)
    return {
        "smooth": StratifiedDataset(rng.normal(0, 1, (4, 2)), rng.normal(0.3, 1, (4, 2))),
        # integer features: equal points get equal scores, so kernel and
        # threshold ties are exact
        "ties": StratifiedDataset(
            np.array([[0.0], [1.0], [1.0], [2.0], [0.0], [1.0]]),
            np.array([[1.0], [2.0], [2.0], [1.0], [3.0], [2.0]]),
        ),
        "unbalanced": StratifiedDataset(rng.normal(0, 1, (4, 3)), rng.normal(0.3, 1, (6, 3))),
    }


DATASETS = _datasets()
TRAINERS = {
    "nearest-mean": NearestMeanTrainer(),
    "lda": LdaTrainer(1e-6),
    "unbatched": UnbatchedNearestMean(),
}

VARIANTS = tuple(Variant)
FOLDS = (2, 4, 5)
FOLD_PAIRS = ((2, 2), (2, 3), (4, 2), (3, 3))
REPETITIONS = (1, 4)
BUDGETS = (1, 5, 40)
SEEDS = (0, 11)


def _grid(**axes):
    names = list(axes)
    for combo in itertools.product(*axes.values()):
        yield dict(zip(names, combo))


def cases(dataset):
    """{function name: [kwargs, ...]} for one dataset, in a fixed order."""
    return {
        "err_cvn": [{}, {"th": 0.5}],
        "err_cvk": list(_grid(n_folds=FOLDS, seed=SEEDS, variant=VARIANTS)),
        "err_cvkr": list(
            _grid(n_folds=FOLDS, repetitions=REPETITIONS, seed=SEEDS, variant=VARIANTS)
        ),
        "err_cvkm": list(
            _grid(n_folds=FOLDS, repetitions=REPETITIONS, seed=SEEDS, variant=VARIANTS)
        ),
        "err_loob": list(
            _grid(n_bootstrap=BUDGETS, seed=SEEDS, sampling=tuple(SamplingModel), variant=VARIANTS)
        ),
        "auc_cvn": [{}],
        "auc_cvk": [
            {"n_folds1": k1, "n_folds2": k2, "seed": s, "variant": v}
            for (k1, k2), s, v in itertools.product(FOLD_PAIRS, SEEDS, VARIANTS)
        ],
        "auc_cvkr": [
            {"n_folds1": k1, "n_folds2": k2, "repetitions": m, "seed": s, "variant": v}
            for (k1, k2), m, s, v in itertools.product(FOLD_PAIRS, REPETITIONS, SEEDS, VARIANTS)
        ],
        "auc_cvkm": [
            {"n_folds1": k1, "n_folds2": k2, "repetitions": m, "seed": s, "variant": v}
            for (k1, k2), m, s, v in itertools.product(FOLD_PAIRS, REPETITIONS, SEEDS, VARIANTS)
        ],
        "auc_lpobs": list(
            _grid(n_bootstrap=BUDGETS, seed=SEEDS, sampling=tuple(SamplingModel), variant=VARIANTS)
        ),
    }


def outcome(fn, dataset, trainer, kwargs) -> str:
    """``repr(value)|excluded_count``, or ``!ExceptionName``."""
    try:
        report = fn(dataset, trainer, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return f"!{type(exc).__name__}"
    return f"{report.value!r}|{report.excluded_count}"


def record(data_name, trainer_name, fn_name):
    dataset = DATASETS[data_name]
    fn = getattr(estimators, fn_name)
    return [
        outcome(fn, dataset, TRAINERS[trainer_name], kwargs)
        for kwargs in cases(dataset)[fn_name]
    ]


def _key(data_name, trainer_name, fn_name):
    return f"{data_name}/{trainer_name}/{fn_name}"


KEYS = [
    (d, t, f)
    for d in DATASETS
    for t in TRAINERS
    for f in cases(DATASETS[d])
]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("data_name,trainer_name,fn_name", KEYS, ids=[_key(*k) for k in KEYS])
def test_outcomes_match_golden(golden, data_name, trainer_name, fn_name):
    expected = golden[_key(data_name, trainer_name, fn_name)]
    actual = record(data_name, trainer_name, fn_name)
    assert len(actual) == len(expected), "the case grid changed"
    kwargs_list = cases(DATASETS[data_name])[fn_name]
    mismatches = [
        f"{kwargs}: expected {want}, got {got}"
        for kwargs, want, got in zip(kwargs_list, expected, actual)
        if want != got
    ]
    assert not mismatches, "\n".join(mismatches[:10])


@pytest.mark.parametrize("tile", ["one task", "seven tasks"])
@pytest.mark.parametrize("data_name,trainer_name,fn_name", KEYS, ids=[_key(*k) for k in KEYS])
def test_outcomes_do_not_depend_on_the_tile_size(golden, monkeypatch, tile, data_name,
                                                 trainer_name, fn_name):
    n = DATASETS[data_name].n
    monkeypatch.setattr(estimators, "TASK_TILE_CELLS", 1 if tile == "one task" else 7 * n)
    expected = golden[_key(data_name, trainer_name, fn_name)]
    assert record(data_name, trainer_name, fn_name) == expected


def test_golden_covers_every_case_and_outcome_kind(golden):
    assert sorted(golden) == sorted(_key(*k) for k in KEYS)
    outcomes = [o for values in golden.values() for o in values]
    assert any(o.startswith("!") for o in outcomes)
    assert any(not o.startswith("!") and not o.endswith("|0") for o in outcomes)
    # the tie dataset does produce half-kernel pair values
    ties = golden[_key("ties", "nearest-mean", "auc_cvn")][0]
    assert float(ties.split("|")[0]) * 36 % 1 == 0.5


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({_key(*k): record(*k) for k in KEYS}, indent=0) + "\n", encoding="utf-8"
    )
