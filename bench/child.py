"""Run one ``cvlab`` CLI call in a fresh process and report what it cost.

Usage: python3 child.py SRC_DIR TRACE SUBCOMMAND CONFIG

``SRC_DIR`` is the checkout's ``src`` directory, ``TRACE`` is 0 or 1.  The
process imports ``cvlab.cli`` first, so the parent can time set-up from its
own spawn to the ``imported_at`` stamp (CLOCK_MONOTONIC is shared by all
processes).  It then calls ``cvlab.cli.main`` once and prints one JSON line:
``imported_at``, ``wall_s`` (the ``main`` call), ``rc``, the captured
standard output, its own peak RSS from ``getrusage(RUSAGE_SELF)`` and, with
tracing on, the self time and counters of each per-layer metric.

Tracing rebinds public names of the library in this process only; no file
of the library changes.  Each wrapper pushes a frame on one span stack, so a
frame's self time is its duration minus the durations of the frames opened
inside it, and the self times of all frames add up to the root's duration.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import cvlab.cli  # noqa: E402  (set-up ends here)

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from collections import defaultdict  # noqa: E402

TRAIN_SCORE = "estimators.train_score_s"


class Tracer:
    """One span stack; self time and counters keyed by per-layer metric name."""

    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def wrap(self, fn, bucket, count=None):
        """``bucket`` is a metric name, or a function of the open parent's name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            name = bucket(parent) if callable(bucket) else bucket
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.self_s[name] += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced


def argument(fn, name):
    """Getter of argument ``name`` from a call's (args, kwargs) to ``fn``."""
    index = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: kwargs[name] if name in kwargs else args[index]


def install(tracer):
    """Rebind the traced names; returns the traced ``cvlab.cli.main``."""
    from cvlab import analysis, cli, estimators, simlab

    def tally(key):
        def count(c, args, kwargs, result):
            c[key] += 1
        return count

    bootstrap = estimators.bootstrap_counts_matrix
    draws_of = argument(bootstrap, "draws")

    def count_bootstrap(c, args, kwargs, result):
        draws = draws_of(args, kwargs)
        c["resampling.bootstrap_calls"] += 1
        c["rows_drawn"] += draws
        if draws == 1:
            c["resampling.redraws"] += 1

    task_scores = estimators.task_scores
    weights_of = argument(task_scores, "weights")
    config_of = argument(simlab.run_weak_correlation, "config")

    def count_tasks(c, args, kwargs, result):
        c["estimators.tasks"] += len(weights_of(args, kwargs))

    def count_estimator(c, args, kwargs, result):
        c["estimators.calls"] += 1
        c["estimators.excluded"] += result.excluded_count

    def count_campaign(c, args, kwargs, result):
        c["simlab.trials"] += config_of(args, kwargs).trials
        c["simlab.aborted"] += result.aborted

    for name, fn in inspect.getmembers(estimators, inspect.isfunction):
        if name.startswith(("err_", "auc_")):
            setattr(estimators, name, tracer.wrap(fn, "estimators.self_s", count_estimator))
    estimators.task_scores = tracer.wrap(task_scores, TRAIN_SCORE, count_tasks)
    estimators.bootstrap_counts_matrix = tracer.wrap(
        bootstrap, "resampling.bootstrap_s", count_bootstrap
    )
    for name in ("repeated_partitions", "make_partition"):
        setattr(estimators, name, tracer.wrap(
            getattr(estimators, name), "resampling.partition_s",
            tally("resampling.partition_calls"),
        ))
    estimators.pairwise_kernel = tracer.wrap(
        estimators.pairwise_kernel, "core.pair_kernel_s", tally("core.pair_kernel_calls")
    )
    simlab.gen_multinormal = tracer.wrap(simlab.gen_multinormal, "simlab.data_s")
    simlab.true_conditional_performance = tracer.wrap(
        simlab.true_conditional_performance, "simlab.true_s_s"
    )
    simlab.apparent_performance = tracer.wrap(simlab.apparent_performance, "simlab.apparent_s")
    simlab.run_weak_correlation = tracer.wrap(
        simlab.run_weak_correlation, "simlab.self_s", count_campaign
    )
    simlab.run_ratio_curve = tracer.wrap(simlab.run_ratio_curve, "simlab.self_s")
    # Training inside task_scores (the unbatched loop) is train/score time;
    # the campaign's own per-trial fit is simlab time.
    simlab.LdaTrainer.train = tracer.wrap(
        simlab.LdaTrainer.train,
        lambda parent: TRAIN_SCORE if parent == TRAIN_SCORE else "simlab.train_s",
    )
    analysis.decompose = tracer.wrap(analysis.decompose, "analysis.decompose_s")
    cli.read_dataset_csv = tracer.wrap(cli.read_dataset_csv, "cli.io_s")
    return tracer.wrap(cli.main, "cli.io_s")


def main():
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    module = os.path.realpath(cvlab.cli.__file__)
    if not module.startswith(os.path.realpath(src) + os.sep):
        print(f"cvlab was imported from {module}, not from {src}", file=sys.stderr)
        return 2
    tracer = Tracer() if trace else None
    entry = install(tracer) if trace else cvlab.cli.main
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        rc = entry(argv)
        wall = time.perf_counter() - start
    report = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "rc": rc,
        "stdout": captured.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "self_s": dict(tracer.self_s) if trace else None,
        "counts": dict(tracer.counts) if trace else None,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
