"""Benchmark of the ``cvlab`` CLI on generated inputs.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Run from the root of a checkout that holds ``src/cvlab``.  A run writes the
workload's INI config (and dataset CSV) from ``--seed``, then calls
``cvlab.cli.main`` again and again, each time in a fresh process
(``child.py``), until ``--seconds`` have passed.  A fresh process gives each
call its own ``getrusage`` peak RSS and an empty ``lru_cache``.

With ``--trace 0`` it reports the medians over those calls of

- ``tasks_per_s``: nominal training tasks of the config over the wall time
  of ``cvlab.cli.main``;
- ``setup_s``: spawn of the process to the end of ``import cvlab.cli``;
- ``peak_rss_mb``: the process's own peak RSS;
- ``outputs_ok``: 1 when every output file hashes the same in every call of
  the run, and the workload at the default seed (run once more when
  ``--seed`` differs) hashes to ``reference.json``, recorded at the commit
  that defined the benchmark.  Otherwise 0.

With ``--trace 1`` it alternates untraced and traced calls and reports the
per-layer self times and counters of the traced calls (see ``METRICS.md``)
and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A unit is one
campaign trial (aborted trials fail) or one other CLI call (a non-zero exit
fails).  The line before it records the machine, the versions and the seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work"  # inputs and outputs of a run; removed when it ends
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 60
RUN_LIMIT_S = 100  # start no call after this, so that a run ends within 180 s

LDA = {"id": "lda", "ridge": "1e-06"}
CAMPAIGN_OUT = {
    "out_table": "out/table.csv",
    "out_triples": "out/triples.csv",
    "out_manifest": "out/manifest.ini",
}


@dataclass(frozen=True)
class Workload:
    subcommand: str
    full: dict
    tiny: dict  # the smoke test's size
    sections: Callable[[dict, int], dict]  # (size, config seed) -> INI sections
    tasks: Callable[[dict], int]  # nominal training tasks of one call
    outputs: tuple[str, ...]
    dataset: dict | None = None  # (n1, n2, p) of a generated CSV, per size name


def _campaign_auc(size, seed):
    # No [estimator] section: the campaign default, LOOB AUC partitioned,
    # B=200, ordered sampling.
    return {
        "data": {"p": 5, "delta": 0.8, "n1": 20, "n2": 20},
        "campaign": {"trials": size["trials"], "test_per_class": 1000, "seed": seed},
        "trainer": LDA,
        "io": CAMPAIGN_OUT,
    }


def _campaign_cvkm(size, seed):
    # n1=n2=20: a K=2 fold over n=20 leaves a one-class training half with
    # probability 1e-5 per repetition, which over trials*M tasks would abort
    # the campaign on a third of the seeds; at n=40 it is below 1e-6 a call.
    return {
        "data": {"p": 5, "delta": 0.8, "n1": 20, "n2": 20},
        "campaign": {"trials": size["trials"], "test_per_class": 1000, "seed": seed},
        "estimator": {
            "version": "CVKM", "metric": "error", "variant": "pooled",
            "K": 2, "M": size["M"],
        },
        "trainer": LDA,
        "io": CAMPAIGN_OUT,
    }


def _ratio_multiset(size, seed):
    return {
        "curve": {
            "n1_grid": "5", "B": size["B"], "sampling": "unordered-multiset",
            "replicates": size["replicates"], "seed": seed,
        },
        "trainer": LDA,
        "io": {"out_csv": "out/ratio.csv"},
    }


def _estimate_lda(size, seed):
    return {
        "estimator": {
            "version": "LOOB", "metric": "error", "variant": "pooled",
            "B": size["B"], "sampling": "ordered", "seed": seed,
        },
        "trainer": LDA,
        "io": {
            "dataset": "dataset.csv",
            "out_json": "out/estimate.json",
            "out_csv": "out/estimate.csv",
        },
    }


WORKLOADS = {
    "campaign-auc": Workload(
        "simulate", {"trials": 200}, {"trials": 4}, _campaign_auc,
        lambda s: s["trials"] * 200, tuple(CAMPAIGN_OUT.values()),
    ),
    "campaign-cvkm": Workload(
        "simulate", {"trials": 20, "M": 2000}, {"trials": 3, "M": 20}, _campaign_cvkm,
        lambda s: s["trials"] * s["M"], tuple(CAMPAIGN_OUT.values()),
    ),
    "ratio-multiset": Workload(
        "ratio-curve", {"B": 2000, "replicates": 50}, {"B": 40, "replicates": 3},
        _ratio_multiset, lambda s: s["replicates"] * 1 * 2 * s["B"], ("out/ratio.csv",),
    ),
    "estimate-lda-p20": Workload(
        "estimate", {"B": 10000}, {"B": 40}, _estimate_lda,
        lambda s: s["B"], ("out/estimate.json", "out/estimate.csv"),
        dataset={"full": (100, 100, 20), "tiny": (12, 12, 3)},
    ),
}

# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def config_seed(workload: str, seed: int) -> int:
    """The seed written into the config; string seeding is stable across runs."""
    return random.Random(f"{workload}:{seed}").getrandbits(48)


def write_dataset(path: Path, n1: int, n2: int, p: int, seed: int) -> None:
    """Two-class CSV: class 1 ~ N(0, I_p), class 2 ~ N(c 1, I_p), c = 1/sqrt(p)."""
    rng = random.Random(f"dataset:{seed}")
    shift = 1.0 / math.sqrt(p)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class"] + [f"f{j}" for j in range(1, p + 1)])
        for label, count, mean in ((1, n1, 0.0), (2, n2, shift)):
            for _ in range(count):
                writer.writerow([label] + [repr(rng.gauss(mean, 1.0)) for _ in range(p)])


def write_inputs(directory: Path, name: str, size_name: str, seed: int) -> Path:
    """Write the workload's config (and dataset) for ``seed``; returns the config."""
    wl = WORKLOADS[name]
    directory.mkdir(parents=True, exist_ok=True)
    if wl.dataset is not None:
        write_dataset(directory / "dataset.csv", *wl.dataset[size_name], seed)
    sections = wl.sections(getattr(wl, size_name), config_seed(name, seed))
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
        lines.append("")
    config = directory / "config.ini"
    config.write_text("\n".join(lines), encoding="utf-8")
    return config


# ---------------------------------------------------------------------------
# One call in a fresh process
# ---------------------------------------------------------------------------


@dataclass
class Call:
    rc: int | None  # of cvlab.cli.main; None when the process failed or hung
    setup_s: float
    wall_s: float
    maxrss_kb: int
    stdout: str
    hashes: dict[str, str]  # output path -> sha256, for the files that exist
    bytes_written: int
    self_s: dict | None
    counts: dict | None


def run_call(name: str, directory: Path, traced: bool) -> Call:
    """Run ``cvlab.cli.main`` once in a fresh process on the inputs in ``directory``."""
    wl = WORKLOADS[name]
    shutil.rmtree(directory / "out", ignore_errors=True)
    cmd = [sys.executable, str(CHILD), str(SRC), "1" if traced else "0",
           wl.subcommand, "config.ini"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=directory, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return Call(None, math.nan, math.nan, 0, "", {}, 0, None, None)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return Call(None, math.nan, math.nan, 0, "", {}, 0, None, None)
    report = json.loads(lines[-1])
    hashes, written = {}, 0
    for rel in wl.outputs:
        path = directory / rel
        if path.is_file():
            data = path.read_bytes()
            hashes[rel] = hashlib.sha256(data).hexdigest()
            written += len(data)
    return Call(
        rc=report["rc"],
        setup_s=report["imported_at"] - spawned,
        wall_s=report["wall_s"],
        maxrss_kb=report["maxrss_kb"],
        stdout=report["stdout"],
        hashes=hashes,
        bytes_written=written,
        self_s=report["self_s"],
        counts=report["counts"],
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _number(text: str) -> float:
    # The CLI writes triples.csv cells with repr(), which for a numpy scalar
    # reads "np.float64(0.5)"; the number is inside the parentheses.
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_outputs(name: str, directory: Path, size: dict) -> list[str]:
    """Problems with one call's outputs that must hold for every seed."""
    out = directory / "out"
    problems = []
    if name.startswith("campaign"):
        table = {row["role"]: row for row in _rows(out / "table.csv")}
        triples = _rows(out / "triples.csv")
        manifest = (out / "manifest.ini").read_text(encoding="utf-8")
        for rel, key in (("table.csv", "table_sha256"), ("triples.csv", "triples_sha256")):
            digest = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            if f"{key} = {digest}" not in manifest:
                problems.append(f"manifest {key} does not match {rel}")
        if sorted(table) != ["S", "Sbar", "Shat"]:
            problems.append(f"table roles {sorted(table)}")
        if not 2 <= len(triples) <= size["trials"]:
            problems.append(f"{len(triples)} triples for {size['trials']} trials")
        for role in ("S", "Sbar", "Shat"):
            values = [_number(row[role]) for row in triples]
            if not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"{role} outside [0, 1]")
            elif role in table and not _close(statistics.fmean(values), float(table[role]["mean"])):
                problems.append(f"{role} mean disagrees with the triples")
    elif name == "ratio-multiset":
        rows = _rows(out / "ratio.csv")
        if [row["n1"] for row in rows] != ["5"] or rows[0]["model"] != "unordered-multiset":
            problems.append(f"ratio rows {rows}")
        elif not 0.0 < float(rows[0]["ratio_empirical"]) < 2.0:
            problems.append(f"ratio {rows[0]['ratio_empirical']} out of range")
    else:
        payload = json.loads((out / "estimate.json").read_text(encoding="utf-8"))
        row = _rows(out / "estimate.csv")[0]
        if (payload["version"], payload["metric"], payload["n_bootstrap"]) != (
            "LOOB", "error", size["B"]
        ):
            problems.append(f"estimate echo {payload}")
        if not 0.0 <= payload["value"] <= 1.0 or float(row["value"]) != payload["value"]:
            problems.append(f"estimate value {payload['value']} / {row['value']}")
    return problems


def aborted_trials(stdout: str) -> int:
    for line in stdout.splitlines():
        if line.startswith("aborted trials:"):
            return int(line.split(":")[1])
    return 0


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def layer_metrics(traced: list[Call], untraced: list[Call], problems: list[str]) -> dict:
    """Medians of per-layer self times over the traced calls, and their counters."""
    counts = traced[0].counts
    if any(call.counts != counts for call in traced):
        problems.append("traced counters differ between calls")
    times = {
        key: statistics.median(call.self_s.get(key, 0.0) for call in traced)
        for key in TIME_METRICS
    }
    drawn = counts.get("rows_drawn", 0)
    redraws = counts.get("resampling.redraws", 0)
    values = dict(times)
    values.update({key: counts.get(key, 0) for key in COUNT_METRICS})
    values["resampling.redraw_yield"] = (drawn - redraws) / drawn if drawn else 1.0
    values["cli.bytes_written"] = traced[0].bytes_written
    values["trace.wall_s"] = statistics.median(call.wall_s for call in traced)
    values["trace.overhead_frac"] = (
        values["trace.wall_s"] / statistics.median(call.wall_s for call in untraced) - 1.0
    )
    return {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()}


TIME_METRICS = (
    "resampling.bootstrap_s", "resampling.partition_s", "estimators.train_score_s",
    "estimators.self_s", "core.pair_kernel_s", "simlab.data_s", "simlab.train_s",
    "simlab.true_s_s", "simlab.apparent_s", "simlab.self_s", "analysis.decompose_s",
    "cli.io_s",
)
COUNT_METRICS = (
    "resampling.bootstrap_calls", "resampling.redraws", "resampling.partition_calls",
    "estimators.tasks", "estimators.calls", "estimators.excluded",
    "core.pair_kernel_calls", "simlab.trials", "simlab.aborted",
)
PER_LAYER = {
    **{key: "s" for key in TIME_METRICS},
    **{key: "count" for key in COUNT_METRICS},
    "resampling.redraw_yield": "ratio",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def end_to_end_metrics(wl: Workload, size: dict, plain: list[Call], calls: list[Call],
                       outputs_ok: bool) -> dict:
    return {
        "tasks_per_s": {
            "value": statistics.median(wl.tasks(size) / call.wall_s for call in plain),
            "unit": "1/s",
        },
        "setup_s": {"value": statistics.median(call.setup_s for call in calls), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(call.maxrss_kb * 1024 / 1e6 for call in plain),
            "unit": "MB",
        },
        "outputs_ok": {"value": 1 if outputs_ok else 0, "unit": "flag"},
    }


class RunFailed(RuntimeError):
    """No call of the run succeeded, so there is nothing to report."""


def run(name: str, seed: int, seconds: float, trace: bool, size_name: str = "full") -> dict:
    """One benchmark run; returns the result object the last line prints."""
    wl = WORKLOADS[name]
    size = getattr(wl, size_name)
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))[size_name][name]
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    limit = time.monotonic() + RUN_LIMIT_S
    try:
        problems: list[str] = []
        calls: list[Call] = []
        if seed != DEFAULT_SEED:
            reference_dir = scratch / "reference"
            write_inputs(reference_dir, name, size_name, DEFAULT_SEED)
            calls.append(run_call(name, reference_dir, traced=False))
            if calls[0].hashes != references:
                problems.append("default-seed outputs differ from reference.json")
        directory = scratch / "seed"
        write_inputs(directory, name, size_name, seed)
        seed_calls: list[Call] = []
        started = time.monotonic()
        # At least one untraced call, and with tracing one traced call too.
        while (
            len(seed_calls) < 1 + trace or time.monotonic() < started + seconds
        ) and time.monotonic() < limit:
            call = run_call(name, directory, traced=trace and len(seed_calls) % 2 == 1)
            seed_calls.append(call)
            if call.rc == 0:
                try:
                    problems.extend(check_outputs(name, directory, size))
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems.append(f"unreadable outputs: {exc!r}")
                if seed == DEFAULT_SEED and call.hashes != references:
                    problems.append("outputs differ from reference.json")
        calls += seed_calls
        good = [call for call in calls if call.rc == 0]
        if len(good) < len(calls):
            problems.append(f"{len(calls) - len(good)} of {len(calls)} calls failed")
        if len({json.dumps(call.hashes, sort_keys=True) for call in seed_calls}) != 1:
            problems.append("outputs differ between calls of one run")
        units = size["trials"] if wl.subcommand == "simulate" else 1
        failed = sum(
            units if call.rc != 0 else aborted_trials(call.stdout)
            for call in calls
        )
        outputs_ok = not problems
        plain = [c for c in seed_calls if c.rc == 0 and c.self_s is None]
        traced = [c for c in seed_calls if c.rc == 0 and c.self_s is not None]
        if not plain or (trace and not traced):
            raise RunFailed("; ".join(problems))
        if trace:
            metrics = layer_metrics(traced, plain, problems)
        else:
            metrics = end_to_end_metrics(wl, size, plain, good, outputs_ok)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": not problems and failed == 0,
            "attempted": units * len(calls),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    """Machine, versions and settings recorded next to each result."""
    probe = (
        "import json, numpy\n"
        "try:\n"
        "    b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = f\"{b.get('name')} {b.get('version')}\"\n"
        "except Exception:\n"
        "    blas = 'unknown'\n"
        "print(json.dumps([numpy.__version__, blas]))\n"
    )
    numpy_version, blas = json.loads(subprocess.run(
        [sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True, check=True,
        timeout=CHILD_TIMEOUT_S,
    ).stdout)
    threads = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if key in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "blas_threads": threads or "library default",
        "commit": _commit(),
        "seed": seed,
    }


def record_reference() -> None:
    """Write the default-seed output hashes of every workload at both sizes."""
    table: dict = {"full": {}, "tiny": {}}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="reference-", dir=WORK) as tmp:
        for size_name in table:
            for name in WORKLOADS:
                directory = Path(tmp) / size_name / name
                write_inputs(directory, name, size_name, DEFAULT_SEED)
                call = run_call(name, directory, traced=False)
                if call.rc != 0:
                    raise SystemExit(f"{name} ({size_name}) failed; nothing recorded")
                table[size_name][name] = call.hashes
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "cvlab" / "cli.py").is_file():
        print(f"error: no cvlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps({"environment": environment(args.seed), "workload": args.workload}))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"error: no call succeeded: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
