"""Smoke test of the benchmark at tiny sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run as bench  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_metric_is_emitted_and_outputs_match_reference(workload):
    # Seed 1 also runs the default seed once against reference.json.
    plain = bench.run(workload, 1, 0, trace=False, size_name="tiny")
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert plain["metrics"]["outputs_ok"]["value"] == 1
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    traced = bench.run(workload, bench.DEFAULT_SEED, 0, trace=True, size_name="tiny")
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_traced_self_times_sum_to_wall_time(workload, tmp_path):
    bench.write_inputs(tmp_path, workload, "tiny", bench.DEFAULT_SEED)
    call = bench.run_call(workload, tmp_path, traced=True)
    assert call.rc == 0
    assert set(call.self_s) <= set(bench.TIME_METRICS)
    assert sum(call.self_s.values()) == pytest.approx(call.wall_s, rel=0.01, abs=1e-3)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "campaign-auc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
