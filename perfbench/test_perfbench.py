"""Self-tests of the benchmark harness (about a minute)::

    python3 -m pytest perfbench -q

They pin the harness's own contract: cold graph builds per iteration,
per-iteration peak memory, failed physics counted as failures, layer self
times that add up to the traced wall time, a metric list that matches
``BENCHMARK.json``, and a non-zero exit when the library is missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = workloads.WORKLOADS
#: A small memoizable (frozen CSR) flood instance for in-process tests.
SMALL_MEGA = dataclasses.replace(
    WORKLOADS["flood_mega"], graph=("sparse_gnp_csr", 20_000, 6e-4, 20), pinned={}
)


def test_benchmark_json_names_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["paths"] == [HERE.name]


def test_repeated_iteration_rebuilds_the_graph_cold():
    first = workloads.run_iteration(SMALL_MEGA, seed=0, trace=True)
    second = workloads.run_iteration(SMALL_MEGA, seed=0, trace=True)
    assert first["ok"] and second["ok"], first["problems"] + second["problems"]
    build = "graphs.generators.build"
    # A memo hit would be a dict lookup, orders of magnitude below a build.
    assert second["self_s"][build] > 0.3 * first["self_s"][build] > 0


def test_peak_rss_is_per_iteration_not_a_process_high_water_mark():
    mega = run.run_child("flood_mega", 0, trace=False)
    stepped = run.run_child("flood_stepped", 0, trace=False)
    assert mega["ok"] and stepped["ok"]
    assert mega["peak_rss_mb"] > 400
    assert stepped["peak_rss_mb"] < 0.5 * mega["peak_rss_mb"]


def test_dropping_off_the_lowered_path_is_recorded_as_a_failure(monkeypatch):
    import repro.distributed.simulator as simulator

    good = workloads.run_iteration(SMALL_MEGA, seed=0)
    # A library change that stops lowering: same physics, stepped path.
    monkeypatch.setattr(simulator, "try_lower", lambda *args: None)
    sample = workloads.run_iteration(SMALL_MEGA, seed=0)
    assert not sample["ok"]
    assert any("lowered=False" in p for p in sample["problems"])
    summary = run.summarise([good, sample], trace=False)
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["metrics"]["wall_s"]["samples"] == 1


def test_wrong_pinned_count_fails_only_the_anchor_seed():
    spec = WORKLOADS["fanout_congest"]
    wrong = dataclasses.replace(spec, pinned={"messages": spec.pinned["messages"] + 1})
    assert not workloads.run_iteration(wrong, seed=0)["ok"]
    assert workloads.run_iteration(wrong, seed=1)["ok"]


def test_anchor_spanner_reproduces_the_pinned_physics():
    sample = workloads.run_iteration(WORKLOADS["spanner"], seed=0)
    assert sample["ok"], sample["problems"]
    assert (sample["rounds"], sample["messages"], sample["bits"]) == (23, 284_192, 161_428_878)


def test_layer_self_times_account_for_the_traced_wall_time():
    sample = workloads.run_iteration(WORKLOADS["fanout_congest"], seed=0, trace=True)
    assert sample["ok"], sample["problems"]
    total = sum(sample["self_s"].values()) + sample["other_s"]
    assert abs(total - sample["wall_s"]) < 1e-6 * sample["wall_s"] + 1e-9
    values = run.layer_values(sample)
    assert values["trace.accounted_frac"] > 0.99
    assert values["distributed.targeted.collect_calls"] == WORKLOADS["fanout_congest"].rounds
    assert set(values) == set(run.per_layer_units()) - {"trace.overhead_frac"}


def test_without_the_library_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "spanner", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
