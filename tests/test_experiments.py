"""Tests for the experiment orchestration subsystem (repro.experiments).

Covers the scenario registry (completeness, spec hashing, picklability),
the sharded runner (serial/parallel determinism, caching, report schema),
the global-random guard, and the CLI entry point.
"""

import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.flood_max import run_flood_max
from repro.experiments import (
    ExperimentCheckError,
    ResultCache,
    ScenarioSpec,
    execute_scenario,
    experiment_ids,
    get_experiment,
    run_experiments,
    strip_timing,
)
from repro.experiments.defs_vectorized import _verify_e23
from repro.experiments.families import build_graph
from repro.experiments.registry import check_flood_max, check_twins
from repro.experiments.runner import SCHEMA, rate_timing, timed

# Cheap experiments (sub-second apiece) used wherever scenarios must actually run.
FAST_IDS = ["E04", "E07", "E11"]
REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRegistry:
    def test_all_twenty_three_experiments_registered(self):
        assert experiment_ids() == [f"E{i:02d}" for i in range(1, 24)]

    def test_every_experiment_has_scenarios_and_columns(self):
        for identifier in experiment_ids():
            experiment = get_experiment(identifier)
            assert experiment.scenarios, identifier
            assert experiment.columns, identifier
            names = [spec.name for spec in experiment.scenarios]
            assert len(set(names)) == len(names), f"{identifier}: duplicate scenario names"
            for spec in experiment.scenarios:
                assert spec.experiment == identifier

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="E99"):
            get_experiment("E99")

    def test_lookup_is_case_insensitive(self):
        assert get_experiment("e16").id == "E16"

    def test_specs_pickle_and_serialise(self):
        for identifier in experiment_ids():
            for spec in get_experiment(identifier).scenarios:
                clone = pickle.loads(pickle.dumps(spec))
                assert clone == spec
                assert clone.spec_hash() == spec.spec_hash()
                json.dumps(spec.as_dict())

    def test_spec_hashes_unique_across_registry(self):
        hashes = [
            spec.spec_hash()
            for identifier in experiment_ids()
            for spec in get_experiment(identifier).scenarios
        ]
        assert len(set(hashes)) == len(hashes)


class TestScenarioSpec:
    def test_hash_independent_of_keyword_order(self):
        a = ScenarioSpec.make("EXX", "s", alpha=1, graph=("gnp", 10, 0.5, 1))
        b = ScenarioSpec.make("EXX", "s", graph=["gnp", 10, 0.5, 1], alpha=1)
        assert a == b
        assert a.spec_hash() == b.spec_hash()

    def test_hash_changes_with_params(self):
        a = ScenarioSpec.make("EXX", "s", seed=1)
        b = ScenarioSpec.make("EXX", "s", seed=2)
        assert a.spec_hash() != b.spec_hash()

    def test_non_primitive_params_rejected(self):
        with pytest.raises(TypeError):
            ScenarioSpec.make("EXX", "s", bad={"nested": "dict"})

    def test_param_lookup(self):
        spec = ScenarioSpec.make("EXX", "s", k=3, weights=(1.0, 2.0))
        assert spec.param("k") == 3
        assert spec.param("weights") == (1.0, 2.0)
        assert spec.param("missing", 7) == 7


class TestEngineSelection:
    """The first-class ``engine`` field and its override plumbing."""

    def test_engine_round_trips(self):
        spec = ScenarioSpec.make("EXX", "s", engine="columnar", seed=1)
        assert spec.engine == "columnar"
        assert spec.as_dict()["engine"] == "columnar"
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.engine == "columnar"
        assert clone.spec_hash() == spec.spec_hash()

    def test_default_engine_omitted_from_canonical_json(self):
        # Specs predating the field keep their hashes: None never serialises.
        spec = ScenarioSpec.make("EXX", "s", seed=1)
        assert spec.engine is None
        assert "engine" not in spec.as_dict()
        assert "engine" not in spec.canonical_json()

    def test_engine_changes_spec_hash(self):
        base = ScenarioSpec.make("EXX", "s", seed=1)
        assert base.with_engine("columnar").spec_hash() != base.spec_hash()
        assert base.with_engine("columnar") != base.with_engine("indexed")
        assert base.with_engine(None) == base

    def test_runner_engine_override_reaches_report(self):
        report = run_experiments(["E17"], jobs=1, engine="columnar")
        scenarios = report["experiments"][0]["scenarios"]
        assert scenarios, "E17 has scenarios"
        for scenario in scenarios:
            assert scenario["spec"]["engine"] == "columnar"

    def test_columnar_override_on_targeted_send_experiment_matches_indexed(self):
        # E21's triangle listing sends targeted messages (direct and routed);
        # the columnar engine's targeted fast path runs it bit-for-bit like
        # the indexed engine.
        runs = {
            engine: run_experiments(["E21"], jobs=1, engine=engine, scenario_filter="listing")
            for engine in ("columnar", "indexed")
        }
        pairs = zip(
            runs["columnar"]["experiments"][0]["scenarios"],
            runs["indexed"]["experiments"][0]["scenarios"],
        )
        for b, i in pairs:
            assert b["spec"]["engine"] == "columnar" and i["spec"]["engine"] == "indexed"
            check_twins(b["spec"]["name"], b["result"], i["result"], exempt=("engine",))

    def test_e18_specs_carry_engines(self):
        engines = [spec.engine for spec in get_experiment("E18").scenarios]
        assert engines == ["columnar", "indexed", "columnar"]


class TestAdversarySelection:
    """The first-class ``adversary`` field and its override plumbing."""

    def test_adversary_round_trips(self):
        spec = ScenarioSpec.make("EXX", "s", adversary="drop:0.05", seed=1)
        assert spec.adversary == "drop:0.05"
        assert spec.as_dict()["adversary"] == "drop:0.05"
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.adversary == "drop:0.05"
        assert clone.spec_hash() == spec.spec_hash()

    def test_default_adversary_omitted_from_canonical_json(self):
        # Specs predating the field keep their hashes: None never serialises.
        spec = ScenarioSpec.make("EXX", "s", seed=1)
        assert spec.adversary is None
        assert "adversary" not in spec.as_dict()
        assert "adversary" not in spec.canonical_json()

    def test_adversary_changes_spec_hash(self):
        base = ScenarioSpec.make("EXX", "s", seed=1)
        assert base.with_adversary("drop:0.05").spec_hash() != base.spec_hash()
        assert base.with_adversary("drop:0.05") != base.with_adversary("drop:0.1")
        assert base.with_adversary(None) == base

    def test_runner_adversary_override_reaches_report(self):
        report = run_experiments(["E17"], jobs=1, adversary="drop:0.0")
        for scenario in report["experiments"][0]["scenarios"]:
            assert scenario["spec"]["adversary"] == "drop:0.0"

    def test_e19_specs_carry_adversaries(self):
        adversaries = [spec.adversary for spec in get_experiment("E19").scenarios]
        assert adversaries[0] is None  # fault-free baseline
        assert "drop:0.05" in adversaries
        assert any(a and a.startswith("crash:") for a in adversaries)

    @pytest.mark.parametrize("pin", ["drop:0.1", "crash:119@2", "budget:64", "none"])
    def test_e19_survives_a_global_adversary_pin(self, pin):
        # Pinning one fault policy onto the whole tier collapses the sweep
        # (and crash:119@2 names a node absent from the 64-node spanner
        # graph); the per-scenario checks and the verify hook must degrade
        # to the pin-independent invariants instead of failing on
        # sweep-shaped or curated-schedule assumptions.
        report = run_experiments(["E19"], jobs=1, adversary=pin)
        for scenario in report["experiments"][0]["scenarios"]:
            assert scenario["spec"]["adversary"] == pin


class TestFamilies:
    def test_known_families_build(self):
        graph = build_graph(("connected_gnp", 12, 0.4, 1))
        assert graph.number_of_nodes() == 12

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="no-such-family"):
            build_graph(("no-such-family", 3))

    def test_same_tuple_same_graph(self):
        a = build_graph(("gnp", 30, 0.2, 9))
        b = build_graph(("gnp", 30, 0.2, 9))
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))


class TestRunnerDeterminism:
    def test_report_schema(self):
        report = run_experiments(["E11"], jobs=1)
        assert report["schema"] == SCHEMA
        (entry,) = report["experiments"]
        assert entry["id"] == "E11"
        for scenario in entry["scenarios"]:
            assert set(scenario) == {"spec", "spec_hash", "cached", "wall_time_s", "result"}
            assert scenario["cached"] is False
            json.dumps(scenario["result"])

    def test_serial_runs_identical(self):
        first = json.dumps(strip_timing(run_experiments(FAST_IDS, jobs=1)))
        second = json.dumps(strip_timing(run_experiments(FAST_IDS, jobs=1)))
        assert first == second

    def test_parallel_matches_serial(self):
        serial = json.dumps(strip_timing(run_experiments(FAST_IDS, jobs=1)))
        parallel = json.dumps(strip_timing(run_experiments(FAST_IDS, jobs=4)))
        assert serial == parallel

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_experiments(["E11"], jobs=1, cache=cache)
        assert all(not s["cached"] for s in cold["experiments"][0]["scenarios"])
        warm = run_experiments(["E11"], jobs=1, cache=ResultCache(tmp_path / "cache"))
        assert all(s["cached"] for s in warm["experiments"][0]["scenarios"])
        assert json.dumps(strip_timing(cold)) == json.dumps(strip_timing(warm))

    def test_cache_ignores_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = get_experiment("E11").scenarios[0]
        path = cache._path(spec)
        path.write_text("{not json")
        assert cache.get(spec) is None

    def test_cache_key_carries_schema_version(self, tmp_path):
        # Entries written under an older repro-experiments/* schema live at
        # a different filename, so they miss instead of silently replaying.
        cache = ResultCache(tmp_path)
        spec = get_experiment("E11").scenarios[0]
        cache.put(spec, {"rounds": 1})
        path = cache._path(spec)
        assert SCHEMA.replace("/", "-") in path.name
        old_payload = json.loads(path.read_text())
        old_payload["schema"] = "repro-experiments/1"
        (tmp_path / f"{spec.spec_hash()}.json").write_text(json.dumps(old_payload))
        path.unlink()  # only the legacy-keyed file remains
        assert cache.get(spec) is None

    def test_cache_rejects_stale_schema_field(self, tmp_path):
        # Belt and braces: even at the right filename, a stale stored schema
        # (e.g. a renamed file) is rejected on read.
        cache = ResultCache(tmp_path)
        spec = get_experiment("E11").scenarios[0]
        cache.put(spec, {"rounds": 1})
        path = cache._path(spec)
        payload = json.loads(path.read_text())
        payload["schema"] = "repro-experiments/1"
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_cache_put_keeps_previous_entry_when_the_rename_fails(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = get_experiment("E11").scenarios[0]
        cache.put(spec, {"rounds": 1})

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            cache.put(spec, {"rounds": 2})
        monkeypatch.undo()
        assert cache.get(spec) == {"rounds": 1}
        assert [path.name for path in tmp_path.iterdir()] == [cache._path(spec).name]

    def test_strip_timing_removes_only_timing(self):
        report = run_experiments(["E21"], jobs=1, scenario_filter="listing")
        scenarios = report["experiments"][0]["scenarios"]
        assert len(scenarios) > 1
        assert all("timing.elapsed_s" in s["result"] for s in scenarios)
        stripped = strip_timing(report)
        for scenario in stripped["experiments"][0]["scenarios"]:
            assert "wall_time_s" not in scenario
            assert "cached" not in scenario
            assert not any(k.startswith("timing.") for k in scenario["result"])
            assert "rounds" in scenario["result"]  # physics untouched
        # the original report still has its timing fields
        assert all(
            "wall_time_s" in s for s in report["experiments"][0]["scenarios"]
        )


class TestSharedChecks:
    """The timing helper and the twin / flood-max physics checks every tier uses."""

    LEFT = {"engine": "indexed", "rounds": 7, "metrics.bits_sent": 96, "timing.elapsed_s": 0.5}

    def right(self, **changes):
        return {**self.LEFT, "engine": "columnar", "timing.elapsed_s": 9.0, **changes}

    def test_timed_returns_value_and_seconds(self):
        value, seconds = timed(sorted, [3, 1, 2], reverse=True)
        assert value == [3, 2, 1] and seconds >= 0.0

    def test_rate_timing_guards_a_zero_span(self):
        assert rate_timing(0.0, 10) == {"elapsed_s": 0.0, "messages_per_sec": 0.0}
        assert rate_timing(2.0, 10, unit="rounds") == {"elapsed_s": 2.0, "rounds_per_sec": 5.0}

    def test_twins_ignore_timing_and_exempt_keys(self):
        right = self.right(**{"timing.messages_per_sec": 1.0})
        check_twins("t", self.LEFT, right, exempt=("engine",))
        with pytest.raises(ExperimentCheckError, match="engine"):
            check_twins("t", self.LEFT, right)

    @pytest.mark.parametrize(
        "left_extra,right_extra",
        [
            ({}, {"rounds": 8}),  # a value differs
            ({"metrics.heard": 3}, {}),  # a key only on the left
            ({}, {"metrics.heard": 3}),  # a key only on the right
        ],
    )
    def test_twins_reject_divergence(self, left_extra, right_extra):
        left = {**self.LEFT, **left_extra}
        with pytest.raises(ExperimentCheckError, match="twins disagree"):
            check_twins("t", left, self.right(**right_extra), exempt=("engine",))

    def test_zero_rate_twin_may_add_only_zero_adversary_counters(self):
        zero = self.right(**{"metrics.adversary_dropped_messages": 0})
        check_twins("t", self.LEFT, zero, exempt=("engine",), zero_rate=True)
        with pytest.raises(ExperimentCheckError, match="twins disagree"):
            check_twins("t", self.LEFT, zero, exempt=("engine",))
        dropped = self.right(**{"metrics.adversary_dropped_messages": 4})
        with pytest.raises(ExperimentCheckError, match="zero-rate twin"):
            check_twins("t", self.LEFT, dropped, exempt=("engine",), zero_rate=True)
        with pytest.raises(ExperimentCheckError, match="twins disagree"):
            check_twins("t", self.LEFT, self.right(**{"metrics.heard": 0}),
                        exempt=("engine",), zero_rate=True)

    def test_verify_hook_rejects_tampered_twins(self):
        def twin(mode):
            return {
                "scenario": f"n=20000 {mode}", "mode": mode, "workload": "fixed",
                "n": 20000, "rounds": 10, "leader": 19999,
                "metrics.messages_sent": 2000, "timing.elapsed_s": 0.1,
            }

        _verify_e23([twin("lowered"), twin("stepped")])
        for tamper in ({"metrics.messages_sent": 2001}, {"metrics.adversary_lost": 0}):
            with pytest.raises(ExperimentCheckError, match="lowered / n=20000 stepped"):
                _verify_e23([twin("lowered"), {**twin("stepped"), **tamper}])

    def test_flood_check_rejects_each_violated_invariant(self):
        graph = build_graph(("connected_gnp", 12, 0.4, 1))
        result = run_flood_max(graph, rounds=6, seed=1)
        check_flood_max("ok", result, graph, budget=6)
        broken = {
            "did not converge": {"converged": False},
            "expected the max label": {"leader": 3},
            "program budget": {"rounds": 5},
            "budget \\* 2m": {"metrics": SimpleNamespace(messages_sent=1)},
        }
        for message, change in broken.items():
            with pytest.raises(ExperimentCheckError, match=message):
                check_flood_max("bad", dataclasses.replace(result, **change), graph, budget=6)
        # Without a fixed budget only convergence and the leader are pinned.
        check_flood_max("robust", dataclasses.replace(result, rounds=5), graph)


class TestGlobalRandomGuard:
    # One representative cheap scenario per experiment family.
    SPECS = [
        ("E04", 0),  # weighted spanner
        ("E07", 0),  # one-plus-eps
        ("E11", 0),  # lower-bound construction
        ("E13", 3),  # Baswana-Sen (k=4, the cheapest)
    ]

    @pytest.mark.parametrize("experiment_id,index", SPECS)
    def test_scenarios_leave_global_random_untouched(self, experiment_id, index):
        experiment = get_experiment(experiment_id)
        spec = experiment.scenarios[index]
        random.seed(20260728)
        state = random.getstate()
        experiment.run_scenario(spec)
        assert random.getstate() == state, (
            f"{experiment_id}/{spec.name} mutated the global random state"
        )

    def test_execute_scenario_reseeds_deterministically(self):
        spec = get_experiment("E11").scenarios[0]
        random.seed(1)
        first = execute_scenario(spec)
        random.seed(99)  # a different ambient state must not matter
        second = execute_scenario(spec)
        assert first == second


class TestCLI:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_list(self):
        proc = self._run("list")
        assert proc.returncode == 0
        assert "E01" in proc.stdout and "E17" in proc.stdout

    def test_list_json_is_machine_readable(self):
        proc = self._run("list", "--json")
        assert proc.returncode == 0
        listing = json.loads(proc.stdout)
        assert listing["schema"] == SCHEMA
        by_id = {entry["id"]: entry for entry in listing["experiments"]}
        assert sorted(by_id) == [f"E{i:02d}" for i in range(1, 24)]
        e19 = by_id["E19"]
        assert e19["scenario_count"] == len(e19["scenarios"]) == 9
        for scenario in e19["scenarios"]:
            assert set(scenario) == {"name", "spec_hash"}
            assert len(scenario["spec_hash"]) == 16
        # The hashes must match the in-process registry exactly.
        expected = {
            spec.name: spec.spec_hash() for spec in get_experiment("E19").scenarios
        }
        assert {s["name"]: s["spec_hash"] for s in e19["scenarios"]} == expected

    def test_list_json_exposes_engines_and_max_n(self):
        proc = self._run("list", "--json")
        assert proc.returncode == 0
        by_id = {
            entry["id"]: entry for entry in json.loads(proc.stdout)["experiments"]
        }
        # Every experiment carries the tooling-discovery fields.
        for entry in by_id.values():
            assert "engines" in entry and "max_n" in entry
            assert entry["engines"] == sorted(entry["engines"])
        assert by_id["E20"]["engines"] == ["columnar"]
        assert by_id["E20"]["max_n"] == 1_000_000
        assert by_id["E18"]["engines"] == ["columnar", "indexed"]
        assert by_id["E18"]["max_n"] == 50_000
        # Experiments whose specs carry no size stay discoverable as None.
        assert by_id["E10"]["max_n"] is None

    def test_list_json_exposes_targeted_flag_and_engine_capabilities(self):
        proc = self._run("list", "--json")
        assert proc.returncode == 0
        by_id = {
            entry["id"]: entry for entry in json.loads(proc.stdout)["experiments"]
        }
        for entry in by_id.values():
            assert isinstance(entry["targeted"], bool)
            # Since the targeted fast path every engine carries every
            # admission-legal workload; the map stays explicit so tooling
            # never hard-codes that.
            assert entry["engine_support"] == {
                engine: True
                for engine in ("indexed", "columnar", "reference")
            }
        assert by_id["E21"]["targeted"] is True
        assert by_id["E18"]["targeted"] is False
        assert by_id["E20"]["targeted"] is False

    def test_run_writes_json(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run("run", "E11", "--jobs", "1", "--json", str(out), "--no-tables")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA
        assert report["experiments"][0]["id"] == "E11"

    def test_run_requires_ids_or_all(self):
        proc = self._run("run")
        assert proc.returncode != 0

    def test_run_engine_columnar_works(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run(
            "run", "E17", "--engine", "columnar", "--jobs", "1",
            "--json", str(out), "--no-tables", "--strip-timing",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        for scenario in report["experiments"][0]["scenarios"]:
            assert scenario["spec"]["engine"] == "columnar"

    def test_run_engine_rejects_unknown(self):
        for engine in ("warp", "batch"):  # batch: the retired engine
            proc = self._run("run", "E17", "--engine", engine)
            assert proc.returncode != 0
            assert "invalid choice" in proc.stderr

    def test_run_adversary_override_works(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run(
            "run", "E11", "--adversary", "drop:0.0", "--jobs", "1",
            "--json", str(out), "--no-tables",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        for scenario in report["experiments"][0]["scenarios"]:
            assert scenario["spec"]["adversary"] == "drop:0.0"

    def test_run_adversary_rejects_bad_spec(self):
        proc = self._run("run", "E11", "--adversary", "warp:9")
        assert proc.returncode == 2
        assert "adversary spec" in proc.stderr

    def test_run_scenario_filter_skips_verify_and_records_filter(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run(
            "run", "E18", "--scenario", "n=20000 columnar", "--jobs", "1",
            "--json", str(out), "--no-tables", "--strip-timing",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["scenario_filter"] == "n=20000 columnar"
        entry = report["experiments"][0]
        names = [scenario["spec"]["name"] for scenario in entry["scenarios"]]
        assert names == ["n=20000 columnar"]
        # verify hooks are written against complete result lists: skipped.
        assert entry["summary"] == {}

    def test_run_scenario_filter_rejects_no_match(self):
        proc = self._run("run", "E18", "--scenario", "n=77777")
        assert proc.returncode == 2
        assert "matches no scenario" in proc.stderr


class TestScenarioFilter:
    """run_experiments(scenario_filter=...) — the in-process contract."""

    def test_filter_substring_selects_subset(self):
        report = run_experiments(["E11"], jobs=1, scenario_filter="")
        # Empty substring matches everything; filter still recorded and
        # verify still skipped (the filter was *active*).
        full = run_experiments(["E11"], jobs=1)
        assert report["scenario_filter"] == ""
        assert len(report["experiments"][0]["scenarios"]) == len(
            full["experiments"][0]["scenarios"]
        )
        assert report["experiments"][0]["summary"] == {}
        assert "scenario_filter" not in full

    def test_filter_without_match_raises(self):
        with pytest.raises(ValueError, match="matches no scenario"):
            run_experiments(["E11"], jobs=1, scenario_filter="bogus-name")


class TestE20Registration:
    """The mega-scale tier's registry shape (no mega runs here)."""

    def test_scenarios_and_anchor(self):
        e20 = get_experiment("E20")
        names = [spec.name for spec in e20.scenarios]
        assert names == ["n=20000 columnar", "n=200000", "n=500000", "n=1000000"]
        assert all(spec.engine == "columnar" for spec in e20.scenarios)
        # The n=20000 point anchors E20 to E18's exact differential graph.
        e18_graph = next(
            spec.param("graph")
            for spec in get_experiment("E18").scenarios
            if spec.name == "n=20000 columnar"
        )
        assert e20.scenarios[0].param("graph") == e18_graph
        # Mega points stream their metrics (bounded bits_per_round history).
        for name in ("n=200000", "n=500000", "n=1000000"):
            spec = next(s for s in e20.scenarios if s.name == name)
            assert spec.param("streaming") is True
            assert spec.param("graph")[0] == "sparse_gnp_csr"

    def test_anchor_scenario_matches_the_e18_stepped_run(self):
        # E20's n=20000 point (lowered) against E18's stepped columnar run
        # of the same graph — the only E20 slice cheap enough for tier-1.
        def results(experiment, name):
            report = run_experiments([experiment], jobs=1, scenario_filter=name)
            (scenario,) = report["experiments"][0]["scenarios"]
            return scenario["result"]

        lowered = results("E20", "n=20000 ")
        stepped = results("E18", "n=20000 columnar")
        for key in stepped:
            if not key.startswith("timing."):
                assert lowered[key] == stepped[key], key
        assert lowered["leader"] == 19999
        assert lowered["metrics.messages_sent"] == 10 * 2 * lowered["m"]
