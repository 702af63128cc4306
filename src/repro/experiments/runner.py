"""Parallel sharded scenario runner with caching and deterministic merge.

Execution contract:

* Scenarios are independent units; a worker pool (``multiprocessing``) shards
  them across ``jobs`` processes with ``chunksize=1`` so long scenarios do
  not convoy short ones.
* Before each scenario the worker seeds the *global* ``random`` module from
  the spec hash — all repo algorithms take explicit seeds, but this makes
  even an accidental global-random user deterministic regardless of which
  worker runs which scenario in which order.
* Graph builds are memoized per worker: scenarios sharing a graph-family
  tuple (the E23 lowering twins and mega points) reuse one frozen
  ``CompiledTopology`` keyed by the canonical family-spec hash instead of
  regenerating a mega-scale graph per scenario (see
  :func:`repro.experiments.families.build_graph` — only immutable frozen
  graphs are cached, so reports stay byte-identical; the measured
  sweep-time win is recorded in ``docs/performance.md``).
* Results are merged back in spec order (never completion order), and every
  result dict is round-tripped through the flattener + JSON, so repeated
  runs — serial or parallel — produce byte-identical reports modulo the
  timing fields (``wall_time_s``, ``cached``, and any ``timing.*`` key).
* An optional :class:`ResultCache` memoises results on disk keyed by
  ``spec_hash()``; timing fields are stored but marked, so cache hits are
  distinguishable.
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import os
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.experiments import registry
from repro.experiments.registry import TIMING_PREFIX
from repro.experiments.reporting import flatten_info
from repro.experiments.spec import ScenarioSpec

#: Report schema version.  Bumped to ``/2`` when spec blocks gained the
#: optional ``adversary`` field and results gained ``metrics.adversary_*``
#: fault counters.
SCHEMA = "repro-experiments/2"

#: filesystem-safe schema tag baked into every cache key (see ResultCache).
_SCHEMA_TAG = SCHEMA.replace("/", "-")


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
    """Call ``fn(*args, **kwargs)`` and return ``(value, elapsed seconds)``.

    The only clock read in :mod:`repro.experiments` (lint rule REP004).
    Timing tiers wrap just the library call they measure, never the graph
    build or the checks.
    """
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def rate_timing(seconds: float, count: int, unit: str = "messages") -> dict[str, float]:
    """A result's ``timing`` block: ``elapsed_s`` and ``<unit>_per_sec`` (0.0 at 0 s)."""
    return {"elapsed_s": seconds, f"{unit}_per_sec": count / seconds if seconds else 0.0}


def timing_columns(
    unit: str = "messages", header: str = "msg/sec", fmt: str = ".0f"
) -> registry.Columns:
    """The two table columns showing a :func:`rate_timing` block."""
    return (("seconds", "timing.elapsed_s", ".3f"), (header, f"timing.{unit}_per_sec", fmt))


@dataclass
class ScenarioOutcome:
    spec: ScenarioSpec
    result: dict[str, Any]
    wall_time_s: float
    cached: bool


class ResultCache:
    """On-disk result cache keyed by spec hash (one JSON file per scenario).

    The key covers the *spec contents plus the report schema version* — not
    the code that executes it.  A hit skips ``run_scenario`` entirely
    (including its ``check()`` invariants), so after changing an algorithm,
    the accounting, or a scenario runner, clear the cache directory (or
    point ``--cache`` somewhere fresh).  The schema version is part of the
    *filename*, so entries written under an older ``repro-experiments/*``
    schema can never be replayed — they simply miss — and the stored
    ``schema`` field is double-checked on read as a belt-and-braces guard
    against renamed files.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, spec: ScenarioSpec) -> Path:
        return self.directory / f"{spec.spec_hash()}-{_SCHEMA_TAG}.json"

    def get(self, spec: ScenarioSpec) -> dict[str, Any] | None:
        """The cached result for ``spec``, or ``None`` (missing/corrupt/stale)."""
        path = self._path(spec)
        if not path.exists():
            return None
        try:
            stored = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if stored.get("schema") != SCHEMA:
            return None
        # Hash prefixes could collide; trust only an exact spec match.
        if stored.get("spec") != spec.as_dict():
            return None
        result = stored.get("result")
        return result if isinstance(result, dict) else None

    def put(self, spec: ScenarioSpec, result: dict[str, Any]) -> None:
        """Store ``result`` for ``spec`` (schema-stamped, exact-spec keyed)."""
        payload = {"schema": SCHEMA, "spec": spec.as_dict(), "result": result}
        path = self._path(spec)
        # Write-then-rename: a failed write never truncates the previous entry.
        temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            temp.write_text(json.dumps(payload, indent=2, sort_keys=True))
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)


def _seed_from_hash(spec: ScenarioSpec) -> int:
    return int(spec.spec_hash(), 16)


def execute_scenario(spec: ScenarioSpec) -> dict[str, Any]:
    """Run one spec in-process and return its flattened, JSON-safe result."""
    registry.load_all()
    experiment = registry.get_experiment(spec.experiment)
    # Deliberate global seeding: pins any stray stdlib consumer inside a
    # worker process to the spec hash, so even code outside the seeded-Random
    # contract cannot make serial and sharded runs diverge.
    random.seed(_seed_from_hash(spec))  # reprolint: disable=REP001
    raw = experiment.run_scenario(spec)
    # Sorted keys: a result re-read from the on-disk cache (which JSON-sorts)
    # must serialise byte-identically to a freshly computed one.
    flat = dict(sorted(flatten_info(raw).items()))
    # Fail fast on anything a JSON consumer could not round-trip.
    json.dumps(flat)
    return flat


def _worker(spec: ScenarioSpec) -> tuple[dict[str, Any], float]:
    return timed(execute_scenario, spec)


def run_scenarios(
    specs: list[ScenarioSpec],
    jobs: int = 1,
    cache: ResultCache | None = None,
    engine: str | None = None,
    adversary: str | None = None,
) -> list[ScenarioOutcome]:
    """Run ``specs`` (sharded over ``jobs`` workers) and merge in spec order.

    ``engine`` pins every spec to one simulator engine via
    :meth:`~repro.experiments.spec.ScenarioSpec.with_engine` before
    execution — the override is part of the spec that runs, so it shows up
    in the report's ``spec`` blocks and in the cache keys.  ``adversary``
    does the same for the fault policy (a canonical string such as
    ``"drop:0.05"``, resolved by adversary-aware runners through
    :func:`repro.distributed.adversary.build_adversary`).  Scenarios whose
    runner is not engine- or adversary-aware ignore the fields.
    """
    if engine is not None:
        specs = [spec.with_engine(engine) for spec in specs]
    if adversary is not None:
        specs = [spec.with_adversary(adversary) for spec in specs]
    outcomes: dict[int, ScenarioOutcome] = {}
    pending: list[tuple[int, ScenarioSpec]] = []
    for index, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            outcomes[index] = ScenarioOutcome(spec, hit, 0.0, cached=True)
        else:
            pending.append((index, spec))

    if pending:
        pending_specs = [spec for _, spec in pending]
        if jobs > 1 and len(pending_specs) > 1:
            workers = min(jobs, len(pending_specs))
            with multiprocessing.Pool(processes=workers) as pool:
                executed = pool.map(_worker, pending_specs, chunksize=1)
        else:
            executed = [_worker(spec) for spec in pending_specs]
        for (index, spec), (result, elapsed) in zip(pending, executed):
            outcomes[index] = ScenarioOutcome(spec, result, elapsed, cached=False)
            if cache is not None:
                cache.put(spec, result)

    return [outcomes[index] for index in range(len(specs))]


def run_experiments(
    experiment_ids: list[str],
    jobs: int = 1,
    cache: ResultCache | None = None,
    engine: str | None = None,
    adversary: str | None = None,
    scenario_filter: str | None = None,
) -> dict[str, Any]:
    """Run whole experiments and assemble the stable JSON report.

    The scenario lists of all requested experiments are concatenated and
    sharded together (so a slow experiment's scenarios interleave with fast
    ones), then regrouped per experiment for the cross-scenario ``verify``
    hooks and the report.  ``engine`` (CLI ``run --engine``) pins every
    scenario to one simulator engine and ``adversary`` (``run
    --adversary``) to one fault policy; see :func:`run_scenarios`.

    ``scenario_filter`` (CLI ``run --scenario``) keeps only scenarios whose
    name contains the substring — the CI smoke knob for tiers whose full
    sweep is too heavy (e.g. E23's n = 10^6 point).  Per-scenario ``check``
    invariants still run, but the cross-scenario ``verify`` hooks are
    *skipped* for every experiment when a filter is active (they are
    written against complete result lists), and the report records the
    filter under a top-level ``scenario_filter`` key so a filtered report
    can never be mistaken for a full one.  Raises :class:`ValueError` when
    nothing matches.
    """
    experiments = [registry.get_experiment(identifier) for identifier in experiment_ids]
    if scenario_filter is None:
        spec_lists = [experiment.scenarios for experiment in experiments]
    else:
        spec_lists = [
            [spec for spec in experiment.scenarios if scenario_filter in spec.name]
            for experiment in experiments
        ]
        if not any(spec_lists):
            raise ValueError(
                f"--scenario {scenario_filter!r} matches no scenario in "
                f"{', '.join(experiment.id for experiment in experiments)}"
            )
    all_specs = [spec for specs in spec_lists for spec in specs]
    outcomes = run_scenarios(
        all_specs, jobs=jobs, cache=cache, engine=engine, adversary=adversary
    )

    report: dict[str, Any] = {"schema": SCHEMA, "experiments": []}
    if scenario_filter is not None:
        report["scenario_filter"] = scenario_filter
    cursor = 0
    for experiment, specs in zip(experiments, spec_lists):
        count = len(specs)
        slice_ = outcomes[cursor : cursor + count]
        cursor += count
        results = [outcome.result for outcome in slice_]
        run_verify = experiment.verify is not None and scenario_filter is None
        summary = experiment.verify(results) if run_verify else {}
        json.dumps(summary)
        report["experiments"].append(
            {
                "id": experiment.id,
                "title": experiment.title,
                "scenarios": [
                    {
                        "spec": outcome.spec.as_dict(),
                        "spec_hash": outcome.spec.spec_hash(),
                        "cached": outcome.cached,
                        "wall_time_s": outcome.wall_time_s,
                        "result": outcome.result,
                    }
                    for outcome in slice_
                ],
                "summary": summary,
            }
        )
    return report


def strip_timing(report: dict[str, Any]) -> dict[str, Any]:
    """A deep copy of ``report`` without timing/cache fields.

    Strips the runner-level ``wall_time_s`` / ``cached`` per scenario and any
    flattened result or summary key under ``timing.`` — the remainder must be
    byte-identical across repeated runs, serial or parallel.
    """
    stripped = copy.deepcopy(report)
    for experiment in stripped.get("experiments", []):
        for scenario in experiment.get("scenarios", []):
            scenario.pop("wall_time_s", None)
            scenario.pop("cached", None)
            result = scenario.get("result", {})
            for key in [k for k in result if k.startswith(TIMING_PREFIX)]:
                del result[key]
        summary = experiment.get("summary", {})
        for key in [k for k in summary if k.startswith(TIMING_PREFIX)]:
            del summary[key]
    return stripped
