"""The thin pytest-benchmark wrapper over the experiment runner.

Every ``benchmarks/bench_e*.py`` reduces to one call::

    def test_e01_two_spanner_ratio(benchmark):
        bench_experiment(benchmark, "E01")

which runs the experiment through the orchestrator (so the same registry
scenarios, invariants and JSON schema back both pytest and the CLI), prints
the reproduced table (visible under ``pytest -s``), and records the
flattened per-scenario results plus the cross-scenario summary in
``benchmark.extra_info``.
"""

from __future__ import annotations

from typing import Any

from repro.experiments import registry
from repro.experiments.reporting import experiment_table, flatten_info
from repro.experiments.runner import run_experiments


def bench_experiment(
    benchmark,
    experiment_id: str,
    jobs: int = 1,
    scenario_filter: str | None = None,
) -> dict[str, Any]:
    """Run one experiment under pytest-benchmark and return the full report.

    ``scenario_filter`` restricts the run to scenarios whose name contains
    the substring (cross-scenario ``verify`` is then skipped, exactly as
    with the CLI's ``run --scenario``) — used by benchmark wrappers of
    tiers whose full sweep is too heavy for a timing harness (e.g. E23's
    n = 10^6 point).
    """
    experiment = registry.get_experiment(experiment_id)
    report = benchmark.pedantic(
        lambda: run_experiments(
            [experiment.id], jobs=jobs, scenario_filter=scenario_filter
        ),
        rounds=1,
        iterations=1,
    )
    entry = report["experiments"][0]
    results = [scenario["result"] for scenario in entry["scenarios"]]
    experiment_table(experiment, results)
    info: dict[str, Any] = {"experiment": experiment.id, "schema": report["schema"]}
    info.update(flatten_info(entry["summary"], prefix="summary"))
    for index, scenario in enumerate(entry["scenarios"]):
        # Index-based path segments: scenario names may contain dots, which
        # would make the dotted key convention ambiguous to split.
        prefix = f"scenarios.{index}"
        info[f"{prefix}.name"] = scenario["spec"]["name"]
        info[f"{prefix}.spec_hash"] = scenario["spec_hash"]
        info.update(flatten_info(scenario["result"], prefix=prefix))
    benchmark.extra_info.update(info)
    return report
