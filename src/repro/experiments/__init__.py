"""Experiment orchestration: scenario registry, sharded runner, JSON reports.

The subsystem turns the E01-E23 reproductions into first-class, machine-
runnable sweeps:

* :mod:`repro.experiments.spec` — picklable scenario specs with stable hashes
* :mod:`repro.experiments.registry` — the declarative experiment registry
* :mod:`repro.experiments.runner` — parallel sharded runner, caching,
  deterministic merge, stable JSON report
* :mod:`repro.experiments.bench` — the thin pytest-benchmark wrapper used by
  every ``benchmarks/bench_e*.py``
* ``python -m repro.experiments`` — the CLI (``list`` / ``run``)
"""

from repro.experiments.bench import bench_experiment
from repro.experiments.registry import (
    Experiment,
    ExperimentCheckError,
    check,
    experiment_ids,
    get_experiment,
    load_all,
    register,
)
from repro.experiments.reporting import flatten_info, fmt, print_table
from repro.experiments.runner import (
    SCHEMA,
    ResultCache,
    ScenarioOutcome,
    execute_scenario,
    run_experiments,
    run_scenarios,
    strip_timing,
)
from repro.experiments.spec import ScenarioSpec

__all__ = [
    "SCHEMA",
    "Experiment",
    "ExperimentCheckError",
    "ResultCache",
    "ScenarioOutcome",
    "ScenarioSpec",
    "bench_experiment",
    "check",
    "execute_scenario",
    "experiment_ids",
    "flatten_info",
    "fmt",
    "get_experiment",
    "load_all",
    "print_table",
    "register",
    "run_experiments",
    "run_scenarios",
    "strip_timing",
]
