"""Shared helpers for the experiment benchmarks.

Since the experiment orchestration subsystem (``repro.experiments``) the
benchmarks are thin pytest-benchmark wrappers over the scenario registry —
see :func:`repro.experiments.bench_experiment`.  This module remains as a
small compatibility layer: ``print_table`` / ``fmt`` re-export the package
implementations, and :func:`record` attaches values to
``benchmark.extra_info`` with real flattening (it used to store ``as_dict()``
results as *nested* dicts despite claiming to flatten, so per-model counters
vanished from flat JSON consumers; nested keys now use ``key.subkey``
naming, the same convention the runner's JSON schema uses).
:func:`best_flood_times` is the one timer of the E19 and E22 adversary-cost
guards.
"""

from __future__ import annotations

import gc
from typing import Any

from repro.core import run_flood_max
from repro.experiments.reporting import flatten_info, fmt, print_table  # noqa: F401
from repro.experiments.runner import timed

#: E23's n=20000 anchor instance, trimmed to 5 rounds: large enough that
#: per-message work dominates, small enough for a tier-1-friendly wall time.
FLOOD_GRAPH = ("sparse_connected_gnp", 20000, 0.0005, 18)
FLOOD_ROUNDS = 5


def record(benchmark, **info: Any) -> None:
    """Attach experiment outputs to the pytest-benchmark record.

    Values carrying an ``as_dict()`` method (``RunResult``, ``Metrics``) are
    converted through it, and any nested mapping is flattened into dotted
    ``key.subkey`` entries so the resulting ``extra_info`` is flat.
    """
    for key, value in info.items():
        benchmark.extra_info.update(flatten_info(value, prefix=key))


def best_flood_times(graph, adversaries, repeats: int) -> list[float]:
    """Best stepped columnar flood-max wall time on ``graph`` per adversary.

    The sides alternate within each of ``repeats`` repeats, so a change in
    machine load during the measurement reaches every side instead of one.
    Every run starts from the same collector state (``gc.collect()``), so a
    full collection left over from an earlier run cannot land in it.
    """
    best = [float("inf")] * len(adversaries)
    for _ in range(repeats):
        for side, adversary in enumerate(adversaries):
            gc.collect()
            result, seconds = timed(
                run_flood_max,
                graph,
                rounds=FLOOD_ROUNDS,
                seed=3,
                engine="columnar",
                adversary=adversary,
                vectorize=False,
            )
            best[side] = min(best[side], seconds)
            assert result.rounds == FLOOD_ROUNDS
    return best
