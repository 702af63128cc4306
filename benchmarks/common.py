"""Shared helpers for the experiment benchmarks.

The benchmarks are thin pytest-benchmark wrappers over the scenario
registry — see :func:`repro.experiments.bench_experiment`.  This module
holds what two of them share: the E19 and E22 adversary-cost guards time
the same flood-max instance (:data:`FLOOD_GRAPH`) with
:func:`best_flood_times`.
"""

from __future__ import annotations

import gc

from repro.core import run_flood_max
from repro.experiments.runner import timed

#: E23's n=20000 anchor instance, trimmed to 5 rounds: large enough that
#: per-message work dominates, small enough for a tier-1-friendly wall time.
FLOOD_GRAPH = ("sparse_connected_gnp", 20000, 0.0005, 18)
FLOOD_ROUNDS = 5


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
