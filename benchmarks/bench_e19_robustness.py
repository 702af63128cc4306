"""E19 — robustness tier: fault-injected flood-max and clique 2-spanner.

Runs the E19 experiment through the orchestrator (drop/crash sweeps with
per-scenario invariants and the engine-parity-under-faults verify hook in
``repro.experiments.defs_robustness``), then asserts the *cost* contract of
the adversary layer: installing the identity :class:`NoAdversary` must add
less than ``E19_MAX_OVERHEAD`` (default 10%) to the stepped columnar
flood-max path versus passing no adversary at all.  ``NoAdversary`` binds to no
delivery filter, so the engines literally execute their unmodified hot
loops — the guard pins that this stays true as the seam evolves.  Like
E16/E23, the threshold is an environment knob so CI can relax it on noisy
shared runners without touching the registry.
"""

import gc
import os
import time

from repro.core import run_flood_max
from repro.distributed import NoAdversary
from repro.experiments import bench_experiment
from repro.experiments.families import build_graph

#: The adversary seam's admissible no-fault slowdown on the stepped columnar path.
MAX_NO_ADVERSARY_OVERHEAD = float(os.environ.get("E19_MAX_OVERHEAD", "0.10"))

#: E23's n=20000 anchor instance, trimmed to 5 rounds: large enough that per-message
#: work dominates, small enough for a tier-1-friendly wall time.
_GRAPH = ("sparse_connected_gnp", 20000, 0.0005, 18)
_ROUNDS = 5
_REPEATS = 5


def _best_times(graph) -> tuple[float, float]:
    """Best stepped columnar flood-max wall times without and with ``NoAdversary``.

    The two sides alternate within each of ``_REPEATS`` repeats, so a change
    in machine load during the measurement reaches both instead of one.
    """
    sides = (None, NoAdversary())
    best = [float("inf"), float("inf")]
    for _ in range(_REPEATS):
        for side, adversary in enumerate(sides):
            # Every run starts from the same collector state, so a full
            # collection left over from an earlier run cannot land in it.
            gc.collect()
            start = time.perf_counter()
            result = run_flood_max(
                graph,
                rounds=_ROUNDS,
                seed=3,
                engine="columnar",
                adversary=adversary,
                vectorize=False,
            )
            best[side] = min(best[side], time.perf_counter() - start)
            assert result.rounds == _ROUNDS
    return best[0], best[1]


def test_e19_robustness(benchmark):
    report = bench_experiment(benchmark, "E19")
    results = {
        scenario["spec"]["name"]: scenario["result"]
        for scenario in report["experiments"][0]["scenarios"]
    }
    # The differential heart of the tier: same adversary, different engines,
    # identical physics and fault counters (verify already checked; keep the
    # headline assertion visible here too).
    assert (
        results["floodmax drop=0.05"]["metrics.adversary_dropped_messages"]
        == results["floodmax drop=0.05 columnar"]["metrics.adversary_dropped_messages"]
    )

    # NoAdversary overhead guard: one shared graph, the two sides alternated
    # and best-of-5 each to shed scheduler noise.
    graph = build_graph(_GRAPH)
    baseline, identity = _best_times(graph)
    overhead = identity / baseline - 1.0
    benchmark.extra_info["no_adversary_overhead"] = overhead
    assert overhead < MAX_NO_ADVERSARY_OVERHEAD, (
        f"NoAdversary added {overhead:.1%} to the stepped columnar path "
        f"(allowed {MAX_NO_ADVERSARY_OVERHEAD:.0%})"
    )
