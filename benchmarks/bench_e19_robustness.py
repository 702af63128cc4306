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

import os

from repro.distributed import NoAdversary
from repro.experiments import bench_experiment
from repro.experiments.families import build_graph

from common import FLOOD_GRAPH, best_flood_times

#: The adversary seam's admissible no-fault slowdown on the stepped columnar path.
MAX_NO_ADVERSARY_OVERHEAD = float(os.environ.get("E19_MAX_OVERHEAD", "0.10"))

_REPEATS = 5


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
    graph = build_graph(FLOOD_GRAPH)
    baseline, identity = best_flood_times(graph, (None, NoAdversary()), _REPEATS)
    overhead = identity / baseline - 1.0
    benchmark.extra_info["no_adversary_overhead"] = overhead
    assert overhead < MAX_NO_ADVERSARY_OVERHEAD, (
        f"NoAdversary added {overhead:.1%} to the stepped columnar path "
        f"(allowed {MAX_NO_ADVERSARY_OVERHEAD:.0%})"
    )
