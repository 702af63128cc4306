"""E22 — corruption tier: coded workloads under payload bit-flips.

Runs the E22 experiment through the orchestrator (plain vs repetition vs
checksum flood-max and plain vs coded spanner under ``corrupt:*``, with the
soundness-under-corruption invariants and the three-engine-parity verify
hook in ``repro.experiments.defs_corruption``), then pins the *cost* of the
transform seam on the stepped columnar engine (lowering off: a drop filter
lowers but a transforming one cannot, so with lowering on the two timed
runs would take different paths).  A transforming filter forces every
engine onto the per-edge materialization path (one payload list cannot be
shared across receivers when each delivery may be mutated), so a
:class:`CorruptAdversary` whose rate is negligible but non-zero — every
edge hashed, nothing ever flipped — against a :class:`DropAdversary` at
the same rate — every edge hashed, shared-plist path — isolates exactly
the materialization price.  (Zero rates would not: the corrupt filter
skips hashing entirely at rate 0, which more than pays for the per-edge
path.)  ``E22_MAX_OVERHEAD`` bounds the multiple; like E16/E19/E23 it is
an environment knob so CI can relax it on noisy shared runners without
touching the registry.
"""

import os
import time

from repro.core import run_flood_max
from repro.distributed import CorruptAdversary, DropAdversary
from repro.experiments import bench_experiment
from repro.experiments.families import build_graph

#: Admissible slowdown of the per-edge transform path over the shared-plist
#: adversary path, as a fraction (1.5 = "at most 2.5x as slow"; measured
#: ~0.75 on the reference machine).
MAX_TRANSFORM_OVERHEAD = float(os.environ.get("E22_MAX_OVERHEAD", "1.5"))

#: Per-edge Bernoulli rate low enough that no trial fires on this instance
#: (deterministic: keyed hashes of a fixed seed/graph) yet every trial is
#: still hashed, keeping both timed paths' per-edge work identical.
_EPSILON_RATE = 1e-9

#: E19's instance: large enough that per-message work dominates, small
#: enough for a tier-1-friendly wall time.
_GRAPH = ("sparse_connected_gnp", 20000, 0.0005, 18)
_ROUNDS = 5


def _best_of(graph, repeats: int, adversary) -> float:
    """Best wall time of ``repeats`` stepped columnar flood-max runs on ``graph``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_flood_max(
            graph,
            rounds=_ROUNDS,
            seed=3,
            engine="columnar",
            adversary=adversary,
            vectorize=False,
        )
        best = min(best, time.perf_counter() - start)
        assert result.rounds == _ROUNDS
    return best


def test_e22_corruption(benchmark):
    report = bench_experiment(benchmark, "E22")
    results = {
        scenario["spec"]["name"]: scenario["result"]
        for scenario in report["experiments"][0]["scenarios"]
    }
    # The differential heart of the tier: same corruption stream, different
    # engines, identical forged physics (verify already checked; keep the
    # headline assertions visible here too).
    for engine in ("columnar", "reference"):
        assert (
            results[f"floodmax repetition corrupt=0.10 {engine}"][
                "metrics.adversary_corrupted_messages"
            ]
            == results["floodmax repetition corrupt=0.10"][
                "metrics.adversary_corrupted_messages"
            ]
        )
    # Soundness headline: where the plain flood elects a forgery, both
    # coded variants still recover the true maximum.
    assert not results["floodmax plain corrupt=0.10"]["recovered"]
    assert results["floodmax repetition corrupt=0.10"]["recovered"]
    assert results["floodmax checksum corrupt=0.10"]["recovered"]

    # Transform-seam overhead guard: epsilon-rate corrupt (per-edge path)
    # vs epsilon-rate drop (shared-plist path) on one shared graph,
    # best-of-3 each to shed scheduler noise.  Both hash every edge and
    # neither ever fires, so the difference is purely the materialization
    # fallback.
    graph = build_graph(_GRAPH)
    shared = _best_of(graph, 3, DropAdversary(_EPSILON_RATE))
    per_edge = _best_of(graph, 3, CorruptAdversary(_EPSILON_RATE))
    overhead = per_edge / shared - 1.0
    benchmark.extra_info["transform_seam_overhead"] = overhead
    assert overhead < MAX_TRANSFORM_OVERHEAD, (
        f"transforming filter added {overhead:.1%} over the shared-plist "
        f"adversary path (allowed {MAX_TRANSFORM_OVERHEAD:.0%})"
    )
