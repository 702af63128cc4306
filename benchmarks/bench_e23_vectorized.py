"""E23 — flood-max speedup guards: lowered vs stepped, stepped vs ``reference``.

The registry's E23 sweep (``repro.experiments.defs_vectorized``) pins the
*physics* of flood-max at scale — lowered, stepped and ``reference`` twins
agree bit-for-bit.  This wrapper guards the two speedups that make the
tier affordable:

* on E23's n=20000 anchor graph, the lowered columnar path
  (``vectorize=True``, zero per-node Python calls per round) must beat the
  stepped columnar path (``vectorize=False``, one ``step()`` call per alive
  vertex per round) by ``E23_MIN_SPEEDUP`` (default 3.0);
* on E23's n=2000 parity anchor, the stepped columnar path must beat the
  ``reference`` oracle engine by ``MIN_REFERENCE_SPEEDUP`` (5.0).

Methodology — steady-state delta-rounds: end-to-end wall time of a
flood-max run is dominated at small round counts by setup (contexts, CSR
views, label columns — identical across modes and engines), which would
dilute the ratio.  So each side is timed at a 6-round and at a 1-round
budget after a 3-round warmup, each the best of 3 runs that each start
with a full garbage collection, and the per-round cost is
``(t6 - t1) / 5``; the setup cancels in the subtraction.  Six rounds is
the shortest budget that converges on the n=20000 anchor, so every timed
round folds: the lowered kernel stops folding once a round
improves no node, and a budget past the diameter would mostly time those
nearly free quiet rounds.  Throughput is ``2m / per_round`` messages/sec
(every vertex broadcasts every round, so a round moves exactly ``2m``
directed messages).

Measured on a 2-core container over six runs: at n=20000, stepped
~22–40 ms/round vs lowered ~3–5 ms/round (5.4–9.7x); at n=2000,
``reference`` ~100–125 ms/round vs stepped ~1.3–3.3 ms/round (35–91x,
~43x median), so the 5.0 floor trips at a ~8x slowdown of stepped
rounds.  CI relaxes ``E23_MIN_SPEEDUP`` to absorb shared-runner noise.
The per-round times, throughputs and speedups land in the pytest-benchmark
record's ``extra_info``.
"""

import gc
import os
import time

from repro.core.flood_max import run_flood_max
from repro.experiments.families import build_graph

# CI sets this lower to absorb shared-runner noise without losing the
# regression guard.
MIN_LOWERED_SPEEDUP = float(os.environ.get("E23_MIN_SPEEDUP", "3.0"))
#: Stepped columnar over ``reference``; the measured ratio is ~43x.
MIN_REFERENCE_SPEEDUP = 5.0

#: E23's n=20000 anchor and n=2000 parity anchor, and its run seed.
_ANCHOR = ("sparse_connected_gnp", 20000, 0.0005, 18)
_PARITY = ("sparse_connected_gnp", 2000, 0.005, 18)
_SEED = 3
_WARMUP_ROUNDS = 3
_SHORT_ROUNDS = 1
#: Converges on both anchors (the leader's eccentricity is 6 and 5 there).
_LONG_ROUNDS = 6
_REPEATS = 3


def _steady_state_per_round(graph, engine: str, vectorize: bool) -> float:
    """Per-round seconds of one engine and mode, setup excluded."""
    run_flood_max(
        graph, rounds=_WARMUP_ROUNDS, seed=_SEED, engine=engine, vectorize=vectorize
    )
    timings = {}
    for rounds in (_SHORT_ROUNDS, _LONG_ROUNDS):
        best = float("inf")
        for _ in range(_REPEATS):
            # Every run starts from the same collector state, so a full
            # collection left over from an earlier run cannot land in it.
            gc.collect()
            start = time.perf_counter()
            result = run_flood_max(
                graph, rounds=rounds, seed=_SEED, engine=engine, vectorize=vectorize
            )
            best = min(best, time.perf_counter() - start)
        timings[rounds] = best
    # Only the long run covers the diameter; the short run exists purely to
    # subtract the setup cost.
    assert result.converged
    assert result.leader == graph.number_of_nodes() - 1
    return (timings[_LONG_ROUNDS] - timings[_SHORT_ROUNDS]) / (
        _LONG_ROUNDS - _SHORT_ROUNDS
    )


def _guard(benchmark, family, sides, floor, label):
    """Time both sides on ``family``; assert the fast side's speedup >= floor.

    ``sides`` maps a side name to ``(engine, vectorize)``, slow side first
    (the order they are timed in).
    """
    graph = build_graph(family)
    msgs_per_round = 2 * graph.number_of_edges()
    per_round = benchmark.pedantic(
        lambda: {
            name: _steady_state_per_round(graph, engine, vectorize)
            for name, (engine, vectorize) in sides.items()
        },
        rounds=1,
        iterations=1,
    )
    throughput = {name: msgs_per_round / seconds for name, seconds in per_round.items()}
    slow, fast = sides
    speedup = throughput[fast] / throughput[slow]
    benchmark.extra_info.update(
        {
            "graph": list(family),
            "msgs_per_round": msgs_per_round,
            **{f"{name}_per_round_s": seconds for name, seconds in per_round.items()},
            **{f"{name}_msgs_per_sec": rate for name, rate in throughput.items()},
            "speedup": speedup,
        }
    )
    print(
        f"\nE23 steady state: {slow} {throughput[slow]:,.0f} msg/s, "
        f"{fast} {throughput[fast]:,.0f} msg/s ({speedup:.2f}x)"
    )
    assert speedup >= floor, (
        f"{label} only {speedup:.2f}x over {slow} (required {floor}x)"
    )


def test_e23_lowered_columnar(benchmark):
    _guard(
        benchmark,
        _ANCHOR,
        {"stepped": ("columnar", False), "lowered": ("columnar", True)},
        MIN_LOWERED_SPEEDUP,
        "lowered columnar rounds",
    )


def test_e23_stepped_columnar_over_reference(benchmark):
    _guard(
        benchmark,
        _PARITY,
        {"reference": ("reference", False), "stepped": ("columnar", False)},
        MIN_REFERENCE_SPEEDUP,
        "stepped columnar rounds",
    )
