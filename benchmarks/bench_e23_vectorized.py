"""E23 — program-lowering speedup guard: lowered vs stepped columnar rounds.

The registry's E23 sweep (``repro.experiments.defs_vectorized``) pins the
*physics* of whole-round lowering — lowered and stepped twins agree
bit-for-bit.  This wrapper guards the *speedup* that justifies the layer:
on the shared n=20000 E18/E20 anchor graph, the lowered columnar path
(``vectorize=True``, zero per-node Python calls per round) must beat the
stepped columnar path (``vectorize=False``, one ``step()`` call per alive
vertex per round) by ``E23_MIN_SPEEDUP``.

Methodology — the same steady-state delta-rounds subtraction as
``bench_e20_columnar``: each mode is timed at 45 and at 5 rounds after a
3-round warmup, and the per-round cost is ``(t45 - t5) / 40`` so the
setup cost (contexts, CSR views, label columns — identical across modes)
cancels.  Throughput is ``2m / per_round`` messages/sec.

Measured on a quiet machine: lowered ~2.4 ms/round vs stepped ~13.4 ms/round
(~5.7x; the ISSUE targets >= 3x).  CI relaxes the floor via
``E23_MIN_SPEEDUP`` to absorb shared-runner noise.  The per-round times,
throughputs and speedup land in the pytest-benchmark record's
``extra_info``.
"""

import os
import time

from repro.core.flood_max import run_flood_max
from repro.experiments.families import build_graph

# Measured ~5.7x on a quiet machine; CI sets E23_MIN_SPEEDUP lower to absorb
# shared-runner noise without losing the regression guard.
MIN_LOWERED_SPEEDUP = float(os.environ.get("E23_MIN_SPEEDUP", "3.0"))

#: The E18/E20/E23 shared anchor instance and seed.
_GRAPH = ("sparse_connected_gnp", 20000, 0.0005, 18)
_SEED = 3
_WARMUP_ROUNDS = 3
_SHORT_ROUNDS = 5
_LONG_ROUNDS = 45


def _steady_state_per_round(graph, vectorize: bool) -> float:
    """Per-round seconds of the columnar engine, setup excluded."""
    run_flood_max(
        graph, rounds=_WARMUP_ROUNDS, seed=_SEED, engine="columnar", vectorize=vectorize
    )
    timings = {}
    for rounds in (_SHORT_ROUNDS, _LONG_ROUNDS):
        start = time.perf_counter()
        result = run_flood_max(
            graph, rounds=rounds, seed=_SEED, engine="columnar", vectorize=vectorize
        )
        timings[rounds] = time.perf_counter() - start
        # Only the long run covers the diameter; the short run exists purely
        # to subtract the setup cost.
        if rounds >= _LONG_ROUNDS:
            assert result.converged
            assert result.leader == graph.number_of_nodes() - 1
    return (timings[_LONG_ROUNDS] - timings[_SHORT_ROUNDS]) / (
        _LONG_ROUNDS - _SHORT_ROUNDS
    )


def test_e23_lowered_columnar(benchmark):
    graph = build_graph(_GRAPH)
    msgs_per_round = 2 * graph.number_of_edges()

    def measure():
        return {
            mode: _steady_state_per_round(graph, vectorize)
            for mode, vectorize in (("stepped", False), ("lowered", True))
        }

    per_round = benchmark.pedantic(measure, rounds=1, iterations=1)
    throughput = {
        mode: msgs_per_round / seconds for mode, seconds in per_round.items()
    }
    speedup = throughput["lowered"] / throughput["stepped"]
    benchmark.extra_info.update(
        {
            "graph": list(_GRAPH),
            "msgs_per_round": msgs_per_round,
            "stepped_per_round_s": per_round["stepped"],
            "lowered_per_round_s": per_round["lowered"],
            "stepped_msgs_per_sec": throughput["stepped"],
            "lowered_msgs_per_sec": throughput["lowered"],
            "speedup": speedup,
        }
    )
    print(
        f"\nE23 steady state: stepped {throughput['stepped']:,.0f} msg/s, "
        f"lowered {throughput['lowered']:,.0f} msg/s ({speedup:.2f}x)"
    )
    assert speedup >= MIN_LOWERED_SPEEDUP, (
        f"lowered columnar rounds only {speedup:.2f}x over stepped "
        f"(required {MIN_LOWERED_SPEEDUP}x)"
    )
