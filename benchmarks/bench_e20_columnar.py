"""E20 — columnar engine throughput guard: flood-max broadcast at n=20000.

The registry's E20 sweep (``repro.experiments.defs_megascale``) carries the
mega-scale points (n up to 10^6); this wrapper guards the *engine speedup*
that makes those points affordable, on the same n=20000 E18 graph both
tiers share as their differential anchor.

Methodology — steady-state delta-rounds: end-to-end wall time of a
flood-max run is dominated at small round counts by setup (n ``Random``
instances, contexts, CSR views), which is identical across engines and
would dilute the ratio.  So each engine is timed twice, at a long and at a
5-round budget (after a 3-round warmup), and the per-round cost is
``(t_long - t5) / (long - 5)`` — the setup cancels in the subtraction.
The columnar engine (lowering on, as E20 runs it) takes 45 rounds; the
indexed baseline, over a second per round at this size, takes 15.
Throughput is ``2m / per_round`` messages/sec (every vertex broadcasts
every round, so a round moves exactly ``2m`` directed messages).

The floor is a regression guard well below the measured ratio; CI relaxes
it via ``E20_MIN_SPEEDUP`` to absorb shared-runner noise;
``E20_MIN_MSGS_PER_SEC`` defaults to 0 (recorded, not asserted) because
absolute throughput varies with host hardware in a way a ratio does not.
"""

import os
import time

from repro.core.flood_max import run_flood_max
from repro.experiments.families import build_graph

# CI sets E20_MIN_SPEEDUP lower to absorb shared-runner noise without
# losing the regression guard.
MIN_COLUMNAR_SPEEDUP = float(os.environ.get("E20_MIN_SPEEDUP", "3.0"))
MIN_MSGS_PER_SEC = float(os.environ.get("E20_MIN_MSGS_PER_SEC", "0"))

#: The E18/E20 shared anchor instance and seed (defs_substrate/defs_megascale).
_GRAPH = ("sparse_connected_gnp", 20000, 0.0005, 18)
_SEED = 3
_WARMUP_ROUNDS = 3
_SHORT_ROUNDS = 5
#: Long-run budget per engine; both cover the anchor graph's diameter.
_LONG_ROUNDS = {"columnar": 45, "indexed": 15}


def _steady_state_per_round(graph, engine: str) -> float:
    """Per-round seconds of ``engine`` on ``graph``, setup excluded."""
    run_flood_max(graph, rounds=_WARMUP_ROUNDS, seed=_SEED, engine=engine)
    long_rounds = _LONG_ROUNDS[engine]
    timings = {}
    for rounds in (_SHORT_ROUNDS, long_rounds):
        start = time.perf_counter()
        result = run_flood_max(graph, rounds=rounds, seed=_SEED, engine=engine)
        timings[rounds] = time.perf_counter() - start
        # Only the long run covers the diameter; the short run exists purely
        # to subtract the setup cost.
        if rounds >= long_rounds:
            assert result.converged
            assert result.leader == graph.number_of_nodes() - 1
    return (timings[long_rounds] - timings[_SHORT_ROUNDS]) / (
        long_rounds - _SHORT_ROUNDS
    )


def test_e20_columnar_engine(benchmark):
    graph = build_graph(_GRAPH)
    msgs_per_round = 2 * graph.number_of_edges()

    def measure():
        return {
            engine: _steady_state_per_round(graph, engine)
            for engine in ("indexed", "columnar")
        }

    per_round = benchmark.pedantic(measure, rounds=1, iterations=1)
    throughput = {
        engine: msgs_per_round / seconds for engine, seconds in per_round.items()
    }
    speedup = throughput["columnar"] / throughput["indexed"]
    benchmark.extra_info.update(
        {
            "msgs_per_round": msgs_per_round,
            "indexed_msgs_per_sec": throughput["indexed"],
            "columnar_msgs_per_sec": throughput["columnar"],
            "speedup": speedup,
        }
    )
    print(
        f"\nE20 steady state: indexed {throughput['indexed']:,.0f} msg/s, "
        f"columnar {throughput['columnar']:,.0f} msg/s ({speedup:.2f}x)"
    )
    assert speedup >= MIN_COLUMNAR_SPEEDUP, (
        f"columnar engine only {speedup:.2f}x over indexed "
        f"(required {MIN_COLUMNAR_SPEEDUP}x)"
    )
    assert throughput["columnar"] >= MIN_MSGS_PER_SEC, (
        f"columnar throughput {throughput['columnar']:,.0f} msg/s below the "
        f"{MIN_MSGS_PER_SEC:,.0f} floor"
    )
