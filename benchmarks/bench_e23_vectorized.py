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
budget after a 3-round warmup, each the best of 5 runs that each start
with a full garbage collection (the two budgets alternate, so load
changes reach both), and the per-round cost is ``(t6 - t1) / 5``; the
setup cancels in the subtraction.  A difference of zero or less is a
failed measurement (noise swamped the rounds), not a speedup: that side
is re-measured up to ``_ATTEMPTS`` times, and the guard fails naming the
raw timings if it never comes out positive.  Six rounds is the shortest
budget that converges on the n=20000 anchor, so every timed
round folds: the lowered kernel stops folding once a round
improves no node, and a budget past the diameter would mostly time those
nearly free quiet rounds.  Throughput is ``2m / per_round`` messages/sec
(every vertex broadcasts every round, so a round moves exactly ``2m``
directed messages).

A third guard bounds memory: E23's n=10^6 point (graph build plus a
12-round lowered run with streaming metrics), run alone in a fresh
interpreter so that its ``ru_maxrss`` is its own, must peak at
``MAX_MEGA_RSS_MB`` (300 MB) or less.  It read 396 MB with a 64-bit CSR
neighbour column, whole-column fold temporaries and a sort of 2m arc keys,
and 244 MB with the 32-bit column, the blocked fold and the bounded bulk
build (2-core x86-64 container); 250 MB is the stretch goal.

Measured on a 2-core container over four runs: at n=20000, stepped
~9–17 ms/round vs lowered ~0.8–1.4 ms/round (7.0–20.5x); at n=2000,
``reference`` ~68–89 ms/round vs stepped ~1.7–2.0 ms/round (36–52x),
so the 5.0 floor trips at a ~7x slowdown of stepped rounds.  CI relaxes
``E23_MIN_SPEEDUP`` to absorb shared-runner noise.
The per-round times, throughputs and speedups land in the pytest-benchmark
record's ``extra_info``.
"""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.core.flood_max import run_flood_max
from repro.experiments.families import build_graph

# CI sets this lower to absorb shared-runner noise without losing the
# regression guard.
MIN_LOWERED_SPEEDUP = float(os.environ.get("E23_MIN_SPEEDUP", "3.0"))
#: Stepped columnar over ``reference``; the measured ratio is 36–52x.
MIN_REFERENCE_SPEEDUP = 5.0

#: E23's n=20000 anchor and n=2000 parity anchor, and its run seed.
_ANCHOR = ("sparse_connected_gnp", 20000, 0.0005, 18)
_PARITY = ("sparse_connected_gnp", 2000, 0.005, 18)
_SEED = 3
_WARMUP_ROUNDS = 3
_SHORT_ROUNDS = 1
#: Converges on both anchors (the leader's eccentricity is 6 and 5 there).
_LONG_ROUNDS = 6
_REPEATS = 5
#: Measurements of one side before a non-positive round cost fails the guard.
_ATTEMPTS = 3

#: E23's n=10^6 point: graph, round budget, and its peak-RSS ceiling in MB.
_MEGA = ("sparse_gnp_csr", 1000000, 1.4e-5, 22)
_MEGA_ROUNDS = 12
MAX_MEGA_RSS_MB = 300.0

#: Child process of the memory guard: build, run lowered, report the peak.
_MEGA_CHILD = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from repro.core.flood_max import run_flood_max
from repro.experiments.families import build_graph
spec, rounds, seed = json.loads(sys.argv[2])
graph = build_graph(tuple(spec))
result = run_flood_max(graph, rounds, seed=seed, engine="columnar", streaming_metrics=True)
print(json.dumps({
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "converged": result.converged,
    "leader": result.leader,
}))
"""


def _best_times(graph, engine: str, vectorize: bool) -> tuple[float, float]:
    """Best short-budget and long-budget wall times over ``_REPEATS`` rounds.

    The two budgets alternate, so a change in machine load during the
    measurement reaches both sides of the subtraction instead of one.
    """
    best = {_SHORT_ROUNDS: float("inf"), _LONG_ROUNDS: float("inf")}
    for _ in range(_REPEATS):
        for rounds in best:
            # Every run starts from the same collector state, so a full
            # collection left over from an earlier run cannot land in it.
            gc.collect()
            start = time.perf_counter()
            result = run_flood_max(
                graph, rounds=rounds, seed=_SEED, engine=engine, vectorize=vectorize
            )
            best[rounds] = min(best[rounds], time.perf_counter() - start)
    # Only the long run covers the diameter; the short run exists purely to
    # subtract the setup cost.
    assert result.converged
    assert result.leader == graph.number_of_nodes() - 1
    return best[_SHORT_ROUNDS], best[_LONG_ROUNDS]


def _steady_state_per_round(graph, engine: str, vectorize: bool) -> float:
    """Per-round seconds of one engine and mode, setup excluded."""
    run_flood_max(
        graph, rounds=_WARMUP_ROUNDS, seed=_SEED, engine=engine, vectorize=vectorize
    )
    measured = []
    for _ in range(_ATTEMPTS):
        short, long = _best_times(graph, engine, vectorize)
        if long > short:
            return (long - short) / (_LONG_ROUNDS - _SHORT_ROUNDS)
        measured.append(f"t{_LONG_ROUNDS}={long:.6f}s t{_SHORT_ROUNDS}={short:.6f}s")
    raise AssertionError(
        f"{engine} (vectorize={vectorize}): the {_LONG_ROUNDS}-round run was "
        f"never slower than the {_SHORT_ROUNDS}-round run in {_ATTEMPTS} "
        f"measurements ({'; '.join(measured)}), so no per-round cost can be "
        "derived"
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


def test_e23_mega_point_peak_rss(benchmark):
    src = str(Path(__file__).resolve().parent.parent / "src")
    args = json.dumps([list(_MEGA), _MEGA_ROUNDS, _SEED])
    child = benchmark.pedantic(
        lambda: subprocess.run(
            [sys.executable, "-c", _MEGA_CHILD, src, args],
            capture_output=True,
            text=True,
            check=True,
            timeout=600,
        ),
        rounds=1,
        iterations=1,
    )
    record = json.loads(child.stdout.splitlines()[-1])
    assert record["converged"] and record["leader"] == _MEGA[1] - 1
    peak = record["peak_rss_mb"]
    benchmark.extra_info.update(
        {
            "graph": list(_MEGA),
            "rounds": _MEGA_ROUNDS,
            "peak_rss_mb": peak,
            "ceiling_mb": MAX_MEGA_RSS_MB,
            "headroom_mb": MAX_MEGA_RSS_MB - peak,
        }
    )
    print(f"\nE23 n=10^6: peak RSS {peak:.1f} MB (ceiling {MAX_MEGA_RSS_MB:.0f} MB)")
    assert peak <= MAX_MEGA_RSS_MB, (
        f"E23's n=10^6 point peaked at {peak:.1f} MB (ceiling {MAX_MEGA_RSS_MB:.0f} MB)"
    )
