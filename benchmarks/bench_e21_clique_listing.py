"""E21 — targeted-send fast path throughput guard: fan-out at n=4000.

The registry's E21 tier (``repro.experiments.defs_clique_listing``) carries
the verified triangle-listing and checksum-fanout scenarios; this wrapper
guards the *engine speedup* on pure targeted traffic — the PR 7 tentpole —
with the denser sibling of the registry's fan-out anchor (same n and seed,
double the density and fan-out): every node sends one small int to each of
its first 16 ascending neighbours, every round.

Methodology — steady-state delta-rounds, exactly as ``bench_e23_vectorized``:
each engine is timed at 45 and at 5 rounds (after a 3-round warmup) and the
per-round cost is ``(t45 - t5) / 40``, so the engine-identical setup cost
(n ``Random`` instances, contexts, neighbour rows) cancels.  Each engine
takes the best of two such measurements — ``min`` is the right estimator
for timing noise, which is strictly additive.  The receiver folds through
:meth:`TargetedInbox.max_heard` when the engine offers it — fold pushdown
keeps the comparison about *delivery*, not about per-message Python that
is conserved across engines by construction.

The model is the enforcing CONGEST model: per-link bandwidth accounting is
part of the targeted contract (the oracle pays it per message, the fast
path pays it in vectorized prefix sums), so the guarded ratio covers the
accounting kernels too, not just the scatter.

Measured on a 2-core container: columnar ~6.1–7.7x over indexed
(1.33M–1.57M vs 0.17M–0.26M msg/s steady state); before the targeted
path sized whole payload columns and reused a repeated round's delivery
plan it was ~3.8x (0.71M msg/s).  CI relaxes the ratio floor via
``E21_MIN_SPEEDUP`` to absorb shared-runner noise;
``E21_MIN_MSGS_PER_SEC`` defaults to 0 (recorded, not asserted) because
absolute throughput varies with host hardware in a way a ratio does not.
"""

import os
import time
from itertools import chain

from repro.distributed import NodeProgram, Simulator
from repro.distributed.models import congest_model
from repro.experiments.families import build_graph

# CI sets E21_MIN_SPEEDUP lower to absorb shared-runner noise without
# losing the regression guard.
MIN_SPEEDUP = float(os.environ.get("E21_MIN_SPEEDUP", "3.0"))
MIN_MSGS_PER_SEC = float(os.environ.get("E21_MIN_MSGS_PER_SEC", "0"))

#: Denser sibling of the E21 fan-out anchor (defs_clique_listing uses
#: the same n and seed at half the density and fan-out).
_GRAPH = ("sparse_connected_gnp", 4000, 0.004, 9)
_SEED = 13
_FANOUT = 16
_WARMUP_ROUNDS = 3
_SHORT_ROUNDS = 5
_LONG_ROUNDS = 45
_REPS = 2


class _PushdownFanout(NodeProgram):
    """Targeted fan-out with a fold-pushdown receiver.

    Sends one round-varying int to each of the first ``_FANOUT`` ascending
    neighbours; folds the inbox through ``max_heard`` when the engine's
    inbox view offers it, and through a C-level ``max`` over the dict
    oracle's values otherwise — the same bit-for-bit outcome either way.
    """

    def __init__(self, node, rounds):
        self.rounds = rounds
        self.best = 0
        self.targets = None

    def on_start(self, ctx):
        self.targets = sorted(ctx.neighbors)[:_FANOUT]
        self._emit(ctx, 0)

    def _emit(self, ctx, round_no):
        payload = self.best + round_no
        for dst in self.targets:
            ctx.send(dst, payload)

    def on_round(self, ctx, inbox):
        if inbox:
            if inbox.__class__ is dict:
                heard = max(chain.from_iterable(inbox.values()))
                if heard > self.best:
                    self.best = heard
            else:
                self.best = inbox.max_heard(self.best)
        if ctx.round >= self.rounds:
            ctx.set_output(self.best)
            ctx.halt()
            return
        self._emit(ctx, ctx.round)


def _run(graph, engine, rounds):
    n = graph.number_of_nodes()
    sim = Simulator(
        graph,
        lambda v: _PushdownFanout(v, rounds),
        model=congest_model(n, enforce=True),
        seed=_SEED,
        engine=engine,
    )
    return sim.run(max_rounds=rounds + 2)


def _steady_state_per_round(graph, engine: str):
    """(per-round seconds, long-run outputs) of ``engine``, setup excluded."""
    _run(graph, engine, _WARMUP_ROUNDS)
    best = None
    outputs = None
    for _ in range(_REPS):
        timings = {}
        for rounds in (_SHORT_ROUNDS, _LONG_ROUNDS):
            start = time.perf_counter()
            result = _run(graph, engine, rounds)
            timings[rounds] = time.perf_counter() - start
            if rounds >= _LONG_ROUNDS:
                outputs = dict(result.outputs)
        per_round = (timings[_LONG_ROUNDS] - timings[_SHORT_ROUNDS]) / (
            _LONG_ROUNDS - _SHORT_ROUNDS
        )
        if best is None or per_round < best:
            best = per_round
    return best, outputs


def test_e21_targeted_fast_path(benchmark):
    graph = build_graph(_GRAPH)
    msgs_per_round = sum(
        min(_FANOUT, len(graph.neighbors(v))) for v in graph.nodes()
    )

    def measure():
        per_round = {}
        outputs = {}
        for engine in ("indexed", "columnar"):
            per_round[engine], outputs[engine] = _steady_state_per_round(
                graph, engine
            )
        # The ratio only means something if the engines computed the same
        # thing: the differential contract, asserted on the long run.
        assert outputs["columnar"] == outputs["indexed"]
        return per_round

    per_round = benchmark.pedantic(measure, rounds=1, iterations=1)
    throughput = {
        engine: msgs_per_round / seconds for engine, seconds in per_round.items()
    }
    speedup = per_round["indexed"] / per_round["columnar"]
    benchmark.extra_info.update(
        {
            "msgs_per_round": msgs_per_round,
            "indexed_msgs_per_sec": throughput["indexed"],
            "columnar_msgs_per_sec": throughput["columnar"],
            "columnar_speedup": speedup,
        }
    )
    print(
        f"\nE21 steady state: indexed {throughput['indexed']:,.0f} msg/s, "
        f"columnar {throughput['columnar']:,.0f} msg/s ({speedup:.2f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"columnar engine only {speedup:.2f}x over indexed on targeted "
        f"traffic (required {MIN_SPEEDUP}x)"
    )
    assert throughput["columnar"] >= MIN_MSGS_PER_SEC, (
        f"columnar throughput {throughput['columnar']:,.0f} msg/s below the "
        f"{MIN_MSGS_PER_SEC:,.0f} floor"
    )
