"""Flood-max: leader election by broadcast flooding of the maximum label.

The canonical broadcast-CONGEST workload (Lynch, *Distributed Algorithms*,
Section 4.1): every vertex repeatedly broadcasts the largest node identifier
it has heard of; after ``R`` rounds each vertex knows the maximum label in
its ``R``-hop neighbourhood, and for ``R >=`` diameter the whole graph
agrees on one leader.  Messages are single integer labels, comfortably
inside the O(log n)-bit broadcast-CONGEST budget, and every node broadcasts
every round — which makes this the densest pure-broadcast traffic pattern
the simulator can produce and therefore the E23 scale workload for the
stepped and lowered ``columnar`` engine.

Two variants ship: the classic fixed-round-budget :class:`FloodMaxProgram`
(assumes reliable links) and the retransmitting
:class:`RobustFloodMaxProgram`, which provably terminates under arbitrary
message loss and is the E19 robustness workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import countOf
from typing import Any

from repro.distributed.adversary import Adversary
from repro.distributed.models import CommunicationModel, broadcast_congest_model
from repro.distributed.node import NodeContext
from repro.distributed.program import Inbox, Node, NodeProgram
from repro.distributed.simulator import DEFAULT_ENGINE, Simulator
from repro.distributed.vectorize import EngineView, MaxFloodKernel, VectorProgram


@dataclass
class FloodMaxResult:
    """Outcome of a flood-max run: leader (if agreed), convergence, metrics."""

    leader: Any
    converged: bool
    rounds: int
    metrics: Any
    node_outputs: dict[Node, Any] = field(repr=False, default_factory=dict)


class FloodMaxProgram(VectorProgram, NodeProgram):
    """Per-vertex program: broadcast the largest label heard, for ``rounds`` rounds.

    The round budget is part of the program (every node halts after the same
    round), so termination needs no extra communication; correctness of the
    elected leader requires ``rounds >=`` the graph's diameter.

    The round handler folds the inbox's payload lists directly instead of
    going through :class:`~repro.distributed.program.BroadcastNodeProgram`'s
    per-sender ``heard`` dict: this program is the E23 throughput workload,
    and the engines under test should dominate the wall time, not the
    program.
    """

    __slots__ = ("best", "rounds")

    def __init__(self, node: Node, rounds: int) -> None:
        self.best = node
        self.rounds = rounds

    def on_start(self, ctx: NodeContext) -> None:
        """Broadcast my own label (round-0 traffic, delivered in round 1)."""
        if self.rounds > 0:
            ctx.broadcast(self.best)
        else:
            ctx.set_output(self.best)
            ctx.halt()

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        """Fold the neighbours' broadcasts into my maximum; halt after the budget."""
        best = self.best
        if inbox.__class__ is dict:
            if inbox:
                # One C-level max over the flattened payload lists:
                # measurably cheaper than a nested Python loop at E23
                # message volumes.
                heard = max(chain.from_iterable(inbox.values()))
                if heard > best:
                    best = heard
        else:
            # Columnar inbox view: push the fold into the engine, which
            # runs it over the round's flat payload column.  Identical
            # result to the dict branch (the engine-parity tests pin this).
            best = inbox.max_heard(best)
        self.best = best
        if ctx.round >= self.rounds:
            ctx.set_output(best)
            ctx.halt()
            return
        ctx.broadcast(best)

    @classmethod
    def vector_kernel(cls, probe, view: EngineView) -> MaxFloodKernel | None:
        """Lower a fixed-budget flood-max run to the max-fold kernel."""
        if cls is not FloodMaxProgram:
            return None
        return MaxFloodKernel(rounds=probe.rounds)


def run_flood_max(
    graph,
    rounds: int,
    model: CommunicationModel | None = None,
    seed: int | None = None,
    engine: str = DEFAULT_ENGINE,
    max_rounds: int = 10_000,
    adversary: Adversary | None = None,
    streaming_metrics: bool = False,
    vectorize: bool = True,
) -> FloodMaxResult:
    """Run flood-max and report whether the network agreed on one leader.

    ``model`` defaults to an enforcing broadcast-CONGEST policy (integer
    labels always fit the budget); ``engine`` selects the simulator engine —
    the workload is pure broadcast, so all three engines accept it.  An
    ``adversary`` injects faults; the fixed round budget then may no longer
    cover the effective diameter, so check ``converged`` (or use
    :func:`run_robust_flood_max`, which retransmits until locally stable).
    ``streaming_metrics`` opts mega-scale runs into the bounded
    ``bits_per_round`` history (scalar counters stay exact).  ``vectorize``
    (columnar engine only) permits whole-round program lowering; pass False
    to force the stepped per-node path, e.g. for lowered-vs-stepped twins.
    """
    n = graph.number_of_nodes()
    model = model if model is not None else broadcast_congest_model(n)
    sim = Simulator(
        graph,
        partial(FloodMaxProgram, rounds=rounds),
        model=model,
        seed=seed,
        engine=engine,
        adversary=adversary,
        streaming_metrics=streaming_metrics,
        vectorize=vectorize,
    )
    run = sim.run(max_rounds=max_rounds)
    return _summarise(run)


def _summarise(run) -> FloodMaxResult:
    """Fold a flood-max :class:`RunResult` into the leader/convergence record."""
    # One equality scan instead of a set build: converged runs share their
    # output object (the lowered kernels retire a leader once), so almost
    # every comparison is an identity hit.
    values = run.outputs.values()
    first = next(iter(values), None)
    converged = bool(values) and countOf(values, first) == len(values)
    return FloodMaxResult(
        leader=first if converged else None,
        converged=converged,
        rounds=run.rounds,
        metrics=run.metrics,
        node_outputs=run.outputs,
    )


class RobustFloodMaxProgram(VectorProgram, NodeProgram):
    """Retransmitting flood-max: broadcast until locally stable for ``patience``.

    The fixed-budget :class:`FloodMaxProgram` assumes reliable links: it
    stops after exactly ``rounds`` rounds, so a single lost message can
    leave a vertex behind forever.  This variant *retransmits* — every node
    broadcasts its current best every round — and halts only after its best
    has been stable for ``patience`` consecutive rounds.

    Termination is unconditional (and therefore holds under any message
    loss): a node's best value strictly increases at most ``n - 1`` times,
    and between increases at most ``patience`` rounds can pass before the
    node halts, so every node halts within ``n * patience + 1`` rounds
    (:func:`robust_flood_max_round_bound`) — message loss only *removes*
    increases and hence only speeds termination up.  Correctness degrades
    gracefully instead: with reliable links and ``patience >=`` diameter the
    elected leader is exact, and under i.i.d. link loss at rate ``p`` a
    frontier link must fail ``patience`` consecutive times to stall the
    wave — per-link failure probability ``p**patience``, so losses are
    absorbed by modestly raising ``patience``.  The ``converged`` flag of
    the result reports whether agreement was actually reached.
    """

    def __init__(self, node: Node, patience: int) -> None:
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience!r}")
        self.best = node
        self.patience = patience
        self.stable = 0

    def on_start(self, ctx: NodeContext) -> None:
        """Broadcast my own label (round-0 traffic, delivered in round 1)."""
        ctx.broadcast(self.best)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        """Fold broadcasts into my maximum; halt after ``patience`` quiet rounds."""
        best = self.best
        for payloads in inbox.values():
            for value in payloads:
                if value > best:
                    best = value
        if best > self.best:
            self.best = best
            self.stable = 0
        else:
            self.stable += 1
        if self.stable >= self.patience:
            ctx.set_output(self.best)
            ctx.halt()
            return
        ctx.broadcast(best)

    @classmethod
    def vector_kernel(cls, probe, view: EngineView) -> MaxFloodKernel | None:
        """Lower a retransmitting flood-max run to the max-fold kernel.

        Subclasses (:class:`~repro.core.robust_coding.RedundantFloodMaxProgram`,
        :class:`~repro.core.robust_coding.CodedFloodMaxProgram`) change the wire
        format and fold semantics, so lowering is pinned to this exact class —
        subclasses must opt in with their own kernel or fall back to stepping.
        """
        if cls is not RobustFloodMaxProgram:
            return None
        return MaxFloodKernel(patience=probe.patience)


def robust_flood_max_round_bound(n: int, patience: int) -> int:
    """Worst-case round count of :class:`RobustFloodMaxProgram`.

    Every node halts within ``n * patience + 1`` rounds regardless of
    message delivery: at most ``n - 1`` best-value increases, at most
    ``patience`` rounds between an increase and the next increase or halt,
    plus the round-0 start-up slack.
    """
    return n * patience + 1


def run_robust_flood_max(
    graph,
    patience: int,
    model: CommunicationModel | None = None,
    seed: int | None = None,
    engine: str = DEFAULT_ENGINE,
    adversary: Adversary | None = None,
    max_rounds: int | None = None,
    vectorize: bool = True,
) -> FloodMaxResult:
    """Run the retransmitting flood-max variant; terminates under any faults.

    ``max_rounds`` defaults to :func:`robust_flood_max_round_bound` — the
    provable worst case, so a fault-injected run can never trip the round
    limit.  ``converged`` is False when any two nodes disagree *or* any node
    has no output (e.g. it was crash-stopped before halting); callers that
    tolerate crashes should inspect ``node_outputs`` for survivor agreement.
    """
    n = graph.number_of_nodes()
    model = model if model is not None else broadcast_congest_model(n)
    if max_rounds is None:
        max_rounds = robust_flood_max_round_bound(n, patience)
    sim = Simulator(
        graph,
        partial(RobustFloodMaxProgram, patience=patience),
        model=model,
        seed=seed,
        engine=engine,
        adversary=adversary,
        vectorize=vectorize,
    )
    return _summarise(sim.run(max_rounds=max_rounds))


__all__ = [
    "FloodMaxProgram",
    "FloodMaxResult",
    "RobustFloodMaxProgram",
    "robust_flood_max_round_bound",
    "run_flood_max",
    "run_robust_flood_max",
]
