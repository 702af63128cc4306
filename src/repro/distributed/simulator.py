"""Synchronous round simulator for the pluggable communication-model layer.

The simulator executes one :class:`~repro.distributed.program.NodeProgram`
instance per vertex of a communication graph, in lock-step rounds.  It is the
"simple round simulator" substrate on which every distributed algorithm in
this reproduction runs, and it is also the measurement instrument: it counts
rounds, messages, bits, bandwidth violations and (optionally) the bits
crossing a designated vertex cut — the quantity the paper's two-party
lower-bound reductions charge to Alice and Bob.

Which links exist, how many bits they carry per round and which send
patterns are admitted is owned by a
:class:`~repro.distributed.models.CommunicationModel` policy object (LOCAL,
CONGEST, broadcast-CONGEST or Congested Clique).  Overlay models (the
clique) decouple the *communication* topology from the input graph: messages
travel on a virtual complete graph while programs still compute on the input
graph exposed as ``ctx.graph_neighbors``.

Three engines share the public API and produce identical results:

* ``indexed`` — runs on the model's compiled communication
  topology (:meth:`~repro.distributed.models.CommunicationModel.communication_topology`):
  contexts and programs live in dense lists, an active-set scheduler skips
  halted vertices, inboxes are materialised only for vertices with pending
  traffic, per-link bandwidth accounting uses a preallocated
  :class:`~repro.distributed.metrics.LinkLedger` indexed by CSR arc
  position, and message sizes are measured once per distinct payload object
  per round (:class:`~repro.distributed.encoding.BitsMemo`).
* ``columnar`` (default) — the flat-array engine
  (:mod:`repro.distributed.columnar`).  Broadcast rounds exploit the
  broadcast-admission invariant (one identical payload per sender per
  round): each sender's payload is interned once and sized from a
  run-lifetime :class:`~repro.distributed.encoding.PayloadSizeTable`,
  accounting reduces over preallocated per-node count columns (NumPy
  kernels) into one :class:`~repro.distributed.metrics.RoundTally` flush per round,
  and fault-free delivery hands each receiver a lazy CSR-backed inbox view
  instead of building dicts.  Runs of an opted-in
  :class:`~repro.distributed.vectorize.VectorProgram` lower whole rounds
  to array kernels over the same accounting.  Rounds with targeted traffic
  take the targeted fast path (:mod:`repro.distributed.targeted`).
  Bit-for-bit identical to ``indexed`` for any program, including under
  every adversary.
* ``reference`` — the original dict-of-dicts engine, kept as the
  differential-testing oracle and as the baseline the throughput benchmark
  (E16) measures speedups against.

Fault injection composes orthogonally with both the models and the engines:
an :class:`~repro.distributed.adversary.Adversary` policy may destroy
admitted messages in flight (drops, throttling) or crash-stop nodes.  All
engines share one delivery-filter seam — the filter is consulted per
message after send-side accounting and before inbox insertion, plus once
per round before programs execute (crash schedules force-halt there) — so
engine-to-engine bit-for-bit equality holds *under the same adversary*,
and a ``None``/:class:`~repro.distributed.adversary.NoAdversary` adversary
leaves every hot path untouched.  Payload-transforming filters
(``filt.transforms``, e.g. the corruption adversary) additionally disable
the shared-payload-by-reference broadcast fan-out: each engine detects the
flag once per run and materializes per-edge payloads, calling
``filt.transform`` between the delivery decision and the receiver-liveness
check at every seam.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.distributed.adversary import Adversary, DeliveryFilter
from repro.distributed.columnar import BroadcastAccounting, build_columnar_collect
from repro.distributed.encoding import BitsMemo, congest_budget_bits
from repro.distributed.errors import BandwidthExceededError, RoundLimitExceededError
from repro.distributed.metrics import LinkLedger, Metrics, flush_round_tally
from repro.distributed.models import CommunicationModel, LocalModel, Model, ModelConfig
from repro.distributed.node import NodeContext
from repro.distributed.program import NodeProgram
from repro.distributed.vectorize import EngineView, try_lower
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph

Node = Hashable
ProgramFactory = Callable[[Node], NodeProgram]

ENGINES = ("indexed", "columnar", "reference")

#: The engine every ``engine=`` parameter and experiment runner defaults to.
DEFAULT_ENGINE = "columnar"


@dataclass
class RunResult:
    """Outcome of one simulation: per-node outputs plus communication metrics."""

    outputs: dict[Node, Any]
    metrics: Metrics
    completed: bool

    @property
    def rounds(self) -> int:
        """Number of synchronous rounds the simulation executed."""
        return self.metrics.rounds

    def as_dict(self) -> dict[str, Any]:
        """Summary of the run for benchmarks and reports.

        Per-node outputs are summarised (not embedded) so the dictionary is
        small enough for ``pytest-benchmark`` extra-info records.
        """
        return {
            "completed": self.completed,
            "rounds": self.rounds,
            "nodes": len(self.outputs),
            "outputs_set": sum(1 for v in self.outputs.values() if v is not None),
            "metrics": self.metrics.as_dict(),
        }


class Simulator:
    """Runs a node program on every vertex of a communication graph.

    Parameters
    ----------
    graph:
        The input graph.  For a :class:`~repro.graphs.DiGraph` the
        *communication* links are bidirectional (as in the paper, Section
        1.5), i.e. a node can message both in- and out-neighbours.  Overlay
        models (Congested Clique) communicate over a virtual complete graph
        instead, while programs keep computing on this input graph.
    program_factory:
        Called once per vertex to create that vertex's program instance.
    model:
        A :class:`~repro.distributed.models.CommunicationModel` policy
        (default LOCAL): bandwidth budget, admission rules, topology.
    seed:
        Seeds the per-node private randomness deterministically.
    cut:
        Optional set of vertices forming "Alice's side"; bits of messages
        crossing between this set and its complement are tallied separately
        (used by the lower-bound reduction harness).
    engine:
        ``"columnar"`` (the flat-array engine with NumPy kernels,
        default), ``"indexed"`` (the compiled-topology engine) or
        ``"reference"``
        (the original dict-based engine).  All engines produce identical
        outputs and metrics for a fixed seed, for broadcast and targeted
        traffic alike; the only send restriction is the *semantic* one —
        broadcast-only models reject ``ctx.send`` on every engine.
    streaming_metrics:
        When true, run with ``Metrics(streaming=True)``: the
        ``bits_per_round`` history is capped (oldest buckets evicted into
        a running peak) while every scalar counter stays exact — intended
        for mega-scale runs where an O(rounds) history is unwelcome.
        Default off, preserving the golden-run dictionaries.
    adversary:
        Optional :class:`~repro.distributed.adversary.Adversary` fault
        policy (drops, crash-stop schedules, throttling).  ``None`` or
        :class:`~repro.distributed.adversary.NoAdversary` installs no
        delivery filter at all — byte-for-byte the fault-free behaviour.
        Fault decisions depend only on ``(round, src, dst)`` and the
        simulator seed, so the engine-parity contract extends to faulty
        runs: all engines agree bit-for-bit under the same adversary.
    vectorize:
        Whether the columnar engine may lower whole rounds to array
        kernels (:mod:`repro.distributed.vectorize`) when every program
        instance is the same opted-in
        :class:`~repro.distributed.vectorize.VectorProgram` class and the
        run admits it (non-transforming adversary, exact-``int`` labels).
        Lowered runs are bit-for-bit identical to stepped runs; the knob
        (default on) exists so benchmarks and the E23 physics twins can
        force the stepped path.  ``lowered`` reports, after ``run()``,
        whether lowering actually engaged, and ``lowering`` why:
        ``"lowered"``, ``"vectorize off"``, or the refusal reason of
        :func:`~repro.distributed.vectorize.try_lower` (``None`` on the
        engines that never lower).
    """

    __slots__ = (
        "graph",
        "program_factory",
        "model",
        "seed",
        "cut",
        "engine",
        "adversary",
        "streaming_metrics",
        "vectorize",
        "lowered",
        "lowering",
        "topology",
    )

    def __init__(
        self,
        graph: Graph | DiGraph,
        program_factory: ProgramFactory,
        model: CommunicationModel | None = None,
        seed: int | None = None,
        cut: Iterable[Node] | None = None,
        engine: str = DEFAULT_ENGINE,
        adversary: Adversary | None = None,
        streaming_metrics: bool = False,
        vectorize: bool = True,
    ) -> None:
        if engine not in ENGINES:
            retired = " (batch was retired: use 'columnar')" if engine == "batch" else ""
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}{retired}"
            )
        self.graph = graph
        self.program_factory = program_factory
        self.model = model if model is not None else LocalModel(graph.number_of_nodes())
        self.seed = seed
        self.cut = set(cut) if cut is not None else None
        self.engine = engine
        self.adversary = adversary
        self.streaming_metrics = streaming_metrics
        self.vectorize = vectorize
        self.lowered = False
        self.lowering: str | None = None
        self.topology = self.model.communication_topology(graph)

    def _new_metrics(self) -> Metrics:
        """Fresh metrics block for one run, honouring ``streaming_metrics``.

        The single construction point for all three engines, so the
        streaming knob can never apply to one engine and not another.
        """
        return Metrics(streaming=True) if self.streaming_metrics else Metrics()

    def _bind_adversary(self, metrics: Metrics) -> DeliveryFilter | None:
        """Seed fault counters and build this run's delivery filter (or None).

        The one place all three engines obtain their filter, so the
        "no adversary == untouched hot path" rule can never diverge
        between them.
        """
        adversary = self.adversary
        if adversary is None or adversary.is_null:
            return None
        adversary.init_metrics(metrics)
        return adversary.bind(self.seed, metrics)

    # --------------------------------------------------------------------- run
    def run(self, max_rounds: int = 10_000, raise_on_limit: bool = True) -> RunResult:
        """Execute the program until every node halts or ``max_rounds`` elapse."""
        # Re-derive the communication topology so a graph mutated between
        # construction and run() is observed identically by both engines
        # (freeze() is cached when the graph is unchanged).
        self.topology = self.model.communication_topology(self.graph)
        self.lowered = False
        self.lowering = None
        if self.engine == "reference":
            return self._run_reference(max_rounds, raise_on_limit)
        if self.engine == "columnar":
            return self._run_columnar(max_rounds, raise_on_limit)
        return self._run_indexed(max_rounds, raise_on_limit)

    def _drive(
        self,
        contexts: list[NodeContext],
        programs: list[NodeProgram],
        collect: Callable[[Iterable[int]], list[dict[Node, list[Any]] | None]],
        metrics: Metrics,
        max_rounds: int,
        raise_on_limit: bool,
        filt: DeliveryFilter | None = None,
    ) -> list[int]:
        """The shared round loop of the list-indexed engines.

        Runs ``on_start`` on every program, then alternates program rounds
        with ``collect`` (which drains the queued traffic of the given
        senders and returns sparse inboxes) until every node halts.  An
        active adversary filter sees each round begin before any program
        executes (crash schedules force-halt contexts there, which the loop
        then skips).  Returns the final active set (empty iff the run
        completed).
        """
        n = len(contexts)
        for i in range(n):
            programs[i].on_start(contexts[i])

        # Bind the round handlers once: the loop below runs n times per round
        # at E23 scale and the repeated method lookup is measurable.
        handlers = [program.on_round for program in programs]
        pending = collect(range(n))
        active = [i for i in range(n) if not contexts[i].halted]

        while active:
            if metrics.rounds >= max_rounds:
                if raise_on_limit:
                    raise RoundLimitExceededError(
                        f"simulation exceeded {max_rounds} rounds"
                    )
                break
            metrics.start_round()
            current_round = metrics.rounds
            if filt is not None:
                filt.on_round_begin(current_round, (contexts[i] for i in active))
            for i in active:
                ctx = contexts[i]
                if ctx.halted:
                    continue  # crash-stopped at the top of this round
                ctx.round = current_round
                inbox = pending[i]
                handlers[i](ctx, inbox if inbox is not None else {})
            pending = collect(active)
            active = [i for i in active if not contexts[i].halted]
        return active

    def _build_programs(self) -> list[NodeProgram]:
        """One program instance per vertex, in compiled-topology index order."""
        factory = self.program_factory
        return [factory(label) for label in self.topology.labels]

    def _graph_sets(self) -> list[frozenset[Node]] | None:
        """Input-graph neighbour sets under overlay models, else ``None``.

        Overlay models expose the input graph's adjacency separately from
        the communication links; overlay labels reuse ``graph.freeze()``
        order, hence the index spaces coincide.
        """
        if not self.model.uses_overlay:
            return None
        graph_topo = self.graph.freeze()
        return [graph_topo.neighbor_label_set(i) for i in range(self.topology.n)]

    def _build_contexts(
        self, graph_sets: list[frozenset[Node]] | None
    ) -> tuple[list[NodeContext], list[bool] | None]:
        """Seed RNGs and build the per-node contexts of the list-indexed engines.

        Shared by the indexed and columnar engines so that the master-RNG
        consumption order and the context wiring can never diverge between
        them (the bit-for-bit engine-parity contract depends on both).
        Programs are built separately (:meth:`_build_programs`): the columnar
        engine decides lowering from them before any context exists.

        Columnar contexts collect traffic in batch form and additionally
        share one targeted-traffic signal cell (returned as the second
        element): ``ctx.send`` flags it, so the engine learns in O(1)
        whether a round needs the targeted collection path — pure-broadcast
        rounds never pay a per-sender scan.
        """
        topo = self.topology
        model = self.model
        n = topo.n
        labels = topo.labels
        master = random.Random(self.seed)
        node_seeds = [master.randrange(2**63) for _ in range(n)]

        broadcast_only = model.broadcast_only
        model_name = model.name
        batch = self.engine == "columnar"
        tsignal: list[bool] | None = [False] if batch else None

        contexts: list[NodeContext] = []
        for i in range(n):
            ctx = NodeContext(
                node_id=labels[i],
                neighbors=topo.neighbor_label_set(i),
                n=n,
                rng=node_seeds[i],
                graph_neighbors=graph_sets[i] if graph_sets is not None else None,
                broadcast_only=broadcast_only,
                batch=batch,
                engine_label=self.engine,
                model_name=model_name,
            )
            if tsignal is not None:
                ctx._t_signal = tsignal
            contexts.append(ctx)
        return contexts, tsignal

    # -------------------------------------------------------- indexed engine
    def _run_indexed(self, max_rounds: int, raise_on_limit: bool) -> RunResult:
        topo = self.topology
        model = self.model
        n = topo.n
        labels = topo.labels
        programs = self._build_programs()
        graph_sets = self._graph_sets()
        contexts, _ = self._build_contexts(graph_sets)

        metrics = self._new_metrics()
        model.init_metrics(metrics)
        filt = self._bind_adversary(metrics)
        memo = BitsMemo()
        budget = model.bandwidth_bits
        # Per-link running totals, indexed by CSR arc position, zeroed in
        # O(messages) between rounds.
        ledger = LinkLedger(topo.arc_count) if budget is not None else None

        def collect(sender_ids: Iterable[int]) -> list[dict[Node, list[Any]] | None]:
            return self._collect_indexed(
                contexts, sender_ids, metrics, memo, budget, ledger, graph_sets, filt
            )

        active = self._drive(
            contexts, programs, collect, metrics, max_rounds, raise_on_limit, filt
        )
        outputs = {labels[i]: contexts[i].output for i in range(n)}
        return RunResult(outputs=outputs, metrics=metrics, completed=not active)

    def _collect_indexed(
        self,
        contexts: list[NodeContext],
        sender_ids: Iterable[int],
        metrics: Metrics,
        memo: BitsMemo,
        budget: int | None,
        ledger: LinkLedger | None,
        graph_sets: list[frozenset[Node]] | None,
        filt: DeliveryFilter | None,
    ) -> list[dict[Node, list[Any]] | None]:
        """Drain outboxes, apply bandwidth accounting and build sparse inboxes."""
        topo = self.topology
        labels = topo.labels
        index = topo.index
        cut = self.cut
        if ledger is not None:
            link_bits, touched = ledger.bits, ledger.touched
        else:
            link_bits, touched = None, None
        count_broadcasts = self.model.broadcast_only
        transforms = filt is not None and filt.transforms
        inboxes: list[dict[Node, list[Any]] | None] = [None] * topo.n

        messages = 0
        bits_total = 0
        max_bits = metrics.max_message_bits
        cut_messages = 0
        cut_bits = 0
        violations = 0
        broadcast_payloads = 0
        virtual_messages = 0

        def flush() -> None:
            flush_round_tally(
                metrics, messages, bits_total, max_bits, cut_messages,
                cut_bits, violations, broadcast_payloads, virtual_messages,
            )

        for src_i in sender_ids:
            outbox = contexts[src_i]._outbox
            if not outbox:
                continue
            contexts[src_i]._outbox = []
            src = labels[src_i]
            src_in_cut = cut is not None and src in cut
            if count_broadcasts:
                broadcast_payloads += 1
            src_graph_set = graph_sets[src_i] if graph_sets is not None else None
            for dst, payload in outbox:
                bits = memo.measure(payload)
                messages += 1
                bits_total += bits
                if bits > max_bits:
                    max_bits = bits
                if cut is not None and (src_in_cut != (dst in cut)):
                    cut_messages += 1
                    cut_bits += bits
                if src_graph_set is not None and dst not in src_graph_set:
                    virtual_messages += 1
                dst_i = index[dst]
                if budget is not None:
                    pos = topo.arc_position(src_i, dst_i)
                    if not link_bits[pos]:
                        touched.append(pos)
                    link_bits[pos] += bits
                    if link_bits[pos] > budget:
                        violations += 1
                        if self.model.enforce:
                            flush()
                            raise BandwidthExceededError(
                                f"message(s) on link {src!r}->{dst!r} use "
                                f"{link_bits[pos]} bits, budget is {budget} "
                                f"({self.model.name})"
                            )
                # Adversary seam: the sender has been fully charged by now;
                # a destroyed message only skips inbox insertion, and a
                # transforming filter rewrites the payload in flight.
                # Deliver, then transform, then receiver liveness — the
                # canonical order in every engine, so fault counters agree
                # engine-to-engine.
                if filt is not None:
                    if not filt.deliver(src, dst, bits):
                        continue
                    if transforms:
                        payload = filt.transform(src, dst, payload, bits)
                if contexts[dst_i].halted:
                    continue
                box = inboxes[dst_i]
                if box is None:
                    box = inboxes[dst_i] = {}
                payloads = box.get(src)
                if payloads is None:
                    box[src] = [payload]
                else:
                    payloads.append(payload)

        flush()
        memo.reset()
        if ledger is not None:
            ledger.reset_round()
        return inboxes

    # ------------------------------------------------------- columnar engine
    def _run_columnar(self, max_rounds: int, raise_on_limit: bool) -> RunResult:
        """Flat-array mega-scale engine (see :mod:`repro.distributed.columnar`).

        Same shell as the indexed engine — shared context construction,
        shared round loop, shared adversary binding — with one
        :class:`~repro.distributed.columnar.BroadcastAccounting` built per
        run: the broadcast columns and the accounting kernel both round
        drivers charge every collection pass through.  A lowerable run
        executes as whole-round kernels
        (:func:`~repro.distributed.vectorize.try_lower`, decided from the
        programs before any context exists; fault-free lowered runs build
        none and report the view's output column); otherwise the
        per-round collection pass is the stepped columnar collect
        (:func:`~repro.distributed.columnar.build_columnar_collect`): a
        run-lifetime payload size table and lazy CSR-backed inbox views in
        place of per-delivery dict inserts, with rounds of targeted traffic
        delegated to the targeted fast path
        (:func:`~repro.distributed.targeted.build_targeted_collect`).
        Bit-for-bit identical to the indexed engine for every program under
        every communication model and adversary.
        """
        labels = self.topology.labels
        programs = self._build_programs()
        graph_sets = self._graph_sets()

        metrics = self._new_metrics()
        self.model.init_metrics(metrics)
        filt = self._bind_adversary(metrics)

        accounting = BroadcastAccounting(self, metrics, graph_sets, filt)
        # Program lowering (the E23 fast path): when every program is the
        # same opted-in VectorProgram class and the run admits it, whole
        # rounds execute as array kernels with zero per-node Python calls —
        # bit-for-bit identical to the stepped path below.  ``lowered``
        # records the decision for callers (benchmarks, the E23 twins) and
        # ``lowering`` its reason.
        # The decision comes before any per-node context exists: a
        # fault-free lowered run never builds one, and its outputs are the
        # view's output column.
        decision = (
            try_lower(accounting, programs) if self.vectorize else "vectorize off"
        )
        lowered = decision if isinstance(decision, EngineView) else None
        self.lowered = lowered is not None
        self.lowering = "lowered" if self.lowered else decision
        if lowered is not None:
            if filt is not None:
                # The filter's round hook halts *contexts* (crash schedules).
                lowered.contexts, _ = self._build_contexts(graph_sets)
            active = lowered.execute(max_rounds, raise_on_limit)
            outputs = dict(zip(labels, lowered.outputs))
        else:
            contexts, tsignal = self._build_contexts(graph_sets)
            collect = build_columnar_collect(accounting, contexts, tsignal)
            active = self._drive(
                contexts, programs, collect, metrics, max_rounds, raise_on_limit, filt
            )
            outputs = {label: ctx.output for label, ctx in zip(labels, contexts)}
        return RunResult(outputs=outputs, metrics=metrics, completed=not active)

    # ------------------------------------------------------ reference engine
    def _run_reference(self, max_rounds: int, raise_on_limit: bool) -> RunResult:
        """The original dict-based engine, kept as the differential oracle."""
        model = self.model
        nodes = list(self.graph.nodes())
        n = len(nodes)
        neighbors = model.reference_neighbors(self.graph)
        master = random.Random(self.seed)
        node_seeds = {v: master.randrange(2**63) for v in nodes}

        graph_neighbors: dict[Node, frozenset[Node]] | None = None
        if model.uses_overlay:
            graph_topo = self.graph.freeze()
            graph_neighbors = {
                v: graph_topo.neighbor_label_set(graph_topo.index[v]) for v in nodes
            }
        broadcast_only = model.broadcast_only

        contexts: dict[Node, NodeContext] = {}
        programs: dict[Node, NodeProgram] = {}
        for v in nodes:
            contexts[v] = NodeContext(
                node_id=v,
                neighbors=neighbors[v],
                n=n,
                rng=random.Random(node_seeds[v]),
                graph_neighbors=graph_neighbors[v] if graph_neighbors is not None else None,
                broadcast_only=broadcast_only,
                engine_label="reference",
                model_name=model.name,
            )
            programs[v] = self.program_factory(v)

        metrics = self._new_metrics()
        model.init_metrics(metrics)
        filt = self._bind_adversary(metrics)
        for v in nodes:
            programs[v].on_start(contexts[v])

        pending = self._collect_messages(contexts, metrics, graph_neighbors, filt)
        completed = all(ctx.halted for ctx in contexts.values())

        while not completed:
            if metrics.rounds >= max_rounds:
                if raise_on_limit:
                    raise RoundLimitExceededError(
                        f"simulation exceeded {max_rounds} rounds"
                    )
                break
            metrics.start_round()
            if filt is not None:
                filt.on_round_begin(
                    metrics.rounds,
                    (ctx for ctx in contexts.values() if not ctx.halted),
                )
            for v in nodes:
                ctx = contexts[v]
                if ctx.halted:
                    continue
                ctx.round = metrics.rounds
                inbox = pending.get(v, {})
                programs[v].on_round(ctx, inbox)
            pending = self._collect_messages(contexts, metrics, graph_neighbors, filt)
            completed = all(ctx.halted for ctx in contexts.values())

        outputs = {v: contexts[v].output for v in nodes}
        return RunResult(outputs=outputs, metrics=metrics, completed=completed)

    def _collect_messages(
        self,
        contexts: dict[Node, NodeContext],
        metrics: Metrics,
        graph_neighbors: dict[Node, frozenset[Node]] | None = None,
        filt: DeliveryFilter | None = None,
    ) -> dict[Node, dict[Node, list[Any]]]:
        """Reference-engine collection: per-link dicts rebuilt every round."""
        inboxes: dict[Node, dict[Node, list[Any]]] = {}
        budget = self.model.bandwidth_bits
        count_broadcasts = self.model.broadcast_only
        per_link_bits: dict[tuple[Node, Node], int] = {}
        # One identity-keyed memo per delivery pass (exactly the BitsMemo
        # validity window): a broadcast payload queued deg times is sized once.
        measure = BitsMemo().measure
        transforms = filt is not None and filt.transforms

        for src, ctx in contexts.items():
            outbox = ctx._drain_outbox()
            if outbox and count_broadcasts:
                metrics.bump("broadcast_payloads")
            src_graph_set = graph_neighbors[src] if graph_neighbors is not None else None
            for dst, payload in outbox:
                bits = measure(payload)
                crosses = self.cut is not None and ((src in self.cut) != (dst in self.cut))
                metrics.record_message(bits, crosses)
                if src_graph_set is not None and dst not in src_graph_set:
                    metrics.bump("virtual_link_messages")
                if budget is not None:
                    link = (src, dst)
                    per_link_bits[link] = per_link_bits.get(link, 0) + bits
                    if per_link_bits[link] > budget:
                        metrics.bandwidth_violations += 1
                        if self.model.enforce:
                            raise BandwidthExceededError(
                                f"message(s) on link {src!r}->{dst!r} use "
                                f"{per_link_bits[link]} bits, budget is {budget} "
                                f"({self.model.name})"
                            )
                if filt is not None:
                    if not filt.deliver(src, dst, bits):
                        continue
                    if transforms:
                        payload = filt.transform(src, dst, payload, bits)
                if contexts[dst].halted:
                    continue
                inboxes.setdefault(dst, {}).setdefault(src, []).append(payload)
        return inboxes


def run_program(
    graph: Graph | DiGraph,
    program_factory: ProgramFactory,
    model: CommunicationModel | None = None,
    seed: int | None = None,
    max_rounds: int = 10_000,
    cut: Iterable[Node] | None = None,
    engine: str = DEFAULT_ENGINE,
    adversary: Adversary | None = None,
    streaming_metrics: bool = False,
    vectorize: bool = True,
) -> RunResult:
    """Convenience wrapper: build a :class:`Simulator` and run it once."""
    sim = Simulator(
        graph,
        program_factory,
        model=model,
        seed=seed,
        cut=cut,
        engine=engine,
        adversary=adversary,
        streaming_metrics=streaming_metrics,
        vectorize=vectorize,
    )
    return sim.run(max_rounds=max_rounds)


def congest_overhead_report(result: RunResult, n: int, logn_factor: int = 32) -> dict[str, float]:
    """How far a run's messages exceed the CONGEST budget.

    The paper notes (Section 1.3) that a direct CONGEST implementation of the
    2-spanner algorithm incurs an O(Delta) overhead; this helper quantifies
    the measured ratio ``max_message_bits / budget`` for a LOCAL run.
    """
    budget = congest_budget_bits(n, logn_factor)
    return {
        "budget_bits": float(budget),
        "max_message_bits": float(result.metrics.max_message_bits),
        "overhead_factor": result.metrics.max_message_bits / budget if budget else float("inf"),
    }


__all__ = [
    "ENGINES",
    "Model",
    "ModelConfig",
    "RunResult",
    "Simulator",
    "congest_overhead_report",
    "run_program",
]
