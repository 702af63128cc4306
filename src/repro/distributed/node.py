"""Per-node execution context handed to node programs by the simulator."""

from __future__ import annotations

import random
from collections.abc import Hashable
from typing import TYPE_CHECKING, Any

from repro.distributed.errors import MessageAdmissionError, NotANeighborError

if TYPE_CHECKING:
    from repro.graphs.topology import CompiledTopology

Node = Hashable


class SendColumns:
    """One run's shared send state, written by its contexts.

    ``pays`` and ``sent`` are the outgoing broadcast columns, indexed by
    the context's node index: ``ctx.broadcast`` stores the payload and sets
    the flag byte, and the columnar engine copies both into its round state
    once per collection pass (two C-level slice copies) instead of visiting
    every sender.  ``targeted`` and ``halted`` are one-element signal
    cells: ``ctx.send`` flags the first, so the engine learns in O(1)
    whether a round needs the targeted collection path, and ``ctx.halt``
    flags the second, so the round loop rebuilds its active list only after
    some node halted.  Contexts built outside an engine get a private
    one-node instance.
    """

    __slots__ = ("pays", "sent", "targeted", "halted")

    def __init__(self, n: int) -> None:
        self.pays: list[Any] = [0] * n
        self.sent = bytearray(n)
        self.targeted = [False]
        self.halted = [False]


class NodeContext:
    """Everything a vertex may legitimately use in its communication model.

    A node initially knows: its own identifier, the identifiers of its
    input-graph neighbours (``graph_neighbors``), the identifiers of the
    vertices it may *message* (``neighbors`` — identical to
    ``graph_neighbors`` except under overlay models such as the Congested
    Clique, where every other vertex is reachable), the number of vertices
    ``n`` (the standard polynomial upper bound assumption), and a private
    source of randomness.  All other knowledge must arrive through messages.

    Under a broadcast-only model (broadcast-CONGEST) targeted sends are
    rejected and at most one broadcast per round is admitted.  That is the
    only *semantic* send restriction; it belongs to the communication
    model.  The ``columnar`` engine adds one restriction of its own: it
    admits one broadcast per node per round under every model, so a program
    that broadcasts twice in a round under LOCAL runs on ``indexed`` and
    ``reference`` (which deliver both payloads) but raises
    :class:`~repro.distributed.errors.MessageAdmissionError` on ``columnar``.

    Under the batch-collecting ``columnar`` engine (``batch=True``) the
    context collects traffic in struct-of-arrays form instead of
    materialising one ``(dst, payload)`` tuple per message: the round's
    single broadcast is written straight into the run's outgoing
    :class:`SendColumns` at the context's node ``index`` (one broadcast per
    round is admitted regardless of the communication model — the engine
    sizes and delivers one payload per sender), and targeted sends append
    into the per-sender grouped outbox (``_t_dsts`` / ``_t_pays`` parallel
    columns) consumed by the shared targeted-delivery fast path
    (:mod:`repro.distributed.targeted`).  ``_t_bpos`` records where in
    that stream the broadcast was issued (written only when targeted sends
    precede it, else 0), so mixed rounds replay in exactly the indexed
    engine's outbox order.  ``engine_label`` and
    ``model_name`` name the engine and model in admission errors.

    The class is slotted: contexts sit on every engine's per-round hot path
    (``round`` writes in the driver, the outgoing columns and the targeted
    columns in the columnar engine), and at E23's n = 10^6 point a million
    instances exist at once.  So the ``columnar`` and ``indexed`` engines
    pass ``topology`` instead of a neighbour set: ``neighbors`` (and
    ``graph_neighbors`` outside overlays) is fetched from the topology's
    per-node cache the first time the program or ``send`` reads it, and a
    program that never reads it, like flood-max, builds no set.
    ``columnar`` contexts carry no ``_outbox`` list (their traffic goes to
    the shared columns).  The two properties are plain descriptors: a
    ``__getattr__`` hook would slow every attribute lookup on the type.
    """

    __slots__ = (
        "node_id",
        "_neighbors",
        "_graph_neighbors",
        "_topology",
        "n",
        "_rng",
        "_rng_seed",
        "round",
        "halted",
        "output",
        "_broadcast_only",
        "_batch",
        "_engine_label",
        "_model_name",
        "_last_broadcast_round",
        "_outbox",
        "_index",
        "_out_pays",
        "_out_sent",
        "_t_dsts",
        "_t_pays",
        "_t_bpos",
        "_t_signal",
        "_halt_signal",
    )

    def __init__(
        self,
        node_id: Node,
        neighbors: frozenset[Node] | None,
        n: int,
        rng: random.Random | int,
        graph_neighbors: frozenset[Node] | None = None,
        broadcast_only: bool = False,
        batch: bool = False,
        engine_label: str = "columnar",
        model_name: str = "LOCAL",
        index: int = 0,
        shared: SendColumns | None = None,
        topology: CompiledTopology | None = None,
    ) -> None:
        self.node_id = node_id
        # ``neighbors=None`` defers to ``topology``'s set of node ``index``.
        self._neighbors = neighbors
        self._graph_neighbors = graph_neighbors
        self._topology = topology
        self.n = n
        # ``rng`` may be a ready random.Random or a bare seed.  A seed is
        # materialised lazily on first ``ctx.rng`` access: a Mersenne
        # Twister instance carries ~2.5 KB of state, so at n = 10^6 eagerly
        # building one per vertex costs gigabytes of RSS and seconds of
        # first-touch page faults that programs which never draw (the whole
        # flood-max family) would pay for nothing.  The lazily built stream
        # is bit-for-bit the eager one — same seed, same Random.
        if isinstance(rng, random.Random):
            self._rng: random.Random | None = rng
            self._rng_seed = None
        else:
            self._rng = None
            self._rng_seed = rng
        self.round = 0
        self.halted = False
        self.output: Any = None
        self._broadcast_only = broadcast_only
        self._batch = batch
        self._engine_label = engine_label
        self._model_name = model_name
        self._last_broadcast_round = -1
        self._outbox: list[tuple[Node, Any]] | None = None if batch else []
        # The engines pass their run's shared columns and signal cells; a
        # directly constructed context gets private ones (``index`` also
        # names its node in ``topology``), which keeps the send, broadcast
        # and halt hot paths branch-free.
        if shared is None:
            shared = SendColumns(index + 1 if batch else 0)
        self._index = index
        self._out_pays = shared.pays
        self._out_sent = shared.sent
        self._t_signal = shared.targeted
        self._halt_signal = shared.halted
        # Per-sender grouped outbox of the batch-collecting engine:
        # parallel destination/payload columns (struct of arrays) and the
        # broadcast's interleave position.
        self._t_dsts: list[Node] = []
        self._t_pays: list[Any] = []
        self._t_bpos = 0

    @property
    def neighbors(self) -> frozenset[Node]:
        """The labels this node may message (fetched on first read)."""
        neighbors = self._neighbors
        if neighbors is None:
            topology = self._topology
            neighbors = self._neighbors = topology.neighbor_label_set(self._index)
        return neighbors

    @property
    def graph_neighbors(self) -> frozenset[Node]:
        """The node's input-graph neighbours (``neighbors`` unless overlaid)."""
        graph_neighbors = self._graph_neighbors
        return self.neighbors if graph_neighbors is None else graph_neighbors

    @property
    def rng(self) -> random.Random:
        """The node's private randomness source (materialised on first use)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._rng_seed)
        return rng

    # ------------------------------------------------------------------ sends
    def send(self, dst: Node, payload: Any) -> None:
        """Queue ``payload`` for delivery to neighbour ``dst`` next round."""
        if self._broadcast_only:
            raise MessageAdmissionError(
                f"node {self.node_id!r}: targeted send is not admitted by the "
                f"broadcast-only model {self._model_name} (running on the "
                f"{self._engine_label} engine); use broadcast()"
            )
        neighbors = self._neighbors
        if neighbors is None:
            neighbors = self.neighbors
        if dst not in neighbors:
            raise NotANeighborError(
                f"node {self.node_id!r} tried to message non-neighbour {dst!r}"
            )
        if self._batch:
            self._t_dsts.append(dst)
            self._t_pays.append(payload)
            self._t_signal[0] = True
            return
        self._outbox.append((dst, payload))

    def broadcast(self, payload: Any) -> None:
        """Queue ``payload`` for every (communication) neighbour."""
        # Round-based, not outbox-based, so the one-broadcast-per-round
        # contract also holds for degree-0 nodes (empty outboxes).  The
        # batch-collecting branch comes first and reads ``_batch`` once:
        # this method runs once per node per round at E23 scale.
        if self._batch:
            if self._last_broadcast_round == self.round:
                raise self._double_broadcast_error()
            self._last_broadcast_round = self.round
            index = self._index
            self._out_pays[index] = payload
            self._out_sent[index] = 1
            if self._t_dsts:
                self._t_bpos = len(self._t_dsts)
            return
        if self._broadcast_only:
            if self._last_broadcast_round == self.round:
                raise self._double_broadcast_error()
            self._last_broadcast_round = self.round
        self._outbox.extend((dst, payload) for dst in self.neighbors)

    def _double_broadcast_error(self) -> MessageAdmissionError:
        """The admission error for a second broadcast in one round.

        Broadcast-only models take precedence in the message text, exactly
        as before the batch-collecting engines existed.
        """
        if self._broadcast_only:
            return MessageAdmissionError(
                f"node {self.node_id!r}: the broadcast-only model "
                f"{self._model_name} admits one identical payload to all "
                f"neighbours per round"
            )
        return MessageAdmissionError(
            f"node {self.node_id!r}: the {self._engine_label} engine "
            f"admits one broadcast per node per round (its fast path "
            f"interns the round's payload once per sender)"
        )

    # ----------------------------------------------------------------- control
    def set_output(self, value: Any) -> None:
        """Record this node's output (its share of the global solution)."""
        self.output = value

    def halt(self) -> None:
        """Stop participating; the node neither sends nor receives afterwards."""
        self.halted = True
        self._halt_signal[0] = True

    # --------------------------------------------------------------- internals
    def _drain_outbox(self) -> list[tuple[Node, Any]]:
        out = self._outbox
        self._outbox = []
        return out
