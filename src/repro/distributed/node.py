"""Per-node execution context handed to node programs by the simulator."""

from __future__ import annotations

import random
from collections.abc import Hashable
from typing import Any

from repro.distributed.errors import MessageAdmissionError, NotANeighborError

Node = Hashable

#: Sentinel marking "no broadcast queued this round" in batch-collection
#: mode; distinct from ``None``, which is a perfectly legal payload.
NO_BROADCAST: Any = object()


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
    only *semantic* send restriction: it belongs to the communication
    model, never to an engine — every engine accepts every admission-legal
    program.

    Under the batch-collecting ``columnar`` engine (``batch=True``) the
    context collects traffic in struct-of-arrays form instead of
    materialising one ``(dst, payload)`` tuple per message: the round's
    single broadcast payload is interned by reference (one broadcast per
    round is admitted regardless of the communication model — the engine
    interns the payload once per sender), and targeted sends append into
    the per-sender grouped outbox
    (``_t_dsts`` / ``_t_pays`` parallel columns) consumed by the shared
    targeted-delivery fast path (:mod:`repro.distributed.targeted`).
    ``_t_bpos`` records where in that stream the broadcast was issued, so
    mixed rounds replay in exactly the indexed engine's outbox order.
    ``engine_label`` and ``model_name`` name the engine and model in
    admission errors.

    The class is slotted: contexts sit on every engine's per-round hot path
    (``round``/``halted`` reads in the driver, ``_batch_payload`` and the
    targeted columns in the columnar engine), and at E20 scale a million
    instances exist at once.
    """

    __slots__ = (
        "node_id",
        "neighbors",
        "graph_neighbors",
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
        "_batch_payload",
        "_t_dsts",
        "_t_pays",
        "_t_bpos",
        "_t_signal",
    )

    def __init__(
        self,
        node_id: Node,
        neighbors: frozenset[Node],
        n: int,
        rng: random.Random | int,
        graph_neighbors: frozenset[Node] | None = None,
        broadcast_only: bool = False,
        batch: bool = False,
        engine_label: str = "columnar",
        model_name: str = "LOCAL",
    ) -> None:
        self.node_id = node_id
        self.neighbors = neighbors
        self.graph_neighbors = neighbors if graph_neighbors is None else graph_neighbors
        self.n = n
        # ``rng`` may be a ready random.Random or a bare seed.  A seed is
        # materialised lazily on first ``ctx.rng`` access: a Mersenne
        # Twister instance carries ~2.5 KB of state, so at E20 scale eagerly
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
        self._outbox: list[tuple[Node, Any]] = []
        self._batch_payload: Any = NO_BROADCAST
        # Per-sender grouped outbox of the batch-collecting engine:
        # parallel destination/payload columns (struct of arrays), the
        # broadcast's interleave position, and the engine's shared
        # round-had-targeted-traffic signal cell (a one-element list, so
        # flagging it is one store — no per-round scan over all contexts).
        # The cell is never None — the columnar engine overwrites it with its
        # shared cell, and the private default keeps the send hot path
        # branch-free for directly constructed contexts.
        self._t_dsts: list[Node] = []
        self._t_pays: list[Any] = []
        self._t_bpos = -1
        self._t_signal: list[bool] = [False]

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
        if dst not in self.neighbors:
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
        # this method runs once per node per round at E18/E20 scale.
        if self._batch:
            if self._last_broadcast_round == self.round:
                raise self._double_broadcast_error()
            self._last_broadcast_round = self.round
            self._batch_payload = payload
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

    # --------------------------------------------------------------- internals
    def _drain_outbox(self) -> list[tuple[Node, Any]]:
        out = self._outbox
        self._outbox = []
        return out
