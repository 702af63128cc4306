"""The node-program interface executed by the simulator."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable
from typing import Any

from repro.distributed.errors import MessageAdmissionError
from repro.distributed.node import NodeContext

Node = Hashable
#: Round inbox shape: each neighbour maps to the payloads it sent this round.
Inbox = dict[Node, list[Any]]


class NodeProgram(ABC):
    """A distributed algorithm from the point of view of a single vertex.

    One instance is created per vertex.  ``on_start`` runs before any
    communication (it may already queue messages); ``on_round`` runs once per
    synchronous round with the messages received from each neighbour.  A node
    finishes by calling ``ctx.set_output(...)`` and ``ctx.halt()``.

    The base class is slotted so that throughput-critical programs (e.g. the
    E23 flood-max workload) can opt into ``__slots__`` themselves;
    subclasses that declare none still get an instance ``__dict__`` as usual.
    """

    __slots__ = ()

    @abstractmethod
    def on_start(self, ctx: NodeContext) -> None:
        """Initialise local state; may queue messages for round 1."""

    @abstractmethod
    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        """Process one synchronous round.

        ``inbox`` maps each neighbour to the list of payloads it sent this
        round (empty lists are omitted).
        """


class BroadcastNodeProgram(NodeProgram):
    """Convenience base class for broadcast models (one payload per sender).

    In broadcast-only models every neighbour contributes at most one payload
    per round, so the inbox's per-sender lists are redundant;
    :meth:`on_broadcast_round` receives a flat ``{sender: payload}`` mapping
    instead.  Subclasses broadcast via ``ctx.broadcast`` exactly once per
    round (the admission policy enforces this).
    """

    __slots__ = ()

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        heard = {}
        for sender, payloads in inbox.items():
            if len(payloads) != 1:
                raise MessageAdmissionError(
                    f"node {ctx.node_id!r} received {len(payloads)} payloads "
                    f"from {sender!r} in one round; BroadcastNodeProgram "
                    f"requires a broadcast-only communication model"
                )
            heard[sender] = payloads[0]
        self.on_broadcast_round(ctx, heard)

    @abstractmethod
    def on_broadcast_round(self, ctx: NodeContext, heard: dict[Node, Any]) -> None:
        """Process one round; ``heard`` maps each neighbour to its broadcast."""


class FunctionProgram(NodeProgram):
    """Adapter turning plain functions into a :class:`NodeProgram`.

    Useful for tests and tiny algorithms::

        prog = lambda: FunctionProgram(on_start=..., on_round=...)
    """

    __slots__ = ("_on_start", "_on_round")

    def __init__(self, on_start, on_round) -> None:
        self._on_start = on_start
        self._on_round = on_round

    def on_start(self, ctx: NodeContext) -> None:
        self._on_start(ctx)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        self._on_round(ctx, inbox)
