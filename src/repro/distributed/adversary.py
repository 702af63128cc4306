"""Adversary policy layer: deterministic fault injection for the simulator.

Robustness of synchronous algorithms under message loss and crash faults is
the direction pushed by recent Congested Clique work (Censor-Hillel,
Fischer, Gelles and Soto, *Deterministic LDC-based Robust Computation in
the Congested Clique*).  This module makes faults a *policy object* that
composes orthogonally with the
:class:`~repro.distributed.models.CommunicationModel` layer: the model owns
which links exist and what they may carry, the adversary owns which of the
admitted messages actually arrive.

Design rules (the ones the engine-parity contract depends on):

* **Faults act on delivery, not on sending.**  A sender is charged for every
  message it transmits (``messages_sent``, ``bits_sent``, cut and bandwidth
  accounting are all unchanged); the adversary destroys messages *in
  flight*, so only inbox contents and the fault counters differ from a
  fault-free run.
* **Decisions are order-independent.**  The three simulator engines iterate
  traffic in different orders (outbox order, CSR slice order, dict order),
  so a fault decision may depend only on ``(round, src, dst)`` and the
  dedicated fault seed — never on how many decisions were made before it.
  :class:`DropAdversary` therefore uses a keyed BLAKE2 hash per (round,
  link), not a consumed RNG stream; the stream is derived from the
  simulator seed but is independent of the per-node algorithm RNGs.
* **Fault counters are policy-owned.**  They live in
  ``Metrics.per_adversary`` and are merged into ``Metrics.as_dict()`` only
  when an adversary is active — the same pattern as the models'
  ``per_model`` counters — so fault-free runs (including explicit
  :class:`NoAdversary`) keep the golden-run dictionary shape bit-for-bit.
* **Transforming filters disable payload sharing.**  A filter that mutates
  payloads (``transforms = True``) breaks the engines' shared-payload-by-
  reference fast paths: a broadcast may arrive *differently* at each
  neighbour, so every engine must materialize per-edge payload lists when
  such a filter is bound (the same fallback discipline as the
  ``deliver_mask`` → eager-inbox path).  The :meth:`DeliveryFilter.transform`
  seam runs after :meth:`DeliveryFilter.deliver` admits a message and before
  the halted-receiver check, in every engine, so counter totals agree
  bit-for-bit across engines.

The shipped adversaries:

* :class:`NoAdversary` — the identity; byte-for-byte identical behaviour to
  passing no adversary at all (it binds to no filter, so every engine takes
  its unmodified hot path).
* :class:`DropAdversary` — per-link i.i.d. message loss with probability
  ``rate``, decided by a seeded hash of ``(round, src, dst)``.
* :class:`CrashAdversary` — crash-stop schedule ``node -> round``: a node
  behaves correctly through round ``r - 1``, is force-halted at the start
  of round ``r`` (it leaves the active set and sends nothing from then on),
  and every message addressed to it for delivery at round ``r`` or later is
  lost.
* :class:`RoundBudgetAdversary` — per-link per-round bit throttle *below*
  the model budget: once a link's round total exceeds the cap, further
  messages on that link are silently destroyed (and counted), modelling a
  degraded network rather than a protocol violation.
* :class:`CorruptAdversary` — per-link i.i.d. payload corruption with
  probability ``rate``: the delivered payload has one bit flipped in its
  canonical wire image (:mod:`repro.distributed.encoding` codec); images
  that no longer decode arrive as the ``CORRUPTED`` sentinel.  Corruption
  can *forge* values, which is the qualitatively new threat the coded
  workloads in ``core/`` defend against.
"""

from __future__ import annotations

import hashlib
from collections.abc import Hashable, Iterable, Mapping, Sequence
from operator import countOf
from typing import TYPE_CHECKING, Any, ClassVar

from repro.distributed.encoding import CORRUPTED, corrupt_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.metrics import Metrics
    from repro.distributed.node import NodeContext

Node = Hashable

#: Counter names (``Metrics.per_adversary`` keys) use this prefix so flat
#: report consumers can select fault counters without a schema lookup.
FAULT_PREFIX = "adversary_"


def _stream_key(kind: str, seed: Any, salt: int) -> bytes:
    """Derive the 32-byte keyed-hash key of one adversary's decision stream.

    The key folds in the adversary ``kind`` and ``salt`` so distinct
    adversaries (or deliberately re-salted copies) sharing one simulator
    seed make independent decisions, while staying a pure function of the
    scenario seed — independent of the per-node algorithm RNGs, engine
    iteration order, process and platform.
    """
    material = repr((kind, seed, salt)).encode("utf-8")
    return hashlib.blake2b(material, digest_size=32).digest()


class DeliveryFilter:
    """Per-run bound fault state: decides the fate of every message.

    A filter is created by :meth:`Adversary.bind` once per ``Simulator.run``
    and holds the run's :class:`~repro.distributed.metrics.Metrics` (for the
    current round number and for fault-counter bumps).  Engines consult it
    at exactly two seams:

    * :meth:`on_round_begin` — after ``metrics.start_round()``, before any
      program executes, with the contexts that are still active (crash
      schedules force-halt here);
    * :meth:`deliver` — per message during collection, after all send-side
      accounting and before inbox insertion; returning ``False`` destroys
      the message.
    """

    __slots__ = ("metrics",)

    #: True when :meth:`transform` may return a payload different from its
    #: argument.  Engines test this flag once per run (never per message)
    #: and fall back to per-edge payload materialization when set, because
    #: a transforming filter invalidates shared-payload-by-reference
    #: broadcast fan-out.
    transforms: ClassVar[bool] = False

    def __init__(self, metrics: "Metrics") -> None:
        self.metrics = metrics

    def on_round_begin(self, round_: int, active: Iterable["NodeContext"]) -> None:
        """Hook run at the start of round ``round_``; may halt contexts."""

    def deliver(self, src: Node, dst: Node, bits: int) -> bool:
        """Whether the ``src -> dst`` message (``bits`` wide) arrives.

        Called while ``metrics.rounds`` is the *sending* round ``R``; the
        message would be received in round ``R + 1``.  Implementations bump
        their fault counters before returning ``False``.
        """
        return True

    def deliver_mask(self, src: Node, dsts: Sequence[Node], bits: int) -> bytearray:
        """Bulk fate of one sender's broadcast: one delivery flag per destination.

        ``mask[i]`` is truthy iff the ``src -> dsts[i]`` message arrives.
        This is the columnar engine's seam: the filter is consulted once per
        sender with the whole neighbour row instead of once per message.
        The default implementation literally loops :meth:`deliver`, so
        decisions and fault counters are exactly those of the per-message
        seam; subclasses whose decisions are pure functions of ``(round,
        src, dst)`` may batch the work (see :class:`DropAdversary`'s filter)
        but must keep both the decisions and the counter totals bit-for-bit
        identical.
        """
        deliver = self.deliver
        return bytearray(1 if deliver(src, dst, bits) else 0 for dst in dsts)

    def transform(self, src: Node, dst: Node, payload: Any, bits: int) -> Any:
        """The payload actually handed to ``dst`` (identity by default).

        Runs only for messages :meth:`deliver` admitted, while
        ``metrics.rounds`` is still the *sending* round, and before the
        halted-receiver check (so counter totals are engine-independent).
        Implementations must be pure functions of ``(round, src, dst,
        payload)`` plus bound per-run state — never of call order — and
        must set the class flag ``transforms = True`` so the engines route
        around their shared-payload fast paths.
        """
        return payload


class Adversary:
    """Base fault policy: which admitted messages are destroyed, who crashes.

    Subclasses override :meth:`bind` to return the per-run
    :class:`DeliveryFilter` (or ``None`` for the identity — then every
    engine takes its unmodified fault-free hot path), declare their fault
    ``counters`` (pre-seeded to 0 in ``Metrics.per_adversary`` so sweeps
    report them even when nothing fired), and provide a canonical
    :meth:`spec` string so scenario specs and the CLI (``run --adversary``)
    can round-trip the policy through :func:`build_adversary`.
    """

    __slots__ = ()

    #: fault counters this policy maintains (pre-seeded to 0 when bound).
    counters: ClassVar[tuple[str, ...]] = ()
    #: True for the identity policy (binds to no filter at all).
    is_null: ClassVar[bool] = False

    def init_metrics(self, metrics: "Metrics") -> None:
        """Pre-seed this adversary's fault counters so they appear even at 0."""
        for key in self.counters:
            metrics.per_adversary.setdefault(key, 0)

    def bind(self, seed: Any, metrics: "Metrics") -> DeliveryFilter | None:
        """Build the per-run filter (``None`` = identity, no filtering seam)."""
        raise NotImplementedError

    def spec(self) -> str:
        """Canonical string form, parseable by :func:`build_adversary`."""
        raise NotImplementedError

    def _key(self) -> tuple:
        return (type(self),)

    def __eq__(self, other: object) -> bool:
        """Value semantics, mirroring :class:`CommunicationModel`."""
        return isinstance(other, Adversary) and self._key() == other._key()

    def __hash__(self) -> int:
        """Hash over the same key tuple equality uses."""
        return hash(self._key())

    def __repr__(self) -> str:
        """The canonical spec string, wrapped for debugging."""
        return f"{type(self).__name__}({self.spec()!r})"


class NoAdversary(Adversary):
    """The identity adversary: every message arrives, nobody crashes.

    Installing it is byte-for-byte identical to installing no adversary at
    all: it binds to ``None``, so the engines' fault-free hot paths run
    untouched, no fault counters are seeded, and ``Metrics.as_dict()``
    keeps the exact golden-run shape.
    """

    __slots__ = ()

    is_null = True

    def bind(self, seed: Any, metrics: "Metrics") -> DeliveryFilter | None:
        """Return ``None``: no filtering seam is installed."""
        return None

    def spec(self) -> str:
        """``"none"``."""
        return "none"


class _DropFilter(DeliveryFilter):
    """Per-run state of :class:`DropAdversary` (keyed-hash Bernoulli trials)."""

    __slots__ = ("rate", "key")

    def __init__(self, metrics: "Metrics", rate: float, key: bytes) -> None:
        super().__init__(metrics)
        self.rate = rate
        self.key = key

    def deliver(self, src: Node, dst: Node, bits: int) -> bool:
        """Drop with probability ``rate``, decided by hash(round, src, dst)."""
        digest = hashlib.blake2b(
            repr((self.metrics.rounds, src, dst)).encode("utf-8"),
            key=self.key,
            digest_size=8,
        ).digest()
        if int.from_bytes(digest, "big") / 2.0**64 < self.rate:
            metrics = self.metrics
            metrics.bump_fault("adversary_dropped_messages")
            metrics.bump_fault("adversary_dropped_bits", bits)
            return False
        return True

    def deliver_mask(self, src: Node, dsts: Sequence[Node], bits: int) -> bytearray:
        """Keyed-hash mask over ``(round, src, dst)`` for one broadcast row.

        Evaluates the same per-destination BLAKE2 trials as :meth:`deliver`
        (decisions are bit-identical) but keys the hash once per call and
        copies the keyed state per destination, and folds the fault-counter
        bumps into two bulk updates — the totals equal ``dropped``
        per-message bumps exactly.  When the round, ``src`` and every
        destination are exact ``int``s the hashed text is formatted as
        ``b"(%d, %d, %d)"``, which is what ``repr`` of the triple gives for
        them; any other label (``bool`` and NumPy scalars included) keeps
        ``repr``.
        """
        round_ = self.metrics.rounds
        rate = self.rate
        keyed = hashlib.blake2b(key=self.key, digest_size=8)
        from_bytes = int.from_bytes
        if (
            type(round_) is int
            and type(src) is int
            and countOf(map(type, dsts), int) == len(dsts)
        ):
            head = b"(%d, %d, " % (round_, src)
            texts = [head + b"%d)" % dst for dst in dsts]
        else:
            texts = [repr((round_, src, dst)).encode("utf-8") for dst in dsts]
        mask = bytearray(len(dsts))
        dropped = 0
        for i, text in enumerate(texts):
            trial = keyed.copy()
            trial.update(text)
            if from_bytes(trial.digest(), "big") / 2.0**64 < rate:
                dropped += 1
            else:
                mask[i] = 1
        if dropped:
            metrics = self.metrics
            metrics.bump_fault("adversary_dropped_messages", dropped)
            metrics.bump_fault("adversary_dropped_bits", dropped * bits)
        return mask


class DropAdversary(Adversary):
    """Seeded i.i.d. per-link message loss with probability ``rate``.

    Each ``(round, src, dst)`` triple is an independent Bernoulli trial
    evaluated by a BLAKE2 hash keyed from the simulator seed (plus an
    optional ``salt`` for independent re-runs under one seed), so the
    decision stream is deterministic, engine-order-independent and
    disjoint from all algorithm randomness.  Note the trial is per
    *message slot*, not per payload: two messages on one link in one round
    are dropped together or not at all, which is exactly the fate of one
    physical link transmission window.
    """

    __slots__ = ("rate", "salt")

    counters = ("adversary_dropped_messages", "adversary_dropped_bits")

    def __init__(self, rate: float, salt: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate must be within [0, 1], got {rate!r}")
        self.rate = float(rate)
        self.salt = salt

    def bind(self, seed: Any, metrics: "Metrics") -> DeliveryFilter:
        """Key the decision stream from ``seed`` and return the drop filter."""
        return _DropFilter(metrics, self.rate, _stream_key("drop", seed, self.salt))

    def spec(self) -> str:
        """``"drop:RATE"`` (with ``:SALT`` appended when non-zero)."""
        if self.salt:
            return f"drop:{self.rate!r}:{self.salt}"
        return f"drop:{self.rate!r}"

    def _key(self) -> tuple:
        return (type(self), self.rate, self.salt)


class _CrashFilter(DeliveryFilter):
    """Per-run state of :class:`CrashAdversary` (crash-stop schedule)."""

    __slots__ = ("schedule",)

    def __init__(self, metrics: "Metrics", schedule: dict[Node, int]) -> None:
        super().__init__(metrics)
        self.schedule = schedule

    def on_round_begin(self, round_: int, active: Iterable["NodeContext"]) -> None:
        """Force-halt every still-active node whose crash round has arrived."""
        schedule = self.schedule
        for ctx in active:
            crash_round = schedule.get(ctx.node_id)
            if crash_round is not None and crash_round <= round_:
                ctx.halt()
                self.metrics.bump_fault("adversary_crashed_nodes")

    def deliver(self, src: Node, dst: Node, bits: int) -> bool:
        """Destroy messages addressed to a node crashed by their arrival round."""
        crash_round = self.schedule.get(dst)
        # Sending round is metrics.rounds; arrival round is one later.
        if crash_round is not None and crash_round <= self.metrics.rounds + 1:
            self.metrics.bump_fault("adversary_lost_messages")
            return False
        return True


class CrashAdversary(Adversary):
    """Crash-stop schedule: ``node -> round`` at which the node fails.

    A node scheduled to crash at round ``r`` (``r >= 1``) behaves correctly
    through round ``r - 1``; at the start of round ``r`` it is force-halted
    — it executes nothing further, sends nothing further, and leaves the
    active set (so runs still *complete*; crash-stopped nodes simply keep
    whatever output, possibly ``None``, they had).  Messages already in
    flight from the crashing node are delivered (crash-stop does not
    retract sent traffic), but messages *to* it arriving at round ``r`` or
    later are lost and counted as ``adversary_lost_messages``.  A node that
    halts voluntarily before its crash round is not counted as crashed.
    """

    __slots__ = ("schedule",)

    counters = ("adversary_crashed_nodes", "adversary_lost_messages")

    def __init__(self, schedule: Mapping[Node, int]) -> None:
        clean: dict[Node, int] = {}
        for node, round_ in schedule.items():
            if not isinstance(round_, int) or round_ < 1:
                raise ValueError(
                    f"crash round for node {node!r} must be an int >= 1, got {round_!r}"
                )
            clean[node] = round_
        self.schedule = clean

    def bind(self, seed: Any, metrics: "Metrics") -> DeliveryFilter:
        """Return the crash filter (pure schedule; ``seed`` is unused)."""
        return _CrashFilter(metrics, self.schedule)

    def spec(self) -> str:
        """``"crash:NODE@ROUND,..."``, entries sorted for canonicality."""
        entries = sorted(self.schedule.items(), key=lambda item: repr(item[0]))
        return "crash:" + ",".join(f"{node}@{round_}" for node, round_ in entries)

    def _key(self) -> tuple:
        return (type(self), tuple(sorted(self.schedule.items(), key=repr)))


class _ThrottleFilter(DeliveryFilter):
    """Per-run state of :class:`RoundBudgetAdversary` (per-link bit caps)."""

    __slots__ = ("cap", "link_bits", "tallied_round")

    def __init__(self, metrics: "Metrics", cap: int) -> None:
        super().__init__(metrics)
        self.cap = cap
        self.link_bits: dict[tuple[Node, Node], int] = {}
        self.tallied_round = -1

    def deliver(self, src: Node, dst: Node, bits: int) -> bool:
        """Destroy the message once the link's round total exceeds the cap."""
        round_ = self.metrics.rounds
        if round_ != self.tallied_round:
            self.link_bits.clear()
            self.tallied_round = round_
        link = (src, dst)
        total = self.link_bits.get(link, 0) + bits
        self.link_bits[link] = total
        if total > self.cap:
            metrics = self.metrics
            metrics.bump_fault("adversary_throttled_messages")
            metrics.bump_fault("adversary_throttled_bits", bits)
            return False
        return True


class RoundBudgetAdversary(Adversary):
    """Per-link per-round bit throttle below the model's bandwidth budget.

    Unlike the model budget (whose violation is a *protocol error* that
    raises or is counted in ``bandwidth_violations``), the throttle models
    a degraded network: messages that would push a link's round total past
    ``bits`` are silently destroyed and counted as
    ``adversary_throttled_messages``.  For multi-message links the fate of
    a message depends on how much of the cap earlier messages consumed,
    tallied in the engines' shared (outbox-order) delivery order.
    """

    __slots__ = ("bits",)

    counters = ("adversary_throttled_messages", "adversary_throttled_bits")

    def __init__(self, bits: int) -> None:
        if not isinstance(bits, int) or bits < 0:
            raise ValueError(f"throttle budget must be an int >= 0, got {bits!r}")
        self.bits = bits

    def bind(self, seed: Any, metrics: "Metrics") -> DeliveryFilter:
        """Return the throttle filter (pure arithmetic; ``seed`` is unused)."""
        return _ThrottleFilter(metrics, self.bits)

    def spec(self) -> str:
        """``"budget:BITS"``."""
        return f"budget:{self.bits}"

    def _key(self) -> tuple:
        return (type(self), self.bits)


class _CorruptFilter(DeliveryFilter):
    """Per-run state of :class:`CorruptAdversary` (keyed-hash bit flips)."""

    __slots__ = ("rate", "key")

    transforms = True

    def __init__(self, metrics: "Metrics", rate: float, key: bytes) -> None:
        super().__init__(metrics)
        self.rate = rate
        self.key = key

    def deliver_mask(self, src: Node, dsts: Sequence[Node], bits: int) -> bytearray:
        """All-ones: corruption damages payloads but never destroys messages."""
        return bytearray(b"\x01" * len(dsts))

    def transform(self, src: Node, dst: Node, payload: Any, bits: int) -> Any:
        """Flip one wire-image bit with probability ``rate``.

        One 16-byte keyed BLAKE2 digest of ``(round, src, dst)`` supplies
        both the Bernoulli trial (first 8 bytes) and the bit position
        (last 8 bytes), so the decision *and* the damage are pure functions
        of the link slot — two messages on one link in one round are
        corrupted identically, the per-slot analogue of
        :class:`DropAdversary`'s semantics.
        """
        if not self.rate:
            return payload
        digest = hashlib.blake2b(
            repr((self.metrics.rounds, src, dst)).encode("utf-8"),
            key=self.key,
            digest_size=16,
        ).digest()
        if int.from_bytes(digest[:8], "big") / 2.0**64 >= self.rate:
            return payload
        metrics = self.metrics
        metrics.bump_fault("adversary_corrupted_messages")
        metrics.bump_fault("adversary_corrupted_bits", bits)
        mutated = corrupt_payload(payload, int.from_bytes(digest[8:], "big"))
        if mutated is CORRUPTED:
            metrics.bump_fault("adversary_erased_messages")
        return mutated


class CorruptAdversary(Adversary):
    """Seeded i.i.d. per-link payload corruption with probability ``rate``.

    Each ``(round, src, dst)`` slot is an independent Bernoulli trial (same
    keyed-BLAKE2 discipline as :class:`DropAdversary`, under its own stream
    key, so drop and corrupt decisions at one seed are independent).  A
    corrupted delivery has one bit flipped in the payload's canonical wire
    image (:func:`repro.distributed.encoding.corrupt_payload`): usually this
    *forges* a different valid value — the soundness threat — and otherwise
    the receiver sees the ``CORRUPTED`` sentinel (counted additionally as
    ``adversary_erased_messages``).  Corrupted messages still arrive and are
    charged at full size; only their content lies.
    """

    __slots__ = ("rate", "salt")

    counters = (
        "adversary_corrupted_messages",
        "adversary_corrupted_bits",
        "adversary_erased_messages",
    )

    def __init__(self, rate: float, salt: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corrupt rate must be within [0, 1], got {rate!r}")
        self.rate = float(rate)
        self.salt = salt

    def bind(self, seed: Any, metrics: "Metrics") -> DeliveryFilter:
        """Key the decision stream from ``seed`` and return the corrupt filter."""
        return _CorruptFilter(
            metrics, self.rate, _stream_key("corrupt", seed, self.salt)
        )

    def spec(self) -> str:
        """``"corrupt:RATE"`` (with ``:SALT`` appended when non-zero)."""
        if self.salt:
            return f"corrupt:{self.rate!r}:{self.salt}"
        return f"corrupt:{self.rate!r}"

    def _key(self) -> tuple:
        return (type(self), self.rate, self.salt)


def build_adversary(spec: str) -> Adversary:
    """Parse a canonical adversary spec string into a policy object.

    Accepted forms (also produced by each policy's ``spec()`` method)::

        none                    NoAdversary
        drop:0.05               DropAdversary(rate=0.05)
        drop:0.05:3             DropAdversary(rate=0.05, salt=3)
        crash:4@2,17@5          CrashAdversary({4: 2, 17: 5})
        budget:64               RoundBudgetAdversary(bits=64)
        corrupt:0.05            CorruptAdversary(rate=0.05)
        corrupt:0.05:3          CorruptAdversary(rate=0.05, salt=3)

    Crash node ids are parsed as integers — the label type of every shipped
    graph family; schedules over non-integer labels must construct
    :class:`CrashAdversary` directly.  Malformed specs raise
    :class:`ValueError` naming the offending token.
    """
    text = spec.strip()
    kind, _, rest = text.partition(":")
    try:
        if kind == "none" and not rest:
            return NoAdversary()
        if kind == "drop" or kind == "corrupt":
            rate_text, _, salt_text = rest.partition(":")
            rate = _parse_float_token(rate_text, "rate")
            salt = _parse_int_token(salt_text, "salt") if salt_text else 0
            cls = DropAdversary if kind == "drop" else CorruptAdversary
            return cls(rate, salt=salt)
        if kind == "crash" and rest:
            schedule: dict[Node, int] = {}
            for entry in rest.split(","):
                node_text, sep, round_text = entry.partition("@")
                if not sep:
                    raise ValueError(
                        f"crash entry {entry!r} must look like NODE@ROUND"
                    )
                node = _parse_int_token(node_text, "crash node")
                schedule[node] = _parse_int_token(round_text, "crash round")
            return CrashAdversary(schedule)
        if kind == "budget" and rest:
            return RoundBudgetAdversary(_parse_int_token(rest, "budget bits"))
    except (TypeError, ValueError) as error:
        raise ValueError(f"bad adversary spec {spec!r}: {error}") from None
    raise ValueError(
        f"unknown adversary spec {spec!r}; expected 'none', 'drop:RATE[:SALT]', "
        f"'corrupt:RATE[:SALT]', 'crash:NODE@ROUND[,...]' or 'budget:BITS'"
    )


def _parse_float_token(text: str, what: str) -> float:
    """``float(text)``, raising with ``what`` and the offending token named."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{what} token {text!r} is not a number") from None


def _parse_int_token(text: str, what: str) -> int:
    """``int(text)``, raising with ``what`` and the offending token named."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} token {text!r} is not an integer") from None


__all__ = [
    "FAULT_PREFIX",
    "Adversary",
    "CorruptAdversary",
    "CrashAdversary",
    "DeliveryFilter",
    "DropAdversary",
    "NoAdversary",
    "RoundBudgetAdversary",
    "build_adversary",
]
