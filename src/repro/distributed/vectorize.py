"""Program lowering: whole-round vectorized node-program kernels (E23).

The columnar engine made delivery and accounting flat-array work,
but every round still re-enters Python once per node: ``on_round`` runs
``n`` times per round, so a mega-scale flood-max run spends most of its
wall time in interpreter dispatch, not physics.  This module removes that
loop for programs that opt in.

A lowerable program class implements the **VectorProgram protocol**:

* :meth:`VectorProgram.vector_kernel` — a classmethod receiving one
  *probe* program (built for the first label) plus the
  :class:`EngineView`; it reads the configuration off the probe and
  returns a :class:`VectorKernel`, or ``None`` to decline;
* the kernel declares its flat column state (:meth:`VectorKernel.state_columns`)
  and executes whole rounds (:meth:`VectorKernel.vector_round`) against the
  view's CSR neighbour arrays and shared payload columns — e.g. flood-max
  becomes one blocked row-max fold
  (:class:`~repro.distributed.columnar.BlockedRowMax`) plus a halt-mask
  update per round;
* the program's ordinary ``on_round`` is the **exact per-node fallback**:
  whenever lowering is declined the columnar engine builds one program per
  node and runs the stepped path, bit-for-bit identically.

The columnar engine attempts lowering (:func:`try_lower`) when

* the run's program factory is ``functools.partial(Cls, **config)`` with
  ``Cls`` a :class:`VectorProgram` subclass: it builds ``Cls(label,
  **config)`` for every node, so the programs are homogeneous by
  construction and none is built or scanned (any other factory steps),
* the delivery filter is absent or non-transforming (drop and crash
  adversaries are supported through the existing per-sender
  ``deliver_mask`` seam; the corruption adversary forces the fallback),
* every vertex label is an exact ``int`` fitting 64 bits (the label type
  of every shipped graph family).

Parity contract: a lowered run is **bit-for-bit identical** to the stepped
columnar run (and hence to the ``reference`` oracle) — outputs,
``Metrics.as_dict()``, ``bits_per_round``, fault counters, enforcement
raises — under all four communication models and under drop/crash
adversaries.  The load-bearing details:

* accounting *is* the stepped engine's: the view runs the run's one
  :class:`~repro.distributed.columnar.BroadcastAccounting` kernel — mask
  dot-products over per-node degree/cut/overlay count columns, one
  :class:`~repro.distributed.metrics.RoundTally` flush per collection pass
  (including the round-0 pass and the final empty pass), and the ordered
  enforcement walk with its partially-flushed metrics and message text;
* payload sizes come from closed forms (:func:`int_payload_bits`,
  :func:`repetition_frame_bits`, and their whole-column form
  :func:`~repro.distributed.columnar.int_column_bits`, shared with the
  stepped broadcast and targeted collection paths) pinned by tests to equal
  :func:`~repro.distributed.encoding.estimate_bits` on every value the
  kernels emit — ``estimate_bits`` itself never runs inside
  ``vector_round`` (reprolint REP006 enforces this);
* lowering is decided before any per-node program or context exists: a
  fault-free lowered run builds one program (the probe), no
  :class:`~repro.distributed.node.NodeContext`, draws no per-node seeds
  from the master RNG and materialises no neighbour sets — the kernels
  never read them, and with no context in existence no program can
  observe the skipped draws.  Outputs live in the view's output column
  (:attr:`EngineView.outputs`).  Under a drop or crash adversary the
  engine builds the contexts after lowering (the filter's round hook
  halts contexts), exactly as the stepped path would;
* adversary seams fire exactly like the stepped columnar engine: the
  filter sees each round begin before any state updates (crash schedules
  force-halt contexts there), and ``deliver_mask`` is called once per
  sender, in ascending sender order, with the sorted neighbour label row.
"""

from __future__ import annotations

from functools import partial
from operator import countOf
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.distributed.columnar import INT64_MIN, BroadcastAccounting, int_column_bits
from repro.distributed.errors import RoundLimitExceededError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.node import NodeContext
    from repro.distributed.program import Node, NodeProgram

#: int64 bounds: labels outside ``INT64_MIN..INT64_MAX`` decline lowering
#: (the minimum doubles as the fold's "nothing heard" identity).
INT64_MAX = 2**63 - 1


def int_payload_bits(value: int) -> int:
    """Closed-form wire size of an exact-``int`` broadcast payload.

    Equals :func:`~repro.distributed.encoding.estimate_bits` on every
    ``int``: magnitude bits (at least one, so 0 is representable) plus a
    sign bit.  The lowered kernels use this (cached per distinct value)
    instead of calling ``estimate_bits`` per sender per round.
    """
    bits = value.bit_length()
    return (bits if bits else 1) + 1


def repetition_frame_bits(value: int, copies: int) -> int:
    """Closed-form wire size of a ``copies``-tuple repetition frame.

    Equals :func:`~repro.distributed.encoding.estimate_bits` on
    ``(value,) * copies``: sequence framing plus per-item framing and the
    item's own size — the payload class of
    :class:`~repro.core.robust_coding.RedundantFloodMaxProgram`.
    """
    return 2 + copies * (2 + int_payload_bits(value))


def _shared_ints(values):
    """``values``, or one shared ``int`` when all entries agree.

    A converged flood retires every node with the same label: writing one
    shared object into the output column instead of ``n`` equal ones keeps
    the outputs small and makes later equality folds over them (a leader
    check) identity hits.
    """
    if len(values) > 1 and values.min() == values.max():
        return int(values[0])
    return values


class VectorProgram:
    """Opt-in mixin: a node program class that can lower whole rounds.

    Subclasses override :meth:`vector_kernel`.  The columnar engine calls
    it once per run (after binding the adversary, before any per-node
    program or context is built) when the run's factory is
    ``functools.partial(cls, **config)``; returning ``None`` declines
    lowering and the run proceeds on the stepped per-node path — the
    program's ``on_round`` is the exact fallback, so declining is always
    safe.  The constructor contract is ``cls(label, **config)``: two
    nodes' programs differ only in what the kernel derives from labels.
    """

    __slots__ = ()

    @classmethod
    def vector_kernel(
        cls, probe: "NodeProgram", view: "EngineView"
    ) -> "VectorKernel | None":
        """Return a :class:`VectorKernel` configured from ``probe``, or ``None``.

        ``probe`` is the factory's program for the first label (its
        construction also raises any constructor error, as stepping would).
        Subclasses that do not re-implement the protocol must be declined
        here (guard on ``cls``), never silently lowered with the parent's
        semantics.
        """
        return None


class VectorKernel:
    """One lowered run's whole-round executor state (program semantics).

    A kernel owns the program-side columns (e.g. flood-max's ``best``) and
    implements :meth:`on_start` and :meth:`vector_round`; the
    :class:`EngineView` owns everything engine-side — delivery, adversary
    masks, metrics accounting, context synchronisation.  Kernels must not
    call :func:`~repro.distributed.encoding.estimate_bits` or loop per
    message inside :meth:`vector_round` (reprolint REP006 treats these
    functions as hot paths); payload sizes come from closed forms cached
    per distinct value.
    """

    __slots__ = ()

    def state_columns(self) -> dict[str, Any]:
        """Name -> flat column mapping of this kernel's per-node state."""
        raise NotImplementedError

    def on_start(self, view: "EngineView") -> None:
        """Vectorized ``on_start``: seed columns, queue round-0 broadcasts."""
        raise NotImplementedError

    def vector_round(self, view: "EngineView") -> None:
        """Execute one whole round: fold, update state, retire, re-queue."""
        raise NotImplementedError


class EngineView:
    """Engine-side state of one lowered columnar run.

    Exposes to kernels: the CSR topology (``indptr``, ``labels``), the
    liveness column (``alive`` plus its ``alive_np`` view), the fold
    primitive :meth:`fold_max`, the broadcast queue
    (:meth:`queue_broadcast_alive` over the ``bits_col`` size column and
    its ``bits_np`` view) and the retirement seam
    :meth:`retire`, which fills the object-dtype ``outputs`` column the
    engine reports.  The columns and the accounting kernel belong to the
    run's :class:`~repro.distributed.columnar.BroadcastAccounting` — the
    same instance the stepped path would have used — and everything else
    (the adversary masks, the round loop) is internal.  ``contexts`` stays
    ``None`` unless the engine attaches per-node contexts for an adversary
    to halt.
    """

    __slots__ = (
        "accounting",
        "contexts",
        "outputs",
        "filt",
        "n",
        "labels",
        "indptr",
        "alive",
        "alive_count",
        "bits_col",
        "round",
        "mask_flat",
        "_kernel",
        "_zero_arcs",
        "alive_np",
        "bits_np",
        "nonempty_np",
        "t_idx",
        "halts",
    )

    def __init__(self, accounting: BroadcastAccounting) -> None:
        filt = accounting.filt
        n = accounting.n
        indptr = accounting.indptr
        self.accounting = accounting
        self.contexts: "list[NodeContext] | None" = None
        self.halts: list[bool] | None = None  # the contexts' halt cell
        self.outputs = np.full(n, None, dtype=object)
        self.filt = filt
        self.n = n
        self.labels = accounting.labels
        self.indptr = indptr
        self.bits_col = accounting.bits_col
        self.bits_np = accounting.bits_np
        self.alive = bytearray(n)
        self.alive_count = 0
        self.round = 0
        self._kernel: VectorKernel | None = None
        self.mask_flat: bytearray | None = None
        self._zero_arcs: bytes | None = None
        if filt is not None:
            self.mask_flat = bytearray(indptr[n])
            self._zero_arcs = bytes(indptr[n])

        self.alive_np = np.frombuffer(self.alive, dtype=np.uint8).view(np.bool_)
        self.nonempty_np = accounting.nonempty_np
        self.t_idx = None
        m2 = indptr[n]
        if filt is not None and m2:
            # Receiver-side arc p (receiver i, neighbour j) maps to
            # sender-side arc t_idx[p] (sender j's sorted row, entry i):
            # lexsort by (neighbour, receiver) enumerates arcs in
            # sender-major order, i.e. exactly the deliver_mask layout.
            rec = np.repeat(
                np.arange(n, dtype=np.int64),
                np.diff(np.asarray(indptr, dtype=np.int64)),
            )
            perm = np.lexsort((rec, accounting.all_rows_np))
            t_idx = np.empty(m2, dtype=np.int64)
            t_idx[perm] = np.arange(m2, dtype=np.int64)
            self.t_idx = t_idx

    # ------------------------------------------------------------ kernel API
    def fold_max(self):
        """Per-receiver max over the payloads delivered this round.

        Returns ``None`` when no traffic is pending; otherwise an ``int64``
        column whose entry ``i`` is the max payload delivered to receiver
        ``i``, with
        :data:`INT64_MIN` marking "nothing delivered".  Entries of
        zero-degree receivers are unspecified — gate on degree.  The
        delivered set honours the adversary masks computed by the previous
        collection pass, so decisions and fault counters match the stepped
        engine exactly.  Only payloads are folded: a kernel sizes the
        maxima it adopts itself (for nonnegative payloads the size of the
        delivered max is the max of the delivered sizes).
        """
        accounting = self.accounting
        sent_count = accounting.sent_count
        if not sent_count:  # senders have degree > 0, so arcs exist below
            return None
        payloads = self._kernel.payload_column()
        fold = accounting.row_fold.fold
        if self.filt is None:
            # A max is order-free: fold along the raw CSR rows, masking
            # silent senders when some node stayed quiet.
            live = None if sent_count == accounting.n_connected else accounting.sent_np
            return fold(payloads, accounting.indices_np, live)
        # The delivery mask is laid out along the sorted rows.
        delivered = np.frombuffer(self.mask_flat, dtype=np.uint8).view(np.bool_)
        return fold(payloads, accounting.all_rows_np, keep=delivered[self.t_idx])

    def retire(self, idxs, outputs) -> None:
        """Halt the nodes at index array ``idxs`` voluntarily with ``outputs``.

        ``outputs`` is a column aligned with ``idxs`` or one value shared
        by every retiring node; each node retires once, through two whole
        column writes (and its context, when contexts exist).  Crash-stopped
        nodes never do (the adversary halts their contexts directly and
        they keep output ``None``, exactly like the stepped engines).
        """
        column = self.outputs
        column[idxs] = outputs
        self.alive_np[idxs] = False
        self.alive_count -= len(idxs)
        contexts = self.contexts
        if contexts is not None:
            for i in idxs.tolist():
                ctx = contexts[i]
                ctx.output = column[i]
                ctx.halted = True

    def queue_broadcast_alive(self) -> None:
        """Queue a broadcast from every live node for the next delivery pass.

        The payload column is the kernel's (``payload_column``); only the
        sender flags are computed here.  Zero-degree broadcasters are
        excluded from the sender set — the stepped engines treat their
        broadcasts as no-ops (no metrics, no payload counter).
        """
        accounting = self.accounting
        sent_np = accounting.sent_np
        sent_np[:] = self.alive_np & self.nonempty_np
        accounting.sent_count = int(np.count_nonzero(sent_np))
        accounting.senders = None

    def clear_broadcasts(self) -> None:
        """Queue nothing for the next delivery pass (terminal rounds)."""
        accounting = self.accounting
        accounting.sent_np[:] = False
        accounting.sent_count = 0
        accounting.senders = []

    # ------------------------------------------------------------- internals
    def _collect(self) -> None:
        """One delivery pass: the shared accounting kernel plus mask capture.

        The lowered counterpart of the stepped columnar ``collect``: the
        run's :meth:`~repro.distributed.columnar.BroadcastAccounting.account`
        charges the queued pass (one tally flush per pass, round 0 and the
        final empty pass included), then an active filter's per-sender
        ``deliver_mask`` (ascending sender order, sorted label rows) fills
        the flat delivery mask :meth:`fold_max` consumes next round in place
        of inbox materialisation.
        """
        accounting = self.accounting
        accounting.account()
        filt = self.filt
        if filt is not None:
            mask_flat = self.mask_flat
            mask_flat[:] = self._zero_arcs
            if accounting.sent_count:
                deliver_mask = filt.deliver_mask
                labels = self.labels
                mask_rows = accounting.mask_rows
                bits_col = self.bits_col
                indptr = self.indptr
                for src_i in accounting.sender_list():
                    row_mask = deliver_mask(
                        labels[src_i], mask_rows[src_i], bits_col[src_i]
                    )
                    base = indptr[src_i]
                    mask_flat[base : base + len(row_mask)] = row_mask

    def _active_contexts(self):
        """Still-active contexts in ascending index order (adversary hook)."""
        contexts = self.contexts
        alive = self.alive
        return (contexts[i] for i in range(self.n) if alive[i])

    def _sync_crashes(self) -> None:
        """Fold force-halts from ``on_round_begin`` back into the columns.

        Scans the contexts only when the shared halt cell says some context
        called ``halt()`` since the last scan (retirement sets
        ``ctx.halted`` directly and never raises the cell).
        """
        halts = self.halts
        if not halts[0]:
            return
        halts[0] = False
        contexts = self.contexts
        alive = self.alive
        crashed = 0
        for i in range(self.n):
            if alive[i] and contexts[i].halted:
                alive[i] = 0
                crashed += 1
        self.alive_count -= crashed

    def execute(self, max_rounds: int, raise_on_limit: bool) -> list[int]:
        """Run the lowered round loop; returns the final active index list.

        A twin of :meth:`~repro.distributed.simulator.Simulator._drive`:
        start programs (vectorized), collect round-0 traffic, then
        alternate whole-round kernels with delivery passes until every
        node halts or the round limit trips — same limit semantics, same
        per-pass metrics flush cadence, same adversary hook placement.
        """
        kernel = self._kernel
        metrics = self.accounting.metrics
        filt = self.filt
        kernel.on_start(self)
        self._collect()
        while self.alive_count:
            if metrics.rounds >= max_rounds:
                if raise_on_limit:
                    raise RoundLimitExceededError(
                        f"simulation exceeded {max_rounds} rounds"
                    )
                break
            metrics.start_round()
            self.round = metrics.rounds
            if filt is not None:
                filt.on_round_begin(self.round, self._active_contexts())
                self._sync_crashes()
            kernel.vector_round(self)
            self._collect()
        if not self.alive_count:
            return []
        alive = self.alive
        return [i for i in range(self.n) if alive[i]]


class MaxFloodKernel(VectorKernel):
    """Whole-round kernel of the max-flood program family.

    Covers the three shipped lowerable programs — the state is one
    ``best`` label column (plus a ``stable`` counter column for the
    patience-driven variants), a round is one fold
    (:meth:`EngineView.fold_max`), a masked column update and a halt-mask
    check:

    * ``rounds=R`` — :class:`~repro.core.flood_max.FloodMaxProgram`:
      every live node broadcasts each round and all halt together at
      round ``R`` with their current best as output;
    * ``patience=P`` — :class:`~repro.core.flood_max.RobustFloodMaxProgram`:
      a node halts (without broadcasting that round) once its best has
      been stable for ``P`` consecutive rounds;
    * ``copies=k`` with ``patience`` —
      :class:`~repro.core.robust_coding.RedundantFloodMaxProgram`: same
      dynamics, but payloads are ``k``-repetition frames, so only the
      wire-size closed form changes (an undamaged frame majority-decodes
      to its value, and the drop/crash adversaries the lowered path
      admits never damage frames).
    """

    __slots__ = (
        "rounds", "patience", "copies", "best", "stable", "_size_cache", "_monotone",
        "_quiet",
    )

    def __init__(
        self,
        rounds: int | None = None,
        patience: int | None = None,
        copies: int | None = None,
    ) -> None:
        if (rounds is None) == (patience is None):
            raise ValueError("exactly one of rounds/patience must be given")
        self.rounds = rounds
        self.patience = patience
        self.copies = copies
        self.best: Any = None
        self.stable: Any = None
        self._size_cache: dict[int, int] = {}
        # All-nonnegative labels: every payload is an exact int the
        # whole-column sizing kernel takes, so adopted maxima are sized in
        # one pass instead of through the per-value cache.
        self._monotone = False
        # Whether the previous round improved no node (see vector_round).
        self._quiet = False

    def state_columns(self) -> dict[str, Any]:
        """``best`` (and ``stable`` for the patience variants) columns."""
        columns = {"best": self.best}
        if self.patience is not None:
            columns["stable"] = self.stable
        return columns

    def payload_column(self):
        """The per-node broadcast value column (labels fold as ints)."""
        return self.best

    def _refresh_bits(self, view: EngineView, idxs, values) -> None:
        """Recompute wire sizes for the nodes whose payload changed.

        Closed-form sizing with a per-distinct-value cache: in steady
        state (no best-value changes) this loop body never runs, which is
        what makes the lowered rounds payload-size free.
        """
        cache = self._size_cache
        bits_col = view.bits_col
        copies = self.copies
        for i, v in zip(idxs, values):
            b = cache.get(v)
            if b is None:
                if copies is None:
                    b = int_payload_bits(v)
                else:
                    b = repetition_frame_bits(v, copies)
                cache[v] = b
            bits_col[i] = b

    def on_start(self, view: EngineView) -> None:
        """Vectorized ``on_start``: seed columns, queue the round-0 flood."""
        n = view.n
        labels = view.labels
        view.alive[:] = b"\x01" * n
        view.alive_count = n
        self.best = np.fromiter(labels, dtype=np.int64, count=n)
        if self.patience is not None:
            self.stable = np.zeros(n, dtype=np.int64)
        self._monotone = bool(n == 0 or self.best.min() >= 0)
        if self.rounds is not None and self.rounds <= 0:
            # Zero-budget flood-max: output the own label and halt in
            # on_start, queueing no traffic at all.
            view.retire(np.arange(n), _shared_ints(self.best))
            view.clear_broadcasts()
            return
        if self._monotone:
            view.bits_np[:] = int_column_bits(self.best, self.copies)
        else:
            self._refresh_bits(view, range(n), labels)
        view.queue_broadcast_alive()

    def vector_round(self, view: EngineView) -> None:
        """One whole round: fold, update best/stable, retire, re-queue.

        A fault-free round that follows a quiet one (no node improved)
        skips the fold: its senders are a subset of the previous round's
        (nodes only halt) carrying the same unchanged payloads, so every
        receiver hears at most what it heard last round — no more than its
        own best — and stays quiet.  Any delivery filter (drops, crashes,
        budgets) can deliver later what it withheld earlier, so filtered
        runs fold every round.  Accounting is untouched: the engine's
        collection pass charges every round's traffic either way.
        """
        best = self.best
        heard = None
        if not (self._quiet and view.filt is None):
            heard = view.fold_max()
        alive = view.alive_np
        improved = None
        if heard is not None:
            improved = alive & view.nonempty_np & (heard > best)
            if not improved.any():
                improved = None
        self._quiet = improved is None
        if improved is not None:
            adopted = heard[improved]
            best[improved] = adopted
            if self._monotone:
                view.bits_np[improved] = int_column_bits(adopted, self.copies)
            else:
                self._refresh_bits(view, np.nonzero(improved)[0].tolist(), adopted.tolist())
        if self.patience is not None:
            stable = self.stable
            stable += 1
            if improved is not None:
                stable[improved] = 0
            halters = np.flatnonzero(alive & (stable >= self.patience))
            if len(halters):
                view.retire(halters, _shared_ints(best[halters]))
        elif view.round >= self.rounds:
            idxs = np.flatnonzero(alive)
            view.retire(idxs, _shared_ints(best[idxs]))
            view.clear_broadcasts()
            return
        view.queue_broadcast_alive()


def try_lower(
    accounting: BroadcastAccounting, factory: "Callable[[Node], NodeProgram]"
) -> "EngineView | str":
    """Attempt to lower a columnar run; returns the armed view or a reason.

    Lowering engages when ``factory`` is ``functools.partial(Cls,
    **config)`` with no positional arguments and ``Cls`` a
    :class:`VectorProgram` subclass, the delivery filter is absent or
    non-transforming, every vertex label is an exact 64-bit ``int``, and
    ``Cls.vector_kernel`` accepts a probe built for the first label.  Any
    refusal returns a short string naming the check that refused, and the
    caller builds the programs and runs the stepped columnar path over the
    same ``accounting`` — the per-node fallback the protocol guarantees is
    exact.
    """
    labels = accounting.labels
    if not labels:
        return "no programs"
    cls = factory.func if type(factory) is partial and not factory.args else None
    if not (isinstance(cls, type) and issubclass(cls, VectorProgram)):
        return "factory not a VectorProgram partial"
    filt = accounting.filt
    if filt is not None and filt.transforms:
        return "transforming filter"
    if countOf(map(type, labels), int) != len(labels):
        return "labels not all int"
    if not (INT64_MIN <= min(labels) and max(labels) <= INT64_MAX):
        return "labels outside int64"
    view = EngineView(accounting)
    kernel = cls.vector_kernel(factory(labels[0]), view)
    if kernel is None:
        return "kernel declined"
    view._kernel = kernel
    return view


__all__ = [
    "EngineView",
    "INT64_MAX",
    "INT64_MIN",
    "MaxFloodKernel",
    "VectorKernel",
    "VectorProgram",
    "int_payload_bits",
    "repetition_frame_bits",
    "try_lower",
]
