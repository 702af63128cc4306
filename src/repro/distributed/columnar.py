"""Columnar simulator engine: flat-array delivery kernels over CSR rows.

Broadcast rounds obey one admission invariant — one identical payload per
sender per round — so per-message work collapses into per-sender work, and
per-delivery work (one inbox dict insert per receiver) disappears too: one
round of broadcast traffic becomes a handful of flat-array operations —

* **gather** — ``ctx.broadcast`` writes the payload and a flag byte
  straight into the run's outgoing columns
  (:class:`~repro.distributed.node.SendColumns`, indexed by node), and
  each collection pass copies them into the round's ``sent`` flag and
  payload columns with two C-level slice copies — no per-sender Python
  runs — then masks out degree-0 senders;
* **sizing** — one pass over the whole payload column: when every entry is
  an exact ``int`` in ``[0, 2**63)`` (:func:`exact_int_column`) the shared
  kernel :func:`int_column_bits` sizes the column into ``bits_col``, and
  the same ``int64`` column feeds the receivers' row-max fold; any other
  column is sized per sender through a run-lifetime
  :class:`~repro.distributed.encoding.PayloadSizeTable`, so
  :func:`~repro.distributed.encoding.estimate_bits` runs once per distinct
  payload value per run;
* **accounting** — :class:`BroadcastAccounting`, the one kernel both the
  stepped collect and lowered rounds
  (:class:`~repro.distributed.vectorize.EngineView`) call once per pass:
  messages / bits / cut / overlay / violation totals are NumPy mask
  dot-products over preallocated per-node count columns, deposited in a
  preallocated
  :class:`~repro.distributed.metrics.RoundTally` that is flushed into
  :class:`~repro.distributed.metrics.Metrics` once per round;
* **delivery** — no inbox dicts are built: every receiver owns one
  persistent :class:`ColumnarInbox` view over the shared round state.  In
  the common every-node-broadcasts round the payload lists of *all*
  receivers are materialised by a single NumPy fancy-index over the
  concatenated (sorted) neighbour rows and each ``values()`` call is a
  C-level list slice; otherwise ``values()`` filters the receiver's row
  against the ``sent`` column.  The views hold no row of their own: the
  sorted neighbour rows are built once, the first time a view walks one
  in order, and order-free questions (``len``, ``bool``, membership) read
  the raw CSR row.

Rounds that contain targeted sends are not collected here at all: the
contexts flag a shared signal cell and the engine delegates the whole
round to the shared targeted fast path
(:mod:`repro.distributed.targeted`), which reuses this run's payload size
table.  The kernels below therefore only ever see pure-broadcast rounds.

Parity contract (the gate this engine ships under): the columnar engine is
bit-for-bit identical to the ``indexed`` engine — outputs,
``Metrics.as_dict()``, ``bits_per_round`` — for every program under all
four communication models and under every adversary.  The load-bearing
details of the broadcast kernels:

* inbox key order — the indexed engine inserts senders in ascending index
  order, so :class:`ColumnarInbox` iterates the *sorted* neighbour rows
  (:meth:`~repro.graphs.topology.CompiledTopology.sorted_neighbor_rows`),
  never raw CSR order;
* adversaries — an active delivery filter is consulted once per sender via
  :meth:`~repro.distributed.adversary.DeliveryFilter.deliver_mask` (for
  drops, a keyed-hash mask over ``(round, src, dst)``), and delivery falls
  back to eager per-receiver inbox dicts so stateful filters observe every
  decision; decisions are order-independent by the adversary design rules,
  so counters and inboxes match the indexed engine exactly;
* enforcement — when a payload exceeds an enforcing model's budget the
  engine re-walks the senders in order and raises
  :class:`~repro.distributed.errors.BandwidthExceededError` naming the
  first violating sender's first link, with the metrics flushed up to and
  including that sender.

The single-payload inbox lists are *shared* between
receivers, and the inbox views are valid only for the round they were
collected for (the engine reuses the underlying buffers): programs must
treat inboxes as read-only and must not stash them across rounds — which
every shipped program already satisfies.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from operator import countOf
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.distributed.encoding import PayloadSizeTable
from repro.distributed.errors import BandwidthExceededError
from repro.distributed.metrics import Metrics, RoundTally, flush_round_tally
from repro.distributed.node import NodeContext, SendColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.adversary import DeliveryFilter
    from repro.distributed.simulator import Simulator


def have_numpy() -> bool:
    """Always ``True``: NumPy is a required dependency of the engines.

    Kept for callers that record it, e.g. in a benchmark's environment
    fingerprint.
    """
    return True


#: ``2**k`` for ``k`` in ``0..62``: the bit length of ``0 <= v < 2**63``
#: is the number of these that are ``<= v``.
_POWERS_OF_TWO = np.array([1 << k for k in range(63)], dtype=np.int64)


def int_column_bits(values: np.ndarray, copies: int | None = None) -> np.ndarray:
    """Wire size of every entry of a *nonnegative* ``int64`` column.

    Bit-for-bit :func:`~repro.distributed.encoding.estimate_bits` per
    entry: the shared whole-column sizing kernel of the stepped and lowered
    broadcast rounds and the targeted collection path.  Each entry costs
    ``max(1, bit_length) + 1`` bits (with ``copies``: the size of the
    ``copies``-tuple repetition frame of the value, ``2 + copies * (2 +
    that)``).  The bit length of ``v >= 0`` is the number of powers of two
    ``2**k <= v``, found by one binary search per entry over the int64
    powers of two — exact integer comparisons, so no float log is ever
    trusted near a power-of-two boundary.
    """
    bits = np.searchsorted(_POWERS_OF_TWO, values, side="right")  # bit length
    np.maximum(bits, 1, out=bits)
    bits += 1
    if copies is not None:
        bits += 2
        bits *= copies
        bits += 2
    return bits


#: int64 minimum: the "nothing heard" identity of :class:`BlockedRowMax` (safe
#: because the fold is a pure max — an identity-valued *delivered* label
#: folds to the identity, and ``heard > best`` is then false exactly as in
#: the stepped per-node fold).
INT64_MIN = -(2**63)

#: Arcs one :class:`BlockedRowMax` block gathers (plus at most one row's length).
_FOLD_BLOCK = 1 << 16


class BlockedRowMax:
    """Per-row maximum of a payload column gathered along one CSR's rows.

    ``fold(values, cols)`` returns a column whose entry ``i`` is the max
    of ``values[cols[a]]`` over the arcs ``a`` in
    ``indptr[i]:indptr[i + 1]``; arcs whose sender's ``live`` flag (a node
    column) or whose own ``keep`` flag (an arc column aligned with
    ``cols``) is off fold as :data:`INT64_MIN`.  Entries of empty rows are
    unspecified — gate on degree.  ``values`` is an ``int64`` column and
    ``cols`` any arc column laid out by ``indptr`` (the raw CSR
    ``indices`` or the sorted rows).  The one fold of the stepped
    all-senders rounds and the lowered rounds.

    The rows are folded in blocks of whole rows that hold about
    :data:`_FOLD_BLOCK` arcs, so no temporary is arc-count long: a max does
    not depend on where blocks split, as long as they split between rows.
    The block plan depends on ``indptr`` alone and is made once, and every
    block reuses one ``intp`` index and one payload buffer: a whole-column
    ``np.take`` with ``int32`` indices would first copy them to ``intp``,
    and fresh block temporaries on every call cost page faults.  A block's
    reduction stops at its last nonempty row: a trailing empty row's
    segment start would lie past the block's arcs.
    """

    __slots__ = ("indptr", "blocks", "_index", "_gathered")

    def __init__(self, indptr: np.ndarray) -> None:
        n = len(indptr) - 1
        arcs = int(indptr[n])
        # Each block starts at the row holding every _FOLD_BLOCK-th arc.
        splits = np.searchsorted(indptr, np.arange(_FOLD_BLOCK, arcs, _FOLD_BLOCK), "right")
        splits -= 1
        bounds = list(dict.fromkeys([0, *splits.tolist(), n]))  # ascending, distinct
        self.indptr = indptr
        #: ``(first row, row past the last nonempty one, first arc, end arc)``
        self.blocks: list[tuple[int, int, int, int]] = []
        size = 0
        for r0, r1 in zip(bounds, bounds[1:]):
            lo, hi = int(indptr[r0]), int(indptr[r1])
            if lo < hi:
                stop = r0 + int(np.searchsorted(indptr[r0:r1], hi))
                self.blocks.append((r0, stop, lo, hi))
                size = max(size, hi - lo)
        self._index = np.empty(size, dtype=np.intp)
        self._gathered = np.empty(size, dtype=np.int64)

    def fold(
        self,
        values: np.ndarray,
        cols: np.ndarray,
        live: np.ndarray | None = None,
        keep: np.ndarray | None = None,
    ) -> np.ndarray:
        """The per-row maxima of ``values`` along ``cols`` (see the class)."""
        indptr = self.indptr
        out = np.empty(len(indptr) - 1, dtype=np.int64)
        for r0, stop, lo, hi in self.blocks:
            index = self._index[: hi - lo]
            index[:] = cols[lo:hi]
            # "clip" never fires on CSR indices; "raise" would buffer ``out``.
            gathered = np.take(values, index, out=self._gathered[: hi - lo], mode="clip")
            if live is not None:
                np.putmask(gathered, ~np.take(live, index), INT64_MIN)
            if keep is not None:
                np.putmask(gathered, ~keep[lo:hi], INT64_MIN)
            np.maximum.reduceat(gathered, indptr[r0:stop] - lo, out=out[r0:stop])
        return out


def exact_int_column(payloads: list) -> np.ndarray | None:
    """``payloads`` as an ``int64`` column when :func:`int_column_bits` may size it.

    Returns ``None`` — the caller must size entry by entry — unless every
    payload is an exact ``int`` (not ``bool``, not an ``int`` subclass) in
    ``[0, 2**63)``.  The exact-type scan is load-bearing: ``True == 1`` and
    ``1.0 == 1``, and ``np.fromiter`` would silently accept both.
    """
    count = len(payloads)
    if not count or countOf(map(type, payloads), int) != count:
        return None
    try:
        values = np.fromiter(payloads, np.int64, count)
    except OverflowError:
        return None
    if values.min() < 0:
        return None
    return values


class _RoundState:
    """One run's shared send-state, rebuilt in place every collection pass.

    All :class:`ColumnarInbox` views of a run alias one instance, so
    resetting the round costs a few slice assignments instead of
    re-constructing one view per receiver per round.  The primary store is
    the ``pays`` payload *column* (payload object per sender index, copied
    from the contexts' outgoing column); the Mapping contract's per-sender
    singleton lists (``plists``) are materialised lazily via
    :meth:`ensure_plists`, only on rounds where a program actually uses the
    dict-like accessors — a pure fold like flood-max's
    :meth:`ColumnarInbox.max_heard` never pays for them.

    ``ints`` is the round's payload column as ``int64`` when every entry is
    an exact nonnegative int (the column the sizing kernel read, reused by
    the row-max fold), else ``None``.  ``flat`` caches the round's
    bulk-gathered payload lists and ``pays_flat`` the bulk-gathered raw
    payloads (both aligned with the concatenated sorted neighbour rows,
    hence sliceable by CSR ``indptr`` bounds); each is built on first access
    and only for all-senders rounds.  Stale column entries are guarded by
    the ``sent`` flags, so per-round reset clears only the caches.
    ``indices`` is the raw CSR neighbour column, and ``rows`` the
    topology's sorted neighbour rows once a view has walked one
    (:meth:`sorted_row`).
    """

    __slots__ = (
        "pays",
        "plists",
        "plists_valid",
        "sender_list",
        "sent",
        "labels",
        "topology",
        "indices",
        "rows",
        "all_sent",
        "ints",
        "flat",
        "build_flat",
        "pays_flat",
        "build_pays_flat",
        "row_max",
        "build_row_max",
    )

    def __init__(self, accounting: "BroadcastAccounting") -> None:
        n = accounting.n
        self.pays: list[Any] = [0] * n
        self.plists: list[list[Any] | None] = [None] * n
        self.plists_valid = False
        self.sender_list = accounting.sender_list
        self.sent = accounting.sent
        self.labels = accounting.labels
        self.topology = accounting.sim.topology  # ``index`` and the sorted rows
        self.indices = accounting.indices
        self.rows: list[tuple[int, ...]] | None = None
        self.all_sent = False
        self.ints: np.ndarray | None = None
        self.flat: list[list[Any]] | None = None
        self.build_flat: Callable[[], list[list[Any]]] | None = None
        self.pays_flat: list[Any] | None = None
        self.build_pays_flat: Callable[[], list[Any]] | None = None
        self.row_max: list[int] | None = None
        self.build_row_max: Callable[[], list[int]] | None = None

    def ensure_plists(self) -> list[list[Any] | None]:
        """Materialise the round's per-sender singleton payload lists.

        One list per sender is shared by all its receivers.  Entries of
        non-senders may be stale from an earlier
        round; every consumer filters through the ``sent`` flags (or, on
        all-sent rounds, touches sender rows only), so they are never
        observed.
        """
        plists = self.plists
        if not self.plists_valid:
            pays = self.pays
            for j in self.sender_list():
                plists[j] = [pays[j]]
            self.plists_valid = True
        return plists

    def sorted_row(self, i: int) -> tuple[int, ...]:
        """Receiver ``i``'s ascending neighbour row (all rows built on first use)."""
        rows = self.rows
        if rows is None:
            rows = self.rows = self.topology.sorted_neighbor_rows()
        return rows[i]


class ColumnarInbox(Mapping):
    """Read-only inbox view: one receiver's window onto the round state.

    Instead of one dict entry per delivered message, every receiver owns
    one of these for the whole run: iteration walks the receiver's
    ascending-sorted neighbour row and keeps the neighbours that broadcast
    this round (``sent`` flag column), resolving payload lists straight out
    of the shared :class:`_RoundState`.  Key order therefore equals the
    indexed engine's insertion order (ascending sender index), which the
    parity contract requires.  When every node broadcast, ``values()``
    degenerates to a C-level slice of the round's bulk-gathered flat
    payload list.  A view stores only its receiver index and CSR bounds:
    the sorted row comes from the round state when a method walks it in
    order, and ``len``, ``bool`` and membership, which do not depend on
    order, read the raw CSR row.

    Views alias buffers the engine rewrites each round: read them only
    during the round they were handed to ``on_round`` for, and treat the
    (receiver-shared) payload lists as read-only.
    """

    __slots__ = ("_lo", "_hi", "_i", "_st")

    def __init__(self, lo: int, hi: int, i: int, st: _RoundState) -> None:
        self._lo = lo
        self._hi = hi
        self._i = i
        self._st = st

    def __iter__(self):
        st = self._st
        labels = st.labels
        row = st.sorted_row(self._i)
        if st.all_sent:
            return iter([labels[j] for j in row])
        sent = st.sent
        return iter([labels[j] for j in row if sent[j]])

    def __len__(self) -> int:
        st = self._st
        if st.all_sent:
            return self._hi - self._lo
        sent = st.sent
        total = 0
        for j in st.indices[self._lo : self._hi]:
            if sent[j]:
                total += 1
        return total

    def __bool__(self) -> bool:
        # ``if inbox:`` short-circuits at the first broadcasting neighbour
        # instead of counting them all through ``__len__``.
        st = self._st
        if st.all_sent:
            return self._hi != self._lo
        sent = st.sent
        return any(sent[j] for j in st.indices[self._lo : self._hi])

    def __getitem__(self, src: Any) -> list[Any]:
        st = self._st
        j = st.topology.index.get(src, -1)
        if j >= 0 and st.sent[j] and j in st.indices[self._lo : self._hi]:
            plist = st.ensure_plists()[j]
            if plist is not None:
                return plist
        raise KeyError(src)

    def values(self):
        """The payload lists of this round's broadcasting neighbours."""
        st = self._st
        flat = st.flat
        if flat is not None:
            # ``flat`` is only ever set on an all-sent round: hot path, one
            # C-level slice at this receiver's CSR bounds.
            return flat[self._lo : self._hi]
        if st.all_sent:
            return st.build_flat()[self._lo : self._hi]
        sent = st.sent
        plists = st.ensure_plists()
        return [plists[j] for j in st.sorted_row(self._i) if sent[j]]

    def items(self):
        """``(sender label, payload list)`` pairs in ascending sender order."""
        st = self._st
        labels = st.labels
        plists = st.ensure_plists()
        row = st.sorted_row(self._i)
        if st.all_sent:
            return [(labels[j], plists[j]) for j in row]
        sent = st.sent
        return [(labels[j], plists[j]) for j in row if sent[j]]

    def max_heard(self, default: Any) -> Any:
        """Fold-pushdown: max of ``default`` and the delivered payloads.

        The columnar counterpart of
        ``max(chain.from_iterable(inbox.values()), default)`` for
        broadcast workloads with totally ordered payloads (flood-max's
        vertex labels): the fold runs as one C-level ``max`` over a slice
        of the round's flat *payload* column, skipping the Mapping
        facade's singleton-list materialisation entirely.  Engine-agnostic
        programs dispatch on the inbox type — dict inboxes (indexed and
        reference engines, the columnar adversary path) take the generic
        itertools fold, columnar views take this accessor —
        and the result is identical either way, which the engine-parity
        tests pin down.
        """
        st = self._st
        row_max = st.row_max
        if row_max is None and st.all_sent and st.ints is not None:
            row_max = st.build_row_max()
        if row_max is not None:
            # Fastest path: the whole round's per-receiver maxima, one
            # BlockedRowMax fold of the int64 payload column (entries of
            # empty rows are unspecified, hence the degree guard).
            if self._lo == self._hi:
                return default
            heard = row_max[self._i]
            return heard if heard > default else default
        if st.all_sent:
            flat = st.pays_flat
            if flat is None:
                flat = st.build_pays_flat()
            vals = flat[self._lo : self._hi]
        else:
            pays = st.pays
            sent = st.sent
            vals = [pays[j] for j in st.sorted_row(self._i) if sent[j]]
        if vals:
            heard = max(vals)
            return heard if heard > default else default
        return default


def _crossing_counts(topo, flags: list[bool]) -> array:
    """Per-node count of CSR neighbours whose ``flags`` side differs."""
    indptr, indices = topo.indptr, topo.indices
    counts = array("q", [0]) * topo.n
    for i in range(topo.n):
        mine = flags[i]
        counts[i] = sum(
            1 for pos in range(indptr[i], indptr[i + 1]) if flags[indices[pos]] != mine
        )
    return counts


def _virtual_counts(topo, graph_sets) -> array:
    """Per-node count of CSR neighbours that are not input-graph neighbours."""
    labels = topo.labels
    indptr, indices = topo.indptr, topo.indices
    counts = array("q", [0]) * topo.n
    for i in range(topo.n):
        gset = graph_sets[i]
        counts[i] = sum(
            1
            for pos in range(indptr[i], indptr[i + 1])
            if labels[indices[pos]] not in gset
        )
    return counts


class BroadcastAccounting:
    """One columnar run's broadcast columns and its per-pass accounting kernel.

    Built once per run by the columnar engine and handed to both of its
    round drivers — the stepped collect (:func:`build_columnar_collect`)
    and, when the run lowers, :class:`~repro.distributed.vectorize.EngineView`
    — so the two can never account a broadcast pass differently.  It owns:

    * the run-lifetime columns: degrees, ``nonempty_np`` (the
      positive-degree mask) and ``n_connected`` (the positive-degree vertex
      count: degree-0 vertices never send and sit in
      no receiver's row, so ``sent_count == n_connected`` is an all-senders
      pass), the cut-crossing and overlay per-node count columns, and under
      an adversary the sorted neighbour *label* rows ``deliver_mask`` takes;
      also their zero-copy NumPy views, including ``indptr_np`` and the
      ``int32`` ``indices_np`` over the CSR arrays, and the run's row-max
      fold ``row_fold`` (:class:`BlockedRowMax`).  Order-free folds (a row
      max) gather through ``indices_np`` directly;
    * two columns built on first access only, which a fault-free lowered
      run never reads: the concatenated ascending rows :attr:`all_rows_np`
      (sliceable by CSR ``indptr`` bounds; read by the stepped bulk payload
      gathers and the filtered lowered path's arc map) and the
      ascending-sorted neighbour tuple rows (:attr:`rows`; read by the
      stepped collect's adversary path and the adversary label rows; the
      inbox views read the same topology cache when they walk a row in
      order).  The topology's label
      index is not copied either: the views' ``__getitem__`` reads it when
      a program looks a sender up by label;
    * the send state of the pass being collected, filled by the round driver:
      the ``sent`` flag byte and ``bits_col`` payload size per sender,
      ``sent_count``, and the ascending ``senders`` list (``None`` until
      :meth:`sender_list` derives it from the flags);
    * the kernel itself, :meth:`account`, run once per collection pass.
    """

    __slots__ = (
        "sim",
        "metrics",
        "graph_sets",
        "filt",
        "n",
        "labels",
        "indptr",
        "indices",
        "degrees",
        "n_connected",
        "cut_counts",
        "virtual_counts",
        "mask_rows",
        "budget",
        "enforce",
        "broadcast_only",
        "model_name",
        "tally",
        "sent",
        "bits_col",
        "sent_count",
        "senders",
        "deg_np",
        "nonempty_np",
        "bits_np",
        "sent_np",
        "cut_np",
        "virt_np",
        "indptr_np",
        "indices_np",
        "_all_rows_np",
        "row_fold",
    )

    def __init__(
        self,
        sim: "Simulator",
        metrics: Metrics,
        graph_sets,
        filt: "DeliveryFilter | None",
    ) -> None:
        topo = sim.topology
        model = sim.model
        n = topo.n
        labels = topo.labels
        indptr = topo.indptr
        self.sim = sim
        self.metrics = metrics
        self.graph_sets = graph_sets
        self.filt = filt
        self.n = n
        self.labels = labels
        self.indptr = indptr
        self.indices = topo.indices
        self.degrees = topo.degrees
        deg_np = self.deg_np = np.frombuffer(topo.degrees, dtype=np.int64)
        self.nonempty_np = deg_np > 0
        self.n_connected = int(np.count_nonzero(self.nonempty_np))
        cut = sim.cut
        self.cut_counts = (
            _crossing_counts(topo, [labels[i] in cut for i in range(n)])
            if cut is not None
            else None
        )
        self.virtual_counts = (
            _virtual_counts(topo, graph_sets) if graph_sets is not None else None
        )
        self.mask_rows = (
            [[labels[j] for j in row] for row in self.rows]
            if filt is not None
            else None
        )
        self.budget = model.bandwidth_bits
        self.enforce = model.enforce
        self.broadcast_only = model.broadcast_only
        self.model_name = model.name
        self.tally = RoundTally()
        self.sent = bytearray(n)
        self.bits_col = array("q", [0]) * n
        self.sent_count = 0
        self.senders: list[int] | None = None

        self.bits_np = np.frombuffer(self.bits_col, dtype=np.int64)
        # Zero-copy boolean view of the sent column; the bytearray is never
        # resized, so the exported buffer stays valid all run.
        self.sent_np = np.frombuffer(self.sent, dtype=np.uint8).view(np.bool_)
        self.cut_np = self.virt_np = None
        if self.cut_counts is not None:
            self.cut_np = np.frombuffer(self.cut_counts, dtype=np.int64)
        if self.virtual_counts is not None:
            self.virt_np = np.frombuffer(self.virtual_counts, dtype=np.int64)
        self.indptr_np = np.frombuffer(indptr, dtype=np.int64)
        self.indices_np = np.frombuffer(topo.indices, dtype=np.int32)
        self._all_rows_np: np.ndarray | None = None
        self.row_fold = BlockedRowMax(self.indptr_np)

    @property
    def all_rows_np(self) -> np.ndarray:
        """The concatenated ascending neighbour rows (built on first read).

        Sliceable by CSR ``indptr`` bounds.  Only order-sensitive consumers
        read it: the stepped bulk payload gathers and the filtered lowered
        path's sender-side arc map; order-free folds read ``indices_np``.
        """
        keys = self._all_rows_np
        if keys is None:
            n = self.n
            # Sorting every arc by its (row, column) key concatenates the
            # sorted neighbour rows — the column order ``rows`` yields.
            keys = np.repeat(np.arange(n, dtype=np.int64) * n, self.deg_np)
            keys += self.indices_np
            keys.sort()
            keys %= n  # in place: one arc-length column, not two
            self._all_rows_np = keys
        return keys

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """Ascending-sorted neighbour index rows (the topology's cached tuples)."""
        return self.sim.topology.sorted_neighbor_rows()

    def sender_list(self) -> list[int]:
        """Ascending sender indices of the pass (derived from ``sent`` once)."""
        senders = self.senders
        if senders is None:
            senders = self.senders = np.flatnonzero(self.sent_np).tolist()
        return senders

    def _walk(self, senders: list[int]) -> None:
        """Ordered replay of an enforced violation; always raises.

        :meth:`account` calls it once its mask kernels found an over-budget
        sender under an enforcing model.  Senders are walked in ascending
        order, so the partially-flushed metrics and the message text name
        the first violating sender exactly as a per-sender oracle would.
        """
        bits_col = self.bits_col
        degrees = self.degrees
        cut_counts = self.cut_counts
        virtual_counts = self.virtual_counts
        budget = self.budget
        messages = 0
        bits_total = 0
        max_bits = self.tally.counts[RoundTally.MAX_BITS]
        cut_messages = 0
        cut_bits = 0
        virtual = 0
        for k in range(len(senders)):
            src_i = senders[k]
            bits = bits_col[src_i]
            deg = degrees[src_i]
            messages += deg
            bits_total += deg * bits
            if bits > max_bits:
                max_bits = bits
            if cut_counts is not None:
                crossing = cut_counts[src_i]
                if crossing:
                    cut_messages += crossing
                    cut_bits += crossing * bits
            if virtual_counts is not None:
                virtual += virtual_counts[src_i]
            if bits > budget:
                flush_round_tally(
                    self.metrics, messages, bits_total, max_bits, cut_messages,
                    cut_bits, deg, (k + 1) if self.broadcast_only else 0, virtual,
                )
                labels = self.labels
                first = labels[self.indices[self.indptr[src_i]]]
                raise BandwidthExceededError(
                    f"message(s) on link {labels[src_i]!r}->{first!r} use "
                    f"{bits} bits, budget is {budget} "
                    f"({self.model_name})"
                )

    def account(self) -> None:
        """Charge the queued pass to the run's metrics (one tally flush).

        The totals are mask dot-products over the count columns; an
        over-budget sender under an enforcing model re-runs the ordered
        :meth:`_walk`, which raises.  The tally is flushed on every pass,
        empty ones included.
        """
        metrics = self.metrics
        tally = self.tally
        tally.reset(metrics.max_message_bits)
        counts = tally.counts
        if self.sent_count:
            mask = self.sent_np
            bits_np = self.bits_np
            deg_np = self.deg_np
            budget = self.budget
            if budget is not None:
                over = (bits_np > budget) & mask
                if over.any():
                    if self.enforce:
                        self._walk(self.sender_list())  # raises
                    counts[RoundTally.VIOLATIONS] = int(deg_np.dot(over))
            counts[RoundTally.MESSAGES] = int(deg_np.dot(mask))
            counts[RoundTally.BITS] = int((bits_np * deg_np).dot(mask))
            max_bits = int((bits_np * mask).max())
            if max_bits > counts[RoundTally.MAX_BITS]:
                counts[RoundTally.MAX_BITS] = max_bits
            if self.cut_np is not None:
                counts[RoundTally.CUT_MESSAGES] = int(self.cut_np.dot(mask))
                counts[RoundTally.CUT_BITS] = int((bits_np * self.cut_np).dot(mask))
            if self.virt_np is not None:
                counts[RoundTally.VIRTUAL] = int(self.virt_np.dot(mask))
            if self.broadcast_only:
                counts[RoundTally.BROADCASTS] = self.sent_count
        tally.flush(metrics)


def build_columnar_collect(
    accounting: BroadcastAccounting,
    contexts: list[NodeContext],
    shared: SendColumns,
) -> Callable[[Iterable[int]], list[Any]]:
    """Build the columnar engine's stepped per-round ``collect`` callable.

    ``accounting`` is the run's :class:`BroadcastAccounting` (columns,
    model, cut, metrics and delivery filter).  On top of it this builds the
    stepped-only state — the payload size table, the per-receiver inbox
    views and their bulk-gather kernels — and returns the closure
    :meth:`~repro.distributed.simulator.Simulator._drive` calls once per
    round.  ``shared`` holds the contexts' outgoing broadcast columns and
    their targeted-traffic signal cell: rounds that saw a ``ctx.send``
    delegate to the shared targeted fast path
    (:func:`~repro.distributed.targeted.build_targeted_collect`, built
    lazily on first use and sharing this run's payload size table).
    """
    n = accounting.n
    labels = accounting.labels
    indptr = accounting.indptr
    metrics = accounting.metrics
    filt = accounting.filt
    account = accounting.account
    sender_list = accounting.sender_list

    size_table = PayloadSizeTable()
    measure = size_table.measure

    # Persistent per-round columns: the shared sent-flag and size columns,
    # plus the payload object column (the Mapping facade's singleton lists
    # materialise lazily from it, see ``_RoundState.ensure_plists``).
    state = _RoundState(accounting)
    sent = state.sent
    pays = state.pays
    bits_col = accounting.bits_col
    bits_np = accounting.bits_np
    out_pays = shared.pays
    out_sent = shared.sent
    tsignal = shared.targeted
    zero_bytes = bytes(n)
    none_list: list[Any] = [None] * n

    views: list[ColumnarInbox] | None = None
    if filt is None:
        # Sorted rows have the same per-node lengths as the CSR rows, so the
        # concatenated sorted-row offsets are exactly ``indptr`` — the flat
        # bulk-gather below can be sliced by plain CSR bounds.
        views = [ColumnarInbox(indptr[i], indptr[i + 1], i, state) for i in range(n)]
        fold = accounting.row_fold.fold
        indices_np = accounting.indices_np
        obj_np = np.empty(n, dtype=object)

        def build_flat() -> list[list[Any]]:
            """Bulk-gather every receiver's payload lists in two C passes."""
            obj_np[:] = state.ensure_plists()
            flat = state.flat = obj_np[accounting.all_rows_np].tolist()
            return flat

        def build_pays_flat() -> list[Any]:
            """Bulk-gather every receiver's raw payloads (fold pushdown).

            Along the sorted rows: ``max`` keeps the first of equal
            payloads of different types (``1`` and ``True``), so this
            fold depends on order.
            """
            obj_np[:] = pays
            flat = state.pays_flat = obj_np[accounting.all_rows_np].tolist()
            return flat

        state.build_flat = build_flat
        state.build_pays_flat = build_pays_flat

        def build_row_max() -> list[int]:
            """Per-receiver payload maxima of an all-senders round.

            Folds every receiver's row of the round's ``int64`` payload
            column (the one the sizing pass built) with the run's
            :class:`BlockedRowMax`.  A max does not depend on the order of
            its row, so it gathers through the raw CSR ``indices``.
            """
            maxima = state.row_max = fold(state.ints, indices_np).tolist()
            return maxima

        state.build_row_max = build_row_max

    # Adversary path only: the sorted neighbour rows and their label rows
    # handed to deliver_mask.
    mask_rows = accounting.mask_rows
    rows = accounting.rows if filt is not None else None

    # Degree-0 broadcasts are no-ops; masking them out exists only for
    # graphs that actually contain isolated vertices.
    n_connected = accounting.n_connected
    nonempty_np = accounting.nonempty_np if n_connected != n else None
    sent_np = accounting.sent_np

    # Targeted fast path, built on first use so broadcast-only programs
    # never construct it.
    targeted_collect: list[Callable[[Iterable[int]], list[Any]] | None] = [None]

    def collect(sender_ids: Iterable[int]) -> list[Any]:
        if tsignal[0]:
            # At least one ctx.send this round: the whole round (broadcasts
            # included, replayed at their outbox positions) goes through the
            # shared targeted-delivery path, reusing this run's size table.
            tsignal[0] = False
            targeted = targeted_collect[0]
            if targeted is None:
                from repro.distributed.targeted import build_targeted_collect

                targeted = targeted_collect[0] = build_targeted_collect(
                    accounting.sim, contexts, shared, metrics, accounting.graph_sets,
                    filt, size_table,
                )
            return targeted(sender_ids)
        # ---- gather: the contexts' outgoing columns become the round's
        # columns by C-level slice copies.  Stale ``pays``/``plists``
        # entries are guarded by the ``sent`` flags, so only the round
        # caches need clearing.
        sent[:] = out_sent
        out_sent[:] = zero_bytes
        pays[:] = out_pays
        if nonempty_np is not None:
            # Degree-0 broadcast: a no-op, exactly like the indexed engine's
            # empty outbox (no metrics, no payload counter).
            np.logical_and(sent_np, nonempty_np, out=sent_np)
        sent_count = accounting.sent_count = sent.count(1)
        accounting.senders = None
        state.all_sent = False
        state.flat = None
        state.pays_flat = None
        state.row_max = None
        state.plists_valid = False

        # ---- sizing: one exact whole-column kernel when every entry is a
        # nonnegative int64-sized exact int (non-senders' stale entries
        # get sizes nobody reads), the size table per sender otherwise.  A
        # round without senders hands out no views, so its ``ints`` is
        # never read.
        if sent_count:
            ints = state.ints = exact_int_column(pays)
            if ints is not None:
                bits_np[:] = int_column_bits(ints)
            else:
                for src_i in sender_list():
                    bits_col[src_i] = measure(pays[src_i])

        # ---- accounting: the shared kernel, one RoundTally flush.
        account()

        # ---- delivery: persistent lazy views (fault-free) or masked dicts.
        if not sent_count:
            return none_list
        if filt is None:
            state.all_sent = sent_count == n_connected
            return views
        # Adversary seam: one deliver_mask call per sender (keyed-hash mask
        # for drops, a deliver() loop otherwise), then eager per-receiver
        # insertion so every engine observes identical inbox contents.
        # Filter before the liveness check, exactly as the other engines do.
        halted = [ctx.halted for ctx in contexts]
        eager: list[dict[Any, list[Any]] | None] = [None] * n
        deliver_mask = filt.deliver_mask
        senders = sender_list()
        if not filt.transforms:
            for src_i in senders:
                src = labels[src_i]
                bits = bits_col[src_i]
                mask = deliver_mask(src, mask_rows[src_i], bits)
                # One singleton list per sender, shared by all its receivers.
                plist = [pays[src_i]]
                row = rows[src_i]
                for pos in range(len(row)):
                    if not mask[pos]:
                        continue
                    j = row[pos]
                    if halted[j]:
                        continue
                    box = eager[j]
                    if box is None:
                        eager[j] = {src: plist}
                    else:
                        box[src] = plist
            return eager
        # Transforming adversary: the broadcast may arrive differently at
        # each neighbour, so the shared singleton list is invalid — call
        # transform per admitted edge (deliver -> transform -> liveness,
        # the canonical seam order) and materialize one list per edge.
        transform = filt.transform
        for src_i in senders:
            src = labels[src_i]
            bits = bits_col[src_i]
            dst_row = mask_rows[src_i]
            mask = deliver_mask(src, dst_row, bits)
            payload = pays[src_i]
            row = rows[src_i]
            for pos in range(len(row)):
                if not mask[pos]:
                    continue
                tpay = transform(src, dst_row[pos], payload, bits)
                j = row[pos]
                if halted[j]:
                    continue
                box = eager[j]
                if box is None:
                    eager[j] = {src: [tpay]}
                else:
                    box[src] = [tpay]
        return eager

    return collect


__all__ = [
    "BlockedRowMax",
    "BroadcastAccounting",
    "ColumnarInbox",
    "build_columnar_collect",
    "exact_int_column",
    "have_numpy",
    "int_column_bits",
]
