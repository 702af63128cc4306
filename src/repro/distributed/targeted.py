"""Targeted-send fast path of the columnar engine.

Without it the columnar engine could not carry targeted sends, which would
lock the fast engine out of every Congested Clique workload — the setting
the source paper actually lives in.  This module is one collection path
that consumes the per-sender grouped outboxes
(:class:`~repro.distributed.node.NodeContext` ``_t_dsts`` / ``_t_pays``
struct-of-arrays columns) which ``ctx.send`` appends to.

A round that saw at least one targeted send (the contexts flag a shared
one-element signal cell, so pure-broadcast rounds pay nothing) is collected
here instead of by the engine's broadcast kernels:

* **gather** — senders are walked in ascending index order (the order the
  indexed oracle inserts inbox keys in); each sender's destination /
  payload columns are drained into flat per-round columns by C-level list
  extends and recorded as one ``(sender, start, end, b_lo, b_hi)`` group,
  destinations resolve to dense indices through the compiled topology
  (label identity is detected once per run, making resolution a no-op for
  the shipped 0..n-1 graph families), and a round's broadcast — mixed
  rounds are legal — is expanded into the same columns at the position
  ``ctx.broadcast`` was called at (``_t_bpos``), so per-link message order
  is exactly the indexed engine's outbox order;
* **sizing** — one exact-type scan over the whole payload column: when
  every payload is an exact ``int`` in ``[0, 2**63)`` the column is sized
  by the shared exact-integer kernel
  (:func:`~repro.distributed.columnar.int_column_bits`, also the lowered
  rounds' kernel); any other column goes through the run-lifetime
  :class:`~repro.distributed.encoding.PayloadSizeTable`, one probe per
  message and one per broadcast segment.  An all-int round builds a
  Python size list only for the ordered path below;
* **plan reuse** — everything a fault-free round needs that does not
  depend on payloads (the stable destination sort, link and receiver
  segments, cut and overlay counts, the per-receiver inbox views) is one
  :class:`_DeliveryPlan`, keyed by the round's sender groups and flat
  destination column.  A round whose two lists compare equal to the
  previous plan's (two C-level list comparisons) reuses it, so a program
  that repeats its traffic pattern pays for the sort once per run; equal
  lists mean the same messages on the same links in the same order, so
  reuse is exact by construction.  A plan lives only as long as the
  engine holds the inboxes it delivered, and a reusing round replaces the
  plan's payload column together with every grouping cached from it, so
  a plan never pins a payload column beyond the following round;
* **accounting** — messages / bits / max / cut / overlay / violation
  totals reduce over the flat columns with NumPy kernels and flush once
  per round through the shared :class:`~repro.distributed.metrics.RoundTally`
  / :func:`~repro.distributed.metrics.flush_round_tally` seam.  Per-link
  CONGEST admission is a per-link prefix sum over the plan's sorted
  stream;
* **delivery** — fault-free rounds permute the payload column into
  per-receiver segments (CSR-style: one contiguous slice per receiver,
  one C-level ``map`` over the plan's permutation) and hand every
  receiver the plan's lazy :class:`TargetedInbox` Mapping view over its
  segment; every adversary round takes the ordered per-message path
  below instead.

The ordered path (:func:`build_targeted_collect`'s ``_ordered_collect``)
is the bit-for-bit reference: it walks the gathered stream exactly like
the indexed engine's collection loop — accounting per message, per-link
budget totals, enforcement raising mid-stream with partially flushed
metrics, the PR 5 adversary seam consulted per message
(:meth:`~repro.distributed.adversary.DeliveryFilter.deliver`, or one
:meth:`~repro.distributed.adversary.DeliveryFilter.deliver_mask` call for
a broadcast segment's uniform-size row) *before* the receiver-liveness
check — and builds eager per-receiver inbox dicts.  The NumPy kernels must
agree with it exactly; when a violation must raise under an enforcing
model, the vectorised path detects it cheaply and re-runs the ordered walk
so the raised error and the partially flushed metrics match the oracle.

Parity contract (the gate the fast path ships under): for any program, on
rounds containing targeted traffic, columnar runs are bit-for-bit
identical to the ``indexed`` engine — outputs, ``Metrics.as_dict()``,
``bits_per_round`` — under all communication models that admit targeted
sends and under every adversary.  Two deliberate representation
differences, both part of the columnar inbox contract: fault-free rounds
hand receivers :class:`TargetedInbox` views (not dicts), and
payload lists may be shared between receivers of one broadcast — programs
treat inboxes as read-only and do not stash them across rounds.  One
documented divergence: on an *enforcing* model, a mixed
broadcast-plus-targeted round expands the broadcast in compiled-topology
CSR order rather than the indexed engine's ``frozenset`` iteration order,
so when several links violate at once the named link may differ (the
raise, the exception type and the totals-at-raise semantics are
identical); pure-targeted rounds enforce in exact oracle order.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Mapping
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.distributed.columnar import exact_int_column, int_column_bits
from repro.distributed.encoding import PayloadSizeTable
from repro.distributed.errors import BandwidthExceededError
from repro.distributed.metrics import Metrics, RoundTally, flush_round_tally
from repro.distributed.node import NodeContext, SendColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.adversary import DeliveryFilter
    from repro.distributed.simulator import Simulator

#: Distinct-from-everything sentinel for the run-grouping loop (``None`` is
#: a legal sender label in principle, so equality with it must not match).
_NO_SRC: Any = object()


class TargetedInbox(Mapping):
    """Read-only inbox view over one receiver's scatter segment.

    The fault-free delivery kernel sorts the round's messages by
    destination (stable, so each receiver's segment keeps ascending-sender,
    outbox-order message order — the indexed engine's insertion order) and
    hands each receiver one of these views instead of building a dict per
    receiver.  The Mapping facade materialises the per-sender payload
    lists lazily, once per round, on first dict-style access: a program
    that only folds (:meth:`max_heard`) or never reads its inbox pays
    nothing.

    A view lives as long as its delivery plan: rounds that repeat the
    plan's traffic pattern hand the receiver the *same* view over that
    round's payload column.  Views are therefore valid only for the round
    they were handed to ``on_round`` for, and their payload lists are
    shared with the engine — the columnar engine's read-only inbox
    contract.  The grouped runs are cached on the plan beside the column
    they were grouped from, so a view holds nothing of a past round.
    """

    __slots__ = ("_plan", "_lo", "_hi")

    def __init__(self, plan: "_DeliveryPlan", lo: int, hi: int) -> None:
        self._plan = plan
        self._lo = lo
        self._hi = hi

    def _ensure_items(self) -> list[tuple[Any, list[Any]]]:
        """Group the segment's (ascending, pre-sorted) senders into runs."""
        plan = self._plan
        items = plan.grouped.get(self._lo)
        if items is not None:
            return items
        srcs, pays = plan.srcs, plan.pays
        items: list[tuple[Any, list[Any]]] = []
        append = items.append
        prev: Any = _NO_SRC
        plist: list[Any] = []
        for k in range(self._lo, self._hi):
            src = srcs[k]
            if prev is _NO_SRC or src != prev:
                plist = [pays[k]]
                append((src, plist))
                prev = src
            else:
                plist.append(pays[k])
        plan.grouped[self._lo] = items
        return items

    def __iter__(self):
        return iter([src for src, _ in self._ensure_items()])

    def __len__(self) -> int:
        return len(self._ensure_items())

    def __bool__(self) -> bool:
        # ``if inbox:`` is the universal emptiness idiom in node programs;
        # answering it must not force the sender grouping (a view handed to
        # a fold-only receiver would otherwise pay the full facade cost).
        return self._hi > self._lo

    def __getitem__(self, src: Any) -> list[Any]:
        for sender, plist in self._ensure_items():
            if sender == src:
                return plist
        raise KeyError(src)

    def items(self):
        """``(sender label, payload list)`` pairs in ascending sender order.

        Returns the view's cached run list directly (read-only contract):
        one grouping pass serves every accessor of the round.
        """
        return self._ensure_items()

    def values(self):
        """The payload lists, in ascending sender order."""
        return [plist for _, plist in self._ensure_items()]

    def max_heard(self, default: Any) -> Any:
        """Fold-pushdown: max of ``default`` and every delivered payload.

        The targeted counterpart of
        :meth:`~repro.distributed.columnar.ColumnarInbox.max_heard`: one
        C-level ``max`` over the receiver's contiguous payload segment,
        skipping the Mapping facade entirely.
        """
        lo, hi = self._lo, self._hi
        if lo == hi:
            return default
        heard = max(self._plan.pays[lo:hi])
        return heard if heard > default else default


class _PlannedInboxes(list):
    """A fault-free round's inbox list, owning the plan that delivered it.

    The collect callable keeps only a weak reference to it, so a plan and
    the payload column its views serve live exactly as long as the engine
    holds the inboxes: the next targeted round finds (and may reuse) them,
    and a broadcast round's inboxes replacing them frees them.
    """

    __slots__ = ("plan", "__weakref__")


class _DeliveryPlan:
    """The payload-independent half of one fault-free targeted round.

    Keyed by the round's sender ``groups`` and flat destination column
    ``t_dst``: a later round whose two lists compare equal sends the same
    messages over the same links in the same order, so every field below
    — sort order, link and receiver segments, cut and overlay counts, the
    inbox views — is that round's too, exactly.  Only sizes and payloads
    are recomputed per round; :meth:`serve` hands the views a round's
    payload column.
    """

    __slots__ = (
        "groups", "t_dst", "order", "order_list", "link_first", "crossing",
        "cut_messages", "virtual", "srcs", "pays", "grouped",
    )

    def __init__(self, groups: list[tuple[int, int, int, int, int]], t_dst: list[int]) -> None:
        self.groups = groups
        self.t_dst = t_dst
        #: stable destination-sort permutation, as an array and a list.
        self.order = None
        self.order_list: list[int] = []
        #: sorted-stream position of each message's link head (``None``
        #: when the model has no budget).
        self.link_first = None
        self.crossing = None
        self.cut_messages = 0
        self.virtual = 0
        #: the sorted sender labels and payloads every view reads.
        self.srcs: list[Any] = []
        self.pays: list[Any] = []
        #: each view's sender runs grouped from ``pays``, by segment start.
        self.grouped: dict[int, list[tuple[Any, list[Any]]]] = {}

    def serve(self, pays: list[Any]) -> None:
        """Point the plan's views at a new round's sorted payload column."""
        self.pays = pays
        self.grouped = {}


def build_targeted_collect(
    sim: "Simulator",
    contexts: list[NodeContext],
    shared: SendColumns,
    metrics: Metrics,
    graph_sets,
    filt: "DeliveryFilter | None",
    size_table: PayloadSizeTable | None = None,
) -> Callable[[Iterable[int]], list[Any]]:
    """Build the shared targeted-round ``collect`` callable.

    Invoked lazily by the columnar engine the first time a run actually
    sees a targeted send (broadcast-only runs never pay for it).  ``sim``
    supplies the compiled topology, model and cut exactly as the engines
    see them; ``shared`` holds the contexts' outgoing broadcast columns,
    which a mixed round's broadcasts are read from; ``size_table`` lets the
    columnar engine share its run-lifetime payload size cache with this
    path (``None`` builds a private table).
    """
    topo = sim.topology
    model = sim.model
    n = topo.n
    labels = topo.labels
    cut = sim.cut
    budget = model.bandwidth_bits
    enforce = model.enforce
    indptr, indices = topo.indptr, topo.indices
    if size_table is None:
        size_table = PayloadSizeTable()
    measure = size_table.measure
    out_pays = shared.pays
    out_sent = shared.sent
    zero_bytes = bytes(n)

    # Label identity: every shipped graph family labels vertices by their
    # dense index, making destination resolution a C-level list extend.
    # Exact ints only: ``False == 0`` and ``1.0 == 1``, but such a label
    # must reach the inbox as itself, not as its index.
    identity = all(type(label) is int and label == i for i, label in enumerate(labels))
    index_get = None if identity else topo.index.__getitem__

    cut_side: list[bool] | None = None
    if cut is not None:
        cut_side = [labels[i] in cut for i in range(n)]

    # Per-sender neighbour index rows for broadcast expansion on mixed
    # rounds, decoded from the CSR slice once per sender per run.
    rows_cache: list[list[int] | None] = [None] * n

    def nbr_row(src_i: int) -> list[int]:
        row = rows_cache[src_i]
        if row is None:
            row = rows_cache[src_i] = list(indices[indptr[src_i] : indptr[src_i + 1]])
        return row

    tally = RoundTally()
    MESSAGES, BITS, MAX_BITS = RoundTally.MESSAGES, RoundTally.BITS, RoundTally.MAX_BITS
    CUT_MESSAGES, CUT_BITS = RoundTally.CUT_MESSAGES, RoundTally.CUT_BITS
    VIOLATIONS, VIRTUAL = RoundTally.VIOLATIONS, RoundTally.VIRTUAL

    # Run-lifetime columns, built lazily on first use.
    side_arr = None
    labels_arr = None
    graph_keys_arr = None

    def _graph_keys():
        """Sorted packed ``src * n + dst`` keys of every input-graph arc."""
        nonlocal graph_keys_arr
        if graph_keys_arr is None:
            keys = []
            index = topo.index
            for i in range(n):
                base = i * n
                for lbl in graph_sets[i]:
                    keys.append(base + index[lbl])
            arr = np.fromiter(keys, np.int64, len(keys))
            arr.sort()
            graph_keys_arr = arr
        return graph_keys_arr

    def _ordered_collect(
        groups: list[tuple[int, int, int, int, int]],
        t_dst: list[int],
        t_pay: list[Any],
        t_bits: list[int],
        deliver: bool,
    ) -> list[dict[Any, list[Any]] | None] | None:
        """The oracle-order path: per-message accounting, filtering, delivery.

        Walks the gathered stream exactly like the indexed engine's
        collection loop (ascending senders, outbox order within a sender),
        so enforcement raises, adversary decisions and inbox contents are
        bit-for-bit the oracle's.  Serves as the adversary path and the
        enforcement replay (``deliver=False`` —
        accounting only, used when the vectorised kernels detected a
        violation that must raise).
        """
        inboxes: list[dict[Any, list[Any]] | None] | None = None
        halted: list[bool] | None = None
        if deliver:
            inboxes = [None] * n
            halted = [ctx.halted for ctx in contexts]
        # A transforming filter rewrites payloads in their per-edge column
        # slots (each flat-column entry belongs to exactly one edge, so the
        # write is per-edge materialization for free).  Deliver -> transform
        # -> liveness, the canonical seam order of every engine.
        transforms = filt is not None and filt.transforms

        messages = 0
        bits_total = 0
        max_bits = metrics.max_message_bits
        cut_messages = 0
        cut_bits = 0
        violations = 0
        virtual = 0

        for src_i, start, end, b_lo, b_hi in groups:
            src = labels[src_i]
            src_side = cut_side[src_i] if cut_side is not None else False
            gset = graph_sets[src_i] if graph_sets is not None else None
            link: dict[int, int] | None = {} if budget is not None else None
            # One deliver_mask consult covers a broadcast segment (uniform
            # payload size, the PR 5/6 bulk seam), built lazily when the
            # walk first enters the segment; everything else goes through
            # the per-message deliver seam.
            mask = None
            k = start
            while k < end:
                dst_i = t_dst[k]
                bits = t_bits[k]
                messages += 1
                bits_total += bits
                if bits > max_bits:
                    max_bits = bits
                if cut_side is not None and src_side != cut_side[dst_i]:
                    cut_messages += 1
                    cut_bits += bits
                if gset is not None and labels[dst_i] not in gset:
                    virtual += 1
                if link is not None:
                    total = link.get(dst_i, 0) + bits
                    link[dst_i] = total
                    if total > budget:
                        violations += 1
                        if enforce:
                            flush_round_tally(
                                metrics, messages, bits_total, max_bits,
                                cut_messages, cut_bits, violations, 0, virtual,
                            )
                            raise BandwidthExceededError(
                                f"message(s) on link {src!r}->{labels[dst_i]!r} "
                                f"use {total} bits, budget is {budget} "
                                f"({model.name})"
                            )
                if filt is not None:
                    if b_lo <= k < b_hi:
                        if mask is None:
                            mask = filt.deliver_mask(
                                src, [labels[j] for j in t_dst[b_lo:b_hi]], bits
                            )
                        delivered = mask[k - b_lo]
                    else:
                        delivered = filt.deliver(src, labels[dst_i], bits)
                    if not delivered:
                        k += 1
                        continue
                    if transforms:
                        t_pay[k] = filt.transform(src, labels[dst_i], t_pay[k], bits)
                    if halted is not None and halted[dst_i]:
                        k += 1
                        continue
                if deliver:
                    box = inboxes[dst_i]
                    if box is None:
                        inboxes[dst_i] = {src: [t_pay[k]]}
                    else:
                        plist = box.get(src)
                        if plist is None:
                            box[src] = [t_pay[k]]
                        else:
                            plist.append(t_pay[k])
                k += 1

        flush_round_tally(
            metrics, messages, bits_total, max_bits, cut_messages, cut_bits,
            violations, 0, virtual,
        )
        return inboxes

    last_round: Callable[[], _PlannedInboxes | None] | None = None

    def _planned_inboxes(
        groups: list[tuple[int, int, int, int, int]], t_dst: list[int]
    ) -> _PlannedInboxes:
        """The round's inboxes: the previous round's if the pattern repeats.

        Two C-level list comparisons decide reuse.  The groups are part of
        the key: an equal ``t_dst`` split differently across senders puts
        messages on other links.
        """
        nonlocal last_round, side_arr, labels_arr
        last = last_round() if last_round is not None else None
        if last is not None:
            plan = last.plan
            if plan.t_dst == t_dst and plan.groups == groups:
                return last
        new = _DeliveryPlan(groups, t_dst)
        m = len(t_dst)
        garr = np.array(groups, np.int64)
        t_src_np = np.repeat(garr[:, 0], garr[:, 2] - garr[:, 1])
        t_dst_np = np.fromiter(t_dst, np.int64, m)
        # One stable argsort by destination serves both the per-link budget
        # accounting and the delivery scatter: each receiver's messages form
        # a contiguous segment (ascending sender, outbox order preserved),
        # so (dst, src) link groups are contiguous runs in the sorted stream
        # and keep their within-link send order.  A 16-bit key makes NumPy
        # radix-sort; stable sorts of equal keys give the same permutation.
        key = t_dst_np.astype(np.uint16) if n <= 1 << 16 else t_dst_np
        order = new.order = np.argsort(key, kind="stable")
        new.order_list = order.tolist()
        sorted_dst = t_dst_np[order]
        src_sorted = t_src_np[order]
        seg_head = np.empty(m, np.bool_)
        seg_head[0] = True
        seg_head[1:] = sorted_dst[1:] != sorted_dst[:-1]
        if budget is not None:
            link_head = seg_head.copy()
            link_head[1:] |= src_sorted[1:] != src_sorted[:-1]
            new.link_first = np.flatnonzero(link_head)[np.cumsum(link_head) - 1]
        if cut_side is not None:
            if side_arr is None:
                side_arr = np.fromiter(cut_side, np.bool_, n)
            crossing = new.crossing = side_arr[t_src_np] != side_arr[t_dst_np]
            new.cut_messages = int(crossing.sum())
        if graph_sets is not None:
            arc = t_src_np * n + t_dst_np
            gk = _graph_keys()
            if len(gk):
                pos = np.searchsorted(gk, arc)
                member = gk[np.minimum(pos, len(gk) - 1)] == arc
                new.virtual = m - int(member.sum())
            else:
                new.virtual = m
        # Receiver segments and their persistent views, scattered into the
        # inbox list by C-level maps (no per-receiver Python loop).
        if identity:
            new.srcs = src_sorted.tolist()
        else:
            if labels_arr is None:
                labels_arr = np.empty(n, dtype=object)
                labels_arr[:] = labels
            new.srcs = labels_arr[src_sorted].tolist()
        seg_starts = np.flatnonzero(seg_head)
        bounds = seg_starts.tolist()
        bounds.append(m)
        views = map(TargetedInbox, repeat(new), bounds[:-1], bounds[1:])
        inboxes = _PlannedInboxes([None] * n)
        inboxes.plan = new
        deque(map(inboxes.__setitem__, sorted_dst[seg_starts].tolist(), views), 0)
        last_round = weakref.ref(inboxes)
        return inboxes

    def _sizes(
        t_pay: list[Any], groups: list[tuple[int, int, int, int, int]]
    ) -> list[int]:
        """Per-message sizes through the size table, one probe per broadcast."""
        out: list[int] = []
        extend = out.extend
        pos = 0
        for _, _, _, b_lo, b_hi in groups:
            if b_lo == b_hi:
                continue
            extend(map(measure, t_pay[pos:b_lo]))
            extend([measure(t_pay[b_lo])] * (b_hi - b_lo))
            pos = b_hi
        extend(map(measure, t_pay[pos:]))
        return out

    def collect(sender_ids: Iterable[int]) -> list[Any]:
        """Collect one targeted round: gather, size, account, deliver."""
        # ---- gather: drain the per-sender grouped outboxes (and any mixed
        # broadcast) into flat per-round columns, senders ascending.
        groups: list[tuple[int, int, int, int, int]] = []
        groups_append = groups.append
        t_dst: list[int] = []
        t_pay: list[Any] = []
        t_dst_extend = t_dst.extend
        t_pay_extend = t_pay.extend
        ctxs = contexts
        ident = identity
        get_i = index_get

        for src_i in sender_ids:
            ctx = ctxs[src_i]
            tdsts = ctx._t_dsts
            broadcast = out_sent[src_i]
            if not tdsts and not broadcast:
                continue
            tpays = ctx._t_pays
            ctx._t_dsts = []
            ctx._t_pays = []
            start = len(t_dst)
            if not broadcast:
                # Pure targeted sender: two C-level column extends.
                if ident:
                    t_dst_extend(tdsts)
                else:
                    t_dst_extend(map(get_i, tdsts))
                t_pay_extend(tpays)
                groups_append((src_i, start, len(t_dst), 0, 0))
                continue
            # Sender broadcast this round (possibly mixed with targeted
            # sends): expand the broadcast into the columns at its call
            # position so per-link message order matches the oracle.
            # ``_t_bpos`` is written only when sends preceded the
            # broadcast, so it is reset to 0 here.
            bpos = ctx._t_bpos
            ctx._t_bpos = 0
            if bpos:
                pre_d = tdsts[:bpos]
                if ident:
                    t_dst_extend(pre_d)
                else:
                    t_dst_extend(map(get_i, pre_d))
                t_pay_extend(tpays[:bpos])
            row = nbr_row(src_i)
            deg = len(row)
            b_lo = len(t_dst)
            if deg:
                t_dst_extend(row)
                t_pay_extend([out_pays[src_i]] * deg)
            b_hi = len(t_dst)
            if bpos < len(tdsts):
                post_d = tdsts[bpos:]
                if ident:
                    t_dst_extend(post_d)
                else:
                    t_dst_extend(map(get_i, post_d))
                t_pay_extend(tpays[bpos:])
            groups_append((src_i, start, len(t_dst), b_lo, b_hi))
        out_sent[:] = zero_bytes

        m = len(t_dst)
        if not m:
            flush_round_tally(metrics, 0, 0, metrics.max_message_bits, 0, 0, 0, 0, 0)
            return [None] * n

        # ---- sizing: one exact whole-column kernel when every payload is a
        # nonnegative int64-sized exact int, the size table otherwise.
        values = exact_int_column(t_pay)
        if values is None:
            t_bits: list[int] | None = _sizes(t_pay, groups)
            bits_np = np.fromiter(t_bits, np.int64, m)
        else:
            t_bits = None
            bits_np = int_column_bits(values)

        # ---- ordered path: every adversary round (stateful filters observe
        # per-message decisions, exactly like the columnar engine's eager
        # adversary fallback).
        if filt is not None:
            if t_bits is None:
                t_bits = bits_np.tolist()
            return _ordered_collect(groups, t_dst, t_pay, t_bits, deliver=True)

        # ---- NumPy accounting kernels over the flat columns; everything
        # payload-independent comes from the (possibly reused) plan.
        inboxes = _planned_inboxes(groups, t_dst)
        p = inboxes.plan
        tally.reset(metrics.max_message_bits)
        counts = tally.counts
        counts[MESSAGES] = m
        counts[BITS] = int(bits_np.sum())
        mx = int(bits_np.max())
        if mx > counts[MAX_BITS]:
            counts[MAX_BITS] = mx
        if cut_side is not None:
            counts[CUT_MESSAGES] = p.cut_messages
            counts[CUT_BITS] = int(bits_np[p.crossing].sum())
        if graph_sets is not None:
            counts[VIRTUAL] = p.virtual
        if budget is not None:
            # "The message that tips a link past its budget" is counted
            # exactly as the oracle counts it: per-link prefix sums in
            # stream order.
            s_bits = bits_np[p.order]
            csum = np.cumsum(s_bits)
            prefix = csum - (csum - s_bits)[p.link_first]
            violations = int(np.count_nonzero(prefix > budget))
            if violations:
                if enforce:
                    # Re-walk in oracle order; raises with the partially
                    # flushed metrics of the first violating message.
                    if t_bits is None:
                        t_bits = bits_np.tolist()
                    _ordered_collect(groups, t_dst, t_pay, t_bits, deliver=False)
                counts[VIOLATIONS] = violations
        tally.flush(metrics)

        # ---- delivery: the plan's views read this round's payload column,
        # permuted into receiver segments.
        p.serve(list(map(t_pay.__getitem__, p.order_list)))
        return inboxes

    return collect


__all__ = ["TargetedInbox", "build_targeted_collect"]
