"""Generated differential for targeted rounds: columnar vs reference vs indexed.

Hypothesis scripts every node's sends round by round on a small random
graph, and each script runs on all three engines, which must agree bit
for bit: outputs (every receiver's inbox contents, payload types
included), ``Metrics.as_dict()``, ``bits_per_round``, completion, and
under an enforcing model the raised exception's type and text.
``check_invariants()`` must hold on every finished run.

Rounds are drawn so that the columnar targeted path's delivery-plan
cache sees both sides of its key:

* ``repeat`` — the previous round's destinations and sender split with
  fresh payloads (the plan is reused);
* ``move`` — the same per-sender counts to other destinations (same
  length, must miss);
* ``resplit`` — the same flat destination column split differently across
  senders (must miss);
* ``fresh`` — a new pattern, with broadcasts at mixed outbox positions;
* ``bcast`` — broadcasts only, so the round takes the columnar engine's
  pure-broadcast collect instead of the targeted path.

Scripts also halt nodes early, in a round where they broadcast last or
in one where they stay silent, and one configuration crash-stops nodes
(``crash:NODE@ROUND``), so the round loop's halt bookkeeping is
differential-tested too.

Payloads mix exact non-negative ints (the whole-column sizing kernel) with
every shape that must take the size-table fallback: ``bool``, negative
ints, ints at or above ``2**63``, floats, tuples and ``None``.

Labels stay below 8, where a ``frozenset`` of labels iterates in
ascending order: the indexed oracle expands a broadcast in that order and
the columnar path in CSR order, so on larger graphs an enforcing model
may name a different one of several violating links (documented in
:mod:`repro.distributed.targeted`).  ``REPRO_TARGETED_DIFF_EXAMPLES``
raises the per-configuration example count (CI's ``bench-smoke`` job
runs 300).
"""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributed import (
    BandwidthExceededError,
    NodeProgram,
    Simulator,
    congest_model,
    congested_clique_model,
    local_model,
)
from repro.distributed import targeted as targeted_module
from repro.distributed.adversary import build_adversary
from repro.graphs import gnp_random_graph

EXAMPLES = int(os.environ.get("REPRO_TARGETED_DIFF_EXAMPLES", "20"))
DIFF = settings(max_examples=EXAMPLES, deadline=None, derandomize=True)

#: Largest graph: labels 0..7 keep frozenset order ascending (module doc).
N_MAX = 8

#: name -> (model factory, adversary spec or None).
CONFIGS = {
    "local": (local_model, None),
    "congest": (lambda n: congest_model(n, enforce=False), None),
    "congest-enforcing": (lambda n: congest_model(n, enforce=True), None),
    "clique": (lambda n: congested_clique_model(n, enforce=False), None),
    "congest-drop": (lambda n: congest_model(n, enforce=False), "drop:0.3:5"),
    "congest-crash": (lambda n: congest_model(n, enforce=False), "crash:1@1,2@2,5@3"),
}

NONNEG_INTS = st.integers(0, 2**20)
#: Int-like payloads: one ``bool``, negative or huge int sends a round's
#: otherwise all-int column down the fallback.
INT_LIKE = st.one_of(
    NONNEG_INTS, st.booleans(), st.integers(-(2**20), -1), st.integers(2**63, 2**66)
)
PAYLOADS = st.one_of(
    INT_LIKE,
    st.floats(allow_nan=False),
    st.tuples(st.integers(0, 9), st.booleans()),
    st.none(),
)
#: Each round draws its payloads from one of these.
ROUND_PAYLOADS = st.sampled_from([NONNEG_INTS, INT_LIKE, PAYLOADS])

#: One node's part of a round: ``(targets, payloads, bpos, bpay)``, plus an
#: optional fifth ``halt`` flag.  A ``bpos`` of ``None`` means no
#: broadcast; otherwise ``ctx.broadcast`` runs before the ``bpos``-th send
#: (after all of them if ``bpos`` equals the send count).  With ``halt``
#: the node outputs its log and halts once the round's part is played.
EMPTY = ((), (), None, None)


def _fresh(draw, n):
    payloads = draw(ROUND_PAYLOADS)
    round_ = []
    for v in range(n):
        k = draw(st.integers(0, 3))
        # Any other label; programs remap non-neighbours (see ScriptProgram).
        targets = tuple(
            t if t < v else t + 1 for t in draw(st.lists(st.integers(0, n - 2), min_size=k, max_size=k))
        )
        pays = tuple(draw(st.lists(payloads, min_size=k, max_size=k)))
        if draw(st.integers(0, 3)) == 0:
            round_.append((targets, pays, draw(st.integers(0, k)), draw(payloads)))
        else:
            round_.append((targets, pays, None, None))
    return tuple(round_)


def _broadcasts(draw, n):
    """A broadcast-only round: each node broadcasts or stays silent."""
    payloads = draw(ROUND_PAYLOADS)
    return tuple(
        ((), (), 0, draw(payloads)) if draw(st.booleans()) else EMPTY for _ in range(n)
    )


def _with_halts(draw, rounds, n):
    """Mark some nodes to halt early, with or without a last broadcast."""
    rounds = [list(round_) for round_ in rounds]
    for v in range(n):
        if draw(st.integers(0, 2)):
            continue
        r = draw(st.integers(0, len(rounds) - 1))
        targets, pays, bpos, bpay = rounds[r][v]
        if draw(st.booleans()):
            if bpos is None:
                bpos, bpay = len(targets), draw(PAYLOADS)
        else:
            bpos = bpay = None
        rounds[r][v] = (targets, pays, bpos, bpay, True)
    return tuple(tuple(round_) for round_ in rounds)


def _repeat(draw, prev):
    """The previous pattern with fresh payloads."""
    payloads = draw(ROUND_PAYLOADS)
    return tuple(
        (
            targets,
            tuple(draw(st.lists(payloads, min_size=len(targets), max_size=len(targets)))),
            bpos,
            draw(payloads) if bpos is not None else None,
        )
        for targets, _, bpos, _ in prev
    )


def _move(prev, n):
    """Same per-sender counts, every destination shifted to the next label."""
    round_ = []
    for v, (targets, pays, bpos, bpay) in enumerate(prev):
        moved = tuple((t + 1) % n if (t + 1) % n != v else (t + 2) % n for t in targets)
        round_.append((moved, pays, bpos, bpay))
    return tuple(round_)


def _resplit(prev):
    """The same flat destinations, one moved from a sender to the next one.

    Only senders without a broadcast take part, and the moved destination
    must not be the receiving sender itself; returns ``None`` when no
    adjacent pair qualifies.
    """
    senders = [v for v, part in enumerate(prev) if part[0] or part[2] is not None]
    for a, b in zip(senders, senders[1:]):
        ta, pa, ba, _ = prev[a]
        tb, pb, bb, _ = prev[b]
        if ta and ba is None and bb is None and ta[-1] != b:
            round_ = list(prev)
            round_[a] = (ta[:-1], pa[:-1], None, None)
            round_[b] = ((ta[-1],) + tb, (pa[-1],) + pb, None, None)
            return tuple(round_)
    return None


@st.composite
def scripts(draw):
    n = draw(st.integers(3, N_MAX))
    p = draw(st.sampled_from([0.5, 0.8, 1.0]))
    graph_seed = draw(st.integers(0, 999))
    kinds = draw(
        st.lists(
            st.sampled_from(["fresh", "repeat", "move", "resplit", "bcast"]),
            min_size=1,
            max_size=5,
        )
    )
    rounds = [_fresh(draw, n)]
    for kind in kinds:
        prev = rounds[-1]
        if kind == "repeat":
            rounds.append(_repeat(draw, prev))
        elif kind == "move":
            rounds.append(_move(prev, n))
        elif kind == "resplit":
            rounds.append(_resplit(prev) or _repeat(draw, prev))
        elif kind == "bcast":
            rounds.append(_broadcasts(draw, n))
        else:
            rounds.append(_fresh(draw, n))
    return n, p, graph_seed, _with_halts(draw, rounds, n)


class ScriptProgram(NodeProgram):
    """Plays one node's part of a script and logs every inbox it receives.

    A target outside ``ctx.neighbors`` is remapped onto the node's sorted
    neighbour row, so one script is valid under every model (under the
    Congested Clique every other node is a neighbour and no remap occurs).
    The log records ``repr`` of the inbox items, so ``True`` vs ``1`` or
    ``1.0`` vs ``1`` is a difference.
    """

    def __init__(self, node, script):
        self.node = node
        self.script = script
        self.heard = []

    def on_start(self, ctx):
        self._act(ctx, 0)

    def on_round(self, ctx, inbox):
        self.heard.append(repr([(src, list(plist)) for src, plist in inbox.items()]))
        if ctx.round >= len(self.script):
            ctx.set_output(tuple(self.heard))
            ctx.halt()
            return
        self._act(ctx, ctx.round)

    def _act(self, ctx, r):
        targets, pays, bpos, bpay, *halt = self.script[r][self.node]
        nbrs = sorted(ctx.neighbors)
        for k, (target, payload) in enumerate(zip(targets, pays)):
            if k == bpos:
                ctx.broadcast(bpay)
            if target in ctx.neighbors:
                ctx.send(target, payload)
            elif nbrs:
                ctx.send(nbrs[target % len(nbrs)], payload)
        if bpos is not None and bpos >= len(targets):
            ctx.broadcast(bpay)
        if halt:
            ctx.set_output(tuple(self.heard))
            ctx.halt()


def _outcome(engine, config, case):
    """Comparable run record, or ``(type name, message)`` of the raise."""
    n, p, graph_seed, rounds = case
    make_model, adversary = CONFIGS[config]
    sim = Simulator(
        gnp_random_graph(n, p, seed=graph_seed),
        lambda v: ScriptProgram(v, rounds),
        model=make_model(n),
        seed=3,
        cut=range(0, n, 2),
        engine=engine,
        adversary=build_adversary(adversary) if adversary else None,
    )
    try:
        result = sim.run(max_rounds=len(rounds) + 2)
    except BandwidthExceededError as error:
        return type(error).__name__, str(error)
    result.metrics.check_invariants()
    return {
        "outputs": dict(sorted(result.outputs.items())),
        "metrics": result.metrics.as_dict(),
        "bits_per_round": list(result.metrics.bits_per_round),
        "completed": result.completed,
    }


#: Hand-written scripts on the 4-node clique: a repeated pattern, a move,
#: a resplit, every payload class in one round, and the fallbacks of an
#: otherwise all-int column.
_CLIQUE_REPEAT = (
    4, 1.0, 0,
    (
        (((1, 2), (5, 6), None, None), ((0,), (7,), None, None), EMPTY, ((0, 1), (8, 9), 1, 4)),
        (((1, 2), (50, 60), None, None), ((0,), (70,), None, None), EMPTY, ((0, 1), (80, 90), 1, 40)),
        (((2, 3), (5, 6), None, None), ((2,), (7,), None, None), EMPTY, ((1, 2), (8, 9), 1, 4)),
        (((2,), (5,), None, None), ((3, 2), (6, 7), None, None), EMPTY, ((1, 2), (8, 9), 1, 4)),
    ),
)
_ALL_PAYLOADS = (
    4, 1.0, 1,
    (
        (
            ((1, 1, 2), (True, -3, 2**63), 0, None),
            ((0, 0), (1.5, (2, False)), None, None),
            ((3,), (2**64 + 1,), 1, 7),
            ((0, 0, 0), (1, True, 1.0), None, None),
        ),
    ),
)

#: One repeated pattern whose otherwise all-int column carries a single
#: negative int, then a single ``bool``, then a single int at ``2**63``.
_INT_FALLBACKS = (
    4, 1.0, 2,
    tuple(
        (((1, 2), (5, odd), None, None), ((0,), (7,), None, None), EMPTY, ((0, 1), (8, 9), 1, 4))
        for odd in (-6, True, 2**63)
    ),
)


#: Early halts on the 4-clique: node 1 halts right after a last mixed
#: broadcast, node 2 silently, node 3 after a pure-broadcast round; the
#: rest of the script keeps sending to them.  Node 0 broadcasts after its
#: sends in round 0 and before them in round 1, so a broadcast position
#: left over from round 0 would reorder node 3's round-1 inbox.
_HALTS = (
    4, 1.0, 3,
    (
        (((1, 2), (5, 6), 2, 11), ((0,), (7,), 1, 9, True), ((3,), (8,), None, None, True), EMPTY),
        (((3,), (4,), 0, 12), EMPTY, EMPTY, ((0,), (1,), None, None)),
        (((), (), 0, 1), EMPTY, EMPTY, ((), (), 0, 2**63, True)),
        (((1, 2, 3), (4, 5, 6), 0, 3), EMPTY, EMPTY, EMPTY),
    ),
)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@DIFF
@given(case=scripts())
@example(case=_CLIQUE_REPEAT)
@example(case=_ALL_PAYLOADS)
@example(case=_INT_FALLBACKS)
@example(case=_HALTS)
def test_columnar_and_indexed_match_reference(config, case):
    expected = _outcome("reference", config, case)
    assert _outcome("columnar", config, case) == expected
    assert _outcome("indexed", config, case) == expected


def test_delivery_plan_is_reused_only_on_an_equal_key(monkeypatch):
    """Repeat reuses the plan; move and resplit build a new one."""
    built = []

    class CountingPlan(targeted_module._DeliveryPlan):
        __slots__ = ()

        def __init__(self, groups, t_dst):
            built.append(list(t_dst))
            super().__init__(groups, t_dst)

    monkeypatch.setattr(targeted_module, "_DeliveryPlan", CountingPlan)
    got = _outcome("columnar", "clique", _CLIQUE_REPEAT)
    # Round 0 builds, round 1 repeats it, round 2 moves, and round 3 splits
    # round 2's flat destination column differently across senders 0 and 1
    # (node 3's broadcast expands to 0, 1, 2 between its two sends).
    moved = [2, 3, 2, 1, 0, 1, 2, 2]
    assert built == [[1, 2, 0, 0, 0, 1, 2, 1], moved, moved]
    assert got == _outcome("reference", "clique", _CLIQUE_REPEAT)
