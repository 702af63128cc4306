"""Differential and unit tests for the targeted-send fast path.

The contract under test: the ``columnar`` and ``reference`` engines carry
``ctx.send`` traffic bit-for-bit identically to the indexed oracle —
outputs, ``Metrics.as_dict()`` (hence per-round bit tallies) and
completion — across all four communication models, for pure-targeted and
mixed targeted/broadcast rounds, under every adversary class (whose keyed
hashes must therefore fire on exactly the same (src, dst, round) links on
every engine).

Plus unit coverage for :class:`~repro.distributed.targeted.TargetedInbox`,
the lazy Mapping view the fault-free kernel hands receivers.
"""

import weakref

import pytest

from repro.distributed import (
    BandwidthExceededError,
    MessageAdmissionError,
    NodeProgram,
    Simulator,
    TargetedInbox,
    broadcast_congest_model,
    congest_model,
    congested_clique_model,
    local_model,
)
from repro.distributed.adversary import build_adversary
from repro.distributed.targeted import _DeliveryPlan
from repro.graphs import Graph, gnp_random_graph, path_graph

N = 24

MODELS = {
    "local": lambda: local_model(N),
    "congest": lambda: congest_model(N, enforce=False),
    "congest-enforcing": lambda: congest_model(N, enforce=True),
    "clique": lambda: congested_clique_model(N, enforce=False),
}

#: One spec per fault class; the drop/crash salts land mid-run on N=24.
ADVERSARIES = [None, "drop:0.2:3", "crash:4@2,17@3", "budget:48"]


class FanoutProgram(NodeProgram):
    """Targeted fan-out with an optional mixed broadcast/targeted round.

    Even rounds of the mixed variant interleave pre-broadcast sends, a
    broadcast, and post-broadcast sends — the exact shape that exercises
    the engines' broadcast-position bookkeeping.
    """

    def __init__(self, node_id, k=3, rounds=5, mix_broadcast=False):
        self.k = k
        self.rounds = rounds
        self.best = 0
        self.mix = mix_broadcast

    def on_start(self, ctx):
        for dst in sorted(ctx.neighbors)[: self.k]:
            ctx.send(dst, ctx.node_id + 1)

    def on_round(self, ctx, inbox):
        for _, plist in sorted(inbox.items()):
            for p in plist:
                if p > self.best:
                    self.best = p
        if ctx.round >= self.rounds:
            ctx.set_output(self.best)
            ctx.halt()
            return
        nbrs = sorted(ctx.neighbors)
        if self.mix and ctx.round % 2 == 0:
            for dst in nbrs[: self.k // 2]:
                ctx.send(dst, self.best)
            ctx.broadcast(self.best + 1)
            for dst in nbrs[self.k // 2 : self.k]:
                ctx.send(dst, self.best + 2)
        else:
            for dst in nbrs[: self.k]:
                ctx.send(dst, self.best + ctx.round)


def _run(engine, model, mix, adversary=None):
    graph = gnp_random_graph(N, 0.3, seed=7)
    sim = Simulator(
        graph,
        lambda v: FanoutProgram(v, mix_broadcast=mix),
        model=model,
        seed=11,
        engine=engine,
        adversary=build_adversary(adversary) if adversary else None,
    )
    result = sim.run(max_rounds=50)
    result.metrics.check_invariants()
    return {
        "outputs": dict(sorted(result.outputs.items())),
        "metrics": result.metrics.as_dict(),
        "completed": result.completed,
    }


def _outcome(engine, model_key, mix, adversary):
    """Result dict, or the raised exception — compared across engines."""
    try:
        return _run(engine, MODELS[model_key](), mix, adversary)
    except (BandwidthExceededError, MessageAdmissionError) as error:
        return error


@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a or "fault-free")
@pytest.mark.parametrize("mix", [False, True], ids=["targeted", "mixed"])
@pytest.mark.parametrize("model_key", sorted(MODELS))
@pytest.mark.parametrize("engine", ["columnar", "reference"])
def test_engine_matches_indexed_bit_for_bit(engine, model_key, mix, adversary):
    expected = _outcome("indexed", model_key, mix, adversary)
    got = _outcome(engine, model_key, mix, adversary)
    if isinstance(expected, Exception):
        # Enforcement parity: same exception type AND same message (the
        # violating link is named identically).
        assert type(got) is type(expected)
        assert str(got) == str(expected)
    else:
        assert got == expected


class ReprSender(NodeProgram):
    """Sends its label's ``repr`` to every neighbour, outputs the inbox reprs."""

    def on_start(self, ctx):
        for dst in sorted(ctx.neighbors, key=repr):
            ctx.send(dst, repr(ctx.node_id))

    def on_round(self, ctx, inbox):
        ctx.set_output([(repr(src), plist) for src, plist in inbox.items()])
        ctx.halt()


@pytest.mark.parametrize("engine", ["columnar", "indexed"])
def test_bool_labels_reach_the_inbox_as_themselves(engine):
    """``False``/``True`` equal 0/1, yet they are labels, not indices."""
    graph = Graph()
    graph.add_edge(False, True)
    graph.add_edge(True, 2)

    def outputs(name):
        sim = Simulator(graph, lambda v: ReprSender(), seed=0, engine=name)
        return sim.run(max_rounds=5).outputs

    expected = outputs("reference")
    assert expected == {
        False: [("True", ["True"])],
        True: [("False", ["False"]), ("2", ["2"])],
        2: [("True", ["True"])],
    }
    assert outputs(engine) == expected


@pytest.mark.parametrize("mix", [False, True], ids=["targeted", "mixed"])
@pytest.mark.parametrize("model_key", sorted(MODELS))
def test_reference_engine_agrees_on_outputs(model_key, mix):
    expected = _outcome("indexed", model_key, mix, None)
    got = _outcome("reference", model_key, mix, None)
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
    else:
        assert got["outputs"] == expected["outputs"]
        assert got["completed"] == expected["completed"]


@pytest.mark.parametrize("engine", ["indexed", "columnar", "reference"])
def test_broadcast_only_model_rejects_send_semantically(engine):
    class Sender(NodeProgram):
        def __init__(self, v):
            pass

        def on_start(self, ctx):
            ctx.send(min(ctx.neighbors), 1)

        def on_round(self, ctx, inbox):
            ctx.halt()

    sim = Simulator(
        path_graph(4),
        Sender,
        model=broadcast_congest_model(4),
        seed=0,
        engine=engine,
    )
    with pytest.raises(MessageAdmissionError, match="broadcast-only model"):
        sim.run(max_rounds=5)


def _plan(srcs, pays):
    """A delivery plan serving the given sorted sender/payload columns."""
    plan = _DeliveryPlan([], [])
    plan.srcs = srcs
    plan.serve(pays)
    return plan


class TestTargetedInbox:
    """Unit coverage for the lazy scatter-segment Mapping view."""

    def _view(self):
        # One receiver's segment [2, 7) of a round's scatter columns,
        # senders pre-sorted ascending with a run of repeats.
        srcs = [0, 0, 1, 1, 1, 4, 9, 9]
        pays = [10, 11, 20, 21, 22, 40, 90, 91]
        return TargetedInbox(_plan(srcs, pays), 2, 7)

    def test_items_groups_runs_in_sender_order(self):
        assert self._view().items() == [(1, [20, 21, 22]), (4, [40]), (9, [90])]

    def test_mapping_facade(self):
        view = self._view()
        assert list(view) == [1, 4, 9]
        assert len(view) == 3
        assert view[4] == [40]
        assert 1 in view and 0 not in view
        with pytest.raises(KeyError):
            view[0]
        assert view.values() == [[20, 21, 22], [40], [90]]
        assert dict(view) == {1: [20, 21, 22], 4: [40], 9: [90]}

    def test_empty_segment(self):
        view = TargetedInbox(_plan([], []), 0, 0)
        assert len(view) == 0
        assert view.items() == []
        assert view.max_heard(-5) == -5

    def test_max_heard_skips_facade(self):
        view = self._view()
        assert view.max_heard(0) == 90
        assert view.max_heard(1000) == 1000
        # Fold did not have to materialise the run list first.
        assert TargetedInbox(_plan([1], [7]), 0, 1).max_heard(3) == 7

    def test_reused_view_serves_the_new_payload_column(self):
        # A reused delivery plan serves the round's payload column to the
        # same views: a view must regroup, not serve stale runs.
        plan = _plan([1, 1, 4], [5, 6, 7])
        view = TargetedInbox(plan, 0, 3)
        assert view.items() == [(1, [5, 6]), (4, [7])]
        plan.serve([50, 60, 70])
        assert view.items() == [(1, [50, 60]), (4, [70])]
        assert view.max_heard(0) == 70
        assert dict(view) == {1: [50, 60], 4: [70]}

    def test_grouped_view_does_not_pin_a_served_column(self):
        # A view grouped in one round and never read again must not keep
        # that round's payloads alive once the plan serves the next round.
        class Token:
            pass

        plan = _plan([1, 1, 4], [Token(), Token(), Token()])
        refs = [weakref.ref(tok) for tok in plan.pays]
        view = TargetedInbox(plan, 0, 3)
        assert len(view.items()) == 2
        plan.serve([5, 6, 7])
        assert [ref() for ref in refs] == [None, None, None]
        assert view.items() == [(1, [5, 6]), (4, [7])]
