"""Differential, admission, enforcement and size-table tests for the columnar engine.

The gate the columnar engine ships under: bit-for-bit identity with the
indexed engine (outputs, ``Metrics.as_dict()``, ``bits_per_round``) for
broadcast-only programs across all four communication models — including
cut accounting, per-model counters and bandwidth-violation counting — *and*
under the drop/crash/budget adversaries, including an n=20000 differential
on the mega-scale workload itself; admission rejections only where the model
or the one-broadcast-per-round interning demands them; an enforced
violation raises with the indexed engine's message and the documented
partially flushed metrics, on the stepped, lowered and targeted paths; the
payload size table and the whole-column int kernel must agree with
``estimate_bits`` on every payload shape.
"""

from functools import partial

import numpy as np
import pytest

from repro.core import run_clique_two_spanner, run_flood_max
from repro.core.flood_max import FloodMaxProgram
from repro.core.robust_coding import RedundantFloodMaxProgram
from repro.distributed import (
    BandwidthExceededError,
    BroadcastNodeProgram,
    ENGINES,
    FunctionProgram,
    MessageAdmissionError,
    NodeProgram,
    Simulator,
    broadcast_congest_model,
    congest_model,
    congested_clique_model,
    local_model,
    run_program,
)
from repro.distributed.adversary import build_adversary
from repro.distributed.columnar import ColumnarInbox, exact_int_column, int_column_bits
from repro.distributed.encoding import PayloadSizeTable, estimate_bits
from repro.graphs import Graph, gnp_random_graph, path_graph, sparse_gnp_graph, star_graph

ALL_MODELS = [
    lambda n: local_model(n),
    lambda n: congest_model(n, enforce=False),
    lambda n: broadcast_congest_model(n, enforce=False),
    lambda n: congested_clique_model(n, enforce=False),
]

#: Canonical adversary specs: one per fault class of the PR-5 layer.
ADVERSARIES = ["drop:0.2", "crash:3@1,11@2,24@3", "budget:16"]


class MappingConsumer(NodeProgram):
    """Exercises the full Mapping facade of the inbox every round.

    Touches ``items()``, ``values()``, ``__getitem__``, ``__contains__``,
    ``__len__``, key iteration order and the RNG, with tuple payloads — the
    widest read surface a broadcast program can put on an inbox view.
    """

    def __init__(self, v):
        self.v = v
        self.seen = []

    def on_start(self, ctx):
        ctx.broadcast((self.v, "tag"))

    def on_round(self, ctx, inbox):
        keys = list(inbox)
        assert keys == sorted(keys), "inbox keys must come in ascending order"
        assert len(inbox) == len(keys)
        for src in keys:
            assert src in inbox
            payloads = inbox[src]
            assert payloads == [(src, "tag")] or payloads[0][0] == src
        assert [list(v) for v in inbox.values()] == [inbox[k] for k in keys]
        assert [(k, inbox[k]) for k in keys] == list(inbox.items())
        self.seen.append((tuple(keys), ctx.rng.random()))
        if ctx.round >= 3:
            ctx.set_output(self.seen)
            ctx.halt()
        else:
            ctx.broadcast((self.v, "tag"))


class EchoOnce(BroadcastNodeProgram):
    """Broadcast one payload at start, record the senders heard, halt."""

    def __init__(self, payload):
        self.payload = payload

    def on_start(self, ctx):
        ctx.broadcast(self.payload)

    def on_broadcast_round(self, ctx, heard):
        ctx.set_output(sorted(heard, key=repr))
        ctx.halt()


class BigLabelFloodMax(NodeProgram):
    """Flood-max over labels far above int64: the reduceat overflow fallback."""

    OFFSET = 1 << 70

    def __init__(self, v, rounds):
        self.best = v + self.OFFSET
        self.rounds = rounds

    def on_start(self, ctx):
        ctx.broadcast(self.best)

    def on_round(self, ctx, inbox):
        best = self.best
        if inbox.__class__ is dict:
            for payloads in inbox.values():
                for value in payloads:
                    if value > best:
                        best = value
        else:
            best = inbox.max_heard(best)
        self.best = best
        if ctx.round >= self.rounds:
            ctx.set_output(best)
            ctx.halt()
        else:
            ctx.broadcast(best)


#: Columnar runs both ways a vectorizable program can take: the stepped
#: per-node collect and the lowered whole-round kernel.  Both sit on the
#: same broadcast-accounting kernel, so both must match the oracle.
PATHS = pytest.mark.parametrize("vectorize", [False, True], ids=["stepped", "lowered"])


def _run(graph, factory, model, engine, seed=1, cut=None, adversary=None, vectorize=True):
    adv = build_adversary(adversary) if adversary else None
    return Simulator(
        graph,
        factory,
        model=model,
        seed=seed,
        cut=cut,
        engine=engine,
        adversary=adv,
        vectorize=vectorize,
    ).run()


def _assert_identical(a, b):
    a.metrics.check_invariants()
    b.metrics.check_invariants()
    assert a.outputs == b.outputs
    assert a.metrics.as_dict() == b.metrics.as_dict()
    assert list(a.metrics.bits_per_round) == list(b.metrics.bits_per_round)
    assert a.completed == b.completed
    assert a.rounds == b.rounds


class TestColumnarDifferential:
    """Bit-for-bit identity with the indexed oracle, all models, all faults."""

    @PATHS
    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    def test_flood_max_identical_across_engines(self, model_factory, vectorize):
        g = gnp_random_graph(40, 0.15, seed=5)
        runs = {
            engine: _run(
                g,
                partial(FloodMaxProgram, rounds=5),
                model_factory(40),
                engine,
                seed=9,
                vectorize=vectorize,
            )
            for engine in ("indexed", "columnar", "reference")
        }
        _assert_identical(runs["columnar"], runs["indexed"])
        _assert_identical(runs["columnar"], runs["reference"])

    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    def test_echo_program_identical_across_engines(self, model_factory):
        # A BroadcastNodeProgram with a tuple payload, one round of traffic.
        g = gnp_random_graph(25, 0.3, seed=2)
        runs = {
            engine: _run(g, lambda v: EchoOnce(("x", 7)), model_factory(25), engine)
            for engine in ("indexed", "columnar")
        }
        _assert_identical(runs["columnar"], runs["indexed"])

    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    def test_mapping_consumer_identical_across_engines(self, model_factory):
        g = gnp_random_graph(25, 0.3, seed=2)
        runs = {
            engine: _run(g, lambda v: MappingConsumer(v), model_factory(25), engine)
            for engine in ("indexed", "columnar")
        }
        _assert_identical(runs["columnar"], runs["indexed"])

    @PATHS
    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    @pytest.mark.parametrize("adversary", ADVERSARIES)
    def test_adversaries_identical_across_engines(self, model_factory, adversary, vectorize):
        # Fresh adversary per engine (they are stateful); same spec, same
        # seed, so decisions — and hence inboxes and fault counters — must
        # coincide exactly.
        g = gnp_random_graph(30, 0.2, seed=6)
        runs = {
            engine: _run(
                g,
                partial(FloodMaxProgram, rounds=6),
                model_factory(30),
                engine,
                seed=4,
                adversary=adversary,
                vectorize=vectorize,
            )
            for engine in ("indexed", "columnar")
        }
        _assert_identical(runs["columnar"], runs["indexed"])

    @PATHS
    def test_cut_accounting_identical(self, vectorize):
        g = gnp_random_graph(30, 0.25, seed=4)
        cut = set(range(15))
        runs = {
            engine: _run(
                g,
                partial(FloodMaxProgram, rounds=4),
                congest_model(30, enforce=False),
                engine,
                cut=cut,
                vectorize=vectorize,
            )
            for engine in ("indexed", "columnar")
        }
        assert runs["columnar"].metrics.cut_bits == runs["indexed"].metrics.cut_bits > 0
        _assert_identical(runs["columnar"], runs["indexed"])

    def test_violation_counting_identical(self):
        big = tuple(range(500))

        def on_start(ctx):
            ctx.broadcast(big)
            ctx.set_output(True)
            ctx.halt()

        g = gnp_random_graph(12, 0.4, seed=8)
        runs = {
            engine: _run(
                g,
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                congest_model(12, enforce=False),
                engine,
            )
            for engine in ("indexed", "columnar")
        }
        assert runs["columnar"].metrics.bandwidth_violations > 0
        _assert_identical(runs["columnar"], runs["indexed"])

    def test_mixed_payload_classes_identical(self):
        # Even vertices broadcast ints, odd ones tuples: the round is not
        # ints-only, so the engine must fall off the int64 fold kernel and
        # still deliver identical inboxes.
        class Mixed(NodeProgram):
            def __init__(self, v):
                self.v = v

            def on_start(self, ctx):
                ctx.broadcast(self.v if self.v % 2 == 0 else (self.v, self.v))

            def on_round(self, ctx, inbox):
                ctx.set_output(sorted((k, tuple(map(repr, p))) for k, p in inbox.items()))
                ctx.halt()

        g = gnp_random_graph(24, 0.3, seed=3)
        runs = {
            engine: _run(g, lambda v: Mixed(v), local_model(24), engine)
            for engine in ("indexed", "columnar")
        }
        _assert_identical(runs["columnar"], runs["indexed"])

    def test_big_label_overflow_falls_back_identically(self):
        # Labels above 2^63 break the int64 lowering of the reduceat kernel;
        # the engine must memoise the failure and fold in pure Python with
        # identical results.
        g = gnp_random_graph(20, 0.3, seed=7)
        runs = {
            engine: _run(
                g, lambda v: BigLabelFloodMax(v, 4), broadcast_congest_model(20), engine
            )
            for engine in ("indexed", "columnar")
        }
        _assert_identical(runs["columnar"], runs["indexed"])
        leader = 19 + BigLabelFloodMax.OFFSET
        assert set(runs["columnar"].outputs.values()) == {leader}

    def test_clique_spanner_runs_under_columnar(self):
        g = gnp_random_graph(48, 0.2, seed=3)
        columnar = run_clique_two_spanner(g, seed=2, engine="columnar")
        indexed = run_clique_two_spanner(g, seed=2, engine="indexed")
        assert columnar.edges == indexed.edges
        assert columnar.rounds == indexed.rounds
        assert columnar.metrics.as_dict() == indexed.metrics.as_dict()

    def test_early_halters_stop_receiving_but_traffic_is_counted(self):
        class Impatient(NodeProgram):
            def __init__(self, v):
                self.v = v

            def on_start(self, ctx):
                ctx.broadcast(("hi", self.v))

            def on_round(self, ctx, inbox):
                if self.v == 0 or ctx.round >= 3:
                    ctx.set_output(sorted(inbox, key=repr))
                    ctx.halt()
                else:
                    ctx.broadcast(("again", self.v))

        g = star_graph(6)
        runs = {
            engine: _run(g, lambda v: Impatient(v), local_model(7), engine, seed=0)
            for engine in ("indexed", "columnar")
        }
        _assert_identical(runs["columnar"], runs["indexed"])

    def test_degree_zero_broadcast_is_a_no_op(self):
        g = Graph()
        g.add_node("lonely")

        def on_start(ctx):
            ctx.broadcast("into the void")
            ctx.set_output("done")
            ctx.halt()

        result = run_program(
            g,
            lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
            model=broadcast_congest_model(1),
            engine="columnar",
        )
        assert result.metrics.messages_sent == 0
        assert result.metrics.as_dict().get("broadcast_payloads", 0) == 0


@pytest.fixture(scope="module")
def scale_graph():
    """The n=20000 differential instance (sparse, so the oracle stays fast)."""
    return sparse_gnp_graph(20000, 1.5e-4, seed=7, connect=True)


class TestScaleDifferential:
    """The acceptance gate: columnar == indexed at n=20000, faults included.

    The congested-clique overlay is excluded *by physics*, not by engine: at
    n=20000 it materialises ~4*10^8 overlay arcs, infeasible for every
    engine alike.  The model matrix at n=20000 therefore covers the three
    graph-topology models; all four models are pinned at moderate n above.
    """

    MODELS = [
        lambda n: local_model(n),
        lambda n: congest_model(n, enforce=False),
        lambda n: broadcast_congest_model(n),
    ]

    @pytest.mark.parametrize("model_factory", MODELS)
    def test_flood_max_identical_at_scale(self, scale_graph, model_factory):
        runs = {
            engine: _run(
                scale_graph,
                partial(FloodMaxProgram, rounds=4),
                model_factory(20000),
                engine,
                seed=3,
            )
            for engine in ("indexed", "columnar")
        }
        _assert_identical(runs["columnar"], runs["indexed"])

    @pytest.mark.parametrize(
        "adversary", ["drop:0.05", "crash:40@1,17000@2,9999@3", "budget:24"]
    )
    def test_adversaries_identical_at_scale(self, scale_graph, adversary):
        runs = {
            engine: _run(
                scale_graph,
                partial(FloodMaxProgram, rounds=4),
                broadcast_congest_model(20000),
                engine,
                seed=3,
                adversary=adversary,
            )
            for engine in ("indexed", "columnar")
        }
        _assert_identical(runs["columnar"], runs["indexed"])


class Slotted:
    """A slotted payload (no ``__dict__``): two int fields."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class DictPayload:
    """A plain ``__dict__`` payload."""

    def __init__(self, x, label):
        self.x = x
        self.label = label


class TestPayloadSizeTable:
    """The size table must agree with ``estimate_bits`` on every shape."""

    PRIMITIVES = [
        None, True, False, 0, 1, -5, 255, 2**40, -(2**70), 1.5, "abc", "", b"xy",
    ]

    @pytest.mark.parametrize("payload", PRIMITIVES, ids=repr)
    def test_primitives_match_estimate_bits(self, payload):
        table = PayloadSizeTable()
        expected = estimate_bits(payload)
        assert table.measure(payload) == expected
        assert table.measure(payload) == expected  # cached hit, same answer

    def test_bool_int_float_aliasing_kept_distinct(self):
        # True == 1 == 1.0 but their encodings differ; the value-keyed table
        # must key by exact type or one would poison the others.
        table = PayloadSizeTable()
        assert table.measure(True) == estimate_bits(True) == 1
        assert table.measure(1) == estimate_bits(1) == 2
        assert table.measure(1.0) == estimate_bits(1.0) == 64

    def test_slots_and_dict_payloads_match_estimate_bits(self):
        table = PayloadSizeTable()
        slotted = Slotted(7, 300)
        plain = DictPayload(9, "mds")
        assert table.measure(slotted) == estimate_bits(slotted)
        assert table.measure(plain) == estimate_bits(plain)
        # Slots are real fields: bigger than the opaque 64-bit fallback guess
        # would suggest for the larger field values.
        assert estimate_bits(slotted) == estimate_bits({"a": 7, "b": 300})

    def test_containers_match_estimate_bits(self):
        table = PayloadSizeTable()
        for payload in [(1, 2), [3, "x"], frozenset({4}), {"k": 5}]:
            assert table.measure(payload) == estimate_bits(payload)

    def test_cap_bounds_interning_without_changing_answers(self):
        table = PayloadSizeTable(cap=2)
        values = [10, 200, 3000, 40000, 2**33]
        assert [table.measure(v) for v in values] == [estimate_bits(v) for v in values]
        assert len(table.int_sizes) <= 2


class TestIntColumnBits:
    """The shared whole-column int sizing kernel and its exact-type gate."""

    BOUNDARIES = sorted(
        {0, 1, 2**63 - 1}
        | {v for k in range(1, 63) for v in (2**k - 1, 2**k, 2**k + 1)}
    )

    def test_matches_estimate_bits_at_every_power_of_two_boundary(self):
        values = exact_int_column(self.BOUNDARIES)
        assert values is not None
        got = int_column_bits(values).tolist()
        assert got == [estimate_bits(v) for v in self.BOUNDARIES]

    def test_repetition_frame_matches_estimate_bits(self):
        values = np.array(self.BOUNDARIES, dtype=np.int64)
        got = int_column_bits(values, 3).tolist()
        assert got == [estimate_bits((v,) * 3) for v in self.BOUNDARIES]

    @pytest.mark.parametrize(
        "odd", [True, False, -1, -(2**63), 2**63, 2**70, 1.0, None, (1,)], ids=repr
    )
    def test_non_kernel_entries_take_the_exact_fallback(self, odd):
        # One entry the kernel cannot size exactly sends the whole column
        # to the per-payload fallback, wherever it sits.
        for column in ([odd], [odd, 5, 6], [5, odd, 6], [5, 6, odd]):
            assert exact_int_column(column) is None

    def test_empty_column_takes_the_fallback(self):
        assert exact_int_column([]) is None

    def test_int_subclass_takes_the_fallback(self):
        class Label(int):
            pass

        assert exact_int_column([3, Label(4)]) is None

    def test_exact_ints_become_an_int64_column(self):
        values = exact_int_column([0, 7, 2**63 - 1])
        assert values.dtype == np.int64
        assert values.tolist() == [0, 7, 2**63 - 1]


class TestColumnarAdmission:
    """Admission is the model's job: only semantic rejections remain."""

    def test_registered_engine(self):
        assert ENGINES == ("indexed", "columnar", "reference")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulator(path_graph(3), partial(FloodMaxProgram, rounds=1), engine="bogus")

    def test_retired_batch_engine_rejected_naming_columnar(self):
        with pytest.raises(ValueError, match="batch was retired: use 'columnar'"):
            Simulator(path_graph(3), partial(FloodMaxProgram, rounds=1), engine="batch")

    def test_targeted_send_accepted_and_matches_indexed(self):
        # Since the targeted fast path the columnar engine admits targeted
        # sends on every targeted-capable model, matching the oracle.
        def on_start(ctx):
            ctx.send(min(ctx.neighbors), ctx.node_id + 1)
            ctx.set_output(ctx.node_id)
            ctx.halt()

        runs = {
            engine: run_program(
                path_graph(4),
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=congest_model(4),
                engine=engine,
            )
            for engine in ("indexed", "columnar")
        }
        assert runs["columnar"].outputs == runs["indexed"].outputs
        assert runs["columnar"].metrics.as_dict() == runs["indexed"].metrics.as_dict()

    def test_broadcast_only_model_rejects_targeted_send_naming_model(self):
        def on_start(ctx):
            ctx.send(next(iter(ctx.neighbors)), 1)

        with pytest.raises(MessageAdmissionError, match="broadcast-only model"):
            run_program(
                path_graph(4),
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=broadcast_congest_model(4),
                engine="columnar",
            )

    def test_second_broadcast_per_round_rejected(self):
        def on_start(ctx):
            ctx.broadcast(1)
            ctx.broadcast(2)

        with pytest.raises(MessageAdmissionError, match="one"):
            run_program(
                path_graph(4),
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=congest_model(4),
                engine="columnar",
            )

    def test_enforced_bandwidth_violation_raises_like_indexed(self):
        big = tuple(range(10_000))

        def on_start(ctx):
            ctx.broadcast(big)

        def attempt(engine):
            with pytest.raises(BandwidthExceededError) as info:
                run_program(
                    path_graph(4),
                    lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                    model=congest_model(4, enforce=True),
                    engine=engine,
                )
            return str(info.value)

        message = "message(s) on link 0->1 use 153620 bits, budget is 64 (CONGEST)"
        assert attempt("columnar") == attempt("indexed") == message


def _broadcast_twice_in(where):
    """A program whose node 0 broadcasts twice in ``on_start`` or round 1."""

    def on_start(ctx):
        ctx.broadcast(1)
        if where == "on_start" and ctx.node_id == 0:
            ctx.broadcast(2)

    def on_round(ctx, inbox):
        ctx.broadcast(3)
        if ctx.node_id == 0:
            ctx.broadcast(4)

    return lambda v: FunctionProgram(on_start, on_round)


class _Scripted(NodeProgram):
    """Node ``v`` broadcasts ``script[round][v]`` (nothing when ``NO``).

    Logs every inbox as ``repr`` of its items, so ``True`` vs ``1`` is a
    difference, and halts after the last scripted round — or right after
    its broadcast in the round ``halt_at`` names for it.
    """

    NO = object()

    def __init__(self, v, script, halt_at=None):
        self.v = v
        self.script = script
        self.halt_at = halt_at or {}
        self.heard = []

    def on_start(self, ctx):
        self._act(ctx, 0)

    def on_round(self, ctx, inbox):
        self.heard.append(repr(sorted(inbox.items(), key=repr)))
        if ctx.round >= len(self.script):
            ctx.set_output(tuple(self.heard))
            ctx.halt()
            return
        self._act(ctx, ctx.round)

    def _act(self, ctx, r):
        payload = self.script[r].get(self.v, self.NO)
        if payload is not self.NO:
            ctx.broadcast(payload)
        if self.halt_at.get(self.v) == r:
            ctx.set_output(tuple(self.heard))
            ctx.halt()


def _scripted_runs(graph, script, model_factory, halt_at=None, engines=("columnar", "reference")):
    n = graph.number_of_nodes()
    return {
        engine: _run(
            graph, lambda v: _Scripted(v, script, halt_at), model_factory(n), engine
        )
        for engine in engines
    }


class TestBroadcastColumns:
    """The contexts' outgoing broadcast columns and the whole-column sizing pass."""

    LOCAL_TEXT = (
        "node 0: the columnar engine admits one broadcast per node per round "
        "(its fast path interns the round's payload once per sender)"
    )

    @pytest.mark.parametrize("where", ["on_start", "on_round"])
    def test_second_broadcast_raises_the_same_text_under_local(self, where):
        with pytest.raises(MessageAdmissionError) as info:
            run_program(path_graph(4), _broadcast_twice_in(where), model=local_model(4))
        assert str(info.value) == self.LOCAL_TEXT

    @pytest.mark.parametrize("engine", ["columnar", "indexed", "reference"])
    def test_double_broadcast_under_local_differs_by_engine(self, engine):
        # Not every engine runs every LOCAL-legal program: indexed and
        # reference deliver both broadcasts, columnar refuses the second.
        def on_start(ctx):
            ctx.broadcast(("a", ctx.node_id))
            ctx.broadcast(("b", ctx.node_id))

        def on_round(ctx, inbox):
            ctx.set_output({src: list(pays) for src, pays in inbox.items()})
            ctx.halt()

        def program(v):
            return FunctionProgram(on_start, on_round)

        def run():
            return run_program(path_graph(3), program, model=local_model(3), engine=engine)

        if engine == "columnar":
            with pytest.raises(MessageAdmissionError) as info:
                run()
            assert str(info.value) == self.LOCAL_TEXT
            return
        result = run()
        assert result.outputs[1] == {0: [("a", 0), ("b", 0)], 2: [("a", 2), ("b", 2)]}
        assert result.metrics.messages_sent == 8

    @pytest.mark.parametrize("where", ["on_start", "on_round"])
    def test_second_broadcast_raises_the_same_text_under_broadcast_congest(self, where):
        def message(engine):
            with pytest.raises(MessageAdmissionError) as info:
                run_program(
                    path_graph(4),
                    _broadcast_twice_in(where),
                    model=broadcast_congest_model(4),
                    engine=engine,
                )
            return str(info.value)

        expected = (
            "node 0: the broadcast-only model BROADCAST-CONGEST admits one "
            "identical payload to all neighbours per round"
        )
        assert message("columnar") == message("reference") == expected

    @pytest.mark.parametrize("payload", [7, ("t", 7)], ids=["int", "tuple"])
    def test_degree_zero_broadcasts_charge_nothing(self, payload):
        # Isolated vertices broadcast beside connected ones every round: the
        # degree-0 mask must drop them from messages, bits and the
        # broadcast-payload counter on both sizing paths.
        g = path_graph(5)
        g.add_nodes_from([5, 6, 7])
        script = [{v: payload for v in range(8)}] * 3
        runs = _scripted_runs(
            g, script, lambda n: broadcast_congest_model(n, enforce=False)
        )
        _assert_identical(runs["columnar"], runs["reference"])
        metrics = runs["columnar"].metrics.as_dict()
        assert metrics["messages_sent"] == 3 * 2 * 4
        assert metrics["broadcast_payloads"] == 3 * 5

    @pytest.mark.parametrize("model_factory", ALL_MODELS[:3])
    def test_broadcast_then_halt_is_still_delivered(self, model_factory):
        g = path_graph(4)
        script = [{v: ("r", r, v) for v in range(4)} for r in range(4)]
        runs = _scripted_runs(g, script, model_factory, halt_at={0: 1, 2: 2})
        _assert_identical(runs["columnar"], runs["reference"])
        # Node 1 heard node 0's round-1 broadcast in round 2, after node 0
        # halted in round 1; nothing from node 0 after that.
        heard = runs["columnar"].outputs[1]
        assert "('r', 1, 0)" in heard[1]
        assert all("(0, [" not in log for log in heard[2:])

    @pytest.mark.parametrize("model_factory", [ALL_MODELS[0], ALL_MODELS[2]])
    def test_odd_entries_in_an_int_column_size_like_reference(self, model_factory):
        # Each round is all exact nonnegative ints but for one odd entry; the
        # last round holds all of them at once, and nodes 6 and 7 skip some
        # rounds, so stale entries sit in the column too.
        odd = [True, -5, 2**63, 2**64 + 3, ("x", 1)]
        g = gnp_random_graph(10, 0.5, seed=4)
        script = [{v: v * 37 for v in range(10)}]
        for k, value in enumerate(odd):
            script.append({v: (value if v == k else v + 2**k) for v in range(10) if v != 7})
        script.append({v: odd[v % len(odd)] if v < 5 else v for v in range(10) if v != 6})
        runs = _scripted_runs(g, script, model_factory)
        _assert_identical(runs["columnar"], runs["reference"])

    @pytest.mark.parametrize("adversary", [None, "drop:0.3:5"])
    @pytest.mark.parametrize(
        "factory",
        [partial(FloodMaxProgram, rounds=12), partial(RedundantFloodMaxProgram, patience=3, copies=3)],
        ids=["flood_max", "redundant"],
    )
    def test_lowered_sizes_adopted_maxima_like_stepped(self, factory, adversary):
        # On a path labelled 0..39 every node's best climbs one label per
        # round, so the folded maxima cross 2, 4, 8, 16 and 32 mid-run and
        # each round's total bits depends on every adopted size.
        g = path_graph(40)
        runs = {}
        for name, engine, vectorize in (
            ("lowered", "columnar", True),
            ("stepped", "columnar", False),
            ("reference", "reference", False),
        ):
            sim = Simulator(
                g,
                factory,
                model=broadcast_congest_model(40, enforce=False),
                seed=2,
                engine=engine,
                adversary=build_adversary(adversary) if adversary else None,
                vectorize=vectorize,
            )
            runs[name] = sim.run()
            assert sim.lowered == (name == "lowered")
        _assert_identical(runs["lowered"], runs["stepped"])
        _assert_identical(runs["lowered"], runs["reference"])
        per_round = list(runs["lowered"].metrics.bits_per_round)
        assert len(set(per_round[1:6])) > 1


class _MetricsKeeper(Simulator):
    """A simulator that keeps its run's metrics block, so a raising run's
    partially flushed totals can be read after the raise."""

    def _new_metrics(self):
        self.run_metrics = super()._new_metrics()
        return self.run_metrics


def _raise_outcome(graph, factory, model, engine, adversary=None, **kwargs):
    """``(message, metrics dict, bits_per_round, lowered)`` of a raising run."""
    adv = build_adversary(adversary) if adversary else None
    sim = _MetricsKeeper(
        graph, factory, model=model, seed=3, engine=engine, adversary=adv, **kwargs
    )
    with pytest.raises(BandwidthExceededError) as info:
        sim.run()
    metrics = sim.run_metrics
    return str(info.value), metrics.as_dict(), list(metrics.bits_per_round), sim.lowered


ENFORCING = pytest.mark.parametrize(
    "model_factory",
    [congest_model, broadcast_congest_model, congested_clique_model],
    ids=lambda f: f.__name__,
)
CUTS = pytest.mark.parametrize("cut", [None, set(range(15))], ids=["no-cut", "cut"])

#: Senders of the oversized payload; 7 is the first in sender order.
OVERSIZE_SENDERS = (7, 13, 22)
OVERSIZE = tuple(range(40))


def _late_oversize(stop_after=None):
    """Everyone broadcasts small labels; round 2 carries the oversize payload.

    With ``stop_after`` set, round 2's senders above that label stay silent
    and every node halts there: the run the enforcing engine must have
    accounted for at the moment it raises on sender ``stop_after``.
    """

    def factory(v):
        def on_start(ctx):
            ctx.broadcast(v)

        def on_round(ctx, inbox):
            if ctx.round < 2:
                ctx.broadcast(v + ctx.round)
                return
            if ctx.round == 2 and (stop_after is None or v <= stop_after):
                ctx.broadcast(OVERSIZE if v in OVERSIZE_SENDERS else v + ctx.round)
            if ctx.round >= (3 if stop_after is None else 2):
                ctx.halt()

        return FunctionProgram(on_start, on_round)

    return factory


def _targeted_oversize(v):
    """Targeted fan-out to three neighbours; round 3 carries oversize sends."""

    def send_all(ctx, payload):
        for dst in sorted(ctx.neighbors)[:3]:
            ctx.send(dst, payload)

    def on_round(ctx, inbox):
        if ctx.round >= 5:
            ctx.halt()
        elif ctx.round == 3 and v in OVERSIZE_SENDERS:
            send_all(ctx, OVERSIZE)
        else:
            send_all(ctx, v + ctx.round)

    return FunctionProgram(lambda ctx: send_all(ctx, v), on_round)


class TestEnforcedRaiseMetrics:
    """An enforced violation raises mid-round with its metrics flushed.

    The broadcast kernels detect the violation with array masks, then
    replay the pass in ascending sender order
    (:meth:`~repro.distributed.columnar.BroadcastAccounting._walk`): the
    message names the first violating sender's first link, as the indexed
    engine's does, and the metrics are flushed up to and including that
    sender's whole row.  Targeted rounds re-walk the stream per message in
    oracle order, so their partial metrics are the indexed engine's.
    """

    N = 30

    def _graph(self):
        return gnp_random_graph(self.N, 0.25, seed=5)

    @ENFORCING
    @CUTS
    def test_broadcast_raise_flushes_through_the_violating_sender(
        self, model_factory, cut
    ):
        g = self._graph()
        message, metrics, per_round, _ = _raise_outcome(
            g, _late_oversize(), model_factory(self.N), "columnar", cut=cut
        )
        indexed_message = _raise_outcome(
            g, _late_oversize(), model_factory(self.N), "indexed", cut=cut
        )[0]
        assert message == indexed_message
        assert message.startswith("message(s) on link 7->")
        # The accounted prefix: rounds 0-1 in full, round 2 through sender 7.
        prefix = _run(
            g,
            _late_oversize(stop_after=OVERSIZE_SENDERS[0]),
            model_factory(self.N, enforce=False),
            "indexed",
            cut=cut,
        )
        assert metrics == prefix.metrics.as_dict()
        assert per_round == list(prefix.metrics.bits_per_round)

    @pytest.mark.parametrize(
        "model_factory", [congest_model, broadcast_congest_model],
        ids=lambda f: f.__name__,
    )
    @CUTS
    def test_lowered_raise_matches_stepped(self, model_factory, cut):
        # logn_factor=1 gives a 5-bit budget: labels >= 16 overflow it.
        g = self._graph()
        outcomes = {
            vectorize: _raise_outcome(
                g,
                partial(FloodMaxProgram, rounds=6),
                model_factory(self.N, logn_factor=1),
                "columnar",
                cut=cut,
                vectorize=vectorize,
            )
            for vectorize in (False, True)
        }
        stepped, lowered = outcomes[False], outcomes[True]
        assert not stepped[3] and lowered[3]
        assert lowered[:3] == stepped[:3]
        indexed_message = _raise_outcome(
            g,
            partial(FloodMaxProgram, rounds=6),
            model_factory(self.N, logn_factor=1),
            "indexed",
            cut=cut,
        )[0]
        assert lowered[0] == indexed_message

    @pytest.mark.parametrize(
        "model_factory", [congest_model, congested_clique_model],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize(
        "adversary",
        [None, "drop:0.2:3", "crash:4@2,17@3", "budget:48"],
        ids=lambda a: a or "fault-free",
    )
    def test_targeted_raise_matches_indexed(self, model_factory, adversary):
        g = self._graph()
        runs = {
            engine: _raise_outcome(
                g, _targeted_oversize, model_factory(self.N), engine,
                adversary=adversary,
            )
            for engine in ("indexed", "columnar")
        }
        assert runs["columnar"][:3] == runs["indexed"][:3]
        assert runs["columnar"][1]["rounds"] == 3


class TestFloodMax:
    """The E23 flood-max workload itself, on the stepped and lowered columnar paths."""

    @pytest.mark.parametrize("engine", ["indexed", "columnar", "reference"])
    def test_converges_to_max_label(self, engine):
        g = gnp_random_graph(50, 0.2, seed=11)
        result = run_flood_max(g, rounds=6, seed=1, engine=engine, vectorize=False)
        assert result.converged
        assert result.leader == 49
        assert result.rounds == 6

    @PATHS
    def test_insufficient_rounds_do_not_converge(self, vectorize):
        g = path_graph(30)  # diameter 29 >> 2 rounds
        result = run_flood_max(g, rounds=2, seed=1, engine="columnar", vectorize=vectorize)
        assert not result.converged
        assert result.leader is None

    @PATHS
    def test_zero_rounds_outputs_own_label(self, vectorize):
        g = path_graph(3)
        result = run_flood_max(g, rounds=0, seed=1, engine="columnar", vectorize=vectorize)
        assert result.node_outputs == {0: 0, 1: 1, 2: 2}
        assert result.metrics.messages_sent == 0


class TestStreamingMetrics:
    """Opt-in bounded history: scalars exact, default behaviour untouched."""

    def test_streaming_run_matches_scalar_counters(self):
        g = gnp_random_graph(40, 0.15, seed=5)
        plain = run_flood_max(g, rounds=5, seed=9, engine="columnar")
        streaming = run_flood_max(
            g, rounds=5, seed=9, engine="columnar", streaming_metrics=True
        )
        assert streaming.node_outputs == plain.node_outputs
        assert streaming.metrics.as_dict() == plain.metrics.as_dict()
        assert streaming.metrics.peak_round_bits() == plain.metrics.peak_round_bits()
        assert list(streaming.metrics.bits_per_round) == list(
            plain.metrics.bits_per_round
        )

    def test_default_history_is_a_plain_list(self):
        g = path_graph(5)
        result = run_flood_max(g, rounds=3, seed=1, engine="columnar")
        assert isinstance(result.metrics.bits_per_round, list)


class TestColumnarInboxUnit:
    """Direct checks of the view the engine hands to programs."""

    def test_max_heard_matches_generic_fold(self):
        # One program folds via max_heard, the control re-derives the same
        # maximum through the Mapping facade in the same round: both paths
        # observe the identical delivered set.
        class Probe(NodeProgram):
            def __init__(self, v):
                self.v = v

            def on_start(self, ctx):
                ctx.broadcast(self.v * 3)

            def on_round(self, ctx, inbox):
                assert isinstance(inbox, ColumnarInbox)
                generic = max(
                    (value for plist in inbox.values() for value in plist),
                    default=-1,
                )
                assert inbox.max_heard(-1) == generic
                assert inbox.max_heard(10**9) == 10**9
                ctx.set_output(generic)
                ctx.halt()

        g = gnp_random_graph(20, 0.3, seed=1)
        result = run_program(
            g, lambda v: Probe(v), model=broadcast_congest_model(20), engine="columnar"
        )
        assert result.completed

    def test_getitem_raises_for_silent_neighbours(self):
        class Half(NodeProgram):
            def __init__(self, v):
                self.v = v

            def on_start(self, ctx):
                if self.v % 2 == 0:
                    ctx.broadcast(self.v)

            def on_round(self, ctx, inbox):
                for src in ctx.neighbors:
                    if src % 2 == 0:
                        assert inbox[src] == [src]
                    else:
                        with pytest.raises(KeyError):
                            inbox[src]
                        assert src not in inbox
                ctx.set_output(len(inbox))
                ctx.halt()

        result = run_program(
            path_graph(6),
            lambda v: Half(v),
            model=broadcast_congest_model(6),
            engine="columnar",
        )
        assert result.completed
