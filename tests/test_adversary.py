"""Tests for the adversary layer: parity, semantics, counters, parsing.

The load-bearing contract: all three engines produce bit-for-bit identical
``RunResult``s *under the same adversary* across all four communication
models; a ``None``/``NoAdversary`` adversary is byte-for-byte the fault-free
behaviour (golden dictionary shape included); fault counters live in
``Metrics.per_adversary`` and appear in ``as_dict()`` only when an
adversary is active.

The drop filter's per-row ``deliver_mask`` is checked against its
per-message ``deliver`` on Hypothesis-generated labels; tier-1 runs a few
derandomized examples and ``REPRO_DROP_MASK_EXAMPLES`` asks for more (CI's
``bench-smoke`` job runs 500).
"""

import os
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    robust_flood_max_round_bound,
    run_clique_two_spanner,
    run_flood_max,
    run_robust_flood_max,
)
from repro.core.flood_max import FloodMaxProgram, RobustFloodMaxProgram
from repro.distributed import (
    Adversary,
    CorruptAdversary,
    CrashAdversary,
    DropAdversary,
    Metrics,
    NoAdversary,
    RoundBudgetAdversary,
    Simulator,
    broadcast_congest_model,
    build_adversary,
    congest_model,
    congested_clique_model,
    local_model,
    run_program,
)
from repro.graphs import gnp_random_graph, path_graph

ALL_MODELS = [
    lambda n: local_model(n),
    lambda n: congest_model(n, enforce=False),
    lambda n: broadcast_congest_model(n, enforce=False),
    lambda n: congested_clique_model(n, enforce=False),
]

DROP_MASK_EXAMPLES = int(os.environ.get("REPRO_DROP_MASK_EXAMPLES", "40"))

ADVERSARIES = [
    DropAdversary(0.1),
    CrashAdversary({3: 2, 11: 4}),
    RoundBudgetAdversary(40),
    CorruptAdversary(0.1),
]


def _run_all_engines(graph, factory, model, adversary, seed=9, cut=None):
    runs = {
        engine: Simulator(
            graph,
            factory,
            model=model,
            seed=seed,
            cut=cut,
            engine=engine,
            adversary=adversary,
        ).run()
        for engine in ("indexed", "columnar", "reference")
    }
    for run in runs.values():
        run.metrics.check_invariants()
    return runs


class TestEngineParityUnderFaults:
    """indexed == columnar == reference under the same adversary, all models."""

    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    @pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a.spec())
    def test_flood_max_identical_across_engines(self, model_factory, adversary):
        g = gnp_random_graph(40, 0.15, seed=5)
        runs = _run_all_engines(
            g, partial(FloodMaxProgram, rounds=6), model_factory(40), adversary
        )
        indexed, columnar, reference = (
            runs["indexed"],
            runs["columnar"],
            runs["reference"],
        )
        assert columnar.outputs == indexed.outputs == reference.outputs
        assert (
            columnar.metrics.as_dict()
            == indexed.metrics.as_dict()
            == reference.metrics.as_dict()
        )
        assert columnar.metrics.bits_per_round == indexed.metrics.bits_per_round
        assert columnar.completed is indexed.completed is reference.completed

    @pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a.spec())
    def test_cut_accounting_identical_across_engines(self, adversary):
        g = gnp_random_graph(30, 0.25, seed=4)
        cut = set(range(15))
        faulty = _run_all_engines(
            g, partial(FloodMaxProgram, rounds=4), congest_model(30, enforce=False),
            adversary, cut=cut,
        )
        assert (
            faulty["indexed"].metrics.as_dict()
            == faulty["columnar"].metrics.as_dict()
            == faulty["reference"].metrics.as_dict()
        )
        assert faulty["indexed"].metrics.cut_bits > 0

    def test_drops_charge_senders_in_full(self):
        # Faults act on delivery: the drop adversary destroys messages in
        # flight, so every send-side counter (messages, bits, cut) must
        # match the fault-free run exactly.  (Crash faults differ: crashed
        # nodes legitimately stop *sending*.)
        g = gnp_random_graph(30, 0.25, seed=4)
        cut = set(range(15))
        clean = Simulator(
            g, partial(FloodMaxProgram, rounds=4),
            model=congest_model(30, enforce=False), seed=9, cut=cut,
        ).run()
        dropped = Simulator(
            g, partial(FloodMaxProgram, rounds=4),
            model=congest_model(30, enforce=False), seed=9, cut=cut,
            adversary=DropAdversary(0.2),
        ).run()
        # Message/round counts are send-side and payload-independent here
        # (every node broadcasts every round for the fixed budget); bit
        # totals may differ because drops change which *values* circulate.
        assert dropped.metrics.messages_sent == clean.metrics.messages_sent
        assert dropped.metrics.cut_messages == clean.metrics.cut_messages
        assert dropped.metrics.per_adversary["adversary_dropped_messages"] > 0

    def test_robust_flood_max_parity_under_drops(self):
        g = gnp_random_graph(36, 0.18, seed=2)
        results = [
            run_robust_flood_max(
                g, patience=5, seed=3, engine=engine, adversary=DropAdversary(0.15)
            )
            for engine in ("indexed", "columnar", "reference")
        ]
        assert results[0].node_outputs == results[1].node_outputs == results[2].node_outputs
        assert (
            results[0].metrics.as_dict()
            == results[1].metrics.as_dict()
            == results[2].metrics.as_dict()
        )

    def test_same_seed_same_faults_different_seed_different_faults(self):
        g = gnp_random_graph(30, 0.2, seed=1)

        def dropped(seed):
            result = run_flood_max(
                g, rounds=5, seed=seed, adversary=DropAdversary(0.1)
            )
            return result.metrics.per_adversary["adversary_dropped_messages"]

        assert dropped(7) == dropped(7)
        assert dropped(7) != dropped(8)

    def test_salt_decorrelates_drop_streams_under_one_seed(self):
        g = gnp_random_graph(30, 0.2, seed=1)

        def outputs(salt):
            return run_flood_max(
                g, rounds=3, seed=7, adversary=DropAdversary(0.3, salt=salt)
            ).node_outputs

        assert outputs(0) == outputs(0)
        assert outputs(0) != outputs(1)


class TestNoAdversaryIdentity:
    """None and NoAdversary are byte-for-byte the fault-free behaviour."""

    @pytest.mark.parametrize("engine", ["indexed", "columnar", "reference"])
    def test_metrics_dict_shape_unchanged(self, engine):
        g = gnp_random_graph(25, 0.2, seed=3)
        plain = run_program(
            g, partial(FloodMaxProgram, rounds=4), seed=5, engine=engine
        )
        identity = run_program(
            g,
            partial(FloodMaxProgram, rounds=4),
            seed=5,
            engine=engine,
            adversary=NoAdversary(),
        )
        assert identity.outputs == plain.outputs
        assert identity.metrics.as_dict() == plain.metrics.as_dict()
        assert identity.metrics.per_adversary == {}

    def test_zero_rate_drop_only_adds_zero_counters(self):
        g = gnp_random_graph(25, 0.2, seed=3)
        plain = run_program(g, partial(FloodMaxProgram, rounds=4), seed=5)
        zero = run_program(
            g, partial(FloodMaxProgram, rounds=4), seed=5, adversary=DropAdversary(0.0)
        )
        assert zero.outputs == plain.outputs
        assert zero.metrics.per_adversary == {
            "adversary_dropped_messages": 0,
            "adversary_dropped_bits": 0,
        }
        stripped = {
            k: v
            for k, v in zero.metrics.as_dict().items()
            if not k.startswith("adversary_")
        }
        assert stripped == plain.metrics.as_dict()


class TestCrashSemantics:
    def test_crashed_nodes_leave_active_set_and_run_completes(self):
        g = path_graph(6)
        result = run_robust_flood_max(
            g, patience=3, seed=1, adversary=CrashAdversary({2: 2})
        )
        # The run completes even though node 2 never calls halt() itself...
        assert result.node_outputs[2] is None
        # ...and its crash severs the path: side {0,1} cannot learn 5.
        assert result.node_outputs[0] == result.node_outputs[1]
        assert result.node_outputs[0] < 5
        assert result.node_outputs[5] == 5

    def test_in_flight_messages_from_crasher_are_delivered(self):
        # Node 1 crashes at round 2, but it executed round 1 — where it
        # folded node 2's label and rebroadcast it.  That in-flight relay
        # still arrives, so node 0 learns 2 even though the path is severed
        # before round 2 runs.
        g = path_graph(3)
        result = run_robust_flood_max(
            g, patience=2, seed=1, adversary=CrashAdversary({1: 2})
        )
        assert result.node_outputs[0] == 2

    def test_messages_to_crashed_node_are_lost_and_counted(self):
        g = path_graph(3)
        result = run_robust_flood_max(
            g, patience=2, seed=1, adversary=CrashAdversary({1: 1})
        )
        metrics = result.metrics.per_adversary
        assert metrics["adversary_crashed_nodes"] == 1
        # Round-0 broadcasts from 0 and 2 to node 1 arrive at round 1 — the
        # crash round — so both are destroyed.
        assert metrics["adversary_lost_messages"] >= 2
        assert result.node_outputs[1] is None

    def test_voluntarily_halted_node_is_not_counted_as_crashed(self):
        g = path_graph(3)
        # Patience 1: nodes halt quickly; schedule a crash long after.
        result = run_robust_flood_max(
            g, patience=1, seed=1, adversary=CrashAdversary({0: 50})
        )
        assert result.metrics.per_adversary["adversary_crashed_nodes"] == 0

    def test_crash_round_must_be_positive_int(self):
        with pytest.raises(ValueError, match=">= 1"):
            CrashAdversary({1: 0})
        with pytest.raises(ValueError, match=">= 1"):
            CrashAdversary({1: "soon"})


class TestRoundBudgetThrottle:
    def test_oversized_broadcast_is_destroyed_not_raised(self):
        g = path_graph(4)
        big = tuple(range(50))  # far beyond a 40-bit throttle
        from repro.distributed import FunctionProgram

        def on_start(ctx):
            ctx.broadcast(big)
            ctx.set_output(True)
            ctx.halt()

        result = run_program(
            g,
            lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
            seed=1,
            adversary=RoundBudgetAdversary(40),
        )
        metrics = result.metrics.per_adversary
        assert metrics["adversary_throttled_messages"] == result.metrics.messages_sent
        assert result.completed

    def test_small_messages_pass_untouched(self):
        g = path_graph(4)
        result = run_flood_max(
            g, rounds=4, seed=1, adversary=RoundBudgetAdversary(10_000)
        )
        assert result.converged
        assert result.metrics.per_adversary["adversary_throttled_messages"] == 0

    def test_throttle_below_model_budget_degrades_congest_run(self):
        g = gnp_random_graph(20, 0.3, seed=6)
        clean = run_flood_max(g, rounds=4, seed=2, model=congest_model(20))
        throttled = run_flood_max(
            g,
            rounds=4,
            seed=2,
            model=congest_model(20),
            adversary=RoundBudgetAdversary(4),  # << the CONGEST budget
        )
        assert clean.converged
        assert throttled.metrics.per_adversary["adversary_throttled_messages"] > 0
        # No enforcement error: throttling is a network fault, not a
        # protocol violation.
        assert throttled.metrics.bandwidth_violations == 0


class TestRobustFloodMax:
    def test_provable_termination_bound_holds_under_heavy_loss(self):
        g = gnp_random_graph(30, 0.2, seed=4)
        result = run_robust_flood_max(
            g, patience=2, seed=1, adversary=DropAdversary(0.6)
        )
        assert result.rounds <= robust_flood_max_round_bound(30, 2)

    def test_retransmission_recovers_where_fixed_budget_fails(self):
        # Same graph, same drop stream: the fixed-budget program misses the
        # diameter deadline under loss, the robust variant still converges.
        g = path_graph(12)
        adversary = DropAdversary(0.3)
        fixed = run_flood_max(g, rounds=11, seed=2, adversary=adversary)
        robust = run_robust_flood_max(g, patience=14, seed=2, adversary=adversary)
        assert not fixed.converged
        assert robust.converged
        assert robust.leader == 11

    def test_patience_validation(self):
        with pytest.raises(ValueError, match="patience"):
            RobustFloodMaxProgram(0, patience=0)


class TestAdversarySpecs:
    """String round-trips, value semantics, and metric plumbing."""

    @pytest.mark.parametrize(
        "text",
        [
            "none",
            "drop:0.05",
            "drop:0.05:3",
            "corrupt:0.05",
            "corrupt:0.05:3",
            "crash:4@2,17@5",
            "budget:64",
        ],
    )
    def test_spec_round_trips(self, text):
        adversary = build_adversary(text)
        assert isinstance(adversary, Adversary)
        assert build_adversary(adversary.spec()) == adversary

    @pytest.mark.parametrize(
        "adversary",
        [
            NoAdversary(),
            DropAdversary(0.25),
            DropAdversary(0.25, salt=7),
            CorruptAdversary(0.25),
            CorruptAdversary(0.25, salt=7),
            CrashAdversary({3: 2, 11: 4}),
            RoundBudgetAdversary(40),
        ],
        ids=lambda a: a.spec(),
    )
    def test_every_adversary_spec_is_lossless(self, adversary):
        # The canonical spec() string is a complete serialisation: parsing
        # it back yields a value-equal adversary (equal hash included).
        rebuilt = build_adversary(adversary.spec())
        assert rebuilt == adversary
        assert hash(rebuilt) == hash(adversary)
        assert rebuilt.spec() == adversary.spec()

    def test_value_semantics(self):
        assert DropAdversary(0.05) == DropAdversary(0.05)
        assert DropAdversary(0.05) != DropAdversary(0.06)
        assert CrashAdversary({1: 2}) == CrashAdversary({1: 2})
        assert hash(RoundBudgetAdversary(8)) == hash(RoundBudgetAdversary(8))
        assert NoAdversary() == NoAdversary()
        assert NoAdversary() != DropAdversary(0.0)
        assert CorruptAdversary(0.05) == CorruptAdversary(0.05)
        assert CorruptAdversary(0.05) != CorruptAdversary(0.05, salt=1)
        assert CorruptAdversary(0.0) != DropAdversary(0.0)

    def test_corrupt_rate_must_be_a_probability(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CorruptAdversary(-0.1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CorruptAdversary(1.5)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "warp",
            "drop:",
            "drop:2.0",
            "corrupt:",
            "corrupt:-0.1",
            "crash:",
            "crash:1",
            "budget:x",
        ],
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError):
            build_adversary(text)

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("drop:x", "rate token 'x' is not a number"),
            ("corrupt:x", "rate token 'x' is not a number"),
            ("corrupt:0.1:z", "salt token 'z' is not an integer"),
            ("crash:1", "crash entry '1' must look like NODE@ROUND"),
            ("budget:x", "bits token 'x' is not an integer"),
        ],
    )
    def test_bad_specs_name_the_offending_token(self, text, message):
        with pytest.raises(ValueError, match=message):
            build_adversary(text)

    def test_fault_counter_collision_raises(self):
        metrics = Metrics()
        metrics.bump("shared_name")
        metrics.bump_fault("shared_name")
        with pytest.raises(ValueError, match="collides"):
            metrics.as_dict()

    def test_clique_spanner_valid_under_drops_all_engines(self):
        g = gnp_random_graph(32, 0.2, seed=8)
        from repro.spanner import is_k_spanner

        runs = {
            engine: run_clique_two_spanner(
                g, seed=4, engine=engine, adversary=DropAdversary(0.1)
            )
            for engine in ("indexed", "columnar", "reference")
        }
        assert runs["indexed"].edges == runs["columnar"].edges == runs["reference"].edges
        assert is_k_spanner(g, runs["indexed"].edges, 2)


#: Label kinds the drop filter hashes: exact ints of any sign and size
#: (negative, >= 2**63), and the kinds that must keep ``repr``: ``bool``
#: (``repr(True)`` is not ``"%d" % True``), NumPy scalars and strings.
_INTS = st.integers(-(2**70), 2**70) | st.sampled_from(
    [0, -1, 2**63 - 1, 2**63, 2**64 + 3, -(2**63) - 1]
)
_LABELS = (
    _INTS
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.text(max_size=4)
)


class TestDropMaskDifferential:
    """``_DropFilter.deliver_mask`` equals one ``deliver`` per destination."""

    @settings(max_examples=DROP_MASK_EXAMPLES, deadline=None, derandomize=True)
    @given(
        rate=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
        salt=st.integers(0, 3),
        round_=st.integers(0, 10**6),
        src=_LABELS,
        dsts=st.lists(_INTS, max_size=12)
        | st.lists(_INTS | st.booleans(), max_size=12)
        | st.lists(_LABELS, max_size=12),
        bits=st.integers(1, 2**20),
    )
    @example(
        rate=0.5, seed=1, salt=0, round_=3, src=1, dsts=[0, True, 1, False], bits=8
    )
    @example(
        rate=0.5, seed=1, salt=0, round_=3, src=1, dsts=[0, np.int64(1), 2], bits=8
    )
    @example(
        rate=0.5, seed=1, salt=0, round_=3, src=True, dsts=[0, 1, 2, 3], bits=8
    )
    @example(
        rate=0.5, seed=2, salt=0, round_=0, src=np.int64(-4), dsts=[-4, 2**63], bits=3
    )
    @example(
        rate=0.5, seed=3, salt=1, round_=7, src=-5, dsts=[-(2**63) - 1, 2**64, 0], bits=2
    )
    def test_mask_matches_per_message_deliver(
        self, rate, seed, salt, round_, src, dsts, bits
    ):
        masked, each = Metrics(), Metrics()
        masked.rounds = each.rounds = round_
        row_filter = DropAdversary(rate, salt).bind(seed, masked)
        message_filter = DropAdversary(rate, salt).bind(seed, each)
        mask = row_filter.deliver_mask(src, dsts, bits)
        expected = bytearray(message_filter.deliver(src, dst, bits) for dst in dsts)
        assert mask == expected
        assert masked.per_adversary == each.per_adversary
