"""Differential and unit tests for whole-round program lowering (E23).

The lowering layer (``repro.distributed.vectorize``) ships under the
tightest gate in the repo: a lowered run must be **bit-for-bit identical**
to the stepped columnar run and the indexed oracle — outputs,
``Metrics.as_dict()``, ``bits_per_round``, fault counters — across all four
communication models, under the drop/crash adversaries, and on
negative-label instances that force the
non-monotone size path.  Every refusal seam (corruption, mixed program
classes, tampered state, heterogeneous config, non-int labels,
``vectorize=False``) must fall back to stepping, visibly
(``Simulator.lowered``, with the refusing check in ``Simulator.lowering``)
and exactly.  A fault-free lowered run stops folding after its first quiet
round; a call-count guard pins that, and a filtered run folds every round.
The closed-form payload sizes the kernels use are pinned against
``estimate_bits``, and the satellite
infrastructure (graph memoization, the O(n + m) Barabási–Albert CSR
family) is covered here too.
"""

import random
from functools import partial
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flood_max import (
    FloodMaxProgram,
    RobustFloodMaxProgram,
    run_flood_max,
    run_robust_flood_max,
)
from repro.distributed import (
    NodeProgram,
    Simulator,
    broadcast_congest_model,
    congest_model,
    congested_clique_model,
    local_model,
)
from repro.distributed import simulator as simulator_module
from repro.distributed.adversary import build_adversary
from repro.distributed import columnar as columnar_module
from repro.distributed.columnar import INT64_MIN, BlockedRowMax, int_column_bits
from repro.distributed.encoding import estimate_bits
from repro.distributed.node import NodeContext
from repro.distributed.vectorize import (
    EngineView,
    int_payload_bits,
    repetition_frame_bits,
)
from repro.core.robust_coding import (
    CodedFloodMaxProgram,
    RedundantFloodMaxProgram,
    run_redundant_flood_max,
)
from repro.experiments import families, get_experiment
from repro.experiments.runner import execute_scenario
from repro.experiments.families import (
    build_frozen_graph,
    build_graph,
    clear_graph_memo,
    family_spec_hash,
)
from repro.graphs import (
    Graph,
    barabasi_albert_csr,
    gnp_random_graph,
    path_graph,
    sparse_gnp_csr,
)
from repro.graphs.topology import FrozenGraph

ALL_MODELS = [
    lambda n: local_model(n),
    lambda n: congest_model(n, enforce=False),
    lambda n: broadcast_congest_model(n, enforce=False),
    lambda n: congested_clique_model(n, enforce=False),
]

#: The three shipped lowerable workloads (redundant = repetition frames).
WORKLOADS = {
    "fixed": partial(FloodMaxProgram, rounds=6),
    "robust": partial(RobustFloodMaxProgram, patience=3),
    "redundant": partial(RedundantFloodMaxProgram, patience=3, copies=3),
}

#: The reason a factory that is not ``partial(VectorProgram subclass, **config)``
#: records: it steps without building a probe.
NOT_A_PARTIAL = "factory not a VectorProgram partial"


def _last_deviates(program_cls, budget, last, **state):
    """Factory of homogeneous programs, except ``state`` set on node ``last``.

    ``last`` is the label at the final CSR index, so a homogeneity check
    that stops short of the end cannot pass the case.
    """

    def factory(v):
        program = program_cls(v, budget)
        if v == last:
            for name, value in state.items():
                setattr(program, name, value)
        return program

    return factory


class _EchoProgram(NodeProgram):
    """Broadcast once, halt on the first round: a plain stepped program."""

    def on_start(self, ctx):
        ctx.broadcast(0)

    def on_round(self, ctx, inbox):
        ctx.halt()


class _LabelledEcho(_EchoProgram):
    """:class:`_EchoProgram` built from a label, so ``partial`` can build it."""

    def __init__(self, node):
        self.node = node


class _SwappedFlood(FloodMaxProgram):
    """A flood-max whose constructor takes the budget first."""

    __slots__ = ()

    def __init__(self, rounds, node):
        super().__init__(node, rounds)


class _InboxOrderProgram(NodeProgram):
    """Broadcast the label once; output the round-1 inbox in iteration order."""

    def __init__(self, node):
        self.node = node

    def on_start(self, ctx):
        ctx.broadcast(self.node)

    def on_round(self, ctx, inbox):
        ctx.set_output((list(inbox), [p for ps in inbox.values() for p in ps]))
        ctx.halt()


class _TieMaxProgram(NodeProgram):
    """Broadcast ``True``, ``1`` or ``1.0``; output the ``repr`` of the max heard.

    The three payloads compare equal, so which one a max returns depends on
    the order it reads the senders in (ascending sender index on every
    engine).
    """

    def __init__(self, node):
        self.node = node

    def on_start(self, ctx):
        ctx.broadcast((True, 1, 1.0)[self.node % 3])

    def on_round(self, ctx, inbox):
        if hasattr(inbox, "max_heard"):
            heard = inbox.max_heard(0)
        else:
            heard = max(chain.from_iterable(inbox.values()), default=0)
        ctx.set_output(repr(heard))
        ctx.halt()


def _run(graph, factory, model, engine, seed=1, adversary=None, vectorize=True):
    """Run and return ``(simulator, result)`` so tests can read ``lowered``."""
    adv = build_adversary(adversary) if adversary else None
    sim = Simulator(
        graph,
        factory,
        model=model,
        seed=seed,
        engine=engine,
        adversary=adv,
        vectorize=vectorize,
    )
    return sim, sim.run()


def _assert_identical(a, b):
    a.metrics.check_invariants()
    b.metrics.check_invariants()
    assert a.outputs == b.outputs
    assert a.metrics.as_dict() == b.metrics.as_dict()
    assert list(a.metrics.bits_per_round) == list(b.metrics.bits_per_round)
    assert a.completed == b.completed
    assert a.rounds == b.rounds


class TestLoweredDifferential:
    """Lowered == stepped == indexed, all models, all lowerable workloads."""

    @pytest.mark.parametrize("model_factory", ALL_MODELS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS), ids=str)
    def test_identical_across_models(self, model_factory, workload):
        g = gnp_random_graph(40, 0.15, seed=5)
        factory = WORKLOADS[workload]
        lowered_sim, lowered = _run(g, factory, model_factory(40), "columnar", seed=9)
        stepped_sim, stepped = _run(
            g, factory, model_factory(40), "columnar", seed=9, vectorize=False
        )
        _, indexed = _run(g, factory, model_factory(40), "indexed", seed=9)
        assert lowered_sim.lowered
        assert not stepped_sim.lowered
        _assert_identical(lowered, stepped)
        _assert_identical(lowered, indexed)

    @pytest.mark.parametrize("adversary", ["drop:0.2", "crash:3@1,11@2,24@3"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS), ids=str)
    def test_identical_under_drop_and_crash(self, adversary, workload):
        # Fresh adversary per engine (they are stateful); same spec, same
        # seed, so delivery decisions and fault counters must coincide.
        g = gnp_random_graph(30, 0.2, seed=6)
        factory = WORKLOADS[workload]
        runs = {}
        for engine, vectorize in (("columnar", True), ("indexed", True)):
            sim, result = _run(
                g,
                factory,
                broadcast_congest_model(30, enforce=False),
                engine,
                seed=4,
                adversary=adversary,
                vectorize=vectorize,
            )
            runs[engine] = result
            if engine == "columnar":
                assert sim.lowered
        _assert_identical(runs["columnar"], runs["indexed"])

    @pytest.mark.parametrize("seed", range(5))
    def test_multi_seed_sweep_under_drop(self, seed):
        g = gnp_random_graph(35, 0.18, seed=seed)
        lowered_sim, lowered = _run(
            g,
            WORKLOADS["robust"],
            broadcast_congest_model(35),
            "columnar",
            seed=seed,
            adversary="drop:0.15",
        )
        _, stepped = _run(
            g,
            WORKLOADS["robust"],
            broadcast_congest_model(35),
            "columnar",
            seed=seed,
            adversary="drop:0.15",
            vectorize=False,
        )
        assert lowered_sim.lowered
        _assert_identical(lowered, stepped)

    def test_negative_labels_take_the_non_monotone_path(self):
        # Negative labels break wire-size monotonicity (bit_length(-5) >
        # bit_length(1)), so the kernel must refresh sizes per distinct
        # value instead of folding them — still lowered, still identical.
        g = Graph()
        labels = [-9, -7, -5, -3, -1, 0, 2, 4]
        for a, b in zip(labels, labels[1:]):
            g.add_edge(a, b)
        g.add_edge(labels[0], labels[-1])
        factory = partial(FloodMaxProgram, rounds=6)
        lowered_sim, lowered = _run(
            g, factory, broadcast_congest_model(8), "columnar", seed=2
        )
        _, indexed = _run(g, factory, broadcast_congest_model(8), "indexed", seed=2)
        assert lowered_sim.lowered
        _assert_identical(lowered, indexed)
        assert set(lowered.outputs.values()) == {4}


class TestLoweringDecision:
    """Every refusal seam declines visibly, with its reason, and falls back exactly."""

    def _parity_with_indexed(self, g, factory, reason, adversary=None):
        sim, columnar = _run(
            g,
            factory,
            broadcast_congest_model(g.number_of_nodes(), enforce=False),
            "columnar",
            seed=3,
            adversary=adversary,
        )
        indexed_sim, indexed = _run(
            g,
            factory,
            broadcast_congest_model(g.number_of_nodes(), enforce=False),
            "indexed",
            seed=3,
            adversary=adversary,
        )
        assert not sim.lowered
        assert sim.lowering == reason
        assert indexed_sim.lowering is None
        _assert_identical(columnar, indexed)

    def test_lowered_run_records_lowered(self):
        g = gnp_random_graph(25, 0.25, seed=1)
        sim, _ = _run(g, WORKLOADS["fixed"], broadcast_congest_model(25), "columnar")
        assert sim.lowered
        assert sim.lowering == "lowered"

    def test_vectorize_false_steps(self):
        g = gnp_random_graph(25, 0.25, seed=1)
        sim, _ = _run(
            g,
            WORKLOADS["fixed"],
            broadcast_congest_model(25),
            "columnar",
            vectorize=False,
        )
        assert not sim.lowered
        assert sim.lowering == "vectorize off"

    def test_empty_graph_has_no_programs(self):
        sim, result = _run(
            Graph(), WORKLOADS["fixed"], broadcast_congest_model(1), "columnar"
        )
        assert not sim.lowered
        assert sim.lowering == "no programs"
        assert result.outputs == {}

    def test_plain_node_program_declines(self):
        # A program outside the VectorProgram protocol: the factory check
        # refuses, whether or not the factory is a partial.
        g = gnp_random_graph(20, 0.3, seed=4)
        self._parity_with_indexed(g, lambda v: _EchoProgram(), NOT_A_PARTIAL)
        self._parity_with_indexed(g, partial(_LabelledEcho), NOT_A_PARTIAL)

    def test_partial_with_positional_config_declines(self):
        # ``partial(Cls, 6)`` would build ``Cls(6, label)``: not the
        # ``Cls(label, **config)`` shape lowering relies on.
        g = gnp_random_graph(20, 0.3, seed=4)
        self._parity_with_indexed(
            g, partial(_SwappedFlood, 6), NOT_A_PARTIAL
        )

    def test_lowering_lambda_twin_steps_identically(self):
        # The same programs through a lambda step, and match the lowered run.
        g = gnp_random_graph(20, 0.3, seed=4)
        self._parity_with_indexed(g, lambda v: FloodMaxProgram(v, 6), NOT_A_PARTIAL)
        sim, lowered = _run(
            g, WORKLOADS["fixed"], broadcast_congest_model(20, enforce=False),
            "columnar", seed=3,
        )
        _, stepped = _run(
            g, lambda v: FloodMaxProgram(v, 6),
            broadcast_congest_model(20, enforce=False), "columnar", seed=3,
        )
        assert sim.lowered
        _assert_identical(lowered, stepped)

    def test_transforming_adversary_declines(self):
        # Corruption mutates payloads in flight; the flat fold cannot model
        # that, so the run must step — and still match the oracle exactly.
        g = gnp_random_graph(25, 0.25, seed=1)
        self._parity_with_indexed(
            g, WORKLOADS["redundant"], "transforming filter", adversary="corrupt:0.1"
        )

    def test_subclass_without_optin_declines(self):
        # CodedFloodMaxProgram subclasses RobustFloodMaxProgram but encodes
        # checksummed frames; the parent's vector_kernel guards on ``cls``
        # and must decline rather than lower with the parent's semantics.
        g = gnp_random_graph(25, 0.25, seed=1)
        self._parity_with_indexed(
            g, partial(CodedFloodMaxProgram, patience=3), "kernel declined"
        )

    def test_mixed_program_classes_decline(self):
        g = gnp_random_graph(24, 0.25, seed=2)
        factory = lambda v: (  # noqa: E731
            FloodMaxProgram(v, 6) if v % 2 == 0 else RobustFloodMaxProgram(v, 3)
        )
        self._parity_with_indexed(g, factory, NOT_A_PARTIAL)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda v: FloodMaxProgram(min(v, 3), 6),
            # One deviation, at the last index (label 19 of the graph below).
            _last_deviates(FloodMaxProgram, 6, 19, best=18),
            _last_deviates(RobustFloodMaxProgram, 3, 19, best=18),
            _last_deviates(RobustFloodMaxProgram, 3, 19, stable=1),
        ],
        ids=["fixed-best", "fixed-last-best", "robust-last-best", "robust-last-stable"],
    )
    def test_tampered_initial_state_declines(self, factory):
        # best != own label (or a robust program already counting stable
        # rounds) means per-node state was touched before the run; only a
        # factory outside the partial shape can do that, so it steps.
        g = gnp_random_graph(20, 0.3, seed=4)
        assert g.freeze().labels[-1] == 19
        self._parity_with_indexed(g, factory, NOT_A_PARTIAL)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda v: FloodMaxProgram(v, 6 if v % 2 == 0 else 7),
            _last_deviates(FloodMaxProgram, 6, 19, rounds=7),
            _last_deviates(RobustFloodMaxProgram, 3, 19, patience=4),
        ],
        ids=["fixed-alternating-rounds", "fixed-last-rounds", "robust-last-patience"],
    )
    def test_heterogeneous_config_declines(self, factory):
        g = gnp_random_graph(20, 0.3, seed=4)
        assert g.freeze().labels[-1] == 19
        self._parity_with_indexed(g, factory, NOT_A_PARTIAL)

    def test_non_int_labels_decline(self):
        g = Graph()
        names = ["ant", "bee", "cat", "dog", "elk"]
        for a, b in zip(names, names[1:]):
            g.add_edge(a, b)
        self._parity_with_indexed(
            g, partial(FloodMaxProgram, rounds=4), "labels not all int"
        )

    def test_bool_labels_decline(self):
        # bool is an int subclass; the exact-type check refuses it.
        g = Graph()
        g.add_edge(False, True)
        self._parity_with_indexed(
            g, partial(FloodMaxProgram, rounds=4), "labels not all int"
        )

    def test_labels_beyond_int64_decline(self):
        g = Graph()
        labels = [(1 << 70) + i for i in range(5)]
        for a, b in zip(labels, labels[1:]):
            g.add_edge(a, b)
        self._parity_with_indexed(
            g, partial(FloodMaxProgram, rounds=4), "labels outside int64"
        )

    @pytest.mark.parametrize("edge", [(2**63 - 1, 2**63), (-(2**63), -(2**63) - 1)])
    def test_one_label_just_past_int64_declines(self, edge):
        g = Graph()
        g.add_edge(*edge)
        self._parity_with_indexed(
            g, partial(FloodMaxProgram, rounds=4), "labels outside int64"
        )

    def test_labels_at_the_int64_bounds_lower(self):
        g = Graph()
        g.add_edge(2**63 - 1, 0)
        g.add_edge(0, -(2**63))
        model = broadcast_congest_model(3, enforce=False)
        sim, lowered = _run(g, WORKLOADS["fixed"], model, "columnar")
        _, indexed = _run(g, WORKLOADS["fixed"], model, "indexed")
        assert sim.lowering == "lowered"
        _assert_identical(lowered, indexed)

    def test_zero_round_budget_lowers_and_halts_in_on_start(self):
        g = gnp_random_graph(15, 0.3, seed=5)
        factory = partial(FloodMaxProgram, rounds=0)
        sim, lowered = _run(g, factory, broadcast_congest_model(15), "columnar")
        _, indexed = _run(g, factory, broadcast_congest_model(15), "indexed")
        assert sim.lowered
        _assert_identical(lowered, indexed)
        assert lowered.metrics.messages_sent == 0


class TestQuietRoundSkip:
    """A fault-free lowered run stops folding once a round improves no node.

    The skip is exact only without a delivery filter; the differential runs
    round budgets (and patiences) well past the diameter, so most rounds
    are quiet, fault-free and under each filter kind.
    """

    #: Budgets far past the diameter of the test graph (at most ~8 hops).
    QUIET_WORKLOADS = {
        "fixed": partial(FloodMaxProgram, rounds=30),
        "robust": partial(RobustFloodMaxProgram, patience=9),
        "redundant": partial(RedundantFloodMaxProgram, patience=9, copies=3),
    }

    @pytest.fixture
    def folds(self, monkeypatch):
        counter = [0]
        fold_max = EngineView.fold_max

        def counting(self, *args, **kwargs):
            counter[0] += 1
            return fold_max(self, *args, **kwargs)

        monkeypatch.setattr(EngineView, "fold_max", counting)
        return counter

    # drop:0.5 redelivers after quiet rounds on this graph: a skip under a
    # filter changes its outputs, not just the fold count.
    @pytest.mark.parametrize(
        "adversary",
        [None, "drop:0.2", "drop:0.5", "crash:3@1,11@2,24@3", "budget:8"],
        ids=str,
    )
    @pytest.mark.parametrize("workload", sorted(QUIET_WORKLOADS), ids=str)
    def test_lowered_matches_stepped_past_the_diameter(
        self, folds, workload, adversary
    ):
        g = gnp_random_graph(40, 0.08, seed=7)
        factory = self.QUIET_WORKLOADS[workload]
        model = broadcast_congest_model(40, enforce=False)
        lowered_sim, lowered = _run(
            g, factory, model, "columnar", seed=2, adversary=adversary
        )
        stepped_sim, stepped = _run(
            g, factory, model, "columnar", seed=2, adversary=adversary, vectorize=False
        )
        assert lowered_sim.lowered and not stepped_sim.lowered
        _assert_identical(lowered, stepped)
        if adversary is None:
            assert folds[0] < lowered.rounds  # the quiet rounds skipped the fold
        else:
            assert folds[0] == lowered.rounds

    @pytest.mark.parametrize("n", [2, 10])
    def test_fault_free_run_stops_folding_after_the_first_quiet_round(self, folds, n):
        # Ascending labels on a path: node 0 hears n - 1 in round n - 1, so
        # round n is the first quiet one and no later round folds.
        sim, result = _run(
            path_graph(n), partial(FloodMaxProgram, rounds=3 * n),
            broadcast_congest_model(n), "columnar",
        )
        assert sim.lowered
        assert result.rounds == 3 * n
        assert folds[0] == n
        assert set(result.outputs.values()) == {n - 1}

    def test_negative_labels_skip_on_the_non_monotone_path(self, folds):
        g = Graph()
        labels = [-5, -4, -3, -2, -1]
        for a, b in zip(labels, labels[1:]):
            g.add_edge(a, b)
        sim, lowered = _run(
            g, partial(FloodMaxProgram, rounds=15), broadcast_congest_model(5),
            "columnar",
        )
        assert sim.lowered and folds[0] == 5
        _, stepped = _run(
            g,
            partial(FloodMaxProgram, rounds=15),
            broadcast_congest_model(5),
            "columnar",
            vectorize=False,
        )
        _assert_identical(lowered, stepped)

    @pytest.mark.parametrize("adversary", ["drop:0.1", "crash:3@1", "budget:64"])
    def test_filtered_run_folds_every_round(self, folds, adversary):
        n = 10
        sim, result = _run(
            path_graph(n),
            partial(FloodMaxProgram, rounds=3 * n),
            broadcast_congest_model(n, enforce=False),
            "columnar",
            adversary=adversary,
        )
        assert sim.lowered
        assert folds[0] == result.rounds == 3 * n


class TestContextFreeLowering:
    """Fault-free lowered runs set up straight from CSR: no per-node contexts.

    Contexts are counted at their one construction site; runs that need
    them — stepped runs, and lowered runs whose drop/crash filter halts
    contexts — still build one per node, and the context-free outputs
    (key order included) equal the stepped twin's.
    """

    N = 40

    @pytest.fixture
    def built(self, monkeypatch):
        counter = [0]

        class CountingContext(NodeContext):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                counter[0] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "NodeContext", CountingContext)
        return counter

    def _graph(self):
        # Reverse insertion order: output key order is the topology's label
        # order, not ascending labels.
        base = gnp_random_graph(self.N, 0.15, seed=3)
        g = Graph()
        g.add_nodes_from(reversed(range(self.N)))
        for u, v in base.edges():
            g.add_edge(u, v)
        return g

    @pytest.mark.parametrize("workload", sorted(WORKLOADS), ids=str)
    def test_fault_free_lowered_run_builds_no_contexts(self, built, workload):
        g = self._graph()
        model = broadcast_congest_model(self.N)
        sim, lowered = _run(g, WORKLOADS[workload], model, "columnar", seed=8)
        assert sim.lowered
        assert built[0] == 0
        stepped_sim, stepped = _run(
            g, WORKLOADS[workload], model, "columnar", seed=8, vectorize=False
        )
        assert not stepped_sim.lowered
        assert built[0] == self.N
        assert list(lowered.outputs.items()) == list(stepped.outputs.items())
        assert lowered.as_dict() == stepped.as_dict()
        _assert_identical(lowered, stepped)

    def test_flood_max_entry_point_builds_no_contexts(self, built):
        result = run_flood_max(self._graph(), 8, seed=2, engine="columnar")
        assert built[0] == 0
        assert result.converged and result.leader == self.N - 1

    @pytest.mark.parametrize("adversary", ["drop:0.2", "crash:3@1,11@2,24@3"])
    @pytest.mark.parametrize("workload", ["fixed", "robust"])
    def test_lowered_runs_under_a_filter_build_contexts(
        self, built, adversary, workload
    ):
        g = self._graph()
        model = broadcast_congest_model(self.N, enforce=False)
        sim, lowered = _run(
            g, WORKLOADS[workload], model, "columnar", seed=4, adversary=adversary
        )
        assert sim.lowered
        assert built[0] == self.N
        _, stepped = _run(
            g,
            WORKLOADS[workload],
            model,
            "columnar",
            seed=4,
            adversary=adversary,
            vectorize=False,
        )
        assert list(lowered.outputs.items()) == list(stepped.outputs.items())
        assert lowered.as_dict() == stepped.as_dict()
        _assert_identical(lowered, stepped)


class TestLeanCSR:
    """What a lowered run builds of the compiled topology, and order-free folds.

    A fault-free lowered flood-max reads neither the topology's label index
    nor the accounting's sorted arc column: its fold is a max, which gathers
    along the raw CSR rows.  On graphs whose CSR rows are not ascending the
    lowered, stepped and ``reference`` runs still agree bit for bit, with
    and without a drop filter (which takes the sorted path).
    """

    @pytest.fixture
    def accountings(self, monkeypatch):
        seen = []
        original = simulator_module.try_lower

        def recording(accounting, factory):
            seen.append(accounting)
            return original(accounting, factory)

        monkeypatch.setattr(simulator_module, "try_lower", recording)
        return seen

    def test_fault_free_lowered_run_builds_no_index_or_sorted_arcs(self, accountings):
        g = sparse_gnp_csr(3000, 0.002, seed=5)
        topo = g.freeze()
        model = broadcast_congest_model(3000)
        sim, result = _run(g, WORKLOADS["fixed"], model, "columnar")
        assert sim.lowered and result.completed
        (accounting,) = accountings
        assert topo._index is None
        assert topo._label_sets == {} and topo._position_maps == {}
        assert accounting._all_rows_np is None
        # Positive control: a drop filter maps arcs through the sorted rows.
        sim, _ = _run(g, WORKLOADS["fixed"], model, "columnar", adversary="drop:0.1")
        assert sim.lowered
        assert accountings[1]._all_rows_np is not None

    @staticmethod
    def _unsorted_graph(seed):
        """G(n, p), a path tail and isolated vertices, inserted shuffled.

        The maximum connected label sits at the end of the tail, so patience
        variants halt some nodes while the flood is still spreading: rounds
        with some senders silent fold with the sent mask.
        """
        rng = random.Random(seed)
        base = gnp_random_graph(24, 0.2, seed=seed)
        nodes = list(range(44))  # 40..43 stay isolated
        edges = list(base.edges()) + [(v, v + 1) for v in range(23, 39)]
        rng.shuffle(nodes)
        rng.shuffle(edges)
        g = Graph()
        g.add_nodes_from(nodes)
        for u, v in edges:
            g.add_edge(u, v)
        topo = g.freeze()
        rows = [list(topo.neighbor_indices(i)) for i in range(topo.n)]
        assert any(row != sorted(row) for row in rows)
        assert any(not row for row in rows)
        return g

    @pytest.mark.parametrize("adversary", [None, "drop:0.3:5"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS), ids=str)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_unsorted_rows_agree_across_paths(self, seed, workload, adversary):
        g = self._unsorted_graph(seed)
        model = broadcast_congest_model(g.number_of_nodes(), enforce=False)
        factory = WORKLOADS[workload]
        run = partial(_run, g, factory, model, seed=seed, adversary=adversary)
        sim, lowered = run("columnar")
        assert sim.lowered
        step_sim, stepped = run("columnar", vectorize=False)
        assert not step_sim.lowered
        _, reference = run("reference")
        _assert_identical(lowered, stepped)
        _assert_identical(lowered, reference)

    @pytest.mark.parametrize("program", [_InboxOrderProgram, _TieMaxProgram])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_unsorted_rows_keep_ascending_sender_order(self, seed, program):
        # Stepped bulk gathers read the sorted arc column: inbox order and
        # a max over equal payloads of different types see ascending senders.
        g = self._unsorted_graph(seed)
        model = local_model(g.number_of_nodes())
        _, columnar = _run(g, program, model, "columnar", seed=seed)
        for engine in ("indexed", "reference"):
            _, other = _run(g, program, model, engine, seed=seed)
            _assert_identical(columnar, other)


@st.composite
def _csr_folds(draw):
    """A CSR (empty rows, rows longer than a 7-arc block) and a payload column."""
    n = draw(st.integers(1, 30))
    lengths = draw(
        st.lists(st.one_of(st.just(0), st.integers(1, 20)), min_size=n, max_size=n)
    )
    arcs = sum(lengths)
    cols = draw(st.lists(st.integers(0, n - 1), min_size=arcs, max_size=arcs))
    values = draw(st.lists(st.integers(INT64_MIN, 2**63 - 1), min_size=n, max_size=n))
    live = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    keep = draw(st.lists(st.booleans(), min_size=arcs, max_size=arcs))
    return (
        np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        np.array(cols, dtype=np.int32),
        np.array(values, dtype=np.int64),
        np.array(live, dtype=bool),
        np.array(keep, dtype=bool),
    )


class TestRowMax:
    """``BlockedRowMax``: the fold of the stepped and lowered columnar rounds."""

    def test_silent_sender_mask_follows_csr_order(self):
        # Row 0 lists its neighbours out of order, and its silent sender 3
        # holds the row's largest (stale) payload: a mask read along the
        # sorted row [1, 2, 3] would hide sender 2 and let 99 through.
        indptr = np.array([0, 3, 4, 5, 6], dtype=np.int64)
        cols = np.array([3, 1, 2, 0, 0, 0], dtype=np.int32)
        values = np.array([5, 10, 20, 99], dtype=np.int64)
        live = np.array([True, True, True, False])
        oracle = [
            max(
                (int(values[j]) for j in cols[indptr[i] : indptr[i + 1]] if live[j]),
                default=INT64_MIN,
            )
            for i in range(4)
        ]
        assert oracle == [20, 5, 5, 5]
        fold = BlockedRowMax(indptr).fold
        assert fold(values, cols, live).tolist() == oracle
        assert fold(values, cols).tolist() == [99, 5, 5, 5]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_csr_folds(), mask=st.sampled_from([None, "live", "keep"]))
    def test_blocks_match_one_whole_column_fold(self, case, mask):
        indptr, cols, values, live, keep = case
        gathered = values[cols]
        if mask == "live":
            gathered = np.where(live[cols], gathered, INT64_MIN)
        elif mask == "keep":
            gathered = np.where(keep, gathered, INT64_MIN)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(columnar_module, "_FOLD_BLOCK", 7)
            fold = BlockedRowMax(indptr).fold
        got = fold(
            values,
            cols,
            live if mask == "live" else None,
            keep if mask == "keep" else None,
        )
        rows = np.flatnonzero(np.diff(indptr))  # empty rows are unspecified
        if len(rows):
            expect = np.maximum.reduceat(gathered, indptr[rows])
            assert got[rows].tolist() == expect.tolist()

    @pytest.mark.parametrize("adversary", [None, "drop:0.01:3"])
    def test_empty_rows_after_the_last_long_row(self, adversary):
        # Node 1 (CSR row 2, neighbours [5, 9]) is followed by the isolated
        # node 0: a fold whose last segment start is clipped into range
        # drops the 9 and the flood never reaches node 5 either.
        g = Graph()
        g.add_nodes_from([5, 9, 1, 0])
        g.add_edge(1, 5)
        g.add_edge(1, 9)
        outputs = {}
        for engine, vectorize in (("reference", False), ("columnar", True), ("columnar", False)):
            result = run_flood_max(
                g,
                4,
                seed=0,
                engine=engine,
                vectorize=vectorize,
                adversary=build_adversary(adversary) if adversary else None,
            )
            outputs[engine, vectorize] = result.node_outputs
        assert outputs["reference", False] == {5: 9, 9: 9, 1: 9, 0: 0}
        assert len(set(map(repr, outputs.values()))) == 1, outputs

    def test_arcs_spanning_several_blocks_agree_across_paths(self):
        # A 370-clique (136,530 arcs: three default blocks, whose edges fall
        # mid-row) with a path tail, so the patience variant halts nodes
        # while the flood still spreads and folds with the sent mask.
        g = Graph()
        clique = 370
        for u in range(clique):
            for v in range(u + 1, clique):
                g.add_edge(u, v)
        for v in range(clique - 1, clique + 5):
            g.add_edge(v, v + 1)
        assert g.freeze().arc_count > 2 * columnar_module._FOLD_BLOCK
        model = broadcast_congest_model(g.number_of_nodes(), enforce=False)
        run = partial(_run, g, WORKLOADS["robust"], model)
        sim, lowered = run("columnar")
        assert sim.lowered
        _, stepped = run("columnar", vectorize=False)
        _, reference = run("reference")
        _assert_identical(lowered, stepped)
        _assert_identical(lowered, reference)


class TestFactoryLowering:
    """Lowering is decided from the factory: one probe, no per-node programs.

    Programs are counted at their constructors.  Retirement writes the
    output column whole, so staggered (patience-driven) and all-at-once
    (round-budget) halting are both pinned against the ``reference``
    oracle, fault-free and under each filter kind.
    """

    N = 30

    @staticmethod
    def _count_constructions(monkeypatch, cls):
        """Count ``cls(...)`` calls (not its parents' ``__init__`` calls)."""
        counter = [0]
        init = vars(cls)["__init__"]

        def counting(self, *args, **kwargs):
            if type(self) is cls:
                counter[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
        return counter

    @pytest.mark.parametrize("adversary", [None, "drop:0.2"], ids=str)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS), ids=str)
    def test_lowered_run_builds_only_the_probe(self, monkeypatch, workload, adversary):
        factory = WORKLOADS[workload]
        constructed = self._count_constructions(monkeypatch, factory.func)
        g = gnp_random_graph(self.N, 0.2, seed=3)
        model = broadcast_congest_model(self.N, enforce=False)
        sim, lowered = _run(g, factory, model, "columnar", adversary=adversary)
        assert sim.lowered
        assert constructed[0] == 1
        stepped_sim, stepped = _run(
            g, factory, model, "columnar", adversary=adversary, vectorize=False
        )
        assert not stepped_sim.lowered
        assert constructed[0] == 1 + self.N
        _assert_identical(lowered, stepped)

    @pytest.mark.parametrize(
        "factory, message",
        [
            (partial(RobustFloodMaxProgram, patience=0), "patience must be >= 1, got 0"),
            (
                partial(RedundantFloodMaxProgram, patience=3, copies=2),
                "copies must be an odd int >= 3, got 2",
            ),
        ],
        ids=["robust-patience", "redundant-copies"],
    )
    def test_constructor_errors_raise_alike_on_every_path(self, factory, message):
        g = gnp_random_graph(12, 0.3, seed=1)
        model = broadcast_congest_model(12)
        for engine, vectorize in (
            ("columnar", True), ("columnar", False), ("reference", False)
        ):
            with pytest.raises(ValueError) as info:
                _run(g, factory, model, engine, vectorize=vectorize)
            assert str(info.value) == message

    def test_shipped_runners_lower(self, monkeypatch):
        decisions = []
        run = Simulator.run

        def spying(self, *args, **kwargs):
            try:
                return run(self, *args, **kwargs)
            finally:
                decisions.append(self.lowering)

        monkeypatch.setattr(Simulator, "run", spying)
        g = gnp_random_graph(self.N, 0.2, seed=3)
        run_flood_max(g, 6, seed=1)
        run_robust_flood_max(g, 3, seed=1)
        run_redundant_flood_max(g, 3, seed=1)
        (anchor,) = [
            spec for spec in get_experiment("E23").scenarios
            if spec.name == "parity n=2000 lowered"
        ]
        execute_scenario(anchor)
        assert decisions == ["lowered"] * 4

    @pytest.fixture
    def retirements(self, monkeypatch):
        sizes = []
        retire = EngineView.retire

        def recording(self, idxs, outputs):
            sizes.append(len(idxs))
            retire(self, idxs, outputs)

        monkeypatch.setattr(EngineView, "retire", recording)
        return sizes

    @pytest.mark.parametrize(
        "adversary", [None, "drop:0.3", "crash:3@1,11@2,24@5"], ids=str
    )
    @pytest.mark.parametrize(
        "factory, staggered",
        [
            (partial(RobustFloodMaxProgram, patience=2), True),
            (partial(RedundantFloodMaxProgram, patience=2, copies=3), True),
            (partial(FloodMaxProgram, rounds=40), False),
        ],
        ids=["robust", "redundant", "fixed"],
    )
    def test_retirement_matches_reference(
        self, retirements, factory, staggered, adversary
    ):
        # Ascending labels on a path: the maximum walks one hop per round,
        # so patience-driven nodes halt a few at a time, far end last.
        n = self.N
        g = path_graph(n)
        model = broadcast_congest_model(n, enforce=False)
        sim, lowered = _run(g, factory, model, "columnar", seed=5, adversary=adversary)
        _, reference = _run(g, factory, model, "reference", seed=5, adversary=adversary)
        assert sim.lowered
        _assert_identical(lowered, reference)
        assert (len(retirements) > 1) == staggered
        if adversary is None:
            assert sum(retirements) == n
            # A converged run retires every node with one shared leader.
            assert len({id(v) for v in lowered.outputs.values()}) == 1

    @pytest.mark.parametrize(
        "adversary, scanned",
        [("drop:0.2", []), ("crash:3@1,11@2,24@3", [1, 2, 3])],
        ids=["drop", "crash"],
    )
    def test_crash_sync_scans_only_after_a_halt(self, monkeypatch, adversary, scanned):
        rounds = []
        sync = EngineView._sync_crashes

        def recording(self):
            if self.halts[0]:
                rounds.append(self.round)
            sync(self)

        monkeypatch.setattr(EngineView, "_sync_crashes", recording)
        g = gnp_random_graph(self.N, 0.2, seed=6)
        model = broadcast_congest_model(self.N, enforce=False)
        sim, lowered = _run(
            g, WORKLOADS["robust"], model, "columnar", seed=4, adversary=adversary
        )
        _, reference = _run(
            g, WORKLOADS["robust"], model, "reference", seed=4, adversary=adversary
        )
        assert sim.lowered
        assert rounds == scanned
        _assert_identical(lowered, reference)


class TestClosedFormSizes:
    """The kernels' closed forms must equal ``estimate_bits`` everywhere."""

    VALUES = (
        list(range(-1025, 1026))
        + [2**k + d for k in range(10, 72, 6) for d in (-1, 0, 1)]
        + [-(2**40), 2**62, -(2**62)]
    )

    def test_int_payload_bits_matches_estimate_bits(self):
        for v in self.VALUES:
            assert int_payload_bits(v) == estimate_bits(v), v

    @pytest.mark.parametrize("copies", [3, 5, 7])
    def test_repetition_frame_bits_matches_estimate_bits(self, copies):
        for v in self.VALUES[:: 7]:
            assert repetition_frame_bits(v, copies) == estimate_bits(
                (v,) * copies
            ), (v, copies)

    def test_int_column_bits_matches_scalar_forms(self):
        values = np.array(
            [0, 1, 2, 3, 4, 255, 256, 1023, 1024, 2**40 - 1, 2**40, 2**62],
            dtype=np.int64,
        )
        plain = int_column_bits(values)
        assert plain.tolist() == [int_payload_bits(int(v)) for v in values]
        framed = int_column_bits(values, 3)
        assert framed.tolist() == [
            repetition_frame_bits(int(v), 3) for v in values
        ]


class TestBarabasiAlbertCSR:
    """The O(n + m) preferential-attachment family: exact and deterministic."""

    def test_deterministic_per_seed(self):
        a = barabasi_albert_csr(300, 4, seed=11)
        b = barabasi_albert_csr(300, 4, seed=11)
        other = barabasi_albert_csr(300, 4, seed=12)
        assert a.freeze().indptr == b.freeze().indptr
        assert a.freeze().indices == b.freeze().indices
        assert other.freeze().indices != a.freeze().indices

    def test_structure(self):
        n, m = 500, 3
        g = barabasi_albert_csr(n, m, seed=2)
        topo = g.freeze()
        assert g.number_of_nodes() == n
        # Seed clique on m+1 nodes, then every later node attaches to
        # exactly m distinct targets.
        assert g.number_of_edges() == (m + 1) * m // 2 + m * (n - m - 1)
        indptr, indices = topo.indptr, topo.indices
        for i in range(n):
            row = list(indices[indptr[i] : indptr[i + 1]])
            assert row == sorted(set(row)), f"row {i} not sorted/deduped"
            assert i not in row, f"self-loop at {i}"

    def test_connected_and_runs_lowered(self):
        g = barabasi_albert_csr(400, 3, seed=9)
        result = run_flood_max(g, rounds=12, seed=1, engine="columnar")
        assert result.converged
        assert result.leader == 399


class TestGraphMemoization:
    """Frozen-CSR families are memoized per worker; mutable ones never are."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        clear_graph_memo()
        yield
        clear_graph_memo()

    def test_frozen_family_memoized(self):
        spec = ("barabasi_albert_csr", 200, 3, 5)
        first = build_graph(spec)
        assert build_graph(spec) is first
        assert build_graph(list(spec)) is first  # tuple/list shape-agnostic
        clear_graph_memo()
        assert build_graph(spec) is not first

    def test_mutable_family_rebuilt(self):
        spec = ("gnp", 30, 0.2, 1)
        assert build_graph(spec) is not build_graph(spec)
        assert not families._TOPOLOGY_MEMO

    def test_frozen_view_of_a_mutable_family_memoized(self):
        spec = ("sparse_connected_gnp", 300, 0.02, 4)
        frozen = build_frozen_graph(spec)
        assert isinstance(frozen, FrozenGraph)
        assert build_frozen_graph(list(spec)) is frozen
        # build_graph still hands out a fresh mutable graph: same topology.
        mutable = build_graph(spec)
        assert isinstance(mutable, Graph) and mutable is not build_graph(spec)
        topo, expected = frozen.freeze(), mutable.freeze()
        assert topo.labels == expected.labels
        assert bytes(topo.indptr) == bytes(expected.indptr)
        assert bytes(topo.indices) == bytes(expected.indices)
        clear_graph_memo()
        assert build_frozen_graph(spec) is not frozen
        # A frozen-CSR family's own memo entry is the frozen view.
        csr = ("barabasi_albert_csr", 200, 3, 5)
        assert build_frozen_graph(csr) is build_graph(csr)

    def test_memo_is_bounded(self):
        for seed in range(families._TOPOLOGY_MEMO_CAP + 2):
            build_graph(("barabasi_albert_csr", 100, 3, seed))
        assert len(families._TOPOLOGY_MEMO) <= families._TOPOLOGY_MEMO_CAP

    def test_spec_hash_is_content_only(self):
        spec = ("sparse_gnp_csr", 1000, 0.01, 7)
        assert family_spec_hash(spec) == family_spec_hash(list(spec))
        assert family_spec_hash(spec) != family_spec_hash(("sparse_gnp_csr", 1000, 0.01, 8))
