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

import numpy as np
import pytest

from repro.core.flood_max import (
    FloodMaxProgram,
    RobustFloodMaxProgram,
    run_flood_max,
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
from repro.distributed.encoding import estimate_bits
from repro.distributed.node import NodeContext
from repro.distributed.vectorize import (
    EngineView,
    _np_payload_bits,
    int_payload_bits,
    repetition_frame_bits,
)
from repro.core.robust_coding import CodedFloodMaxProgram, RedundantFloodMaxProgram
from repro.experiments import families
from repro.experiments.families import build_graph, clear_graph_memo, family_spec_hash
from repro.graphs import Graph, barabasi_albert_csr, gnp_random_graph, path_graph

ALL_MODELS = [
    lambda n: local_model(n),
    lambda n: congest_model(n, enforce=False),
    lambda n: broadcast_congest_model(n, enforce=False),
    lambda n: congested_clique_model(n, enforce=False),
]

#: The three shipped lowerable workloads (redundant = repetition frames).
WORKLOADS = {
    "fixed": lambda v: FloodMaxProgram(v, 6),
    "robust": lambda v: RobustFloodMaxProgram(v, 3),
    "redundant": lambda v: RedundantFloodMaxProgram(v, 3, 3),
}


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
        factory = lambda v: FloodMaxProgram(v, 6)  # noqa: E731
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
        # A program outside the VectorProgram protocol: the first check refuses.
        g = gnp_random_graph(20, 0.3, seed=4)
        self._parity_with_indexed(g, lambda v: _EchoProgram(), "not a VectorProgram")

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
            g, lambda v: CodedFloodMaxProgram(v, 3), "kernel declined"
        )

    def test_mixed_program_classes_decline(self):
        g = gnp_random_graph(24, 0.25, seed=2)
        factory = lambda v: (  # noqa: E731
            FloodMaxProgram(v, 6) if v % 2 == 0 else RobustFloodMaxProgram(v, 3)
        )
        self._parity_with_indexed(g, factory, "mixed program classes")

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
        # rounds) means per-node state was touched before the run; the
        # kernel cannot reproduce it wholesale, so lowering declines.
        g = gnp_random_graph(20, 0.3, seed=4)
        assert g.freeze().labels[-1] == 19
        self._parity_with_indexed(g, factory, "kernel declined")

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
        self._parity_with_indexed(g, factory, "kernel declined")

    def test_non_int_labels_decline(self):
        g = Graph()
        names = ["ant", "bee", "cat", "dog", "elk"]
        for a, b in zip(names, names[1:]):
            g.add_edge(a, b)
        self._parity_with_indexed(
            g, lambda v: FloodMaxProgram(v, 4), "labels not all int"
        )

    def test_bool_labels_decline(self):
        # bool is an int subclass; the exact-type check refuses it.
        g = Graph()
        g.add_edge(False, True)
        self._parity_with_indexed(
            g, lambda v: FloodMaxProgram(v, 4), "labels not all int"
        )

    def test_labels_beyond_int64_decline(self):
        g = Graph()
        labels = [(1 << 70) + i for i in range(5)]
        for a, b in zip(labels, labels[1:]):
            g.add_edge(a, b)
        self._parity_with_indexed(
            g, lambda v: FloodMaxProgram(v, 4), "labels outside int64"
        )

    @pytest.mark.parametrize("edge", [(2**63 - 1, 2**63), (-(2**63), -(2**63) - 1)])
    def test_one_label_just_past_int64_declines(self, edge):
        g = Graph()
        g.add_edge(*edge)
        self._parity_with_indexed(
            g, lambda v: FloodMaxProgram(v, 4), "labels outside int64"
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
        factory = lambda v: FloodMaxProgram(v, 0)  # noqa: E731
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
        "fixed": lambda v: FloodMaxProgram(v, 30),
        "robust": lambda v: RobustFloodMaxProgram(v, 9),
        "redundant": lambda v: RedundantFloodMaxProgram(v, 9, 3),
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
            path_graph(n), lambda v: FloodMaxProgram(v, 3 * n),
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
            g, lambda v: FloodMaxProgram(v, 15), broadcast_congest_model(5), "columnar"
        )
        assert sim.lowered and folds[0] == 5
        _, stepped = _run(
            g,
            lambda v: FloodMaxProgram(v, 15),
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
            lambda v: FloodMaxProgram(v, 3 * n),
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

    def test_np_payload_bits_matches_scalar_forms(self):
        values = np.array(
            [0, 1, 2, 3, 4, 255, 256, 1023, 1024, 2**40 - 1, 2**40, 2**62],
            dtype=np.int64,
        )
        plain = _np_payload_bits(values, None)
        assert plain.tolist() == [int_payload_bits(int(v)) for v in values]
        framed = _np_payload_bits(values, 3)
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

    def test_memo_is_bounded(self):
        for seed in range(families._TOPOLOGY_MEMO_CAP + 2):
            build_graph(("barabasi_albert_csr", 100, 3, seed))
        assert len(families._TOPOLOGY_MEMO) <= families._TOPOLOGY_MEMO_CAP

    def test_spec_hash_is_content_only(self):
        spec = ("sparse_gnp_csr", 1000, 0.01, 7)
        assert family_spec_hash(spec) == family_spec_hash(list(spec))
        assert family_spec_hash(spec) != family_spec_hash(("sparse_gnp_csr", 1000, 0.01, 8))
