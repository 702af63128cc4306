"""Unit tests for the LOCAL / CONGEST round simulator."""

import random

import pytest

from repro.distributed import (
    BandwidthExceededError,
    FunctionProgram,
    NodeProgram,
    NotANeighborError,
    RoundLimitExceededError,
    Simulator,
    congest_budget_bits,
    congest_model,
    broadcast_congest_model,
    congest_overhead_report,
    congested_clique_model,
    estimate_bits,
    local_model,
    run_program,
)
from repro.distributed.node import NodeContext
from repro.graphs import Graph, cycle_graph, gnp_random_graph, path_graph, star_graph


class FloodMin(NodeProgram):
    """Every node learns the minimum identifier in its connected component."""

    def __init__(self):
        self.best = None

    def on_start(self, ctx):
        self.best = ctx.node_id
        ctx.broadcast(self.best)

    def on_round(self, ctx, inbox):
        improved = False
        for _, payloads in inbox.items():
            for value in payloads:
                if value < self.best:
                    self.best = value
                    improved = True
        if improved:
            ctx.broadcast(self.best)
        else:
            ctx.set_output(self.best)
            ctx.halt()


class TestSimulatorSemantics:
    def test_flood_min_on_path(self):
        g = path_graph(6)
        result = run_program(g, lambda v: FloodMin(), seed=1)
        assert result.completed
        assert all(value == 0 for value in result.outputs.values())

    def test_round_count_scales_with_diameter(self):
        short = run_program(path_graph(4), lambda v: FloodMin())
        long = run_program(path_graph(16), lambda v: FloodMin())
        assert long.rounds > short.rounds

    def test_messages_counted(self):
        g = cycle_graph(5)
        result = run_program(g, lambda v: FloodMin())
        assert result.metrics.messages_sent >= 10
        assert result.metrics.bits_sent > 0

    def test_send_to_non_neighbor_raises(self):
        def on_start(ctx):
            ctx.send("not-there", 1)

        g = path_graph(3)
        with pytest.raises(NotANeighborError):
            run_program(g, lambda v: FunctionProgram(on_start, lambda ctx, inbox: None))

    def test_round_limit(self):
        class Forever(NodeProgram):
            def on_start(self, ctx):
                ctx.broadcast(0)

            def on_round(self, ctx, inbox):
                ctx.broadcast(0)

        with pytest.raises(RoundLimitExceededError):
            Simulator(path_graph(3), lambda v: Forever()).run(max_rounds=5)

    def test_round_limit_soft(self):
        class Forever(NodeProgram):
            def on_start(self, ctx):
                ctx.broadcast(0)

            def on_round(self, ctx, inbox):
                ctx.broadcast(0)

        result = Simulator(path_graph(3), lambda v: Forever()).run(
            max_rounds=5, raise_on_limit=False
        )
        assert not result.completed
        assert result.rounds == 5

    def test_halted_nodes_receive_nothing(self):
        class HaltImmediately(NodeProgram):
            def on_start(self, ctx):
                ctx.set_output("done")
                ctx.halt()

            def on_round(self, ctx, inbox):  # pragma: no cover - never called
                raise AssertionError("halted node was woken up")

        result = run_program(path_graph(4), lambda v: HaltImmediately())
        assert result.completed
        assert set(result.outputs.values()) == {"done"}

    def test_per_node_randomness_is_seeded(self):
        class Roll(NodeProgram):
            def on_start(self, ctx):
                ctx.set_output(ctx.rng.randint(0, 10**9))
                ctx.halt()

            def on_round(self, ctx, inbox):
                pass

        g = star_graph(5)
        a = run_program(g, lambda v: Roll(), seed=42).outputs
        b = run_program(g, lambda v: Roll(), seed=42).outputs
        c = run_program(g, lambda v: Roll(), seed=43).outputs
        assert a == b
        assert a != c

    def test_cut_bit_accounting(self):
        g = path_graph(4)  # cut between {0,1} and {2,3} is the single edge (1,2)
        result = run_program(g, lambda v: FloodMin(), cut={0, 1})
        assert result.metrics.cut_bits > 0
        assert result.metrics.cut_bits < result.metrics.bits_sent

    def test_isolated_node_program(self):
        g = Graph()
        g.add_node(1)
        g.add_node(2)
        g.add_edge(1, 2)
        g.add_node(99)

        class OutputDegree(NodeProgram):
            def on_start(self, ctx):
                ctx.set_output(len(ctx.neighbors))
                ctx.halt()

            def on_round(self, ctx, inbox):
                pass

        result = run_program(g, lambda v: OutputDegree())
        assert result.outputs[99] == 0


class _RecordNeighbours(NodeProgram):
    """Output both neighbour sets, then broadcast once and halt."""

    def on_start(self, ctx):
        neighbors, graph_neighbors = ctx.neighbors, ctx.graph_neighbors
        assert type(neighbors) is frozenset and type(graph_neighbors) is frozenset
        assert ctx.neighbors is neighbors
        ctx.set_output((sorted(neighbors, key=repr), sorted(graph_neighbors, key=repr)))
        ctx.broadcast(0)

    def on_round(self, ctx, inbox):
        ctx.halt()


def _mixed_label_graph(seed):
    """``bool`` and int labels, isolated vertices, shuffled insertion order."""
    rng = random.Random(seed)
    base = gnp_random_graph(12, 0.3, seed=seed)
    relabel = {0: False, 1: True}
    nodes = [relabel.get(v, v) for v in range(15)]  # 12..14 stay isolated
    edges = [(relabel.get(u, u), relabel.get(v, v)) for u, v in base.edges()]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    g = Graph()
    g.add_nodes_from(nodes)
    for u, v in edges:
        g.add_edge(u, v)
    return g


_MODELS = {
    "LOCAL": local_model,
    "broadcast-CONGEST": lambda n: broadcast_congest_model(n, enforce=False),
    "clique": lambda n: congested_clique_model(n, enforce=False),
}


class TestContextNeighbours:
    """``ctx.neighbors`` and ``ctx.graph_neighbors`` on every engine.

    The ``columnar`` and ``indexed`` engines fetch a context's sets from the
    topology on first read; ``reference`` and directly built contexts pass
    them explicitly.  All of them expose the same sets.
    """

    @pytest.mark.parametrize("model", sorted(_MODELS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_engines_agree(self, seed, model):
        g = _mixed_label_graph(seed)
        n = g.number_of_nodes()
        outputs = {}
        for engine in ("columnar", "indexed", "reference"):
            result = run_program(
                g, lambda v: _RecordNeighbours(), model=_MODELS[model](n), engine=engine
            )
            assert result.completed
            outputs[engine] = result.outputs
        assert outputs["columnar"] == outputs["indexed"] == outputs["reference"]
        for v, (neighbors, graph_neighbors) in outputs["columnar"].items():
            adjacent = sorted(g.neighbors(v), key=repr)
            assert graph_neighbors == adjacent
            if model == "clique":
                assert neighbors == sorted((u for u in g.nodes() if u != v), key=repr)
            else:
                assert neighbors == adjacent

    @pytest.mark.parametrize("engine", ["columnar", "indexed", "reference"])
    def test_first_send_to_a_non_neighbour(self, engine):
        lazy = engine != "reference"

        def on_start(ctx):
            # Nothing has read the set yet on the engines that defer it.
            assert (ctx._neighbors is None) == lazy
            ctx.send("not-there", 1)

        with pytest.raises(NotANeighborError) as raised:
            run_program(
                path_graph(3),
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                engine=engine,
            )
        assert str(raised.value) == "node 0 tried to message non-neighbour 'not-there'"

    def test_direct_context(self):
        neighbors = frozenset({"b", "c"})
        ctx = NodeContext("a", neighbors, n=3, rng=7)
        assert ctx.neighbors is neighbors and ctx.graph_neighbors is neighbors
        overlay = NodeContext(
            "a", neighbors, n=3, rng=7, graph_neighbors=frozenset({"b"})
        )
        assert overlay.neighbors is neighbors and overlay.graph_neighbors == {"b"}
        with pytest.raises(NotANeighborError, match="non-neighbour 'd'"):
            ctx.send("d", 1)
        ctx.send("b", 1)
        ctx.broadcast(2)
        assert sorted(ctx._drain_outbox()) == [("b", 1), ("b", 2), ("c", 2)]
        assert ctx._drain_outbox() == []
        batch = NodeContext("a", neighbors, n=3, rng=7, batch=True)
        batch.broadcast(5)
        assert batch._out_pays == [5] and batch._out_sent == bytearray([1])

    def test_direct_context_over_a_topology(self):
        topo = path_graph(4).freeze()
        ctx = NodeContext(2, None, n=4, rng=1, batch=True, index=2, topology=topo)
        assert ctx._neighbors is None
        ctx.broadcast(9)
        assert ctx._out_pays[2] == 9
        assert ctx.neighbors == {1, 3} and ctx.graph_neighbors is ctx.neighbors
        assert ctx.neighbors is topo.neighbor_label_set(2)

    def test_no_attribute_hook(self):
        # A ``__getattr__`` anywhere on the type swaps CPython's attribute
        # lookup for every access on every context, which cost 15-25% of a
        # stepped flood-max; the lazy sets are plain properties instead.
        assert not any("__getattr__" in vars(k) for k in NodeContext.__mro__)
        assert NodeContext.__getattribute__ is object.__getattribute__
        assert isinstance(vars(NodeContext)["neighbors"], property)
        assert isinstance(vars(NodeContext)["graph_neighbors"], property)


class TestCongestEnforcement:
    def test_small_messages_pass(self):
        g = path_graph(6)
        result = run_program(g, lambda v: FloodMin(), model=congest_model(6))
        assert result.completed
        assert result.metrics.bandwidth_violations == 0

    def test_oversized_message_raises(self):
        payload = list(range(10_000))

        def on_start(ctx):
            ctx.broadcast(payload)

        g = path_graph(4)
        with pytest.raises(BandwidthExceededError):
            run_program(
                g,
                lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
                model=congest_model(4),
            )

    def test_oversized_message_recorded_when_not_enforced(self):
        payload = list(range(10_000))

        def on_start(ctx):
            ctx.broadcast(payload)
            ctx.halt()

        g = path_graph(4)
        result = run_program(
            g,
            lambda v: FunctionProgram(on_start, lambda ctx, inbox: None),
            model=congest_model(4, enforce=False),
        )
        assert result.metrics.bandwidth_violations > 0

    def test_local_model_unbounded(self):
        assert local_model(100).bandwidth_bits is None
        assert congest_model(100).bandwidth_bits == congest_budget_bits(100)


class TestCongestOverheadReport:
    """The LOCAL-vs-CONGEST message-size overhead helper (paper Section 1.3)."""

    def test_reports_budget_and_measured_maximum(self):
        n = 16
        payload = list(range(200))  # far beyond the CONGEST budget

        def on_start(ctx):
            ctx.broadcast(payload)
            ctx.set_output(True)
            ctx.halt()

        result = run_program(
            path_graph(n), lambda v: FunctionProgram(on_start, lambda ctx, inbox: None)
        )
        report = congest_overhead_report(result, n)
        assert report["budget_bits"] == float(congest_budget_bits(n))
        assert report["max_message_bits"] == float(result.metrics.max_message_bits)
        assert report["overhead_factor"] == pytest.approx(
            result.metrics.max_message_bits / congest_budget_bits(n)
        )
        assert report["overhead_factor"] > 1.0

    def test_small_messages_stay_under_budget(self):
        result = run_program(path_graph(8), lambda v: FloodMin())
        report = congest_overhead_report(result, 8)
        assert 0.0 < report["overhead_factor"] < 1.0

    def test_logn_factor_scales_the_budget(self):
        result = run_program(path_graph(8), lambda v: FloodMin())
        wide = congest_overhead_report(result, 8, logn_factor=64)
        narrow = congest_overhead_report(result, 8, logn_factor=32)
        assert wide["budget_bits"] == 2 * narrow["budget_bits"]
        assert wide["overhead_factor"] == pytest.approx(
            narrow["overhead_factor"] / 2
        )

    def test_zero_budget_reports_infinite_overhead(self):
        result = run_program(path_graph(4), lambda v: FloodMin())
        report = congest_overhead_report(result, 4, logn_factor=0)
        assert report["budget_bits"] == 0.0
        assert report["overhead_factor"] == float("inf")


class TestEncoding:
    def test_scalar_sizes(self):
        assert estimate_bits(None) == 1
        assert estimate_bits(True) == 1
        assert estimate_bits(0) == 2
        assert estimate_bits(255) == 9
        assert estimate_bits(3.14) == 64
        assert estimate_bits("ab") == 16

    def test_container_sizes_grow(self):
        assert estimate_bits([1, 2, 3]) > estimate_bits([1])
        assert estimate_bits({"a": 1}) > estimate_bits({})

    def test_budget_grows_with_n(self):
        assert congest_budget_bits(1_000) > congest_budget_bits(10)
        assert congest_budget_bits(2) == 32
