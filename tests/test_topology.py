"""Unit tests for the compiled CSR topology layer (`graphs/topology.py`)."""

import random
from fractions import Fraction

import pytest

from repro.core.variants import WeightedVariant
from repro.graphs import CompiledTopology, DiGraph, Graph
from repro.graphs.generators import (
    _sparse_gnp_csr_loop,
    barabasi_albert_csr,
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_digraph,
    sparse_gnp_csr,
    star_graph,
)
from repro.graphs.topology import (
    NEIGHBOR_TYPECODE,
    FrozenGraph,
    check_node_count,
    complete_overlay,
)


class TestCompileUndirected:
    def test_csr_matches_adjacency(self):
        g = gnp_random_graph(40, 0.12, seed=1)
        topo = g.freeze()
        assert isinstance(topo, CompiledTopology)
        assert topo.n == 40
        assert topo.arc_count == 2 * g.number_of_edges()
        assert topo.edge_count == g.number_of_edges()
        for v in g.nodes():
            i = topo.index[v]
            assert topo.labels[i] == v
            assert topo.degree_of(i) == g.degree(v)
            assert set(topo.neighbor_labels(i)) == g.neighbors(v)
            assert topo.neighbor_label_set(i) == frozenset(g.neighbors(v))

    @pytest.mark.parametrize("frozen", [False, True], ids=["Graph", "FrozenGraph"])
    def test_weighted_leaf_weights_follow_graph_weight(self, frozen):
        # Weights are not compiled into the CSR view: the weighted variant's
        # node setup reads ``graph.weight`` in CSR neighbour order.
        if frozen:
            g = sparse_gnp_csr(30, 0.2, seed=1)
        else:
            g = Graph()
            g.add_edge("a", "b", 2.5)
            g.add_edge("c", "b", 7.0)
            g.add_edge("b", "d", 0.0)
            g.add_node("e")
        topo = g.freeze()
        variant = WeightedVariant()
        for v in g.nodes():
            setup = variant.node_setup(g, v)
            i = topo.index[v]
            assert list(setup.leaf_weights) == topo.neighbor_labels(i)
            for u, w in setup.leaf_weights.items():
                assert w == Fraction(g.weight(v, u))

    def test_frozen_graph_weight_matches_graph_contract(self):
        g = path_graph(4)
        frozen = FrozenGraph(g.freeze())
        assert frozen.weight(1, 2) == frozen.weight(2, 1) == g.weight(1, 2) == 1.0
        for u, v in ((0, 2), (0, 99)):
            with pytest.raises(KeyError) as graph_err:
                g.weight(u, v)
            with pytest.raises(KeyError) as frozen_err:
                frozen.weight(u, v)
            assert str(frozen_err.value) == str(graph_err.value)

    def test_arc_position_unique_and_dense(self):
        g = grid_graph(4, 4)
        topo = g.freeze()
        seen = set()
        for v in g.nodes():
            i = topo.index[v]
            for u in g.neighbors(v):
                seen.add(topo.arc_position(i, topo.index[u]))
        assert seen == set(range(topo.arc_count))

    def test_arc_position_rejects_non_neighbors(self):
        g = star_graph(3)
        topo = g.freeze()
        with pytest.raises(KeyError):
            topo.arc_position(topo.index[1], topo.index[2])


class TestFreezeCache:
    def test_freeze_is_cached(self):
        g = gnp_random_graph(20, 0.2, seed=2)
        assert g.freeze() is g.freeze()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(0, 19, 5.0),
            lambda g: g.add_node("fresh"),
            lambda g: g.remove_node(0),
            lambda g: g.set_weight(*next(iter(g.edges())), 9.0),
            lambda g: g.remove_edge(*next(iter(g.edges()))),
        ],
    )
    def test_mutation_invalidates(self, mutate):
        g = gnp_random_graph(20, 0.3, seed=3)
        before = g.freeze()
        mutate(g)
        after = g.freeze()
        assert after is not before
        assert after.n == g.number_of_nodes()
        assert after.edge_count == g.number_of_edges()

    def test_noop_add_existing_node_keeps_cache(self):
        g = star_graph(4)
        before = g.freeze()
        g.add_node(0)
        assert g.freeze() is before


class TestCompileDirected:
    def test_communication_neighbourhood(self):
        d = random_digraph(25, 0.1, seed=4)
        topo = d.freeze()
        assert topo.directed
        assert topo.edge_count == d.number_of_edges()
        for v in d.nodes():
            i = topo.index[v]
            assert topo.neighbor_label_set(i) == frozenset(d.neighbors(v))
            assert topo.degree_of(i) == d.degree(v)

    def test_digraph_freeze_invalidation(self):
        d = DiGraph()
        d.add_edge("x", "y")
        before = d.freeze()
        d.add_edge("y", "x")
        after = d.freeze()
        assert after is not before
        # anti-parallel arcs share one communication link per direction
        assert after.neighbor_label_set(after.index["x"]) == frozenset({"y"})


class TestTraversals:
    def test_bfs_levels_match_dict_bfs(self):
        g = gnp_random_graph(50, 0.08, seed=5)
        topo = g.freeze()
        for v in list(g.nodes())[:10]:
            dist = g.bfs_distances(v)
            levels = topo.bfs_levels(topo.index[v])
            for u in g.nodes():
                assert dist.get(u, -1) == levels[topo.index[u]]

    def test_bfs_reach_respects_depth(self):
        g = grid_graph(5, 5)
        topo = g.freeze()
        reach = topo.bfs_reach(topo.index[(0, 0)], max_depth=2)
        assert all(d <= 2 for _, d in reach)
        assert {topo.labels[i] for i, d in reach} == g.ball((0, 0), 2)

    def test_eccentricity_disconnected_is_negative(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_node(3)
        topo = g.freeze()
        assert topo.eccentricity(topo.index[1]) == -1


class TestCsrColumns:
    """Every CSR constructor keeps 64-bit offsets and a 32-bit neighbour column."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gnp_random_graph(30, 0.2, seed=1).freeze(),
            lambda: random_digraph(20, 0.2, seed=2).freeze(),
            lambda: complete_overlay(list(range(9))),
            lambda: sparse_gnp_csr(300, 0.01, seed=3).freeze(),
            lambda: _sparse_gnp_csr_loop(300, 0.01, random.Random(3), True).freeze(),
            lambda: barabasi_albert_csr(200, 3, seed=4).freeze(),
        ],
        ids=["graph", "digraph", "overlay", "gnp-bulk", "gnp-loop", "ba"],
    )
    def test_typecodes(self, build):
        topo = build()
        assert topo.arc_count > 0
        assert topo.indices.typecode == NEIGHBOR_TYPECODE
        assert topo.indices.itemsize == 4
        assert topo.indptr.itemsize == topo.degrees.itemsize == 8

    def test_node_count_guard(self):
        check_node_count(2**31 - 1)
        with pytest.raises(ValueError, match="32-bit"):
            check_node_count(2**31)
        # The generators check before they allocate anything.
        with pytest.raises(ValueError, match="32-bit"):
            sparse_gnp_csr(2**31, 0.0)
        with pytest.raises(ValueError, match="32-bit"):
            barabasi_albert_csr(2**31, 1)

    def test_neighbour_caches_fill_on_first_read(self):
        topo = gnp_random_graph(30, 0.2, seed=1).freeze()
        assert topo._label_sets == {} and topo._position_maps == {}
        i = 5
        j = topo.indices[topo.indptr[i]]
        assert topo.neighbor_label_set(i) == frozenset(topo.neighbor_labels(i))
        assert topo.arc_position(i, j) == topo.indptr[i]
        assert list(topo._label_sets) == [i]
        assert list(topo._position_maps) == [i]
