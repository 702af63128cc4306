"""Unit tests for structural graph properties and the client-server instance."""

import math

import pytest

from repro.graphs import (
    ClientServerInstance,
    all_edges_both,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    density_ratio,
    diameter,
    gnp_random_graph,
    is_dominating_set,
    is_vertex_cover,
    log_m_over_n,
    log_max_degree,
    path_graph,
    power_graph,
    random_split_instance,
    star_graph,
)


class TestScalarProperties:
    def test_density_ratio(self):
        g = cycle_graph(10)
        assert density_ratio(g) == 1.0

    def test_log_m_over_n_floor(self):
        g = path_graph(10)  # m/n < 1 -> clamp to 1
        assert log_m_over_n(g) == 1.0

    def test_log_m_over_n_dense(self):
        g = complete_graph(16)  # m/n = 7.5
        assert math.isclose(log_m_over_n(g), math.log2(7.5))

    def test_log_max_degree(self):
        g = star_graph(16)
        assert math.isclose(log_max_degree(g), 4.0)

    def test_diameter(self):
        assert diameter(path_graph(6)) == 5
        assert diameter(complete_graph(5)) == 1

    def test_diameter_requires_connected(self):
        g = gnp_random_graph(6, 0.0, seed=1)
        with pytest.raises(ValueError):
            diameter(g)


class TestNeighborhoods:
    def test_power_graph_of_path(self):
        g = path_graph(5)
        p2 = power_graph(g, 2)
        assert p2.has_edge(0, 2)
        assert not p2.has_edge(0, 3)
        assert p2.number_of_edges() == 4 + 3

    def test_power_graph_radius_one_identity(self):
        g = connected_gnp_graph(12, 0.3, seed=2)
        assert power_graph(g, 1).edge_set() == g.edge_set()

    def test_power_graph_invalid(self):
        with pytest.raises(ValueError):
            power_graph(path_graph(3), 0)


class TestCoverPredicates:
    def test_is_dominating_set(self):
        g = star_graph(5)
        assert is_dominating_set(g, {0})
        assert not is_dominating_set(g, {1})

    def test_is_vertex_cover(self):
        g = cycle_graph(4)
        assert is_vertex_cover(g, {0, 2})
        assert not is_vertex_cover(g, {0, 1})


class TestClientServerInstance:
    def test_all_edges_both(self):
        g = connected_gnp_graph(10, 0.3, seed=3)
        inst = all_edges_both(g)
        assert inst.clients == g.edge_set()
        assert inst.servers == g.edge_set()
        assert inst.coverable_clients() <= inst.clients

    def test_random_split_covers_every_edge(self):
        g = connected_gnp_graph(15, 0.3, seed=4)
        inst = random_split_instance(g, seed=5)
        assert inst.clients | inst.servers == g.edge_set()

    def test_rejects_unknown_edges(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            ClientServerInstance(graph=g, clients={(0, 3)}, servers=g.edge_set())

    def test_rejects_unassigned_edges(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            ClientServerInstance(graph=g, clients={(0, 1)}, servers={(1, 2)})

    def test_client_vertices_and_server_degree(self):
        g = path_graph(4)
        inst = ClientServerInstance(
            graph=g, clients={(0, 1)}, servers=g.edge_set()
        )
        assert inst.client_vertices() == {0, 1}
        assert inst.server_max_degree() == 2

    def test_coverable_clients(self):
        # Triangle where the client edge {0,1} can be covered through vertex 2.
        g = cycle_graph(3)
        inst = ClientServerInstance(
            graph=g, clients={(0, 1)}, servers={(0, 2), (1, 2)}
        )
        assert inst.coverable_clients() == {(0, 1)}
        # Path where the client edge has no covering server path.
        g2 = path_graph(3)
        inst2 = ClientServerInstance(graph=g2, clients={(0, 1)}, servers={(1, 2)})
        assert inst2.coverable_clients() == set()
