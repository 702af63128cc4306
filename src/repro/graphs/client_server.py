"""The client-server 2-spanner problem input (Elkin & Peleg, SIROCCO 2001).

In the client-server k-spanner problem (paper Section 1.5) the edges of a
connected graph are split into *clients* C and *servers* S (an edge may be
both); the goal is a minimum set of server edges covering every client edge
by a path of length at most k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.graphs.graph import Edge, Graph, edge_key


@dataclass
class ClientServerInstance:
    """A client-server 2-spanner instance.

    ``graph`` holds every edge (client or server); ``clients`` and ``servers``
    are sets of canonical edge keys whose union is the edge set of ``graph``.
    """

    graph: Graph
    clients: set[Edge] = field(default_factory=set)
    servers: set[Edge] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.clients = {edge_key(u, v) for u, v in self.clients}
        self.servers = {edge_key(u, v) for u, v in self.servers}
        all_edges = self.graph.edge_set()
        unknown = (self.clients | self.servers) - all_edges
        if unknown:
            raise ValueError(f"client/server edges not in the graph: {sorted(unknown)[:5]}")
        uncovered = all_edges - (self.clients | self.servers)
        if uncovered:
            raise ValueError(
                f"every edge must be a client or a server: {sorted(uncovered)[:5]}"
            )

    # ----------------------------------------------------------------- helpers
    def client_vertices(self) -> set:
        """V(C): vertices touched by at least one client edge."""
        verts = set()
        for u, v in self.clients:
            verts.add(u)
            verts.add(v)
        return verts

    def server_graph(self) -> Graph:
        """Subgraph containing only the server edges."""
        sub = Graph()
        sub.add_nodes_from(self.graph.nodes())
        for u, v in self.servers:
            sub.add_edge(u, v, self.graph.weight(u, v))
        return sub

    def server_max_degree(self) -> int:
        """Delta_S: the maximum degree in the server subgraph."""
        return self.server_graph().max_degree()

    def coverable_clients(self) -> set[Edge]:
        """Client edges that *can* be covered by server edges (k = 2).

        A client {u, w} is coverable iff it is itself a server edge, or some
        common neighbour x has both {x, u} and {x, w} as server edges.
        """
        server_adj: dict = {}
        for u, v in self.servers:
            server_adj.setdefault(u, set()).add(v)
            server_adj.setdefault(v, set()).add(u)
        coverable = set()
        for u, w in self.clients:
            if edge_key(u, w) in self.servers:
                coverable.add(edge_key(u, w))
                continue
            commons = server_adj.get(u, set()) & server_adj.get(w, set())
            if commons:
                coverable.add(edge_key(u, w))
        return coverable


def all_edges_both(graph: Graph) -> ClientServerInstance:
    """Degenerate instance where every edge is both client and server.

    Its optimum equals the ordinary minimum 2-spanner, which makes it the
    natural consistency check between the two algorithms.
    """
    edges = graph.edge_set()
    return ClientServerInstance(graph=graph, clients=set(edges), servers=set(edges))


def random_split_instance(
    graph: Graph,
    client_fraction: float = 0.6,
    server_fraction: float = 0.7,
    seed: int | random.Random | None = None,
) -> ClientServerInstance:
    """Assign each edge independently to clients / servers (ensuring a valid split).

    Each edge is a client with probability ``client_fraction`` and a server
    with probability ``server_fraction``; an edge assigned to neither is made
    a server so that the instance is well formed.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    clients: set[Edge] = set()
    servers: set[Edge] = set()
    for e in graph.edges():
        is_client = rng.random() < client_fraction
        is_server = rng.random() < server_fraction
        if not is_client and not is_server:
            is_server = True
        if is_client:
            clients.add(e)
        if is_server:
            servers.add(e)
    return ClientServerInstance(graph=graph, clients=clients, servers=servers)
