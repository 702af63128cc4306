"""Problem-variant adapters for the distributed 2-spanner algorithm.

Section 4.3 of the paper extends the minimum 2-spanner algorithm to the
weighted and client-server variants with small, local changes (what counts as
a coverable edge, which edges may form stars, the density denominator, and
the termination threshold).  These adapters capture exactly those changes so
that a single node program (:mod:`repro.core.two_spanner`) implements all
three undirected variants.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction

from repro.graphs.client_server import ClientServerInstance
from repro.graphs.graph import Edge, Graph, Node, edge_key


@dataclass(frozen=True)
class NodeSetup:
    """Everything a single vertex knows at time zero (local knowledge only).

    * ``neighbors`` — communication neighbours.
    * ``target_incident`` — incident edges that must end up covered.
    * ``star_pool`` — neighbours reachable by an edge that may be used in a
      star (all neighbours, except in the client-server variant where only
      server edges qualify).
    * ``leaf_weights`` — density denominators per leaf (``None`` = unweighted).
    * ``initial_spanner`` — incident edges taken into the spanner up front
      (the weighted variant adds every weight-0 edge immediately).
    * ``direct_add_allowed`` — incident target edges the vertex may add
      directly when it terminates (step 7).
    * ``zero_weight_leaves`` — leaves whose star edge has weight zero; the
      weighted variant force-includes them in every chosen star.
    * ``wmax_incident`` — maximum incident edge weight (1 for unweighted).
    """

    neighbors: frozenset[Node]
    target_incident: frozenset[Edge]
    star_pool: frozenset[Node]
    leaf_weights: dict[Node, Fraction] | None
    initial_spanner: frozenset[Edge]
    direct_add_allowed: frozenset[Edge]
    zero_weight_leaves: frozenset[Node]
    wmax_incident: Fraction


class SpannerVariant(ABC):
    """Adapter describing one undirected 2-spanner variant."""

    name: str = "base"
    threshold_divisor: int = 4

    @abstractmethod
    def node_setup(self, graph: Graph, v: Node) -> NodeSetup:
        """The vertex-local knowledge the algorithm starts from."""

    @abstractmethod
    def finish_threshold(self, wmax_2hop: Fraction) -> Fraction:
        """Densities at or above this keep a vertex active; below it, it terminates."""

    def graph(self) -> Graph | None:
        """The underlying graph when the variant owns one (client-server)."""
        return None


class UnweightedVariant(SpannerVariant):
    """The plain minimum 2-spanner problem (Theorem 1.3)."""

    name = "unweighted"

    def node_setup(self, graph: Graph, v: Node) -> NodeSetup:
        topo = graph.freeze()
        neighbors = topo.neighbor_label_set(topo.index[v])
        incident = frozenset(edge_key(v, u) for u in neighbors)
        return NodeSetup(
            neighbors=neighbors,
            target_incident=incident,
            star_pool=neighbors,
            leaf_weights=None,
            initial_spanner=frozenset(),
            direct_add_allowed=incident,
            zero_weight_leaves=frozenset(),
            wmax_incident=Fraction(1),
        )

    def finish_threshold(self, wmax_2hop: Fraction) -> Fraction:
        return Fraction(1)


class WeightedVariant(SpannerVariant):
    """The weighted minimum 2-spanner problem (Theorem 4.12, O(log Delta))."""

    name = "weighted"

    def node_setup(self, graph: Graph, v: Node) -> NodeSetup:
        topo = graph.freeze()
        i = topo.index[v]
        neighbors = topo.neighbor_label_set(i)
        incident = frozenset(edge_key(v, u) for u in neighbors)
        weights = {u: Fraction(graph.weight(v, u)) for u in topo.neighbor_labels(i)}
        zero = frozenset(u for u, w in weights.items() if w == 0)
        initial = frozenset(edge_key(v, u) for u in zero)
        wmax = max(weights.values(), default=Fraction(1))
        if wmax <= 0:
            wmax = Fraction(1)
        return NodeSetup(
            neighbors=neighbors,
            target_incident=incident,
            star_pool=neighbors,
            leaf_weights=weights,
            initial_spanner=initial,
            direct_add_allowed=incident,
            zero_weight_leaves=zero,
            wmax_incident=wmax,
        )

    def finish_threshold(self, wmax_2hop: Fraction) -> Fraction:
        if wmax_2hop <= 0:
            return Fraction(1)
        return Fraction(1) / Fraction(wmax_2hop)


class ClientServerVariant(SpannerVariant):
    """The client-server 2-spanner problem (Theorem 4.15).

    Only client edges need covering, only server edges may be used, and a
    vertex terminates when densities in its 2-neighbourhood drop below 1/2
    (a single server 2-path covering one client edge has density 1/2).
    """

    name = "client_server"

    def __init__(self, instance: ClientServerInstance) -> None:
        self.instance = instance

    def graph(self) -> Graph:
        return self.instance.graph

    def node_setup(self, graph: Graph, v: Node) -> NodeSetup:
        topo = graph.freeze()
        neighbors = topo.neighbor_label_set(topo.index[v])
        incident_clients = frozenset(
            edge_key(v, u) for u in neighbors if edge_key(v, u) in self.instance.clients
        )
        server_pool = frozenset(
            u for u in neighbors if edge_key(v, u) in self.instance.servers
        )
        direct = frozenset(e for e in incident_clients if e in self.instance.servers)
        return NodeSetup(
            neighbors=neighbors,
            target_incident=incident_clients,
            star_pool=server_pool,
            leaf_weights=None,
            initial_spanner=frozenset(),
            direct_add_allowed=direct,
            zero_weight_leaves=frozenset(),
            wmax_incident=Fraction(1),
        )

    def finish_threshold(self, wmax_2hop: Fraction) -> Fraction:
        return Fraction(1, 2)
