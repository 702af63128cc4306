"""The trivial baseline the paper uses as a reference point.

Taking the whole graph is a valid k-spanner for every k and requires no
communication; because every spanner of a connected graph has at least n-1
edges, this is an n-approximation (the paper contrasts its lower bounds with
exactly this observation).
"""

from __future__ import annotations

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph


def take_all_spanner(graph: Graph | DiGraph) -> set:
    """The whole edge set: a k-spanner for every k, an n-approximation."""
    return set(graph.edges())
