"""Distributed directed minimum 2-spanner approximation (paper Section 4.3.1).

The directed variant is the undirected algorithm with three changes
(Claims 4.10-4.11): densest directed stars are approximated within a factor
two by ignoring directions, the star-density threshold becomes rho/8, and the
rounded density of a vertex is clamped to be non-increasing across iterations
(because it is itself only a 2-approximation).

:class:`DirectedTwoSpannerProgram` therefore runs the phase shell of
:class:`~repro.core.two_spanner.TwoSpannerProgram` and overrides only the arc
geometry: a target is an arc, ``(u, w)`` is covered via me when ``(u, me)``
and ``(me, w)`` are spanner arcs, a star is the set of arcs between me and its
leaves, and the tail of an arc casts its vote.

Communication is bidirectional (paper Section 1.5): a vertex can message both
its in- and out-neighbours.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from repro.core.two_spanner import (
    TwoSpannerOptions,
    TwoSpannerProgram,
    TwoSpannerResult,
    run_spanner_program,
)
from repro.core.variants import NodeSetup, UnweightedVariant
from repro.distributed.models import CommunicationModel
from repro.graphs.digraph import Arc, DiGraph
from repro.graphs.graph import Node, edge_key
from repro.spanner.stars import directed_star_arcs, spanned_edges


class DirectedTwoSpannerResult(TwoSpannerResult):
    """Union of per-vertex outputs for the directed algorithm: ``edges`` are arcs."""

    @property
    def arcs(self) -> set[Arc]:
        return self.edges


class DirectedVariant(UnweightedVariant):
    """Every incident arc is a target, every neighbour a leaf; threshold rho/8."""

    name = "directed"
    threshold_divisor = 8

    def node_setup(self, graph: DiGraph, v: Node) -> NodeSetup:
        topo = graph.freeze()
        neighbors = topo.neighbor_label_set(topo.index[v])
        incident = frozenset(graph.out_edges(v)) | frozenset(graph.in_edges(v))
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


class DirectedTwoSpannerProgram(TwoSpannerProgram):
    """Per-vertex program for the directed 2-spanner algorithm."""

    TARGETS_FIELD = "arcs"
    STAR_FIELD = "arcs"
    EDGES_FIELD = "arcs"
    ADDED_KIND = "added_arcs"

    rho_clamp: Fraction | None = None  # the last (clamped) rounded density

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.announced: set[Arc] = set()  # arcs announced as covered via me

    def _index_partners(self, between: set[Arc]) -> None:
        """Nothing to index: pairs covered via me are found from the spanner arcs."""

    def _covered_via_me(self) -> list[Arc]:
        me, known, announced = self.node, self.known_targets, self.announced
        in_span = {u for (u, w) in self.incident_spanner if w == me}
        out_span = {w for (u, w) in self.incident_spanner if u == me}
        newly = [
            (u, w)
            for u in in_span
            for w in out_span
            if u != w and (u, w) in known and (u, w) not in announced
        ]
        announced.update(newly)
        self._cover(newly)
        return newly

    def _open_targets(self, between: set[Arc]) -> set[Arc]:
        """Uncovered known arcs (u, w) my full star can span: (u, me) and (me, w) exist."""
        known, me, covered = self.known_targets, self.node, self.covered
        return {
            a for a in between if a not in covered and (a[0], me) in known and (me, a[1]) in known
        }

    def _star_density(self, leaves: frozenset[Node], density: Fraction) -> Fraction:
        """Spanned arcs per arc of the directed star with these leaves."""
        return Fraction(len(spanned_edges(leaves, self.current_hv)), len(self._star(leaves)))

    def _densities(self) -> tuple[Fraction, Fraction]:
        # Densest stars ignore directions (Claim 4.10).
        self.star_hv = {edge_key(u, w) for u, w in self.current_hv}
        density, rounded = super()._densities()
        # The density estimate is a 2-approximation; clamp it to be non-increasing.
        if self.rho_clamp is not None:
            rounded = min(rounded, self.rho_clamp)
        self.rho_clamp = rounded
        return density, rounded

    def _star(self, leaves: frozenset[Node]) -> frozenset[Arc]:
        return directed_star_arcs(self.setup.target_incident, self.node, leaves)

    def _star_edges(self) -> frozenset[Arc]:
        return self.candidate_star

    def _absorb_star(self, center: Node, arcs):
        return self._absorb_edges(arcs)

    def _star_sides(self, center: Node, arcs) -> tuple[set[Node], set[Node]]:
        # (u, w) is spanned iff (u, center) and (center, w) are star arcs.
        return {u for u, w in arcs if w == center}, {w for u, w in arcs if u == center}

    def _ballots(self) -> list[tuple[Arc, Node, Node]]:
        # The tail of each uncovered arc casts its vote.
        return [
            (a, a[0], a[1])
            for a in self.setup.target_incident
            if a[0] == self.node and a not in self.covered
        ]

    def _maxima_message(
        self, kind: str, rho: Fraction, rounded: Fraction, wmax: Fraction
    ) -> dict[str, Any]:
        return {"kind": kind, "rho": rho, "rho_rounded": rounded}

    def _candidate_message(self, rank: int) -> dict[str, Any]:
        return {
            "kind": "candidate",
            "arcs": sorted(self.candidate_star, key=repr),
            "rank": rank,
            "center": self.node,
        }


def run_directed_two_spanner(
    graph: DiGraph,
    options: TwoSpannerOptions | None = None,
    seed: int | None = None,
    model: CommunicationModel | None = None,
    max_rounds: int = 200_000,
) -> DirectedTwoSpannerResult:
    """Run the distributed directed 2-spanner algorithm and collect the result."""
    arcs, stats = run_spanner_program(
        DirectedTwoSpannerProgram, graph, DirectedVariant(), options, seed, model, max_rounds
    )
    return DirectedTwoSpannerResult(edges=arcs, **stats)
