"""Distributed minimum 2-spanner approximation (paper Section 4, Theorem 1.3).

The algorithm runs on the LOCAL-model round simulator as a per-vertex
program.  Each *iteration* of the paper's pseudo-code is a fixed pipeline of
seven communication rounds:

====================  ========================================================
phase                 message broadcast in that round
====================  ========================================================
``cover``             pairs of my neighbours newly covered *via me* (both of
                      the pair's star edges are now spanner edges at me)
``report``            my incident target edges that became covered, my done flag
``density``           my rounded density, exact density and max incident weight
``max``               component-wise maxima of the density phase over my
                      closed neighbourhood (gives everyone its 2-hop maxima)
``candidate``         if I am a candidate: my chosen star, |C_v| and a random
                      rank r_v in {1..n^4}
``vote``              one vote per uncovered incident edge, sent by the edge's
                      smaller endpoint to the winning candidate
``add``               stars that gathered >= |C_v|/8 votes; edges added
                      directly by terminating vertices (step 7)
====================  ========================================================

The same program implements the unweighted, weighted and client-server
variants through :mod:`repro.core.variants`.  The directed variant
(:mod:`repro.core.directed_two_spanner`) is a subclass that overrides only
the geometry: targets are arcs, and the rounds above carry arcs instead of
edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Any

from repro.core.star_selection import StarSelectionState, choose_candidate_star
from repro.core.variants import NodeSetup, SpannerVariant, UnweightedVariant
from repro.distributed.models import CommunicationModel, local_model
from repro.distributed.node import NodeContext
from repro.distributed.program import Inbox, NodeProgram
from repro.distributed.simulator import DEFAULT_ENGINE, Simulator
from repro.graphs.client_server import ClientServerInstance
from repro.graphs.graph import Edge, Graph, Node, edge_key
from repro.spanner.stars import (
    densest_star,
    rounded_up_power_of_two,
    spanned_edges,
)

PHASES = ("cover", "report", "density", "max", "candidate", "vote", "add")
ROUNDS_PER_ITERATION = len(PHASES)


@dataclass
class TwoSpannerOptions:
    """Tunable knobs of the algorithm (defaults follow the paper).

    ``densest_method`` selects the densest-star solver ('exact' reproduces the
    paper's polynomial flow computation; 'peeling' is the fast 2-approximate
    mode).  ``vote_fraction`` is the 1/8 acceptance threshold of step 5.
    ``follow_paper_rule`` toggles the Section 4.1 star re-selection rule (the
    E15 ablation disables it).  ``threshold_divisor`` overrides the variant's
    rho/4 star-density threshold when set.
    """

    densest_method: str = "exact"
    vote_fraction: Fraction = Fraction(1, 8)
    threshold_divisor: int | None = None
    follow_paper_rule: bool = True
    max_iterations: int = 2_000


@dataclass
class TwoSpannerResult:
    """Union of all per-vertex outputs plus run statistics."""

    edges: set[Edge]
    rounds: int
    iterations: int
    metrics: Any
    fallback_count: int
    node_outputs: dict[Node, Any] = field(repr=False, default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.edges)

    def cost(self, graph: Graph) -> float:
        return sum(graph.weight(u, v) for u, v in self.edges)


class TwoSpannerProgram(NodeProgram):
    """The per-vertex program implementing one iteration pipeline per 7 rounds.

    This is the phase shell of every 2-spanner variant.  A *target* is an
    element that must end up covered: an undirected edge here, an arc in
    :class:`~repro.core.directed_two_spanner.DirectedTwoSpannerProgram`,
    which overrides only the geometry hooks (``_index_partners``,
    ``_covered_via_me``, ``_open_targets``, ``_star_density``,
    ``_densities``, ``_star``, ``_star_edges``, ``_absorb_star``,
    ``_star_sides``, ``_ballots``), the two message builders and the payload
    field names below.  A hook runs once per phase, once per received star
    message or once per run, never per pair or per edge.

    A vertex keeps only what the paper's Section 4 vertex uses: its incident
    targets and the targets joining two of its neighbours
    (``known_targets``), and which of those are covered (``covered``, plus
    its own spanner edges).  The cover, report and density phases each
    intersect the whole inbox's target lists with ``known_targets`` in one
    set operation, so nothing else a neighbour reports is stored.
    """

    TARGETS_FIELD = "targets"  # hello
    STAR_FIELD = "leaves"  # candidate, added_star
    EDGES_FIELD = "edges"  # vote, direct additions, output
    ADDED_KIND = "added_edges"

    def __init__(
        self,
        node: Node,
        setup: NodeSetup,
        variant: SpannerVariant,
        options: TwoSpannerOptions,
    ) -> None:
        self.node = node
        self.setup = setup
        self.variant = variant
        self.options = options
        self.divisor = (
            options.threshold_divisor
            if options.threshold_divisor is not None
            else variant.threshold_divisor
        )

        # --- knowledge ---------------------------------------------------
        # The targets I can use: my incident ones, and (from hello) those
        # joining two of my neighbours, the only ones a star of mine can
        # span.  A neighbour's other targets are never kept, and a covered
        # target is kept only if known (or a spanner edge of mine), so
        # ``covered`` is queried only for targets it may hold.
        self.known_targets: set[Edge] = set(setup.target_incident)
        self.covered: set[Edge] = set()
        self.incident_spanner: set[Edge] = set(setup.initial_spanner)
        self.my_spanner: set[Edge] = set(setup.initial_spanner)
        self.neighbor_done: dict[Node, bool] = {u: False for u in setup.neighbors}

        # --- bookkeeping ---------------------------------------------------
        self.phase_index = 0
        self.iteration = 0
        self.locally_done = False
        self.done_broadcasts = 0
        self.selection_state = StarSelectionState()
        self.reported_covered: set[Edge] = set()
        # Scan position of each paired spanner neighbour; ``_partners[u]``
        # lists each neighbour w with ``edge_key(u, w)`` a known target.
        self._scan_position: dict[Node, int] = {}
        self._partners: dict[Node, tuple[Node, ...]] = {}
        self._density_cache: tuple[int, tuple[Fraction, Fraction]] | None = None
        # Leaves of the densest star over the whole pool and ``star_hv``
        # (``None`` while ``current_hv`` is empty): the candidate phase
        # starts from them instead of solving the same input again.
        self.densest_leaves: frozenset[Node] | None = None

        # ``current_hv``: uncovered targets my full star could span, built at
        # hello and only ever shrinking (``_cover``); ``star_hv``: the same
        # as undirected pool edges, for star solving.
        self.current_hv: set[Edge] = set()
        self.star_hv: set[Edge] = set()

        # --- per-iteration transient state --------------------------------
        self.rho: Fraction = Fraction(0)
        self.rho_rounded: Fraction = Fraction(0)
        self.one_hop_max: tuple[Fraction, Fraction, Fraction] | None = None
        self.is_candidate = False
        self.is_finishing = False
        self.candidate_leaves: frozenset[Node] = frozenset()
        self.candidate_star: frozenset[Any] = frozenset()
        self.candidate_cv: set[Edge] = set()
        self.votes_received: set[Edge] = set()

    # ------------------------------------------------------------------ start
    def on_start(self, ctx: NodeContext) -> None:
        if not self.setup.neighbors:
            ctx.set_output(self._output())
            ctx.halt()
            return
        hello = {
            "kind": "hello",
            self.TARGETS_FIELD: sorted(self.setup.target_incident, key=repr),
        }
        ctx.broadcast(hello)

    # ------------------------------------------------------------------ rounds
    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        if ctx.round == 1:
            self._process_hello(inbox)
            self._send_cover(ctx)
            self.phase_index = 1
            return

        phase = PHASES[self.phase_index]
        handler = getattr(self, f"_phase_{phase}")
        handler(ctx, inbox)
        if not ctx.halted:
            self.phase_index = (self.phase_index + 1) % ROUNDS_PER_ITERATION

    # --------------------------------------------------------------- handlers
    def _process_hello(self, inbox: Inbox) -> None:
        # A target a star of mine can span, or my spanner edges can cover,
        # joins two of my neighbours: of their hello lists (canonical keys,
        # not re-canonicalised) I keep only those.
        nbrs = self.setup.neighbors
        between = {
            e
            for payloads in inbox.values()
            for msg in payloads
            for e in msg[self.TARGETS_FIELD]
            if e[0] in nbrs and e[1] in nbrs
        }
        self.known_targets |= between
        # Edges of the initial spanner are covered from the start.
        self.covered |= self.incident_spanner
        self.current_hv = self.star_hv = self._open_targets(between)
        self._index_partners(between)

    def _index_partners(self, between: set[Edge]) -> None:
        """Fill ``_partners``, which only the undirected ``_covered_via_me`` reads."""
        # Nodes with equal reprs never pair (a per-pair scan's rule).  Both
        # orientations of a pair are known when ``edge_key`` is asymmetric.
        partners: dict[Node, dict[Node, None]] = {}
        reprs = {u: repr(u) for u in self.setup.neighbors}
        for x, y in between:
            if reprs[x] != reprs[y]:
                for u, w in ((x, y), (y, x)):
                    if edge_key(u, w) in between:
                        partners.setdefault(u, {})[w] = None
        self._partners = {u: tuple(ws) for u, ws in partners.items()}

    def _open_targets(self, between: set[Edge]) -> set[Edge]:
        """The uncovered targets among ``between`` that my full star could span."""
        pool, covered = self.setup.star_pool, self.covered
        return {e for e in between if e not in covered and e[0] in pool and e[1] in pool}

    def _cover(self, targets) -> None:
        """Mark ``targets`` (a collection) covered; they leave ``current_hv``."""
        self.covered.update(targets)
        self.current_hv.difference_update(targets)

    def _cover_known(self, lists) -> None:
        """Cover the known targets among the neighbours' ``lists`` (one set intersection)."""
        self._cover(self.known_targets.intersection(chain.from_iterable(lists)))

    # phase "cover": process ADD messages, announce pairs covered via me.
    def _phase_cover(self, ctx: NodeContext, inbox: Inbox) -> None:
        added = []
        for sender, payloads in inbox.items():
            for msg in payloads:
                kind = msg.get("kind")
                if kind == "added_star":
                    added.append(self._absorb_star(sender, msg[self.STAR_FIELD]))
                elif kind == self.ADDED_KIND:
                    added.append(self._absorb_edges(msg[self.EDGES_FIELD]))
        self._cover_known(added)
        self._send_cover(ctx)

    def _absorb_edges(self, edges):
        """Take those of ``edges`` incident to me as spanner edges; return ``edges``."""
        me = self.node
        self.incident_spanner.update(e for e in edges if me in e)
        return edges

    def _absorb_star(self, center: Node, leaves):
        """Absorb a neighbour's added star; return the targets it covers for me."""
        if self.node in leaves:
            return self._absorb_edges((edge_key(self.node, center),))
        return ()

    def _send_cover(self, ctx: NodeContext) -> None:
        ctx.broadcast({"kind": "cover", "pairs": self._covered_via_me()})

    def _covered_via_me(self) -> list[Edge]:
        """Targets newly 2-spanned by two of my spanner edges, in scan order."""
        # Spanner neighbours only grow, so only pairs touching a fresh one are
        # new.  Each fresh neighbour meets the already-scanned neighbours in
        # scan order, then the fresh ones after it.
        me, position = self.node, self._scan_position
        spanner_nbrs = {(u if w == me else w) for u, w in self.incident_spanner}
        fresh = [u for u in spanner_nbrs if u not in position]
        scanned = len(position)
        for u in fresh:
            position[u] = len(position)
        newly: list[Edge] = []
        for u in fresh:
            mine = position[u]
            met = [
                (p, w)
                for w in self._partners.get(u, ())
                if (p := position.get(w)) is not None and (p < scanned or p > mine)
            ]
            # Positions are distinct, so labels are never compared.
            newly.extend(edge_key(u, w) for _, w in sorted(met))
        self._cover(newly)
        return newly

    # phase "report": process COVER messages, report newly covered incident targets.
    def _phase_report(self, ctx: NodeContext, inbox: Inbox) -> None:
        self._cover_known(msg.get("pairs", ()) for payloads in inbox.values() for msg in payloads)

        if (
            self.locally_done
            and self.done_broadcasts >= 1
            and all(self.neighbor_done.values())
        ):
            ctx.set_output(self._output())
            ctx.halt()
            return

        self.iteration += 1
        if self.iteration > self.options.max_iterations:
            raise RuntimeError(
                f"2-spanner algorithm exceeded {self.options.max_iterations} iterations"
            )
        newly_covered = sorted(
            (e for e in self.setup.target_incident if e in self.covered and e not in self.reported_covered),
            key=repr,
        )
        self.reported_covered.update(newly_covered)
        ctx.broadcast({"kind": "report", "covered": newly_covered, "done": self.locally_done})
        if self.locally_done:
            self.done_broadcasts += 1

    # phase "density": process REPORT messages, broadcast densities.
    def _phase_density(self, ctx: NodeContext, inbox: Inbox) -> None:
        reports = []
        for sender, payloads in inbox.items():
            for msg in payloads:
                self.neighbor_done[sender] = bool(msg.get("done", False))
                reports.append(msg.get("covered", ()))
        self._cover_known(reports)

        self.rho, self.rho_rounded = self._densities()
        ctx.broadcast(
            self._maxima_message(
                "density", self.rho, self.rho_rounded, self.setup.wmax_incident
            )
        )

    def _densities(self) -> tuple[Fraction, Fraction]:
        key = len(self.current_hv)  # it only shrinks: same size, same set
        if self._density_cache is not None and self._density_cache[0] == key:
            return self._density_cache[1]
        if not self.current_hv:
            result = (Fraction(0), Fraction(0))
            self.densest_leaves = None
        else:
            self.densest_leaves, density = densest_star(
                self.setup.star_pool,
                self.star_hv,
                self.setup.leaf_weights,
                method=self.options.densest_method,
            )
            density = self._star_density(self.densest_leaves, density)
            result = (density, rounded_up_power_of_two(density))
        self._density_cache = (key, result)
        return result

    def _star_density(self, leaves: frozenset[Node], density: Fraction) -> Fraction:
        """The density a star with these leaves reports (the solver's, here)."""
        return density

    # phase "max": forward component-wise maxima of the density messages.
    def _phase_max(self, ctx: NodeContext, inbox: Inbox) -> None:
        self.one_hop_max = _fold_maxima(
            inbox, (self.rho, self.rho_rounded, self.setup.wmax_incident)
        )
        ctx.broadcast(self._maxima_message("max", *self.one_hop_max))

    def _maxima_message(
        self, kind: str, rho: Fraction, rounded: Fraction, wmax: Fraction
    ) -> dict[str, Any]:
        return {"kind": kind, "rho": rho, "rho_rounded": rounded, "wmax": wmax}

    # phase "candidate": decide candidacy / termination, announce chosen stars.
    def _phase_candidate(self, ctx: NodeContext, inbox: Inbox) -> None:
        assert self.one_hop_max is not None
        rho_max2, rounded_max2, wmax2 = _fold_maxima(inbox, self.one_hop_max)

        threshold = self.variant.finish_threshold(wmax2)
        self.is_candidate = False
        self.is_finishing = False
        self.candidate_leaves = frozenset()
        self.candidate_star = frozenset()
        self.candidate_cv = set()

        if not self.locally_done and rho_max2 < threshold:
            self.is_finishing = True
            return
        if (
            not self.locally_done
            and self.rho >= threshold
            and self.rho_rounded >= rounded_max2
        ):
            self.is_candidate = True
            self.candidate_leaves = choose_candidate_star(
                set(self.setup.star_pool),
                self.star_hv,
                self.rho_rounded,
                self.selection_state,
                self.iteration,
                leaf_weights=self.setup.leaf_weights,
                threshold_divisor=self.divisor,
                method=self.options.densest_method,
                follow_paper_rule=self.options.follow_paper_rule,
                force_include=self.setup.zero_weight_leaves,
                pool_densest=self.densest_leaves,
            )
            self.candidate_star = self._star(self.candidate_leaves)
            self.candidate_cv = spanned_edges(self.candidate_leaves, self.current_hv)
            rank = ctx.rng.randint(1, max(2, ctx.n**4))
            ctx.broadcast(self._candidate_message(rank))

    def _star(self, leaves: frozenset[Node]) -> frozenset[Any]:
        """The star as announced to the neighbours (its leaves, here)."""
        return leaves

    def _candidate_message(self, rank: int) -> dict[str, Any]:
        return {
            "kind": "candidate",
            "leaves": sorted(self.candidate_star, key=repr),
            "cv_size": len(self.candidate_cv),
            "rank": rank,
            "center": self.node,
        }

    # phase "vote": every uncovered incident target votes for one candidate.
    def _phase_vote(self, ctx: NodeContext, inbox: Inbox) -> None:
        announcements: list[tuple[int, Any, Node, Any, Any]] = []
        for sender, payloads in inbox.items():
            for msg in payloads:
                if msg.get("kind") != "candidate":
                    continue
                first, second = self._star_sides(sender, msg[self.STAR_FIELD])
                announcements.append(
                    (msg["rank"], repr(msg["center"]), sender, first, second)
                )
        if not announcements:
            return
        votes: dict[Node, list[Edge]] = {}
        for target, u, w in self._ballots():
            spanning = [
                (rank, center_repr, sender)
                for rank, center_repr, sender, first, second in announcements
                if u in first and w in second
            ]
            if spanning:
                votes.setdefault(min(spanning)[2], []).append(target)
        for winner, targets in votes.items():
            ctx.send(winner, {"kind": "vote", self.EDGES_FIELD: sorted(targets, key=repr)})

    def _star_sides(self, center: Node, leaves) -> tuple[Any, Any]:
        """A star spans the pair (u, w) iff u is in the first side and w in the second."""
        leaf_set = frozenset(leaves)
        return leaf_set, leaf_set

    def _ballots(self) -> list[tuple[Edge, Node, Node]]:
        """(target, u, w) for each uncovered target I vote for; a star must span (u, w)."""
        me = self.node
        my_repr = repr(me)
        ballots = []
        for e in self.setup.target_incident:
            if e in self.covered:
                continue
            other = e[0] if e[1] == me else e[1]
            if my_repr > repr(other):
                continue  # the smaller endpoint is responsible for this edge's vote
            ballots.append((e, me, other))
        return ballots

    # phase "add": candidates with enough votes add their stars; finishing vertices
    # add their remaining uncovered incident targets directly (step 7).
    def _phase_add(self, ctx: NodeContext, inbox: Inbox) -> None:
        self.votes_received = self.candidate_cv.intersection(
            chain.from_iterable(
                msg[self.EDGES_FIELD]
                for payloads in inbox.values()
                for msg in payloads
                if msg.get("kind") == "vote"
            )
        )

        if self.is_candidate and self.candidate_cv:
            if len(self.votes_received) >= len(self.candidate_cv) * self.options.vote_fraction:
                star_edges = self._star_edges()
                self.my_spanner |= star_edges
                self.incident_spanner |= star_edges
                self._cover(star_edges)
                ctx.broadcast(
                    {"kind": "added_star", self.STAR_FIELD: sorted(self.candidate_star, key=repr)}
                )

        if self.is_finishing:
            direct = sorted(
                (e for e in self.setup.direct_add_allowed if e not in self.covered),
                key=repr,
            )
            if direct:
                self.my_spanner.update(direct)
                self.incident_spanner.update(direct)
                self._cover(direct)
                ctx.broadcast({"kind": self.ADDED_KIND, self.EDGES_FIELD: direct})
            self.locally_done = True

    def _star_edges(self) -> set[Edge]:
        """The spanner edges the accepted candidate star adds."""
        return {edge_key(self.node, leaf) for leaf in self.candidate_leaves}

    # ------------------------------------------------------------------ output
    def _output(self) -> dict[str, Any]:
        return {
            self.EDGES_FIELD: sorted(self.my_spanner, key=repr),
            "iterations": self.iteration,
            "fallbacks": self.selection_state.fallback_count,
        }


def _fold_maxima(inbox: Inbox, maxima: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Component-wise maxima of ``maxima`` and the inbox's density messages.

    One pass over the messages.  Compares integer cross products, not
    ``Fraction``s, and keeps the first maximum on ties as ``max`` does.  A
    message without ``wmax`` (the directed variant's) leaves that component
    alone.
    """
    rho, rounded, wmax = maxima
    rho_n, rho_d = rho.numerator, rho.denominator
    rounded_n, rounded_d = rounded.numerator, rounded.denominator
    wmax_n, wmax_d = wmax.numerator, wmax.denominator
    for payloads in inbox.values():
        for msg in payloads:
            value = msg.get("rho")
            if value is not None:
                num, den = value.numerator, value.denominator
                if num * rho_d > rho_n * den:
                    rho, rho_n, rho_d = value, num, den
            value = msg.get("rho_rounded")
            if value is not None:
                num, den = value.numerator, value.denominator
                if num * rounded_d > rounded_n * den:
                    rounded, rounded_n, rounded_d = value, num, den
            value = msg.get("wmax")
            if value is not None:
                num, den = value.numerator, value.denominator
                if num * wmax_d > wmax_n * den:
                    wmax, wmax_n, wmax_d = value, num, den
    return rho, rounded, wmax


# ---------------------------------------------------------------------- runner
def run_two_spanner(
    graph: Graph,
    variant: SpannerVariant | None = None,
    options: TwoSpannerOptions | None = None,
    seed: int | None = None,
    model: CommunicationModel | None = None,
    max_rounds: int = 200_000,
    engine: str = DEFAULT_ENGINE,
    adversary=None,
) -> TwoSpannerResult:
    """Run the distributed 2-spanner algorithm on ``graph`` and collect the result.

    The returned edge set is the union of the per-vertex outputs; ``rounds``
    counts simulator rounds (7 per algorithm iteration plus setup/termination)
    and ``iterations`` is the largest iteration index any vertex reached.
    ``engine`` selects the simulator engine (``columnar`` by default);
    results are identical on every engine for a fixed seed.
    ``adversary`` forwards a fault policy to the simulator; this algorithm's
    handshake phases assume reliable delivery, so use it for golden-stability
    checks (``NoAdversary``) rather than fault sweeps.
    """
    variant = variant if variant is not None else UnweightedVariant()
    edges, stats = run_spanner_program(
        TwoSpannerProgram, graph, variant, options, seed, model, max_rounds,
        engine=engine, adversary=adversary,
    )
    return TwoSpannerResult(edges=edges, **stats)


def run_spanner_program(
    program_cls: type[TwoSpannerProgram],
    graph: Any,
    variant: SpannerVariant,
    options: TwoSpannerOptions | None,
    seed: int | None,
    model: CommunicationModel | None,
    max_rounds: int,
    engine: str = DEFAULT_ENGINE,
    adversary=None,
) -> tuple[set[Any], dict[str, Any]]:
    """Simulate ``program_cls`` on every vertex and union the per-vertex outputs.

    Returns the chosen targets (edges or arcs) and the remaining result
    fields: ``rounds``, ``iterations`` (the largest any vertex reached),
    ``metrics``, ``fallback_count`` (summed over vertices) and
    ``node_outputs``.
    """
    options = options if options is not None else TwoSpannerOptions()
    model = model if model is not None else local_model(graph.number_of_nodes())

    def factory(v: Node) -> TwoSpannerProgram:
        return program_cls(v, variant.node_setup(graph, v), variant, options)

    sim = Simulator(
        graph, factory, model=model, seed=seed, engine=engine, adversary=adversary
    )
    run = sim.run(max_rounds=max_rounds)

    chosen: set[Any] = set()
    iterations = 0
    fallbacks = 0
    for output in run.outputs.values():
        if not output:
            continue
        chosen.update(output[program_cls.EDGES_FIELD])
        iterations = max(iterations, output["iterations"])
        fallbacks += output["fallbacks"]
    return chosen, {
        "rounds": run.rounds,
        "iterations": iterations,
        "metrics": run.metrics,
        "fallback_count": fallbacks,
        "node_outputs": run.outputs,
    }


def client_server_two_spanner(
    instance: ClientServerInstance,
    options: TwoSpannerOptions | None = None,
    seed: int | None = None,
    max_rounds: int = 200_000,
) -> TwoSpannerResult:
    """Convenience wrapper running the client-server variant on an instance."""
    from repro.core.variants import ClientServerVariant

    variant = ClientServerVariant(instance)
    return run_two_spanner(
        instance.graph, variant=variant, options=options, seed=seed, max_rounds=max_rounds
    )
