"""Generated-instance differential: the 2-spanner program on every engine.

Engines run the same program, so a program bug common to all of them passes
that check; ``TestCoveredViaMeOracle`` therefore pins the program's pair
announcements to the per-pair ``edge_key`` definition on the same labels.

Hypothesis draws small graphs and digraphs (at most 12 vertices, isolated
vertices included) whose labels mix ints, negatives, values near ±2**63,
strings and tuples, so ``edge_key`` often takes its ``(str(type), repr)``
fallback for labels that do not compare.  For each of the four variants —
unweighted, weighted (zero weights included), client-server and directed —
``columnar`` (the default engine), ``indexed`` and ``reference`` must agree
on the chosen edges, rounds, iterations, fallback count, per-vertex
outputs, ``metrics.as_dict()`` and ``bits_per_round``, and every run's
metrics must pass ``Metrics.check_invariants``.

Tier-1 runs a few derandomized examples per variant; set
``REPRO_SPANNER_PARITY_EXAMPLES`` for more (CI's ``bench-smoke`` job runs
300).

``TestVertexStateInvariant`` checks what a vertex keeps on the same
generated instances: after every round its ``known_targets`` are exactly its
incident targets and the targets joining two of its neighbours, and its
``covered`` set holds nothing else but its own spanner edges.  Set
``REPRO_SPANNER_STATE_EXAMPLES`` for more examples than tier-1's.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.directed_two_spanner import DirectedTwoSpannerProgram, DirectedVariant
from repro.core.two_spanner import TwoSpannerOptions, TwoSpannerProgram, run_spanner_program
from repro.core.variants import (
    ClientServerVariant,
    NodeSetup,
    UnweightedVariant,
    WeightedVariant,
)
from repro.distributed import DEFAULT_ENGINE, ENGINES
from repro.graphs import DiGraph, Graph
from repro.graphs.client_server import ClientServerInstance
from repro.graphs.graph import edge_key
from repro.spanner.verify import (
    is_client_server_2_spanner,
    is_k_spanner,
    is_k_spanner_directed,
)

EXAMPLES = int(os.environ.get("REPRO_SPANNER_PARITY_EXAMPLES", "8"))
STATE_EXAMPLES = int(os.environ.get("REPRO_SPANNER_STATE_EXAMPLES", "25"))

LABELS = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=2**63 - 3, max_value=2**63 + 2),
    st.integers(min_value=-(2**63) - 2, max_value=-(2**63) + 3),
    st.text(alphabet="ab", min_size=1, max_size=2),
    st.tuples(st.integers(min_value=-1, max_value=1), st.text(alphabet="x", max_size=1)),
)


@st.composite
def instances(draw, directed=False):
    """``(labels, links, a mark 0-3 per link, seed)``; every label is a vertex."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=12, unique=True))
    n = len(labels)
    slots = [(i, j) for i in range(n) for j in range(n) if i != j and (directed or i < j)]
    chosen = draw(st.sets(st.sampled_from(slots), max_size=len(slots))) if slots else set()
    links = [(labels[i], labels[j]) for i, j in sorted(chosen)]
    marks = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=len(links),
                          max_size=len(links)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return labels, links, marks, seed


def _graph(cls, labels, links, weights=None):
    graph = cls()
    for v in labels:
        graph.add_node(v)
    for (u, v), weight in zip(links, weights or [1.0] * len(links)):
        graph.add_edge(u, v, weight)
    return graph


def _assert_engines_agree(program, graph, variant, seed):
    outcomes = {}
    for engine in ENGINES:
        chosen, stats = run_spanner_program(
            program, graph, variant, None, seed, None, 200_000, engine=engine
        )
        metrics = stats["metrics"]
        metrics.check_invariants()
        outcomes[engine] = (
            chosen,
            stats["rounds"],
            stats["iterations"],
            stats["fallback_count"],
            stats["node_outputs"],
            metrics.as_dict(),
            list(metrics.bits_per_round),
        )
    expected = outcomes.pop("reference")
    for engine, outcome in outcomes.items():
        assert outcome == expected, engine


def _client_server(graph, links, marks):
    # mark 0: client only, 1: server only, 2-3: both.
    clients = {edge_key(u, v) for (u, v), mark in zip(links, marks) if mark != 1}
    servers = {edge_key(u, v) for (u, v), mark in zip(links, marks) if mark != 0}
    return ClientServerInstance(graph, clients, servers)


def test_default_engine_is_columnar():
    assert DEFAULT_ENGINE == "columnar"


PARITY = settings(max_examples=EXAMPLES, deadline=None, derandomize=True)


class TestSpannerEngineParity:
    @PARITY
    @given(instances())
    def test_unweighted(self, instance):
        labels, links, _, seed = instance
        graph = _graph(Graph, labels, links)
        _assert_engines_agree(TwoSpannerProgram, graph, UnweightedVariant(), seed)

    @PARITY
    @given(instances())
    def test_weighted(self, instance):
        labels, links, marks, seed = instance
        weights = [(0.0, 1.0, 2.5, 4.0)[mark] for mark in marks]
        graph = _graph(Graph, labels, links, weights)
        _assert_engines_agree(TwoSpannerProgram, graph, WeightedVariant(), seed)

    @PARITY
    @given(instances())
    def test_client_server(self, instance):
        labels, links, marks, seed = instance
        graph = _graph(Graph, labels, links)
        variant = ClientServerVariant(_client_server(graph, links, marks))
        _assert_engines_agree(TwoSpannerProgram, graph, variant, seed)

    @PARITY
    @given(instances(directed=True))
    def test_directed(self, instance):
        labels, links, _, seed = instance
        graph = _graph(DiGraph, labels, links)
        _assert_engines_agree(DirectedTwoSpannerProgram, graph, DirectedVariant(), seed)


def _run_state_checked(program_cls, graph, variant, seed):
    """Run ``program_cls``, checking every vertex's kept state after each of its rounds."""
    targets = set().union(*(variant.node_setup(graph, v).target_incident for v in graph.nodes()))

    class StateChecked(program_cls):
        def on_round(self, ctx, inbox):
            super().on_round(ctx, inbox)
            nbrs = self.setup.neighbors
            between = {e for e in targets if e[0] in nbrs and e[1] in nbrs}
            assert self.known_targets == self.setup.target_incident | between
            assert self.covered <= self.known_targets | self.incident_spanner

    chosen, _ = run_spanner_program(StateChecked, graph, variant, None, seed, None, 200_000)
    return chosen


STATE = settings(max_examples=STATE_EXAMPLES, deadline=None, derandomize=True)


class TestVertexStateInvariant:
    @STATE
    @given(instances())
    def test_unweighted(self, instance):
        labels, links, _, seed = instance
        graph = _graph(Graph, labels, links)
        chosen = _run_state_checked(TwoSpannerProgram, graph, UnweightedVariant(), seed)
        assert is_k_spanner(graph, chosen, 2)

    @STATE
    @given(instances())
    def test_weighted_with_zero_weights(self, instance):
        labels, links, marks, seed = instance
        weights = [(0.0, 1.0, 2.5, 4.0)[mark] for mark in marks]
        graph = _graph(Graph, labels, links, weights)
        chosen = _run_state_checked(TwoSpannerProgram, graph, WeightedVariant(), seed)
        assert is_k_spanner(graph, chosen, 2)

    @STATE
    @given(instances())
    def test_client_server(self, instance):
        labels, links, marks, seed = instance
        graph = _graph(Graph, labels, links)
        cs = _client_server(graph, links, marks)
        chosen = _run_state_checked(TwoSpannerProgram, graph, ClientServerVariant(cs), seed)
        assert is_client_server_2_spanner(cs, chosen)

    @STATE
    @given(instances(directed=True))
    def test_directed(self, instance):
        labels, links, _, seed = instance
        graph = _graph(DiGraph, labels, links)
        chosen = _run_state_checked(DirectedTwoSpannerProgram, graph, DirectedVariant(), seed)
        assert is_k_spanner_directed(graph, chosen, 2)


@pytest.mark.parametrize(
    "labels",
    [
        [0, "a", (0, "x"), -(2**63), 2**63 - 1, "b", -3],
        ["a", "b", "ab", "ba", (1, ""), (-1, "x")],
    ],
    ids=["mixed", "unorderable"],
)
def test_mixed_label_clique(labels):
    """A clique on labels that mostly do not compare: every pair is a 2-hop pair."""
    links = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    _assert_engines_agree(
        TwoSpannerProgram, _graph(Graph, labels, links), UnweightedVariant(), 3
    )


class _Twin:
    """Distinct, unorderable nodes that share one repr (never paired)."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return "twin"


TWINS = [_Twin(0), _Twin(1)]
#: Subset order is partial, so ``edge_key`` of two such labels depends on
#: the argument order: the announcement must keep the scan's orientation.
SUBSETS = st.frozensets(st.integers(min_value=0, max_value=2), min_size=1, max_size=2)


def _reference_announcements(me, incident_spanner, known, scanned, announced):
    """The cover announcement by its definition: ``edge_key`` per spanner pair."""
    newly = []

    def announce(u, w):
        if repr(u) == repr(w):
            return
        pair = edge_key(u, w)
        if pair in known and pair not in announced:
            newly.append(pair)
            announced.add(pair)

    spanner_nbrs = {(u if w == me else w) for u, w in incident_spanner}
    fresh = [u for u in spanner_nbrs if u not in scanned]
    for a, u in enumerate(fresh):
        for w in scanned:
            announce(u, w)
        for w in fresh[a + 1 :]:
            announce(u, w)
    scanned.extend(fresh)
    return newly


def _check_announcements(nbrs, targets, order, cuts):
    """Grow my spanner edges to ``order``'s prefixes; announcements match the definition."""
    me = ("me",)
    known = [edge_key(u, w) for u, w in targets]
    setup = NodeSetup(
        neighbors=frozenset(nbrs),
        target_incident=frozenset(edge_key(me, u) for u in nbrs),
        star_pool=frozenset(nbrs),
        leaf_weights=None,
        initial_spanner=frozenset(),
        direct_add_allowed=frozenset(),
        zero_weight_leaves=frozenset(),
        wmax_incident=1,
    )
    program = TwoSpannerProgram(me, setup, UnweightedVariant(), TwoSpannerOptions())
    program._process_hello({nbrs[0]: [{"targets": known}]})
    scanned, announced = [], set()
    start = 0
    for end in [*cuts, len(order)]:
        for u in order[start:end]:
            program.incident_spanner.add(edge_key(me, u))
        start = end
        expected = _reference_announcements(
            me, program.incident_spanner, set(known), scanned, announced
        )
        assert program._covered_via_me() == expected


class TestCoveredViaMeOracle:
    @settings(max_examples=max(EXAMPLES * 10, 60), deadline=None, derandomize=True)
    @given(
        st.lists(st.one_of(LABELS, st.sampled_from(TWINS), SUBSETS), min_size=2, max_size=10),
        st.data(),
    )
    def test_pairs_match_edge_key_definition(self, nbrs, data):
        nbrs = list(dict.fromkeys(nbrs))  # equal labels are one node
        # Ordered pairs: for a subset pair, edge_key(u, w) != edge_key(w, u).
        pairs = [(u, w) for u in nbrs for w in nbrs if u is not w]
        targets = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        order = data.draw(st.permutations(nbrs))
        cuts = sorted(data.draw(st.sets(st.integers(0, len(order)))))
        _check_announcements(nbrs, targets, order, cuts)

    @pytest.mark.parametrize("cuts", [[], [1], [2]])
    def test_subset_labels_keep_the_scan_orientation(self, cuts):
        a, b, c = frozenset({0}), frozenset({1}), frozenset({2})
        _check_announcements([a, b, c], [(a, b), (b, c), (c, a)], [b, a, c], cuts)
        _check_announcements([a, b, c], [(a, b), (b, a)], [a, b, c], cuts)

    def test_equal_repr_nodes_are_never_paired(self):
        nbrs = [*TWINS, 1, "a"]
        pairs = [(u, w) for i, u in enumerate(nbrs) for w in nbrs[i + 1 :]]
        _check_announcements(nbrs, pairs, nbrs, [2])
