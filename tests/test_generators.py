"""Unit tests for the graph generators (structure, determinism, parameters).

The bulk ``sparse_gnp_csr`` build is checked against the stdlib loop on
Hypothesis-generated parameters too, and its component kernel against
SciPy's connected components; tier-1 runs a few derandomized examples and
``REPRO_CSR_IDENTITY_EXAMPLES`` asks for more (CI's ``bench-smoke`` job
runs 500).
"""

import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.graphs import (
    assign_random_weights,
    assign_weights_from_choices,
    barabasi_albert_csr,
    barabasi_albert_graph,
    bidirect,
    cluster_graph,
    complete_bipartite_graph,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    orient_randomly,
    overlapping_stars_graph,
    path_graph,
    random_digraph,
    random_tournament,
    sparse_gnp_csr,
    sparse_gnp_graph,
    star_graph,
)
from repro.graphs import generators
from repro.graphs.generators import (
    _component_minima,
    _skip_lengths,
    _sparse_gnp_csr_loop,
)

CSR_IDENTITY_EXAMPLES = int(os.environ.get("REPRO_CSR_IDENTITY_EXAMPLES", "15"))


class TestDeterministicGenerators:
    def test_path_graph(self):
        g = path_graph(5)
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 4
        assert g.is_connected()

    def test_cycle_graph(self):
        g = cycle_graph(6)
        assert g.number_of_edges() == 6
        assert all(g.degree(v) == 2 for v in g.nodes())

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star_graph(self):
        g = star_graph(7)
        assert g.degree(0) == 7
        assert g.number_of_edges() == 7

    def test_complete_graph(self):
        g = complete_graph(6)
        assert g.number_of_edges() == 15
        assert g.max_degree() == 5

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(3, 4)
        assert g.number_of_nodes() == 7
        assert g.number_of_edges() == 12
        # Bipartite: adjacent vertices never share a neighbour.
        for u, v in g.edges():
            assert not (g.neighbors(u) & g.neighbors(v))

    def test_grid_graph(self):
        g = grid_graph(3, 4)
        assert g.number_of_nodes() == 12
        assert g.number_of_edges() == 3 * 3 + 2 * 4
        assert g.is_connected()


class TestRandomGenerators:
    def test_gnp_bounds_and_determinism(self):
        g1 = gnp_random_graph(20, 0.3, seed=5)
        g2 = gnp_random_graph(20, 0.3, seed=5)
        assert g1 == g2
        assert g1.number_of_nodes() == 20
        assert 0 <= g1.number_of_edges() <= 190

    def test_gnp_invalid_p(self):
        with pytest.raises(ValueError):
            gnp_random_graph(5, 1.5)

    def test_gnp_extremes(self):
        assert gnp_random_graph(10, 0.0, seed=1).number_of_edges() == 0
        assert gnp_random_graph(10, 1.0, seed=1).number_of_edges() == 45

    def test_sparse_gnp_extremes(self):
        assert sparse_gnp_graph(10, 0.0, seed=1).number_of_edges() == 0
        assert sparse_gnp_graph(10, 1.0, seed=1).edge_set() == complete_graph(10).edge_set()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gnp_random_graph(5, -0.1),
            lambda: sparse_gnp_graph(5, -0.1),
            lambda: sparse_gnp_graph(5, 1.5),
            lambda: sparse_gnp_csr(5, -0.1),
            lambda: barabasi_albert_graph(5, 0),
            lambda: barabasi_albert_graph(5, 5),
            lambda: barabasi_albert_csr(5, 0),
            lambda: barabasi_albert_csr(5, 5),
            lambda: overlapping_stars_graph(3, 4, 4),
        ],
    )
    def test_invalid_parameters_raise(self, build):
        with pytest.raises(ValueError):
            build()

    def test_connected_gnp_is_connected(self):
        for seed in range(5):
            g = connected_gnp_graph(25, 0.05, seed=seed)
            assert g.is_connected()

    def test_barabasi_albert(self):
        g = barabasi_albert_graph(50, 2, seed=4)
        assert g.number_of_nodes() == 50
        assert g.is_connected()
        assert g.max_degree() >= 4

    def test_cluster_graph_connected(self):
        g = cluster_graph(3, 5, seed=6)
        assert g.number_of_nodes() == 15
        assert g.is_connected()

    def test_overlapping_stars(self):
        g = overlapping_stars_graph(4, 5, 2, seed=7)
        assert g.is_connected()
        assert g.number_of_nodes() > 4


class TestDirectedGenerators:
    def test_random_digraph(self):
        d = random_digraph(10, 0.5, seed=1)
        assert d.number_of_nodes() == 10
        assert all(u != v for u, v in d.edges())

    def test_tournament_has_one_arc_per_pair(self):
        d = random_tournament(9, seed=2)
        assert d.number_of_edges() == 36
        for u, v in d.edges():
            assert not d.has_edge(v, u)

    def test_orient_randomly_preserves_count(self):
        g = gnp_random_graph(12, 0.4, seed=3)
        d = orient_randomly(g, seed=4)
        assert d.number_of_edges() == g.number_of_edges()

    def test_bidirect_doubles(self):
        g = gnp_random_graph(12, 0.4, seed=5)
        d = bidirect(g)
        assert d.number_of_edges() == 2 * g.number_of_edges()


class TestWeightAssignment:
    def test_assign_random_weights_range(self):
        g = gnp_random_graph(10, 0.5, seed=1)
        assign_random_weights(g, 2.0, 5.0, seed=2)
        assert all(2.0 <= g.weight(u, v) <= 5.0 for u, v in g.edges())

    def test_assign_integer_weights(self):
        g = gnp_random_graph(10, 0.5, seed=1)
        assign_random_weights(g, 0, 3, seed=2, integer=True)
        assert all(g.weight(u, v) == int(g.weight(u, v)) for u, v in g.edges())

    def test_assign_from_choices(self):
        g = gnp_random_graph(10, 0.5, seed=1)
        assign_weights_from_choices(g, [1.0, 10.0], seed=3)
        assert all(g.weight(u, v) in (1.0, 10.0) for u, v in g.edges())

    def test_assign_from_empty_choices_raises(self):
        g = gnp_random_graph(5, 0.5, seed=1)
        with pytest.raises(ValueError):
            assign_weights_from_choices(g, [])

    def test_invalid_range(self):
        g = gnp_random_graph(5, 0.5, seed=1)
        with pytest.raises(ValueError):
            assign_random_weights(g, 5.0, 1.0)


class TestSparseGnpCsr:
    """The freeze-direct CSR generator: same sampler, no adjacency dicts."""

    def test_matches_dict_generator_on_connected_samples(self):
        # Identical randomness consumption: whenever the raw sample is
        # already connected (no patching), the two generators must produce
        # the exact same edge set.
        csr = sparse_gnp_csr(400, 0.03, seed=11, connect=False)
        dict_based = sparse_gnp_graph(400, 0.03, seed=11, connect=False)
        assert csr.number_of_nodes() == dict_based.number_of_nodes() == 400
        assert sorted(map(tuple, map(sorted, csr.edges()))) == sorted(
            map(tuple, map(sorted, dict_based.edges()))
        )

    def test_deterministic_and_connected(self):
        a = sparse_gnp_csr(2000, 0.002, seed=5)
        b = sparse_gnp_csr(2000, 0.002, seed=5)
        assert sorted(a.edges()) == sorted(b.edges())
        # connect=True default: one component, reachable by flooding.
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in a.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert len(seen) == 2000

    def test_freeze_is_identity_and_degrees_consistent(self):
        g = sparse_gnp_csr(300, 0.02, seed=2)
        topo = g.freeze()
        assert g.freeze() is topo  # already-built CSR, never re-walked
        assert sum(topo.degrees) == 2 * g.number_of_edges()

    def test_rejects_dense_p(self):
        with pytest.raises(ValueError):
            sparse_gnp_csr(10, 1.0, seed=1)

    def test_runs_through_the_columnar_engine(self):
        from repro.core import run_flood_max

        g = sparse_gnp_csr(1500, 0.004, seed=9)
        result = run_flood_max(g, rounds=8, seed=3, engine="columnar")
        assert result.converged
        assert result.leader == 1499


# ------------------------------------------------ bulk CSR build byte-identity
def _registry_csr_tuples() -> list[tuple]:
    """Every ``sparse_gnp_csr`` family tuple of the E23 scenario specs."""
    from repro.experiments import get_experiment

    tuples: list[tuple] = []
    for spec in get_experiment("E23").scenarios:
        graph = tuple(spec.param("graph"))
        if graph[0] == "sparse_gnp_csr" and graph not in tuples:
            tuples.append(graph)
    return tuples


#: Largest n the stdlib side of the identity check builds in tier-1; larger
#: registry tuples are shrunk to it at the same expected degree.
IDENTITY_MAX_N = 20000


def _tier1_identity_tuples() -> list[tuple]:
    tuples = []
    for family, n, p, seed in _registry_csr_tuples():
        if n > IDENTITY_MAX_N:
            n, p = IDENTITY_MAX_N, p * n / IDENTITY_MAX_N
        tuples.append((family, n, p, seed))
    return tuples


def _full_size_identity_tuples() -> list[tuple]:
    """Registry tuples whose n is listed in ``REPRO_CSR_IDENTITY_N`` (CI only).

    Their stdlib builds take seconds to tens of seconds, too slow for
    tier-1; the CI bench job sets the variable to run them unshrunk.
    """
    import os

    wanted = {int(n) for n in os.environ.get("REPRO_CSR_IDENTITY_N", "").split()}
    return [t for t in _registry_csr_tuples() if t[1] in wanted]


def _build_csr(n, p, seed, connect, bulk):
    """Build through one path; return the CSR bytes and the caller RNG's next draw."""
    rng = random.Random(seed)
    if bulk:
        graph = sparse_gnp_csr(n, p, seed=rng, connect=connect)
    else:
        graph = _sparse_gnp_csr_loop(n, p, rng, connect)
    topo = graph.freeze()
    return (
        topo.indptr.tobytes(),
        topo.indices.tobytes(),
        topo.edge_count,
        rng.random(),
    )


def _assert_paths_identical(n, p, seed, connect=True):
    bulk = _build_csr(n, p, seed, connect, bulk=True)
    loop = _build_csr(n, p, seed, connect, bulk=False)
    assert bulk[2] == loop[2], "edge_count"
    assert bulk[:2] == loop[:2], "CSR bytes"
    assert bulk[3] == loop[3], "caller RNG state"


#: Generated edge cases: tiny n, p = 0, a p so small every float skip
#: overshoots the pair count (clamped before the int64 cast), a sparse
#: regime with hundreds of components to chain, connect on and off.
EDGE_CASES = [
    (n, p, seed, connect)
    for n in (0, 1, 2)
    for p in (0.0, 0.5)
    for seed in (1, 3)
    for connect in (True, False)
] + [
    (50, 1e-12, 2, True),
    (50, 1e-12, 2, False),
    (300, 0.0, 4, True),
    (3000, 2e-4, 5, True),
    (400, 0.03, 11, False),
    (2000, 0.002, 5, True),
]


class TestSparseGnpCsrBulkIdentity:
    """The NumPy build is byte-identical to the stdlib loop, RNG state included."""

    def test_registry_has_csr_tuples(self):
        assert len(_registry_csr_tuples()) >= 3

    @pytest.mark.parametrize("family", _tier1_identity_tuples(), ids=str)
    def test_registry_tuples(self, family):
        _, n, p, seed = family
        _assert_paths_identical(n, p, seed)

    if _full_size_identity_tuples():  # defined only when CI asks for it

        @pytest.mark.parametrize("family", _full_size_identity_tuples(), ids=str)
        def test_full_size_registry_tuples(self, family):
            _, n, p, seed = family
            _assert_paths_identical(n, p, seed)

    @pytest.mark.parametrize("n, p, seed, connect", EDGE_CASES)
    def test_edge_cases(self, n, p, seed, connect):
        _assert_paths_identical(n, p, seed, connect)

    @pytest.mark.parametrize("n, p, seed, connect", EDGE_CASES[-4:])
    def test_key_column_growth(self, monkeypatch, n, p, seed, connect):
        # A reserved key column too short for the stream grows batch by batch.
        monkeypatch.setattr(generators, "_edge_capacity", lambda p, pairs: 1)
        monkeypatch.setattr(generators, "_SKIP_BATCH", 64)
        _assert_paths_identical(n, p, seed, connect)

    def test_p_below_float_resolution_raises_like_the_loop(self):
        with pytest.raises(ZeroDivisionError):
            sparse_gnp_csr(10, 1e-17, seed=1)
        with pytest.raises(ZeroDivisionError):
            _sparse_gnp_csr_loop(10, 1e-17, random.Random(1), True)


def _shift_ulps(values, ulps):
    """``values`` moved ``ulps`` units in the last place (sign = direction)."""
    target = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        values = np.nextafter(values, target)
    return values


class TestSkipLengthsExactFallback:
    """Bulk-log skip lengths truncate exactly like the per-draw ``math.log``.

    The log column is pushed a few ulps off NumPy's at draws whose exact
    quotient sits on an integer boundary — where a libm/NumPy discrepancy
    could flip the truncation — and every skip must still equal the loop's
    ``int(math.log(x) / log_q)`` (clamped to the cap).
    """

    @staticmethod
    def _assert_exact(x, log_q, cap):
        expect = [min(int(math.log(v) / log_q), int(cap)) for v in x.tolist()]
        for ulps in (-4, -3, -2, -1, 0, 1, 2, 3, 4):
            logs = _shift_ulps(np.log(x), ulps)
            got = _skip_lengths(x, log_q, logs, cap)
            assert got.dtype == np.int64
            assert got.tolist() == expect, f"log column shifted {ulps} ulps"

    @staticmethod
    def _boundaries(log_q, ks):
        """Draws ``x = exp(k * log_q)`` and their float neighbours, all in (0, 1]."""
        xs = {1.0}  # u = 0: x = 1 - u = 1, log 0, skip 0
        for k in ks:
            x = math.exp(k * log_q)
            if x > 0.0:
                xs.update((x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)))
        return np.array(sorted(xs))

    @pytest.mark.parametrize("p", [0.5, 0.1, 0.03, 6e-5, 1e-9])
    def test_integer_boundaries(self, p):
        log_q = math.log(1.0 - p)
        ks = [*range(400), *range(997, 400 * 997, 997)]
        self._assert_exact(self._boundaries(log_q, ks), log_q, 2.0**62)

    def test_quotients_above_two_to_the_53(self):
        # p near float resolution: every quotient exceeds 2^53 (integral
        # doubles), so all of them take the per-draw fallback.
        log_q = math.log(1.0 - 1e-16)
        x = np.exp(-np.linspace(2.0, 400.0, 257))
        assert (np.log(x) / log_q > 2.0**53).all()
        self._assert_exact(x, log_q, 2.0**62)

    def test_quotients_above_the_pair_cap(self):
        log_q = math.log(0.5)
        x = self._boundaries(log_q, range(0, 1100, 7))
        assert (np.log(x) / log_q > 1000).any()
        self._assert_exact(x, log_q, 1000.0)

    def test_random_draws(self):
        rng = np.random.RandomState(5)
        x = 1.0 - rng.random_sample(20000)
        for p in (0.3, 1e-3, 1e-7):
            self._assert_exact(x, math.log(1.0 - p), float(10**12))


class TestGeneratedBulkIdentity:
    """Bulk and loop builds agree on generated ``(n, p, seed, connect)``."""

    @settings(max_examples=CSR_IDENTITY_EXAMPLES, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 3000),
        p=st.floats(0.0, 0.05),
        seed=st.integers(0, 2**32),
        connect=st.booleans(),
    )
    def test_bulk_matches_loop(self, n, p, seed, connect):
        if math.log(1.0 - p) == 0.0 and p > 0.0 and n > 1:
            # p below float resolution: both paths divide by zero.
            with pytest.raises(ZeroDivisionError):
                sparse_gnp_csr(n, p, seed=random.Random(seed), connect=connect)
            with pytest.raises(ZeroDivisionError):
                _sparse_gnp_csr_loop(n, p, random.Random(seed), connect)
            return
        _assert_paths_identical(n, p, seed, connect)


@st.composite
def _component_graphs(draw):
    """``(n, edges)`` with ``w < v`` per edge: few random edges (isolated
    vertices, many components) plus up to three paths along a random vertex
    order, which take the kernel several hook rounds (up to 6 at n = 300).
    """
    n = draw(st.integers(0, 300))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        order = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
        pairs += zip(order, order[1:])
    return n, [(max(a, b), min(a, b)) for a, b in pairs if a != b]


class TestComponentMinima:
    """The bulk build's component kernel gives SciPy's component minima."""

    @settings(max_examples=CSR_IDENTITY_EXAMPLES, deadline=None, derandomize=True)
    @given(graph=_component_graphs(), label=st.sampled_from([np.int32, np.int64]))
    def test_matches_scipy_components(self, graph, label):
        n, edges = graph
        v = np.array([a for a, _ in edges], dtype=label)
        w = np.array([b for _, b in edges], dtype=label)
        expect = []
        if n:
            arcs = coo_matrix((np.ones(len(edges)), (v, w)), shape=(n, n))
            _, comp = connected_components(arcs, directed=False)
            expect = np.sort(np.unique(comp, return_index=True)[1]).tolist()
        assert _component_minima(n, v, w) == expect
