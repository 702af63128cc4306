"""Seed discipline of every generator in :mod:`repro.graphs.generators`.

Each randomised generator must produce the identical edge set when called
twice with the same seed, and a different edge set for a different seed (on
parameters where a collision is combinatorially implausible).  Deterministic
constructions must be identical across calls.  Benchmarks rely on this to be
reproducible row by row.
"""

import pytest

from repro.graphs import generators as gen


def _weighted_edges(graph):
    return {e: graph.weight(*e) for e in graph.edges()}


DETERMINISTIC = [
    lambda: gen.path_graph(9),
    lambda: gen.cycle_graph(8),
    lambda: gen.star_graph(7),
    lambda: gen.complete_graph(6),
    lambda: gen.complete_bipartite_graph(3, 4),
    lambda: gen.grid_graph(4, 5),
    lambda: gen.bidirect(gen.cycle_graph(8)),
]

SEEDED = [
    lambda seed: gen.gnp_random_graph(30, 0.2, seed=seed),
    lambda seed: gen.connected_gnp_graph(30, 0.05, seed=seed),
    lambda seed: gen.sparse_gnp_graph(60, 0.05, seed=seed),
    lambda seed: gen.sparse_gnp_graph(60, 0.02, seed=seed, connect=True),
    lambda seed: gen.sparse_gnp_csr(60, 0.05, seed=seed),
    lambda seed: gen.barabasi_albert_graph(40, 2, seed=seed),
    lambda seed: gen.barabasi_albert_csr(40, 2, seed=seed),
    lambda seed: gen.cluster_graph(4, 6, seed=seed),
    lambda seed: gen.overlapping_stars_graph(4, 5, 2, seed=seed),
    lambda seed: gen.random_digraph(20, 0.15, seed=seed),
    lambda seed: gen.random_tournament(12, seed=seed),
    lambda seed: gen.orient_randomly(gen.complete_graph(10), seed=seed),
]


@pytest.mark.parametrize("factory", DETERMINISTIC)
def test_deterministic_constructions_are_stable(factory):
    assert set(factory().edges()) == set(factory().edges())


@pytest.mark.parametrize("factory", SEEDED)
def test_same_seed_same_edges(factory):
    assert set(factory(123).edges()) == set(factory(123).edges())


@pytest.mark.parametrize("factory", SEEDED)
def test_different_seed_different_edges(factory):
    assert set(factory(123).edges()) != set(factory(321).edges())


@pytest.mark.parametrize(
    "assigner",
    [
        lambda g, seed: gen.assign_random_weights(g, 1.0, 10.0, seed=seed),
        lambda g, seed: gen.assign_random_weights(g, 1, 9, seed=seed, integer=True),
        lambda g, seed: gen.assign_weights_from_choices(g, [1.0, 2.5, 7.0], seed=seed),
    ],
)
def test_weight_assignment_determinism(assigner):
    def build(seed):
        g = gen.gnp_random_graph(20, 0.3, seed=5)
        assigner(g, seed)
        return _weighted_edges(g)

    assert build(11) == build(11)
    assert build(11) != build(12)


def test_rng_instance_is_accepted():
    import random

    rng = random.Random(7)
    a = gen.gnp_random_graph(20, 0.2, seed=rng)
    b = gen.gnp_random_graph(20, 0.2, seed=random.Random(7))
    assert a.edge_set() == b.edge_set()
