"""Graph-family registry: build deterministic instances from spec tuples.

A graph inside a :class:`~repro.experiments.spec.ScenarioSpec` is described
by a positional tuple ``(family, *args)`` — e.g. ``("connected_gnp", 40,
0.25, 4)`` — mirroring the generator signatures, so the spec stays a pure
primitive structure.  :func:`build_graph` rebuilds the instance inside
whichever worker process runs the scenario; all generators are seeded, so
the same tuple always yields the same graph.

Frozen-CSR families are additionally memoized per worker process: scenarios
sharing a family tuple (the E23 lowering twins in
particular) reuse the same immutable
:class:`~repro.graphs.topology.CompiledTopology` instead of regenerating a
mega-scale graph once per scenario.  Only :class:`FrozenGraph` results are
cached — mutable :class:`~repro.graphs.graph.Graph` instances may be edited
by scenario runners (e.g. weight assignment in the spanner tier), so they
are always rebuilt, unless a caller that never edits its graph asks for
:func:`build_frozen_graph`, which memoizes a mutable family's frozen view
in the same bounded memo.  Determinism is unaffected: a memo hit returns
the byte-identical arrays the generator would have rebuilt from the same
seed.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Sequence
from typing import Any

from repro.graphs.topology import FrozenGraph

from repro.graphs import (
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
    overlapping_stars_graph,
    path_graph,
    random_digraph,
    random_tournament,
    sparse_gnp_csr,
    sparse_gnp_graph,
)

FAMILIES: dict[str, Callable[..., Any]] = {
    # undirected
    "gnp": lambda n, p, seed: gnp_random_graph(n, p, seed=seed),
    "connected_gnp": lambda n, p, seed: connected_gnp_graph(n, p, seed=seed),
    "complete": complete_graph,
    "complete_bipartite": complete_bipartite_graph,
    "cluster": lambda clusters, size, seed: cluster_graph(clusters, size, seed=seed),
    "overlapping_stars": lambda stars, leaves, overlap, seed: overlapping_stars_graph(
        stars, leaves, overlap, seed=seed
    ),
    "barabasi_albert": lambda n, m, seed: barabasi_albert_graph(n, m, seed=seed),
    # Preferential attachment scattered straight into frozen CSR arrays —
    # the O(n + m) power-law family for the E23 lowered-kernel scenarios.
    # Same distribution as "barabasi_albert", different instances per seed.
    "barabasi_albert_csr": lambda n, m, seed: barabasi_albert_csr(n, m, seed=seed),
    # O(n + m) geometric-skip sampler, connectivity-patched: the only G(n, p)
    # family usable at n in the tens of thousands (E23's anchor graphs).
    "sparse_connected_gnp": lambda n, p, seed: sparse_gnp_graph(
        n, p, seed=seed, connect=True
    ),
    # Same sampler, but scattered straight into frozen CSR arrays (no
    # dict-of-sets intermediate): E23's mega-scale family, usable at
    # n = 10^6 where the adjacency-dict representation's peak RSS would
    # dominate the run.
    "sparse_gnp_csr": lambda n, p, seed: sparse_gnp_csr(n, p, seed=seed, connect=True),
    "grid": grid_graph,
    "path": path_graph,
    "cycle": cycle_graph,
    # directed
    "random_digraph": lambda n, p, seed: random_digraph(n, p, seed=seed),
    "random_tournament": lambda n, seed: random_tournament(n, seed=seed),
    "bidirected_complete": lambda n: bidirect(complete_graph(n)),
}


#: Per-worker memo of frozen-CSR instances, canonical-spec-hash -> graph.
#: Bounded: mega-scale topologies are tens-of-MB objects, so only the most
#: recently built few are retained (insertion-ordered dict as a tiny LRU).
_TOPOLOGY_MEMO: dict[str, FrozenGraph] = {}
_TOPOLOGY_MEMO_CAP = 4


def family_spec_hash(family_spec: Sequence[Any]) -> str:
    """Canonical content hash of a ``(family, *args)`` tuple (the memo key).

    Same recipe as :meth:`~repro.experiments.spec.ScenarioSpec.spec_hash`:
    SHA-256 over the sorted-key, whitespace-free JSON form, truncated to 16
    hex digits.  Depends only on the tuple contents, never on tuple-vs-list
    shape or process state.
    """
    canonical = json.dumps(list(family_spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def clear_graph_memo() -> None:
    """Drop every memoized topology (tests and memory-sensitive callers)."""
    _TOPOLOGY_MEMO.clear()


def build_graph(family_spec: Sequence[Any]) -> Any:
    """Instantiate the graph described by a ``(family, *args)`` tuple.

    Immutable :class:`~repro.graphs.topology.FrozenGraph` results are
    memoized per worker process under :func:`family_spec_hash`; mutable
    graphs are rebuilt on every call (scenario runners may edit them).
    """
    key = family_spec_hash(family_spec)
    hit = _TOPOLOGY_MEMO.get(key)
    if hit is not None:
        return hit
    family, *args = family_spec
    try:
        builder = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise KeyError(f"unknown graph family {family!r} (known: {known})") from None
    graph = builder(*args)
    if isinstance(graph, FrozenGraph):
        _memoize(key, graph)
    return graph


def build_frozen_graph(family_spec: Sequence[Any]) -> FrozenGraph:
    """:func:`build_graph`'s instance as an immutable, memoized :class:`FrozenGraph`.

    For callers that never edit their graph: a mutable family's graph is
    built and frozen once per worker process and shares the memo (and
    :func:`clear_graph_memo`) with the frozen-CSR families, while
    :func:`build_graph` keeps returning a fresh mutable graph for it.
    """
    key = family_spec_hash(["frozen", *family_spec])
    hit = _TOPOLOGY_MEMO.get(key)
    if hit is not None:
        return hit
    graph = build_graph(family_spec)
    if not isinstance(graph, FrozenGraph):
        graph = FrozenGraph(graph.freeze())
        _memoize(key, graph)
    return graph


def _memoize(key: str, graph: FrozenGraph) -> None:
    """Store ``graph`` under ``key``, evicting the oldest entries past the cap."""
    while len(_TOPOLOGY_MEMO) >= _TOPOLOGY_MEMO_CAP:
        _TOPOLOGY_MEMO.pop(next(iter(_TOPOLOGY_MEMO)))
    _TOPOLOGY_MEMO[key] = graph
