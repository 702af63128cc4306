"""Graph generators used by the examples, tests and benchmark workloads.

Every generator takes an explicit ``seed`` (or ``rng``) so that benchmark
workloads are reproducible.  Generators that the paper's motivation relies on
(dense bipartite graphs where 2-spanners are the interesting regime, random
graphs, power-law graphs) are all provided, for undirected, directed and
weighted variants.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from collections.abc import Sequence

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.graphs.topology import (
    NEIGHBOR_TYPECODE,
    CompiledTopology,
    FrozenGraph,
    check_node_count,
)

#: Skip-stream doubles drawn per NumPy batch (bounds the transient columns).
_SKIP_BATCH = 1 << 16
#: Edges per block of the bulk build's component and scatter passes.
_EDGE_BLOCK = 1 << 16
#: The column half of a packed ``row << 32 | column`` arc key.
_LOW_HALF = (1 << 32) - 1


def _rng(seed: int | random.Random | None) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


# --------------------------------------------------------------------- basics
def path_graph(n: int) -> Graph:
    """Path on nodes ``0..n-1``."""
    g = Graph()
    g.add_nodes_from(range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """Cycle on nodes ``0..n-1`` (requires n >= 3)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def star_graph(n_leaves: int) -> Graph:
    """Star with centre 0 and leaves ``1..n_leaves``."""
    g = Graph()
    g.add_node(0)
    for i in range(1, n_leaves + 1):
        g.add_edge(0, i)
    return g


def complete_graph(n: int) -> Graph:
    g = Graph()
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph K_{a,b}.

    This is the paper's canonical example of a graph whose sparsest 2-spanner
    has Theta(n^2) edges in the worst case, i.e. where *approximating the
    minimum* 2-spanner (rather than targeting worst-case sparsity) matters.
    Left side: ``('L', i)``; right side: ``('R', j)``.
    """
    g = Graph()
    left = [("L", i) for i in range(a)]
    right = [("R", j) for j in range(b)]
    g.add_nodes_from(left)
    g.add_nodes_from(right)
    for u in left:
        for v in right:
            g.add_edge(u, v)
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    """2D grid; nodes are ``(r, c)`` tuples."""
    g = Graph()
    for r in range(rows):
        for c in range(cols):
            g.add_node((r, c))
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                g.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                g.add_edge((r, c), (r, c + 1))
    return g


# -------------------------------------------------------------- random graphs
def _chain_components(g: Graph, rng: random.Random) -> None:
    """Connect ``g`` in place by a random spanning path over component reps.

    Representatives (smallest-by-``repr`` member of each component) are
    shuffled and chained; a single-component graph consumes no randomness,
    so adding this patch never perturbs an already-connected fixed-seed
    instance.
    """
    components = g.connected_components()
    if len(components) > 1:
        reps = [sorted(comp, key=repr)[0] for comp in components]
        rng.shuffle(reps)
        for a, b in zip(reps, reps[1:]):
            g.add_edge(a, b)


def gnp_random_graph(n: int, p: float, seed: int | random.Random | None = None) -> Graph:
    """Erdos-Renyi G(n, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = _rng(seed)
    g = Graph()
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def sparse_gnp_graph(
    n: int, p: float, seed: int | random.Random | None = None, connect: bool = False
) -> Graph:
    """Erdos-Renyi G(n, p) in expected O(n + m) time via geometric skipping.

    :func:`gnp_random_graph` flips one coin per vertex pair — O(n^2) work
    that dominates everything else once n reaches the tens of thousands.
    This generator (Batagelj-Brandes 2005) walks the pairs in lexicographic
    order and jumps straight to the next edge with a geometric skip length,
    so the cost is proportional to the number of edges actually produced.
    It samples the *same distribution* as :func:`gnp_random_graph` but not
    the same graph for a given seed (the two consume randomness
    differently); large-n scenarios should treat it as its own family.

    With ``connect=True`` the components are afterwards chained by a random
    spanning path over component representatives, as in
    :func:`connected_gnp_graph` — E23's anchor scenarios use this so that
    flooding workloads provably converge.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = _rng(seed)
    g = Graph()
    g.add_nodes_from(range(n))
    if p > 0.0:
        if p >= 1.0:
            return complete_graph(n)
        log_q = math.log(1.0 - p)
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log(1.0 - rng.random()) / log_q)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                g.add_edge(v, w)
    if connect:
        _chain_components(g, rng)
    return g


def sparse_gnp_csr(
    n: int, p: float, seed: int | random.Random | None = None, connect: bool = True
) -> FrozenGraph:
    """G(n, p) built straight into CSR form — the mega-scale generator path.

    :func:`sparse_gnp_graph` runs the same geometric-skip sampler but stores
    the edges in a mutable :class:`~repro.graphs.graph.Graph`
    (dict-of-dicts adjacency) that ``freeze()`` then re-walks: at n = 10^6
    the intermediate adjacency costs gigabytes of peak RSS and most of the
    build time.  This generator streams the sampled edge endpoints into flat
    columns and scatters them directly into the
    :class:`~repro.graphs.topology.CompiledTopology` CSR arrays (64-bit
    offsets, 32-bit neighbour indices) — peak memory is O(m) words, no
    per-edge dict entries ever exist, and
    the result is returned as an immutable
    :class:`~repro.graphs.topology.FrozenGraph` the simulator stack consumes
    as-is (``freeze()`` is the identity).

    The sampler consumes randomness *identically* to
    :func:`sparse_gnp_graph`, so for the same seed the sampled edge set is
    the same; when that sample is already connected, the two generators
    produce exactly the same graph.  Connectivity patching differs: the
    component representatives are the minimum-index members (from a
    hook-and-compress kernel in bulk, a union-find in the loop) rather than
    the smallest-by-``repr`` members of a component scan of the built graph, so
    disconnected samples are chained along a different — but equally
    random — spanning path; treat ``connect=True`` instances as their own
    scenario family, as E23 does.  ``connect`` defaults to True because the
    mega-scale flooding workloads require it.

    Dense regimes are out of scope: ``p`` must be in ``[0, 1)`` (a complete
    graph in CSR form at this scale would be astronomically large).  Nodes
    are labelled ``0..n-1`` and every edge has weight 1.0.

    For a plain :class:`random.Random` or seed the build runs in bulk
    (:func:`_sparse_gnp_csr_numpy`): same doubles, the same skip lengths
    (bulk logs with an exact per-draw fallback), byte-identical CSR arrays,
    and the caller's RNG left in exactly the state the stdlib loop
    (:func:`_sparse_gnp_csr_loop`) leaves.
    Any other RNG (a :class:`random.Random` subclass, whose draws the bulk
    path cannot replay) takes the loop.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1) for the CSR generator")
    check_node_count(n)
    rng = _rng(seed)
    if rng.__class__ is random.Random:
        return _sparse_gnp_csr_numpy(n, p, rng, connect)
    return _sparse_gnp_csr_loop(n, p, rng, connect)


def _sparse_gnp_csr_loop(
    n: int, p: float, rng: random.Random, connect: bool
) -> FrozenGraph:
    """:func:`sparse_gnp_csr` as a stdlib loop; the bulk build is pinned to it."""
    esrc = array("q")
    edst = array("q")
    if p > 0.0:
        # Batagelj-Brandes geometric skipping, bit-for-bit the recipe of
        # sparse_gnp_graph: pairs walked in lexicographic (v, w) order with
        # w < v, one log per sampled edge.
        log_q = math.log(1.0 - p)
        v, w = 1, -1
        esrc_append = esrc.append
        edst_append = edst.append
        rand = rng.random
        log = math.log
        while v < n:
            w += 1 + int(log(1.0 - rand()) / log_q)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                esrc_append(v)
                edst_append(w)

    chain: list[tuple[int, int]] = []
    if connect and n > 1:
        # Union-find with path halving; attaching the larger root under the
        # smaller makes each final root the minimum member of its component,
        # so representatives come out identical to a component scan.
        parent = array("q", range(n))
        for k in range(len(esrc)):
            a, b = esrc[k], edst[k]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
        reps = [i for i in range(n) if parent[i] == i]
        if len(reps) > 1:
            rng.shuffle(reps)
            chain = list(zip(reps, reps[1:]))

    # Two-pass counting scatter into CSR.  Core edges arrive in lex (v, w)
    # order with w < v: scattering all the w-into-row-v entries first and
    # all the v-into-row-w entries second leaves every row sorted ascending
    # (smaller-than-i neighbours, each batch ascending) with no sort pass —
    # the order :meth:`CompiledTopology.sorted_neighbor_rows` would impose.
    degrees = array("q", [0]) * n
    for k in range(len(esrc)):
        degrees[esrc[k]] += 1
        degrees[edst[k]] += 1
    for a, b in chain:
        degrees[a] += 1
        degrees[b] += 1

    indptr = array("q", [0]) * (n + 1)
    total = 0
    for i in range(n):
        indptr[i] = total
        total += degrees[i]
    indptr[n] = total

    indices = array(NEIGHBOR_TYPECODE, [0]) * total
    cursor = array("q", indptr[:n])
    for k in range(len(esrc)):
        v = esrc[k]
        indices[cursor[v]] = edst[k]
        cursor[v] += 1
    for k in range(len(esrc)):
        w = edst[k]
        indices[cursor[w]] = esrc[k]
        cursor[w] += 1
    if chain:
        touched = set()
        for a, b in chain:
            indices[cursor[a]] = b
            cursor[a] += 1
            indices[cursor[b]] = a
            cursor[b] += 1
            touched.add(a)
            touched.add(b)
        for i in touched:
            row = sorted(indices[indptr[i] : indptr[i + 1]])
            indices[indptr[i] : indptr[i + 1]] = array(NEIGHBOR_TYPECODE, row)

    edge_count = len(esrc) + len(chain)
    topo = CompiledTopology(list(range(n)), indptr, indices, edge_count, directed=False)
    return FrozenGraph(topo)


def _skip_lengths(x, log_q: float, logs, cap: float):
    """``min(int(math.log(x) / log_q), cap)`` per draw, from a bulk log column.

    ``logs`` is NumPy's ``log`` of ``x`` (overwritten with the quotients).
    NumPy's ``log`` may differ from libm's ``math.log`` — the one the stdlib
    loop calls — by an ulp or so, and such a difference can change a
    truncation only where the quotient lies next to an integer.  So every
    quotient within ``1e-9 * (q + 1)`` of an integer (millions of ulps, far
    wider than any libm discrepancy; quotients above 2^53 are integers and
    always qualify) is recomputed with the per-draw ``math.log``; the rest
    truncate to the same integer either way.  Skips are clamped to ``cap``
    (the pair count) before the ``int64`` cast — a skip that long ends the
    stream either way.
    """
    q = logs
    np.divide(q, log_q, out=q)
    near = np.abs(q - np.rint(q)) <= (q + 1.0) * 1e-9
    idx = np.flatnonzero(near)
    if len(idx):
        log = math.log
        q[idx] = [log(v) / log_q for v in x[idx].tolist()]
    np.minimum(q, cap, out=q)
    return q.astype(np.int64)


def _edge_capacity(p: float, pairs: int) -> int:
    """Length the bulk build reserves for the skip stream's edge keys.

    The edge count is Binomial(pairs, p): its mean plus eight standard
    deviations is exceeded with negligible probability, and
    :func:`_gnp_edges` grows the column if it ever is.  Reserved but
    unwritten pages are never touched, so they cost no resident memory.
    """
    mean = p * pairs
    return int(mean + 8.0 * math.sqrt(mean)) + 64


def _decode_pairs(pos: np.ndarray) -> np.ndarray:
    """The packed keys ``v << 32 | w`` of the pairs numbered ``pos`` (in place).

    Pair ``(v, w)``, ``w < v``, is numbered ``v(v-1)/2 + w``; ``v`` comes
    from a float square root with an exact integer fix-up.
    """
    v = ((1.0 + np.sqrt(8.0 * pos + 1.0)) * 0.5).astype(np.int64)
    while True:
        base = v * (v - 1) // 2
        over = base > pos
        if over.any():
            v[over] -= 1
            continue
        under = base + v <= pos
        if under.any():
            v[under] += 1
            continue
        break
    pos -= base
    v <<= 32
    pos |= v
    return pos


def _gnp_edges(n: int, p: float, rng: random.Random) -> np.ndarray:
    """The geometric-skip stream's edges ``(v, w)``, ``w < v``, drawn in bulk.

    Returns one ``int64`` column of packed keys ``v << 32 | w`` (see
    :func:`_edge_columns`) in the lexicographic ``(v, w)`` order the stdlib
    loop walks, i.e. ascending.  A legacy NumPy ``RandomState`` loaded with
    ``rng``'s MT19937 state yields exactly ``rng.random()``'s doubles; the
    skip lengths take one NumPy ``log`` over each batch, with the per-draw
    ``math.log`` recomputing only the draws where the two logs could
    truncate differently (:func:`_skip_lengths`).  Each batch is decoded
    straight into the key column, so no other stream-length column ever
    exists.  ``rng`` is finally advanced by exactly the stdlib loop's draw
    count: one per sampled edge plus the draw that overshoots the last pair.
    """
    pairs = n * (n - 1) // 2
    if p == 0.0 or not pairs:
        return np.empty(0, dtype=np.int64)
    log_q = math.log(1.0 - p)
    if log_q == 0.0:
        # p below float resolution: the stdlib loop's first draw divides by 0.
        raise ZeroDivisionError("float division by zero")
    version, internal, gauss = rng.getstate()
    mt = np.random.RandomState()
    mt.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
    batch = min(_SKIP_BATCH, int(p * pairs * 1.01) + 64)
    cap = float(pairs)
    keys = np.empty(_edge_capacity(p, pairs), dtype=np.int64)
    m = 0
    last = -1
    while True:
        before = mt.get_state()
        u = mt.random_sample(batch)
        np.subtract(1.0, u, out=u)
        pos = _skip_lengths(u, log_q, np.log(u), cap)
        pos += 1
        np.cumsum(pos, out=pos)
        pos += last
        past = pos >= pairs
        done = bool(past.any())
        if done:
            k = int(past.argmax())
            pos = pos[:k]
        else:
            last = int(pos[-1])
        if m + len(pos) > len(keys):
            keys = np.concatenate((keys[:m], np.empty(m + len(pos), dtype=np.int64)))
        keys[m : m + len(pos)] = _decode_pairs(pos)
        m += len(pos)
        if done:
            break
    # Rewind to the last batch and redraw only the doubles the loop used.
    mt.set_state(before)
    mt.random_sample(k + 1)
    _, key, index = mt.get_state()[:3]
    rng.setstate((version, (*key.tolist(), int(index)), gauss))
    return keys[:m]


def _edge_columns(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy ``int32`` views of the high and low halves of packed keys."""
    halves = keys.view(np.int32)
    high = 1 if sys.byteorder == "little" else 0
    return halves[high::2], halves[1 - high :: 2]


def _component_minima(n: int, v: np.ndarray, w: np.ndarray) -> list[int]:
    """Minimum member of every connected component, ascending.

    The graph is ``0..n-1`` with edges ``(v[i], w[i])``, ``w < v``.
    Hook-and-compress: every root with an edge into a lower root is hooked
    onto the lowest such root (``np.minimum.at``), then pointer jumping
    makes every vertex point at its root.  Hooks only ever lower a parent,
    so ``parent[x] <= x`` throughout and a component's minimum member is
    never hooked: once no edge joins two roots it is the component's one
    root.  Each round merges every tree with a lower neighbour, and a
    locally minimal tree merges the round after its neighbours do, so the
    tree count at least halves every two rounds.

    A round reads the edges in blocks of :data:`_EDGE_BLOCK` and hooks each
    block's crossing pairs before reading the next, so no temporary is
    edge-count long.  After a round's pointer jumping every non-root points
    at its root and hooks rewrite root entries only, so a later block of
    the round reads either that root or the lower root it was hooked onto:
    every hook still joins two roots of the round's start, downwards.
    """
    parent = np.arange(n, dtype=v.dtype)
    while True:
        hooked = False
        for k in range(0, len(v), _EDGE_BLOCK):
            a = parent[v[k : k + _EDGE_BLOCK]]
            b = parent[w[k : k + _EDGE_BLOCK]]
            cross = a != b
            if cross.any():
                a = a[cross]
                b = b[cross]
                np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
                hooked = True
        if not hooked:
            break
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    return np.flatnonzero(parent == np.arange(n, dtype=parent.dtype)).tolist()


def _counts(n: int, col: np.ndarray) -> np.ndarray:
    """How often each of ``0..n-1`` occurs in ``col``, counted block by block.

    ``np.bincount`` would first copy a strided ``int32`` column to ``intp``.
    """
    counts = np.zeros(n, dtype=np.int64)
    for k in range(0, len(col), _EDGE_BLOCK):
        np.add.at(counts, col[k : k + _EDGE_BLOCK], 1)
    return counts


def _scatter_rows(indices: np.ndarray, offsets: np.ndarray, keys: np.ndarray) -> None:
    """Write each ascending packed arc key ``row << 32 | column`` into its row.

    The ``k``-th key goes to ``indices[offsets[row] + k]``, where
    ``offsets[row]`` is the row's first free slot minus the position of
    the row's first key.  Runs over blocks of :data:`_EDGE_BLOCK` keys.
    """
    for k in range(0, len(keys), _EDGE_BLOCK):
        block = keys[k : k + _EDGE_BLOCK]
        dest = offsets[block >> 32]
        dest += np.arange(k, k + len(block))
        indices[dest] = block & _LOW_HALF


def _swap_halves(keys: np.ndarray) -> None:
    """Turn every packed key ``high << 32 | low`` into ``low << 32 | high``."""
    for k in range(0, len(keys), _EDGE_BLOCK):
        block = keys[k : k + _EDGE_BLOCK]
        block[:] = (block & _LOW_HALF) << 32 | block >> 32


def _sort_rows(indices: np.ndarray, indptr: np.ndarray, rows: np.ndarray, n: int) -> None:
    """Sort the CSR rows ``rows`` (ascending, distinct) in place."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    pos = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    pos += np.arange(len(pos))
    keys = np.repeat(np.arange(len(rows), dtype=np.int64) * n, lens)
    keys += indices[pos]
    keys.sort()
    indices[pos] = keys % n


def _sparse_gnp_csr_numpy(
    n: int, p: float, rng: random.Random, connect: bool
) -> FrozenGraph:
    """:func:`sparse_gnp_csr`, built with array kernels instead of loops.

    The skip stream (:func:`_gnp_edges`) arrives as one ascending column
    of packed ``v << 32 | w`` edge keys; the connectivity patch takes its
    component minima from :func:`_component_minima` (the union-find's
    roots, since both pick each component's minimum index) and shuffles
    them with ``rng`` like the stdlib path.  The CSR arrays are the
    stdlib's two-pass scatter: the keys in stream order put every ``w``
    into row ``v``, then, with their halves swapped and sorted in place,
    every ``v`` into row ``w`` (:func:`_scatter_rows`), both written
    through NumPy views straight into the ``array`` buffers the topology
    keeps; the rows the chain touched are re-sorted.  The largest columns
    alive at once are the keys and ``indices``.
    """
    keys = _gnp_edges(n, p, rng)
    v, w = _edge_columns(keys)
    reps = _component_minima(n, v, w) if connect and n > 1 else []
    chain = np.empty(0, dtype=np.int64)
    if len(reps) > 1:
        rng.shuffle(reps)
        chain = np.array(reps, dtype=np.int64)
    a, b = chain[:-1], chain[1:]
    small = _counts(n, v)  # neighbours below each vertex
    large = _counts(n, w)  # neighbours above it
    del v, w
    indptr = array("q", [0]) * (n + 1)
    indptr_np = np.frombuffer(indptr, dtype=np.int64)
    degrees = small + large
    degrees[a] += 1  # the entries of a are distinct, and so are b's
    degrees[b] += 1
    np.cumsum(degrees, out=indptr_np[1:])
    del degrees
    indices = array(NEIGHBOR_TYPECODE, [0]) * int(indptr_np[n])
    indices_np = np.frombuffer(indices, dtype=np.int32)
    _scatter_rows(indices_np, indptr_np[:n] - (np.cumsum(small) - small), keys)
    _swap_halves(keys)
    keys.sort()
    _scatter_rows(indices_np, indptr_np[:n] + small - (np.cumsum(large) - large), keys)
    edge_count = len(keys) + len(a)
    del keys
    if len(a):
        # Chain arcs go after each row's core arcs; those rows are re-sorted.
        end = indptr_np[:n] + small + large
        indices_np[end[a]] = b
        end[a] += 1
        indices_np[end[b]] = a
        _sort_rows(indices_np, indptr_np, np.sort(chain), n)
    del small, large  # before the label list and degree column are allocated
    topo = CompiledTopology(list(range(n)), indptr, indices, edge_count, directed=False)
    return FrozenGraph(topo)


def barabasi_albert_csr(
    n: int, m: int, seed: int | random.Random | None = None
) -> FrozenGraph:
    """Preferential attachment built straight into CSR form, in O(n + m) time.

    :func:`barabasi_albert_graph` stores the growing graph in a mutable
    dict-of-dicts adjacency and samples targets with ``rng.choice`` over a
    Python list — fine at demo sizes, but the intermediate adjacency and
    per-edge dict entries dominate once n reaches the hundreds of thousands.
    This generator keeps the classic repeated-endpoints trick (one uniform
    index into the endpoint multiset is a degree-proportional draw) but
    streams every sampled edge into flat columns and scatters them directly
    into :class:`~repro.graphs.topology.CompiledTopology` CSR arrays (64-bit
    offsets, 32-bit neighbour indices), exactly like :func:`sparse_gnp_csr`:
    total work and peak memory are O(n + m_attach) words, and the result is
    an immutable
    :class:`~repro.graphs.topology.FrozenGraph`.

    Same distribution as :func:`barabasi_albert_graph`, *not* the same graph
    for a given seed (targets are drawn by index rather than ``choice`` and
    deduplicated per node in sorted order) — treat it as its own scenario
    family, as the E23 tier does.  The graph is always connected (the seed
    clique on ``m + 1`` vertices plus one attachment batch per later
    vertex), nodes are labelled ``0..n-1`` and every edge has weight 1.0.
    The seeded-determinism contract of this module applies: the same
    ``(n, m, seed)`` always yields byte-identical CSR arrays.
    """
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    check_node_count(n)
    rng = _rng(seed)
    esrc = array("q")
    edst = array("q")
    # Endpoint multiset: each undirected edge contributes both endpoints, so
    # a uniform index draw lands on vertex v with probability deg(v)/2E.
    repeated = array("q")
    # Seed clique on 0..m, streamed in lex (src, dst) order with dst < src —
    # the order the scatter below relies on to leave CSR rows sorted.
    for src in range(1, m + 1):
        for dst in range(src):
            esrc.append(src)
            edst.append(dst)
            repeated.append(src)
            repeated.append(dst)
    randrange = rng.randrange
    repeated_append = repeated.append
    esrc_append = esrc.append
    edst_append = edst.append
    for new in range(m + 1, n):
        # Degree-proportional draws against the multiset as it stood before
        # ``new`` arrived; set-dedup retries cost expected O(1) per edge.
        targets: set[int] = set()
        size = len(repeated)
        while len(targets) < m:
            targets.add(repeated[randrange(size)])
        for t in sorted(targets):
            esrc_append(new)
            edst_append(t)
            repeated_append(t)
            repeated_append(new)

    # Two-pass counting scatter into CSR (the sparse_gnp_csr recipe): edges
    # arrive in lex (src, dst) order with dst < src, so scattering all the
    # dst-into-row-src entries first and the src-into-row-dst entries second
    # leaves every row sorted ascending with no sort pass.
    degrees = array("q", [0]) * n
    for k in range(len(esrc)):
        degrees[esrc[k]] += 1
        degrees[edst[k]] += 1

    indptr = array("q", [0]) * (n + 1)
    total = 0
    for i in range(n):
        indptr[i] = total
        total += degrees[i]
    indptr[n] = total

    indices = array(NEIGHBOR_TYPECODE, [0]) * total
    cursor = array("q", indptr[:n])
    for k in range(len(esrc)):
        v = esrc[k]
        indices[cursor[v]] = edst[k]
        cursor[v] += 1
    for k in range(len(esrc)):
        w = edst[k]
        indices[cursor[w]] = esrc[k]
        cursor[w] += 1

    topo = CompiledTopology(list(range(n)), indptr, indices, len(esrc), directed=False)
    return FrozenGraph(topo)


def connected_gnp_graph(
    n: int, p: float, seed: int | random.Random | None = None
) -> Graph:
    """G(n, p) made connected by adding a random spanning path over components.

    Spanner problems in the paper are stated for connected graphs; this
    generator guarantees connectivity without significantly biasing density.
    """
    rng = _rng(seed)
    g = gnp_random_graph(n, p, rng)
    _chain_components(g, rng)
    return g


def barabasi_albert_graph(
    n: int, m: int, seed: int | random.Random | None = None
) -> Graph:
    """Preferential-attachment (power-law degree) graph.

    Each new node attaches to ``m`` existing nodes chosen proportionally to
    their degree.  Produces the skewed-degree topologies where the paper's
    O(log Delta) factors differ visibly from O(log n).
    """
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    rng = _rng(seed)
    g = Graph()
    g.add_nodes_from(range(m + 1))
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            g.add_edge(i, j)
    repeated: list[int] = [v for v in range(m + 1) for _ in range(m)]
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for t in targets:
            g.add_edge(new, t)
            repeated.append(t)
            repeated.append(new)
    return g


def cluster_graph(
    n_clusters: int,
    cluster_size: int,
    p_intra: float = 0.8,
    p_inter: float = 0.02,
    seed: int | random.Random | None = None,
) -> Graph:
    """Planted-partition graph: dense clusters, sparse inter-cluster edges.

    A natural workload for 2-spanners: the optimum keeps roughly one star per
    cluster while a naive solution keeps all intra-cluster edges.
    """
    rng = _rng(seed)
    n = n_clusters * cluster_size
    g = Graph()
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            same = (i // cluster_size) == (j // cluster_size)
            p = p_intra if same else p_inter
            if rng.random() < p:
                g.add_edge(i, j)
    components = g.connected_components()
    if len(components) > 1:
        reps = [sorted(comp)[0] for comp in components]
        for a, b in zip(reps, reps[1:]):
            g.add_edge(a, b)
    return g


def overlapping_stars_graph(
    n_centres: int, leaves_per_centre: int, overlap: int, seed: int | random.Random | None = None
) -> Graph:
    """Centres sharing ``overlap`` leaves with the next centre, plus leaf-leaf edges.

    Designed so that dense stars overlap in the edges they 2-span, exercising
    the paper's symmetry-breaking voting scheme.
    """
    rng = _rng(seed)
    if overlap >= leaves_per_centre:
        raise ValueError("overlap must be smaller than leaves_per_centre")
    g = Graph()
    leaf_id = 0
    prev_leaves: list[tuple[str, int]] = []
    for c in range(n_centres):
        centre = ("C", c)
        g.add_node(centre)
        leaves = list(prev_leaves[-overlap:]) if prev_leaves else []
        while len(leaves) < leaves_per_centre:
            leaf = ("V", leaf_id)
            leaf_id += 1
            leaves.append(leaf)
        for leaf in leaves:
            g.add_edge(centre, leaf)
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                if rng.random() < 0.5:
                    g.add_edge(leaves[i], leaves[j])
        prev_leaves = leaves
    components = g.connected_components()
    if len(components) > 1:
        reps = [sorted(comp, key=repr)[0] for comp in components]
        for a, b in zip(reps, reps[1:]):
            g.add_edge(a, b)
    return g


# ---------------------------------------------------------------- directed
def random_digraph(n: int, p: float, seed: int | random.Random | None = None) -> DiGraph:
    """Each ordered pair (u, v), u != v, is an arc independently with prob. p."""
    rng = _rng(seed)
    g = DiGraph()
    g.add_nodes_from(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                g.add_edge(u, v)
    return g


def random_tournament(n: int, seed: int | random.Random | None = None) -> DiGraph:
    """Complete graph with each edge oriented uniformly at random."""
    rng = _rng(seed)
    g = DiGraph()
    g.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                g.add_edge(u, v)
            else:
                g.add_edge(v, u)
    return g


def orient_randomly(graph: Graph, seed: int | random.Random | None = None) -> DiGraph:
    """Orient each undirected edge in a random direction (keeping weights)."""
    rng = _rng(seed)
    d = DiGraph()
    d.add_nodes_from(graph.nodes())
    for u, v in graph.edges():
        w = graph.weight(u, v)
        if rng.random() < 0.5:
            d.add_edge(u, v, w)
        else:
            d.add_edge(v, u, w)
    return d


def bidirect(graph: Graph) -> DiGraph:
    """Replace each undirected edge by two anti-parallel arcs."""
    d = DiGraph()
    d.add_nodes_from(graph.nodes())
    for u, v in graph.edges():
        w = graph.weight(u, v)
        d.add_edge(u, v, w)
        d.add_edge(v, u, w)
    return d


# ---------------------------------------------------------------- weights
def assign_random_weights(
    graph: Graph | DiGraph,
    low: float = 1.0,
    high: float = 10.0,
    seed: int | random.Random | None = None,
    integer: bool = False,
) -> None:
    """Assign i.i.d. uniform weights in ``[low, high]`` to every edge, in place."""
    if low > high:
        raise ValueError("low must not exceed high")
    rng = _rng(seed)
    for u, v in list(graph.edges()):
        w = rng.uniform(low, high)
        if integer:
            w = float(rng.randint(int(low), int(high)))
        graph.set_weight(u, v, w)


def assign_weights_from_choices(
    graph: Graph | DiGraph,
    choices: Sequence[float],
    seed: int | random.Random | None = None,
) -> None:
    """Assign each edge a weight drawn uniformly from ``choices``, in place."""
    if not choices:
        raise ValueError("choices must be non-empty")
    rng = _rng(seed)
    for u, v in list(graph.edges()):
        graph.set_weight(u, v, float(rng.choice(list(choices))))
