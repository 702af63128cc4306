"""Dinic's maximum-flow algorithm over arbitrary hashable node labels.

Capacities may be ``int``, ``float`` or :class:`fractions.Fraction`.  The
densest-subgraph solver builds one network per solve through the bulk
:meth:`MaxFlowNetwork.indexed` constructor and gives it exact integer
capacities per density guess with :meth:`MaxFlowNetwork.set_capacities`.

The blocking-flow search is iterative (an explicit path stack with
current-arc pointers), so augmenting paths of any length are fine: there is
no recursion to run out of.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Sequence
from fractions import Fraction

Node = Hashable

Number = int | float | Fraction


class MaxFlowNetwork:
    """A flow network with a residual-graph representation for Dinic's algorithm.

    Arcs are stored flat in pairs: arc ``e`` (even) is the forward arc and
    ``e ^ 1`` its residual reverse arc.
    """

    def __init__(self) -> None:
        self._index: dict[Node, int] = {}
        self._labels: list[Node] = []
        # adjacency: node index -> list of arc ids
        self._adj: list[list[int]] = []
        # arcs stored flat: head node and residual capacity
        self._to: list[int] = []
        self._cap: list[Number] = []

    def _node(self, label: Node) -> int:
        if label not in self._index:
            self._index[label] = len(self._labels)
            self._labels.append(label)
            self._adj.append([])
        return self._index[label]

    def add_node(self, label: Node) -> None:
        self._node(label)

    def add_edge(self, u: Node, v: Node, capacity: Number) -> None:
        """Add a directed edge u -> v with the given capacity (residual cap 0 back)."""
        if capacity < 0:
            raise ValueError("capacities must be non-negative")
        ui, vi = self._node(u), self._node(v)
        self._adj[ui].append(len(self._to))
        self._to.append(vi)
        self._cap.append(capacity)
        self._adj[vi].append(len(self._to))
        self._to.append(ui)
        self._cap.append(0 if isinstance(capacity, int) else type(capacity)(0))

    @classmethod
    def indexed(
        cls, n: int, tails: Sequence[int], heads: Sequence[int]
    ) -> "MaxFlowNetwork":
        """A network on the nodes ``0..n-1`` with arcs ``tails[i] -> heads[i]``.

        Bulk construction from flat arc lists for callers that already work
        with dense indices (the densest-subgraph solver): no per-arc method
        call or hash-table lookup.  Every arc has capacity 0 until
        :meth:`set_capacities`.
        """
        net = cls()
        net._labels = list(range(n))
        net._index = dict(zip(net._labels, net._labels))
        adj: list[list[int]] = [[] for _ in range(n)]
        to = [0] * (2 * len(tails))
        to[0::2] = heads
        to[1::2] = tails
        for eid, u in enumerate(tails):
            adj[u].append(2 * eid)
        for eid, v in enumerate(heads):
            adj[v].append(2 * eid + 1)
        net._adj, net._to, net._cap = adj, to, [0] * (2 * len(tails))
        return net

    def set_capacities(self, caps: Sequence[int]) -> None:
        """Give the ``i``-th arc of an :meth:`indexed` network capacity ``caps[i]``.

        Capacities must be non-negative integers; this is not checked.  All
        flow is cleared; the arc layout (adjacency and heads) is kept, so a
        caller solving many flow problems on one layout builds it once.
        """
        cap = [0] * (2 * len(caps))
        cap[0::2] = caps
        self._cap = cap

    # ------------------------------------------------------------------- flow
    def max_flow(self, source: Node, sink: Node) -> Number:
        """Compute the maximum s-t flow value (the network keeps the residual state)."""
        s, t = self._node(source), self._node(sink)
        if s == t:
            raise ValueError("source and sink must differ")
        adj, to, cap = self._adj, self._to, self._cap
        flow: Number = 0
        while True:
            level = self._bfs_levels(s, t)
            if level[t] < 0:
                return flow
            it = [0] * len(adj)
            path: list[int] = []  # arc ids from s to u
            u = s
            while True:
                if u == t:
                    pushed = cap[path[0]]
                    for eid in path:
                        if cap[eid] < pushed:
                            pushed = cap[eid]
                    flow = flow + pushed
                    cut = -1
                    for k, eid in enumerate(path):
                        cap[eid] -= pushed
                        cap[eid ^ 1] += pushed
                        if cut < 0 and not cap[eid]:
                            cut = k
                    # Resume from the tail of the first saturated arc.
                    del path[cut:]
                    u = to[path[-1]] if path else s
                    continue
                arcs = adj[u]
                i = it[u]
                next_level = level[u] + 1
                while i < len(arcs):
                    eid = arcs[i]
                    if cap[eid] > 0 and level[to[eid]] == next_level:
                        break
                    i += 1
                it[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif path:
                    # Dead end: retreat and retire the arc that led here.
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break

    def min_cut_source_side(self, source: Node) -> set[Node]:
        """After :meth:`max_flow`, the set of labels reachable from the source
        in the residual graph (i.e. the source side of a minimum cut)."""
        s = self._node(source)
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self._adj[u]:
                if self._cap[eid] > 0 and self._to[eid] not in seen:
                    seen.add(self._to[eid])
                    queue.append(self._to[eid])
        return {self._labels[i] for i in seen}

    # ---------------------------------------------------------------- internals
    def _bfs_levels(self, s: int, t: int) -> list[int]:
        adj, to, cap = self._adj, self._to, self._cap
        level = [-1] * len(adj)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            next_level = level[u] + 1
            for eid in adj[u]:
                v = to[eid]
                if cap[eid] > 0 and level[v] < 0:
                    level[v] = next_level
                    if v == t:
                        # Every vertex nearer than t is labelled; the rest
                        # cannot lie on a shortest augmenting path.
                        return level
                    queue.append(v)
        return level


def max_flow_min_cut(
    edges: list[tuple[Node, Node, Number]], source: Node, sink: Node
) -> tuple[Number, set[Node]]:
    """One-shot helper: build a network, compute max flow and a min cut.

    Returns ``(flow_value, source_side_of_min_cut)``.
    """
    net = MaxFlowNetwork()
    net.add_node(source)
    net.add_node(sink)
    for u, v, c in edges:
        net.add_edge(u, v, c)
    value = net.max_flow(source, sink)
    return value, net.min_cut_source_side(source)
