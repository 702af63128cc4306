"""Candidate-star selection (paper Section 4.1).

A candidate vertex must propose a star of density at least ``rho~ / 4``
(``rho~ / 8`` in the directed variant).  Which such star is chosen matters:
Claim 4.4 / Lemma 4.5 — the O(log n log Delta) round bound — rely on the star
chosen while the rounded density stays fixed being *contained* in the star
chosen the previous iteration.  This module implements that stateful rule:

* first time a vertex becomes a candidate at a given rounded density: start
  from the densest star and greedily *augment* it with single leaves, or with
  disjoint stars of density >= threshold, as long as the density stays above
  the threshold;
* while the rounded density does not change: reuse the previous star if it is
  still dense enough, otherwise shrink to its densest sub-star and re-augment
  using only leaves of the previous star.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from repro.spanner.stars import densest_star, spanned_edges, star_density

Node = Hashable
Edge = tuple[Node, Node]

_ONE = Fraction(1)
_EMPTY: frozenset[Node] = frozenset()


@dataclass
class StarSelectionState:
    """Per-vertex memory carried between iterations of the 2-spanner algorithm."""

    last_rho: Fraction | None = None
    last_leaves: frozenset[Node] | None = None
    last_iteration: int | None = None
    fallback_count: int = 0
    history: list[frozenset[Node]] = field(default_factory=list)


def _augment(
    leaves: frozenset[Node],
    pool: set[Node],
    candidate_edges: set[Edge],
    leaf_weights: dict[Node, Fraction] | None,
    threshold: Fraction,
    method: str,
) -> frozenset[Node]:
    """Greedy augmentation: add single leaves, else disjoint dense stars.

    Mirrors Section 4.1: keep adding an edge (a single leaf) while the density
    of the enlarged star stays at least ``threshold``; when no single leaf
    works, add a *disjoint* star of density at least ``threshold`` (computed
    on the remaining pool); stop when neither exists.
    """
    current = set(leaves)
    # Adjacency within the candidate edges, for cheap incremental density updates.
    adjacency: dict[Node, set[Node]] = {}
    for u, w in candidate_edges:
        adjacency.setdefault(u, set()).add(w)
        adjacency.setdefault(w, set()).add(u)

    if leaf_weights is None:
        weights = dict.fromkeys(pool, _ONE)
    else:
        weights = {v: Fraction(leaf_weights.get(v, 1)) for v in pool}
    # Integer weights (each times the lcm of the denominators): the density
    # test spanned / (weight / scale) >= p / q becomes
    # spanned * scale * q >= p * weight, with no Fraction built per leaf.
    scale = lcm(*(w.denominator for w in weights.values()))
    int_weight = {v: w.numerator * (scale // w.denominator) for v, w in weights.items()}
    lhs_factor = scale * threshold.denominator
    rhs_factor = threshold.numerator
    order = sorted(pool, key=repr)

    spanned_count = len(spanned_edges(current, candidate_edges))
    total_weight = sum(int_weight[v] for v in current)

    while True:
        # 1. Try a single-leaf addition keeping the density above the threshold.
        best_leaf = None
        best_gain = -1
        for u in order:
            if u in current:
                continue
            gain = len(adjacency.get(u, _EMPTY) & current)
            new_weight = total_weight + int_weight[u]
            if new_weight <= 0:
                continue
            if (spanned_count + gain) * lhs_factor >= rhs_factor * new_weight:
                if gain > best_gain:
                    best_gain = gain
                    best_leaf = u
        if best_leaf is not None:
            current.add(best_leaf)
            spanned_count += best_gain
            total_weight += int_weight[best_leaf]
            continue

        # 2. Try a disjoint star of density at least the threshold.
        remaining = pool - current
        if not remaining:
            break
        remaining_edges = {
            e for e in candidate_edges if e[0] in remaining and e[1] in remaining
        }
        remaining_weights = (
            None if leaf_weights is None else {v: weights[v] for v in remaining}
        )
        disjoint, disjoint_density = densest_star(
            remaining, remaining_edges, remaining_weights, method=method
        )
        if disjoint and disjoint_density >= threshold:
            current |= disjoint
            spanned_count = len(spanned_edges(current, candidate_edges))
            total_weight = sum(int_weight[v] for v in current)
            continue
        break
    return frozenset(current)


def choose_candidate_star(
    pool: set[Node],
    candidate_edges: set[Edge],
    rho_rounded: Fraction,
    state: StarSelectionState,
    iteration: int,
    leaf_weights: dict[Node, Fraction] | None = None,
    threshold_divisor: int = 4,
    method: str = "exact",
    follow_paper_rule: bool = True,
    force_include: Iterable[Node] = (),
    pool_densest: frozenset[Node] | None = None,
) -> frozenset[Node]:
    """Choose the star a candidate proposes this iteration (Section 4.1).

    ``pool`` is the allowed leaf set (all neighbours, or the server-neighbours
    in the client-server variant); ``candidate_edges`` is ``H_v`` restricted
    to the pool; ``rho_rounded`` the vertex's current rounded density.
    ``force_include`` lists leaves that are always added to the result (the
    weighted variant force-includes zero-weight leaves, which never lower the
    density).  Setting ``follow_paper_rule=False`` ignores the cross-iteration
    containment rule and always returns a freshly augmented densest star —
    the E15 ablation showing why the paper's rule matters for round counts.
    ``pool_densest`` is the leaf set of the densest star over all of ``pool``
    and ``candidate_edges`` when the caller already has it (the 2-spanner's
    density phase solves exactly that); a selection over the full pool then
    starts from it instead of solving again.
    """
    threshold = Fraction(rho_rounded) / threshold_divisor
    forced = frozenset(force_include) & pool

    def fresh(restricted_pool: set[Node]) -> frozenset[Node]:
        edges = {
            e
            for e in candidate_edges
            if e[0] in restricted_pool and e[1] in restricted_pool
        }
        weights = (
            None
            if leaf_weights is None
            else {v: Fraction(leaf_weights.get(v, 1)) for v in restricted_pool}
        )
        if pool_densest is not None and restricted_pool == pool:
            base = pool_densest
        else:
            base, _ = densest_star(restricted_pool, edges, weights, method=method)
        return _augment(base, restricted_pool, edges, weights, threshold, method)

    same_rho_streak = (
        follow_paper_rule
        and state.last_rho == rho_rounded
        and state.last_leaves is not None
        and state.last_iteration == iteration - 1
    )

    if not same_rho_streak:
        leaves = fresh(set(pool))
    else:
        previous = frozenset(state.last_leaves or frozenset())
        prev_density = star_density(previous, candidate_edges, leaf_weights)
        if previous and prev_density >= threshold:
            leaves = previous
        else:
            shrunk = fresh(set(previous))
            if shrunk and star_density(shrunk, candidate_edges, leaf_weights) >= threshold:
                leaves = shrunk
            else:
                # Claim 4.4 proves this branch is unreachable; keep it as a
                # counted fallback so tests can assert it never fires.
                state.fallback_count += 1
                leaves = fresh(set(pool))

    leaves = frozenset(leaves | forced)
    state.last_rho = rho_rounded
    state.last_leaves = leaves
    state.last_iteration = iteration
    state.history.append(leaves)
    return leaves
