"""Registry definitions for the robustness tier: E19 (fault-injected runs).

E19 sweeps two workloads over the adversary layer
(:mod:`repro.distributed.adversary`):

* **robust flood-max** (:func:`repro.core.run_robust_flood_max`) — the
  retransmitting leader election that provably terminates under arbitrary
  message loss — across drop rates 0 / 0.05 / 0.20 and a crash-stop
  schedule;
* **Congested Clique 2-spanner** (:func:`repro.core.run_clique_two_spanner`)
  — whose round schedule is fault-oblivious and whose coverage beliefs are
  sound under loss, so the output must stay a *valid* 2-spanner under pure
  drops (merely larger), while crash faults degrade it to validity over the
  surviving vertices.

Per-scenario ``check()`` invariants pin termination bounds, correct output
(or its explicitly documented degradation) and fault-counter consistency
with the configured drop rate; the cross-scenario ``verify`` pins that a
zero-rate :class:`~repro.distributed.adversary.DropAdversary` reproduces
fault-free physics bit-for-bit (only zero-valued fault counters appear) and
that the indexed and columnar engines agree bit-for-bit *under the same
adversary*.  The ``NoAdversary`` overhead guard lives in the benchmark
wrapper (``benchmarks/bench_e19_robustness.py``), not here, following the
E16/E23 precedent.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.core import (
    clique_spanner_round_bound,
    robust_flood_max_round_bound,
    run_clique_two_spanner,
    run_robust_flood_max,
)
from repro.distributed import DEFAULT_ENGINE
from repro.distributed.adversary import (
    Adversary,
    CrashAdversary,
    DropAdversary,
    build_adversary,
)
from repro.experiments.families import build_graph
from repro.experiments.registry import Experiment, check, check_twins, register
from repro.experiments.spec import ScenarioSpec
from repro.spanner import is_k_spanner

_E19_SEED = 7
_FLOOD_GRAPH = ("connected_gnp", 120, 0.08, 21)
_FLOOD_PATIENCE = 6
_FLOOD_CRASH = "crash:17@2,55@3,90@4"
_SPANNER_GRAPH = ("gnp", 64, 0.15, 13)
_SPANNER_SEED = 5
_SPANNER_CRASH = "crash:9@3,30@5"

#: Half-width of the accepted dropped/sent band around the configured rate:
#: the runs are deterministic, so this only needs to absorb the binomial
#: deviation of one fixed sample, not run-to-run noise.
_RATIO_BAND = 0.5


def _resolve_adversary(spec: ScenarioSpec) -> Adversary | None:
    """The spec's fault policy (``None`` when the scenario is fault-free)."""
    return build_adversary(spec.adversary) if spec.adversary else None


def _run_flood(spec: ScenarioSpec) -> dict[str, Any]:
    """One robust-flood-max scenario: termination, agreement, fault counters."""
    graph = build_graph(spec.param("graph"))
    n = graph.number_of_nodes()
    adversary = _resolve_adversary(spec)
    patience = spec.param("patience")
    result = run_robust_flood_max(
        graph,
        patience=patience,
        seed=spec.param("run_seed"),
        engine=spec.engine or DEFAULT_ENGINE,
        adversary=adversary,
    )
    bound = robust_flood_max_round_bound(n, patience)
    check(
        result.rounds <= bound,
        f"{spec.name}: used {result.rounds} rounds, provable bound is {bound}",
    )
    faults = result.metrics.per_adversary
    messages = result.metrics.messages_sent
    out: dict[str, Any] = {
        "workload": "floodmax",
        "adversary": spec.adversary or "none",
        "engine": spec.engine or DEFAULT_ENGINE,
        "n": n,
        "m": graph.number_of_edges(),
        "rounds": result.rounds,
        "converged": result.converged,
        "leader": result.leader,
        "ok": result.converged,
        "metrics": result.metrics,
    }
    if isinstance(adversary, CrashAdversary):
        # An arbitrary pinned schedule (run --adversary crash:...) may name
        # nodes outside this graph or rounds after natural halting, and may
        # even disconnect the survivors — only counter sanity is universal.
        dead = {v for v in adversary.schedule if v in result.node_outputs}
        crashed = faults.get("adversary_crashed_nodes", 0)
        check(
            crashed <= len(dead),
            f"{spec.name}: counted {crashed} crashes, only {len(dead)} scheduled "
            f"nodes exist in the graph",
        )
        survivors = {v: o for v, o in result.node_outputs.items() if v not in dead}
        agreed = set(survivors.values())
        # Documented degradation: crashed nodes keep output None, so global
        # convergence is impossible — survivor agreement is the contract.
        out["survivors_agree"] = len(agreed) == 1
        out["ok"] = out["survivors_agree"]
        if spec.adversary == _FLOOD_CRASH:
            # The curated schedule keeps the graph connected and spares the
            # max label, so the strong form must hold exactly.
            check(
                crashed == len(dead),
                f"{spec.name}: expected {len(dead)} crashes, counted {crashed}",
            )
            check(
                out["survivors_agree"],
                f"{spec.name}: survivors disagree: {sorted(map(repr, agreed))}",
            )
            leader = next(iter(agreed))
            check(
                leader == n - 1,
                f"{spec.name}: survivors elected {leader!r}, expected {n - 1}",
            )
            out["survivor_leader"] = leader
    elif isinstance(adversary, DropAdversary):
        dropped = faults.get("adversary_dropped_messages", 0)
        check(
            result.converged and result.leader == n - 1,
            f"{spec.name}: retransmission failed to elect the max label "
            f"(leader {result.leader!r})",
        )
        if adversary.rate == 0.0:
            check(dropped == 0, f"{spec.name}: zero-rate adversary dropped {dropped}")
        else:
            ratio = dropped / messages
            check(
                abs(ratio - adversary.rate) <= _RATIO_BAND * adversary.rate,
                f"{spec.name}: dropped fraction {ratio:.4f} inconsistent with "
                f"rate {adversary.rate}",
            )
            out["drop_ratio"] = ratio
    else:
        check(
            result.converged and result.leader == n - 1,
            f"{spec.name}: fault-free run must elect the max label",
        )
    return out


def _survivors_two_spanned(graph, spanner_edges, dead: set) -> bool:
    """Whether every edge between surviving vertices is 2-spanned.

    Paths may route through any vertex (crashed ones included — spanner
    edges are static graph edges; the crash broke the *computation*, not
    the graph), but only edges whose both endpoints survived are required
    to be covered: an edge owned by a crashed vertex may be missing.
    """
    adjacency = defaultdict(set)
    for u, v in spanner_edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    for u, v in graph.edges():
        if u in dead or v in dead:
            continue
        if v not in adjacency[u] and adjacency[u].isdisjoint(adjacency[v]):
            return False
    return True


def _run_spanner(spec: ScenarioSpec) -> dict[str, Any]:
    """One fault-injected clique-2-spanner scenario: schedule + validity."""
    graph = build_graph(spec.param("graph"))
    n = graph.number_of_nodes()
    adversary = _resolve_adversary(spec)
    result = run_clique_two_spanner(
        graph,
        seed=spec.param("run_seed"),
        engine=spec.engine or DEFAULT_ENGINE,
        adversary=adversary,
    )
    # The level schedule is round-driven: no fault may stretch or shrink it.
    check(
        result.rounds == clique_spanner_round_bound(n),
        f"{spec.name}: round schedule drifted to {result.rounds} under faults",
    )
    faults = result.metrics.per_adversary
    valid = is_k_spanner(graph, result.edges, 2)
    out: dict[str, Any] = {
        "workload": "spanner",
        "adversary": spec.adversary or "none",
        "engine": spec.engine or DEFAULT_ENGINE,
        "n": n,
        "m": graph.number_of_edges(),
        "rounds": result.rounds,
        "edges": len(result.edges),
        "valid": valid,
        "ok": valid,
        "metrics": result.metrics,
    }
    if isinstance(adversary, CrashAdversary):
        dead = {v for v in adversary.schedule if v in graph}
        crashed = faults.get("adversary_crashed_nodes", 0)
        check(
            crashed <= len(dead),
            f"{spec.name}: counted {crashed} crashes, only {len(dead)} scheduled "
            f"nodes exist in the graph",
        )
        if spec.adversary == _SPANNER_CRASH:
            # The curated schedule's crash rounds precede the final round,
            # so every scheduled (in-graph) node must actually fire.
            check(
                crashed == len(dead),
                f"{spec.name}: expected {len(dead)} crashes, counted {crashed}",
            )
        # Documented degradation: edges owned by crashed vertices may be
        # missing, but survivor-induced coverage holds for *any* crash-stop
        # schedule — survivors receive every attach announcement addressed
        # to them, so their coverage beliefs stay sound.
        covered = _survivors_two_spanned(graph, result.edges, dead)
        check(covered, f"{spec.name}: an edge between survivors is not 2-spanned")
        out["survivors_covered"] = covered
        out["ok"] = covered
    elif isinstance(adversary, DropAdversary):
        # Coverage beliefs are sound under loss (a vertex only trusts attach
        # announcements it received, and cleanup adds the rest), so drops
        # cost edges, never correctness.
        check(valid, f"{spec.name}: spanner invalid under message loss")
        if adversary.rate > 0.0:
            check(
                faults.get("adversary_dropped_messages", 0) > 0,
                f"{spec.name}: drop adversary at rate {adversary.rate} dropped nothing",
            )
    else:
        check(valid, f"{spec.name}: fault-free spanner invalid")
    return out


def _run_e19(spec: ScenarioSpec) -> dict[str, Any]:
    """Dispatch one E19 scenario to its workload runner."""
    if spec.param("workload") == "floodmax":
        return _run_flood(spec)
    return _run_spanner(spec)


def _verify_e19(results) -> dict[str, Any]:
    """Cross-scenario invariants: zero-rate identity, engine parity, monotonicity.

    ``run --adversary`` rewrites every scenario to one fault policy, which
    collapses the sweep: the checks that compare *different* adversaries
    only fire when the scenarios actually differ, while the engine
    differential (same adversary, different engines) holds under any pin.
    """
    (
        flood_none,
        flood_zero,
        flood_d5,
        flood_d5_columnar,
        flood_d20,
        flood_crash,
        span_none,
        span_d5,
        span_crash,
    ) = results
    # Engine differential under the same adversary: indexed vs columnar must be
    # bit-for-bit identical, fault counters included.
    tag = f"engines under {flood_d5['adversary']}"
    check_twins(tag, flood_d5, flood_d5_columnar, exempt=("engine",))
    if flood_none["adversary"] == "none" and flood_zero["adversary"] == "drop:0.0":
        # A zero-rate DropAdversary must reproduce fault-free physics
        # exactly; the only admissible difference is the presence of
        # zero-valued fault counters (and the adversary label itself).
        check_twins("drop:0.0", flood_none, flood_zero, exempt=("adversary",), zero_rate=True)
    if flood_d20["adversary"] != flood_d5["adversary"]:
        check(
            flood_d20["metrics.adversary_dropped_messages"]
            > flood_d5["metrics.adversary_dropped_messages"],
            "higher drop rate did not drop more messages",
        )
    return {
        "floodmax.drop05.dropped": flood_d5.get("metrics.adversary_dropped_messages"),
        "floodmax.drop20.dropped": flood_d20.get("metrics.adversary_dropped_messages"),
        "floodmax.crash.lost": flood_crash.get("metrics.adversary_lost_messages"),
        "spanner.none.edges": span_none["edges"],
        "spanner.drop05.edges": span_d5["edges"],
        "spanner.drop05.valid": span_d5["valid"],
        "spanner.crash.survivors_covered": span_crash.get("survivors_covered"),
    }


register(
    Experiment(
        id="E19",
        title="robustness tier: fault-injected flood-max and clique 2-spanner",
        headline="drop/crash adversaries: termination, graceful degradation, engine parity",
        columns=(
            ("workload", "workload", None),
            ("adversary", "adversary", None),
            ("engine", "engine", None),
            ("rounds", "rounds", None),
            ("messages", "metrics.messages_sent", None),
            ("dropped", "metrics.adversary_dropped_messages", None),
            ("crashed", "metrics.adversary_crashed_nodes", None),
            ("edges", "edges", None),
            ("ok", "ok", None),
        ),
        scenarios=[
            ScenarioSpec.make(
                "E19",
                "floodmax none",
                workload="floodmax",
                graph=_FLOOD_GRAPH,
                patience=_FLOOD_PATIENCE,
                run_seed=_E19_SEED,
            ),
            ScenarioSpec.make(
                "E19",
                "floodmax drop=0.00",
                adversary="drop:0.0",
                workload="floodmax",
                graph=_FLOOD_GRAPH,
                patience=_FLOOD_PATIENCE,
                run_seed=_E19_SEED,
            ),
            ScenarioSpec.make(
                "E19",
                "floodmax drop=0.05",
                engine="indexed",
                adversary="drop:0.05",
                workload="floodmax",
                graph=_FLOOD_GRAPH,
                patience=_FLOOD_PATIENCE,
                run_seed=_E19_SEED,
            ),
            ScenarioSpec.make(
                "E19",
                "floodmax drop=0.05 columnar",
                engine="columnar",
                adversary="drop:0.05",
                workload="floodmax",
                graph=_FLOOD_GRAPH,
                patience=_FLOOD_PATIENCE,
                run_seed=_E19_SEED,
            ),
            ScenarioSpec.make(
                "E19",
                "floodmax drop=0.20",
                adversary="drop:0.2",
                workload="floodmax",
                graph=_FLOOD_GRAPH,
                patience=_FLOOD_PATIENCE,
                run_seed=_E19_SEED,
            ),
            ScenarioSpec.make(
                "E19",
                "floodmax crash",
                adversary=_FLOOD_CRASH,
                workload="floodmax",
                graph=_FLOOD_GRAPH,
                patience=_FLOOD_PATIENCE,
                run_seed=_E19_SEED,
            ),
            ScenarioSpec.make(
                "E19",
                "spanner none",
                workload="spanner",
                graph=_SPANNER_GRAPH,
                run_seed=_SPANNER_SEED,
            ),
            ScenarioSpec.make(
                "E19",
                "spanner drop=0.05",
                adversary="drop:0.05",
                workload="spanner",
                graph=_SPANNER_GRAPH,
                run_seed=_SPANNER_SEED,
            ),
            ScenarioSpec.make(
                "E19",
                "spanner crash",
                adversary=_SPANNER_CRASH,
                workload="spanner",
                graph=_SPANNER_GRAPH,
                run_seed=_SPANNER_SEED,
            ),
        ],
        run_scenario=_run_e19,
        verify=_verify_e19,
        tags=("robustness",),
    )
)
