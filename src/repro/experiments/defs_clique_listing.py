"""Registry definition for E21 — the clique-listing / targeted-traffic tier.

E21 is the first experiment family whose traffic is *targeted* end to end,
exercising the fast path that lets the ``columnar`` engine carry
``ctx.send`` traffic:

* **listing** — partition-based triangle listing
  (:mod:`repro.core.clique_listing`, per arXiv 2205.09245) on a seeded
  G(n, p) clique overlay, in both delivery modes: ``direct`` (one replica
  per link per round) and ``routed`` (the Lenzen-style two-phase primitive
  of :mod:`repro.core.clique_routing`).  Every scenario checks its listed
  triangle set against the :func:`~repro.core.clique_listing.brute_force_triangles`
  oracle — the output is verified, not just measured;
* **fan-out** — the deterministic targeted fan-out throughput workload
  (:class:`~repro.core.clique_routing.TargetedFanoutProgram`) at n = 4000,
  whose folded checksum doubles as a differential fingerprint across
  engines.

The same workload runs on several engines so the cross-scenario ``verify``
hook can pin bit-for-bit physics agreement — the targeted counterpart of
the E18/E20 anchors.  As with those tiers, wall time lives under
``timing.*`` and the columnar-vs-indexed speedup *assertion* lives in
``benchmarks/bench_e21_clique_listing.py`` behind the ``E21_MIN_SPEEDUP``
knob; the registry only pins physics so CLI sweeps never flake on loaded
machines.
"""

from __future__ import annotations

from typing import Any

from repro.core.clique_listing import brute_force_triangles, run_clique_listing
from repro.core.clique_routing import run_targeted_fanout
from repro.distributed import DEFAULT_ENGINE
from repro.experiments.families import build_graph
from repro.experiments.registry import Experiment, check, check_twins, register
from repro.experiments.runner import rate_timing, timed, timing_columns
from repro.experiments.spec import ScenarioSpec

_E21_SEED = 7

_LISTING_GRAPH = ("gnp", 60, 0.3, 5)
_FANOUT_GRAPH = ("sparse_connected_gnp", 4000, 0.002, 9)
_FANOUT_K = 8
_FANOUT_ROUNDS = 24

#: scenario name -> (workload, engine, mode-or-None).
_E21_SCENARIOS: dict[str, tuple[str, str, str | None]] = {
    "listing direct indexed": ("listing", "indexed", "direct"),
    "listing direct columnar": ("listing", "columnar", "direct"),
    "listing routed indexed": ("listing", "indexed", "routed"),
    "listing routed columnar": ("listing", "columnar", "routed"),
    "fanout indexed": ("fanout", "indexed", None),
    "fanout columnar": ("fanout", "columnar", None),
}


def _run_e21(spec: ScenarioSpec) -> dict[str, Any]:
    workload = spec.param("workload")
    graph = build_graph(spec.param("graph"))
    engine = spec.engine or DEFAULT_ENGINE
    if workload == "listing":
        result, seconds = timed(
            run_clique_listing,
            graph,
            mode=spec.param("mode"),
            seed=spec.param("run_seed"),
            engine=engine,
        )
        oracle = brute_force_triangles(graph)
        check(
            result.triangles == oracle,
            f"{spec.name}: listed {len(result.triangles)} triangles, "
            f"oracle has {len(oracle)}",
        )
        figure = len(result.triangles)
        extra = {"k": result.k, "replicas": result.replicas, "mode": result.mode}
    else:
        result, seconds = timed(
            run_targeted_fanout,
            graph,
            fanout=spec.param("fanout"),
            rounds=spec.param("rounds"),
            seed=spec.param("run_seed"),
            engine=engine,
        )
        # Fault-free LOCAL run: every sent message is heard exactly once.
        check(
            result.heard == result.metrics.messages_sent,
            f"{spec.name}: heard {result.heard} of "
            f"{result.metrics.messages_sent} messages on a fault-free run",
        )
        check(result.checksum != 0, f"{spec.name}: degenerate zero checksum")
        figure = result.checksum
        extra = {"heard": result.heard}
    out: dict[str, Any] = {
        "scenario": spec.name,
        "workload": workload,
        "engine": engine,
        "n": graph.number_of_nodes(),
        "rounds": result.rounds,
        "figure": figure,
        "metrics": result.metrics,
        "timing": rate_timing(seconds, result.metrics.messages_sent),
    }
    out.update(extra)
    return out


def _verify_e21(results) -> dict[str, Any]:
    # Bit-for-bit physics agreement across engines, per workload group: the
    # targeted counterpart of the E18/E20 parity anchors.
    groups: dict[tuple[str, Any], list[dict[str, Any]]] = {}
    for result in results:
        key = (result["workload"], result.get("mode"))
        groups.setdefault(key, []).append(result)
    summary: dict[str, Any] = {}
    for (workload, mode), members in groups.items():
        tag = workload if mode is None else f"{workload} {mode}"
        baseline = members[0]
        for other in members[1:]:
            pair = f"{tag} {baseline['engine']}/{other['engine']}"
            check_twins(pair, baseline, other, exempt=("engine", "scenario"))
        summary[f"{tag}.engines"] = len(members)
        summary[f"{tag}.figure"] = baseline["figure"]
        summary[f"{tag}.rounds"] = baseline["rounds"]
        summary[f"{tag}.bits"] = baseline["metrics.bits_sent"]
    return summary


def _make_spec(name: str, workload: str, engine: str, mode: str | None) -> ScenarioSpec:
    if workload == "listing":
        return ScenarioSpec.make(
            "E21",
            name,
            engine=engine,
            workload=workload,
            mode=mode,
            graph=_LISTING_GRAPH,
            run_seed=_E21_SEED,
        )
    return ScenarioSpec.make(
        "E21",
        name,
        engine=engine,
        workload=workload,
        graph=_FANOUT_GRAPH,
        fanout=_FANOUT_K,
        rounds=_FANOUT_ROUNDS,
        run_seed=_E21_SEED,
    )


register(
    Experiment(
        id="E21",
        title="clique listing + targeted traffic: triangle listing and fan-out",
        headline="targeted-send fast path: listing (direct/routed) and fan-out across engines",
        targeted=True,
        columns=(
            ("workload", "workload", None),
            ("engine", "engine", None),
            ("n", "n", None),
            ("rounds", "rounds", None),
            ("messages", "metrics.messages_sent", None),
            ("bits", "metrics.bits_sent", None),
            ("figure", "figure", None),
            *timing_columns(),
        ),
        scenarios=[
            _make_spec(name, workload, engine, mode)
            for name, (workload, engine, mode) in _E21_SCENARIOS.items()
        ],
        run_scenario=_run_e21,
        verify=_verify_e21,
    )
)
