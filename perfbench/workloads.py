"""The benchmark's workloads: inputs from a seed, one library call, a physics check.

Every workload draws its graph and run seed from the benchmark's ``--seed``
(``anchor + seed``), so seed 0 is the anchor instance the registry tiers use
and, for that seed, the pinned counts below are checked too.  Each iteration
builds its graph cold (the per-process graph memo is cleared first), calls
one public library entry point, and checks the result; a failed check makes
the iteration a failed operation instead of a timing.

Importing this module needs ``repro`` on ``sys.path`` (``worker.py`` puts
the checkout's ``src`` there).
"""

from __future__ import annotations

import platform
import traceback
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable

import numpy as np

import layers
from layers import clock, peak_rss_mb, span
from repro.core import run_flood_max, run_two_spanner
from repro.distributed import NodeProgram, Simulator, have_numpy
from repro.distributed.models import congest_model
from repro.experiments.families import build_graph, clear_graph_memo
from repro.spanner.verify import is_k_spanner

FANOUT = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``graph`` is a ``(family, *args)`` tuple for
    :func:`repro.experiments.families.build_graph` whose last element is the
    anchor graph seed; ``run_seed`` is the anchor simulator seed.  ``pinned``
    holds exact counts the anchor instance (``--seed 0``) must reproduce.
    ``rounds`` is the program's fixed round budget, ``lowered`` the
    lowering decision a flood-max run must make.
    """

    name: str
    graph: tuple
    run_seed: int
    execute: Callable[..., dict]
    verify: Callable[..., list]
    rounds: int | None = None
    lowered: bool | None = None
    pinned: dict = field(default_factory=dict)

    def family(self, seed: int) -> tuple:
        """The graph spec of ``seed``: the anchor spec with its seed shifted."""
        *head, graph_seed = self.graph
        return (*head, graph_seed + seed)


# ------------------------------------------------------------------ flood-max
def _execute_flood(spec: Workload, graph, run_seed: int, probe) -> dict:
    # The lowered mega run also streams its metrics, as E23's mega points do.
    result = run_flood_max(
        graph,
        spec.rounds,
        seed=run_seed,
        engine="columnar",
        streaming_metrics=spec.lowered,
        vectorize=spec.lowered,
    )
    return {
        "result": result,
        "rounds": result.rounds,
        "messages": result.metrics.messages_sent,
        "bits": result.metrics.bits_sent,
        "lowered": probe.sim.lowered,
    }


def _verify_flood(spec: Workload, graph, out: dict) -> list[str]:
    result = out["result"]
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    budget = spec.rounds
    problems = []
    if out["lowered"] != spec.lowered:
        problems.append(f"lowered={out['lowered']}, the workload expects {spec.lowered}")
    if not result.converged or result.leader != n - 1:
        problems.append(f"leader {result.leader!r}, expected the max label {n - 1}")
    if out["rounds"] != budget:
        problems.append(f"{out['rounds']} rounds, the program budget is {budget}")
    if out["messages"] != budget * 2 * m:
        problems.append(f"{out['messages']} messages, expected rounds*2m = {budget * 2 * m}")
    return problems


# -------------------------------------------------------------------- spanner
def _execute_spanner(spec: Workload, graph, run_seed: int, probe) -> dict:
    result = run_two_spanner(graph, seed=run_seed)
    return {
        "result": result,
        "rounds": result.rounds,
        "edges": len(result.edges),
        "messages": result.metrics.messages_sent,
        "bits": result.metrics.bits_sent,
    }


def _verify_spanner(spec: Workload, graph, out: dict) -> list[str]:
    edges = out["result"].edges
    problems = []
    if not all(graph.has_edge(u, v) for u, v in edges):
        problems.append("the spanner contains a non-edge")
    if not is_k_spanner(graph, edges, 2):
        problems.append("the output is not a 2-spanner")
    return problems


# ------------------------------------------------------------ targeted fan-out
class FanoutProgram(NodeProgram):
    """Targeted fan-out with a fold-pushdown receiver (``bench_e21``'s program).

    Every round each node sends ``best + round`` to its first ``FANOUT``
    neighbours in ascending label order, and folds what it heard into
    ``best`` — through the engine's ``max_heard`` when the inbox view offers
    it, through a C-level ``max`` over a plain dict otherwise.
    """

    __slots__ = ("rounds", "best", "targets")

    def __init__(self, node, rounds: int) -> None:
        self.rounds = rounds
        self.best = 0
        self.targets = ()

    def on_start(self, ctx) -> None:
        self.targets = sorted(ctx.neighbors)[:FANOUT]
        for dst in self.targets:
            ctx.send(dst, self.best)

    def on_round(self, ctx, inbox) -> None:
        if inbox:
            if inbox.__class__ is dict:
                heard = max(chain.from_iterable(inbox.values()))
                if heard > self.best:
                    self.best = heard
            else:
                self.best = inbox.max_heard(self.best)
        if ctx.round >= self.rounds:
            ctx.set_output(self.best)
            ctx.halt()
            return
        payload = self.best + ctx.round
        for dst in self.targets:
            ctx.send(dst, payload)


def _execute_fanout(spec: Workload, graph, run_seed: int, probe) -> dict:
    sim = Simulator(
        graph,
        lambda v: FanoutProgram(v, spec.rounds),
        model=congest_model(graph.number_of_nodes(), enforce=True),
        seed=run_seed,
        engine="columnar",
    )
    result = sim.run(max_rounds=spec.rounds + 2)
    return {
        "result": result,
        "rounds": result.rounds,
        "messages": result.metrics.messages_sent,
        "bits": result.metrics.bits_sent,
        "fold": sum(result.outputs.values()),
    }


def fanout_oracle(graph, rounds: int) -> tuple[dict, int, int]:
    """Outputs, message count and bit count of the fan-out, replayed directly.

    An independent synchronous replay of the program's dynamics in NumPy,
    with no engine involved: sends of round ``r`` are folded into their
    receivers in round ``r + 1``, and an int payload ``v >= 0`` costs
    ``max(1, bit_length(v)) + 1`` bits.
    """
    labels = sorted(graph.nodes())
    index = {v: i for i, v in enumerate(labels)}
    src, dst = [], []
    for v in labels:
        for u in sorted(graph.neighbors(v))[:FANOUT]:
            src.append(index[v])
            dst.append(index[u])
    src = np.array(src, dtype=np.int64)
    dst = np.array(dst, dtype=np.int64)
    best = np.zeros(len(labels), dtype=np.int64)
    payload = best.copy()
    messages = bits = 0
    for rnd in range(1, rounds + 1):
        values = payload[src]
        if values.max(initial=0) >= 2**53:
            raise OverflowError("payloads outgrew the exact float bit-length path")
        # frexp's exponent is bit_length for 0 < v < 2**53, and 0 for v == 0.
        lengths = np.frexp(values.astype(np.float64))[1]
        messages += len(values)
        bits += int((np.maximum(lengths, 1) + 1).sum())
        heard = best.copy()
        np.maximum.at(heard, dst, values)
        best = heard
        payload = best + rnd
    return dict(zip(labels, best.tolist())), messages, bits


def _verify_fanout(spec: Workload, graph, out: dict) -> list[str]:
    outputs, messages, bits = fanout_oracle(graph, spec.rounds)
    problems = []
    if out["result"].outputs != outputs:
        problems.append("outputs differ from the direct replay")
    if out["messages"] != messages:
        problems.append(f"{out['messages']} messages, the replay sends {messages}")
    if out["bits"] != bits:
        problems.append(f"{out['bits']} bits, the replay sends {bits}")
    return problems


# ------------------------------------------------------------------- registry
WORKLOADS: dict[str, Workload] = {
    spec.name: spec
    for spec in (
        Workload(
            name="flood_mega",
            graph=("sparse_gnp_csr", 200_000, 6e-5, 20),
            run_seed=3,
            execute=_execute_flood,
            verify=_verify_flood,
            rounds=12,
            lowered=True,
            pinned={"messages": 28_787_904},
        ),
        Workload(
            name="flood_stepped",
            graph=("sparse_connected_gnp", 20_000, 5e-4, 18),
            run_seed=3,
            execute=_execute_flood,
            verify=_verify_flood,
            rounds=150,
            lowered=False,
            pinned={"messages": 30_111_300},
        ),
        Workload(
            name="spanner",
            graph=("gnp", 600, 0.05, 7),
            run_seed=1,
            execute=_execute_spanner,
            verify=_verify_spanner,
            pinned={"rounds": 23, "edges": 8397, "messages": 284_192, "bits": 161_428_878},
        ),
        Workload(
            name="fanout_congest",
            graph=("sparse_connected_gnp", 4000, 0.004, 9),
            run_seed=13,
            execute=_execute_fanout,
            verify=_verify_fanout,
            rounds=45,
            pinned={"messages": 2_596_545, "bits": 22_503_390, "fold": 3_960_000},
        ),
    )
}


def _pinned_problems(spec: Workload, out: dict) -> list[str]:
    return [
        f"{key} = {out.get(key)!r}, pinned at {value!r} for the anchor seed"
        for key, value in spec.pinned.items()
        if out.get(key) != value
    ]


def run_iteration(spec: Workload, seed: int, trace: bool = False) -> dict:
    """Run one cold iteration of ``spec`` and return its sample record.

    The sample's ``ok`` is False (with ``problems``) when the physics check
    fails or the library raises; timings of such a sample are not used.
    """
    clear_graph_memo()
    probe = layers.RunProbe()
    tracer = layers.Tracer() if trace else None
    programs = {FanoutProgram: "perfbench.fanout.step"}
    sample: dict[str, Any] = {"workload": spec.name, "seed": seed, "traced": trace}
    with layers.instrument(probe, tracer, programs):
        start = clock()
        try:
            with span(tracer, "graphs.generators.build"):
                graph = build_graph(spec.family(seed))
            graph_rss = peak_rss_mb()
            out = spec.execute(spec, graph, spec.run_seed + seed, probe)
            run_rss = peak_rss_mb()
            with span(tracer, "bench.verify"):
                problems = spec.verify(spec, graph, out)
                if seed == 0:
                    problems += _pinned_problems(spec, out)
        except Exception:  # the library raised: a failed operation
            sample.update(ok=False, problems=[traceback.format_exc(limit=4)])
            return sample
        wall = clock() - start
    run_s = probe.left - probe.entered
    sample.update(
        ok=not problems,
        problems=problems,
        wall_s=wall,
        setup_s=probe.entered - start,
        run_s=run_s,
        msgs_per_s=out["messages"] / run_s,
        peak_rss_mb=peak_rss_mb(),
        rounds=out["rounds"],
        messages=out["messages"],
        bits=out["bits"],
        edges=graph.number_of_edges(),
        graph_rss_mb=graph_rss,
        run_rss_mb=run_rss,
    )
    if out.get("lowered") is not None:
        sample["lowered"] = out["lowered"]
    if tracer is not None:
        sample["self_s"] = dict(tracer.self_s)
        sample["total_s"] = dict(tracer.total_s)
        sample["calls"] = dict(tracer.calls)
        sample["other_s"] = wall - tracer.covered[0]
    return sample


def environment() -> dict:
    """Library-side half of the environment fingerprint."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_enabled": have_numpy(),
    }
