"""Golden-output regression tests for the indexed execution core.

``tests/data/golden_runs.json`` was captured by running the *seed* (pre-CSR)
simulator on fixed-seed G(n, p) instances.  The rebuilt engine must reproduce
every output edge set, round count, iteration count and metric counter
bit-for-bit; these tests pin that contract so future engine work cannot
silently change results.  A differential test additionally checks the
``indexed`` engine against the retained ``reference`` engine on fresh
workloads.

One deliberate re-capture: when ``estimate_bits`` learned to encode
``__slots__``-only payloads (it used to flat-bill 64 bits, under-billing the
``Fraction`` densities the spanner algorithm broadcasts), ``bits_sent`` /
``max_message_bits`` in the spanner goldens were regenerated under the
corrected accounting.  Every physics field — edges, rounds, iterations,
fallbacks, dominators — and the whole MDS record were verified unchanged
before the rewrite, and both engines still agree bit-for-bit.

The directed (``directed_*``) and client-server (``client_server_*``)
records were captured later, at commit cd92cdb, before the directed program
was folded into the shared 2-spanner phase shell; they pin that refactor
(and any later change to the shell) to the pre-refactor outputs.
"""

import json
import pathlib

import pytest

from repro.core.directed_two_spanner import (
    DirectedTwoSpannerProgram,
    DirectedVariant,
    run_directed_two_spanner,
)
from repro.core.mds import MDSOptions, MDSProgram, run_mds
from repro.core.two_spanner import (
    TwoSpannerOptions,
    TwoSpannerProgram,
    client_server_two_spanner,
    run_two_spanner,
)
from repro.core.variants import UnweightedVariant, WeightedVariant
from repro.distributed import (
    NoAdversary,
    NodeProgram,
    Simulator,
    congest_model,
    local_model,
)
from repro.graphs import (
    assign_weights_from_choices,
    connected_gnp_graph,
    gnp_random_graph,
    random_digraph,
    random_split_instance,
    random_tournament,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_runs.json"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as f:
        return json.load(f)


def spanner_record(result):
    return {
        "edges": sorted([list(e) for e in result.edges]),
        "rounds": result.rounds,
        "iterations": result.iterations,
        "fallbacks": result.fallback_count,
        "metrics": result.metrics.as_dict(),
    }


def directed_record(result):
    return {
        "arcs": sorted([list(a) for a in result.arcs]),
        "rounds": result.rounds,
        "iterations": result.iterations,
        "fallbacks": result.fallback_count,
        "metrics": result.metrics.as_dict(),
    }


DIGRAPHS = {
    "directed_digraph_n30_p015_s4_seed7": lambda: random_digraph(30, 0.15, seed=4),
    "directed_tournament_n20_s5_seed7": lambda: random_tournament(20, seed=5),
}

#: The 2-spanner programs run on every engine: key -> (graph, program, variant).
SPANNER_PROGRAMS = {
    **{
        key: (build, DirectedTwoSpannerProgram, DirectedVariant)
        for key, build in DIGRAPHS.items()
    },
    "undirected_gnp_n40_p015_s3": (
        lambda: gnp_random_graph(40, 0.15, seed=3), TwoSpannerProgram, UnweightedVariant
    ),
}


class TestGoldenOutputs:
    def test_unweighted_n40(self, golden):
        g = gnp_random_graph(40, 0.15, seed=3)
        assert spanner_record(run_two_spanner(g, seed=1)) == golden["unweighted_n40_p015_s3_seed1"]

    def test_unweighted_n60(self, golden):
        g = gnp_random_graph(60, 0.10, seed=11)
        assert spanner_record(run_two_spanner(g, seed=7)) == golden["unweighted_n60_p010_s11_seed7"]

    def test_weighted_n40(self, golden):
        g = gnp_random_graph(40, 0.20, seed=5)
        assign_weights_from_choices(g, [1.0, 2.0, 4.0], seed=9)
        result = run_two_spanner(g, variant=WeightedVariant(), seed=2)
        assert spanner_record(result) == golden["weighted_n40_p020_s5_seed2"]

    @pytest.mark.parametrize("key", sorted(DIGRAPHS))
    def test_directed(self, golden, key):
        result = run_directed_two_spanner(DIGRAPHS[key](), seed=7)
        assert directed_record(result) == golden[key]

    def test_client_server_n30(self, golden):
        g = connected_gnp_graph(30, 0.2, seed=3)
        result = client_server_two_spanner(random_split_instance(g, seed=4), seed=5)
        assert spanner_record(result) == golden["client_server_n30_p020_s3_split4_seed5"]

    def test_mds_n50(self, golden):
        g = gnp_random_graph(50, 0.10, seed=2)
        result = run_mds(g, seed=4)
        record = {
            "dominators": sorted(result.dominators),
            "rounds": result.rounds,
            "iterations": result.iterations,
            "metrics": result.metrics.as_dict(),
        }
        assert record == golden["mds_n50_p010_s2_seed4"]


class TestGoldenStabilityUnderNoAdversary:
    """Installing the identity adversary must not perturb a single golden bit.

    The adversary layer's contract is that ``NoAdversary`` (like passing no
    adversary) leaves every engine's hot path untouched and never merges
    fault counters into ``Metrics.as_dict()`` — so the LOCAL/CONGEST golden
    records, captured long before the layer existed, must still match
    bit-for-bit with the policy explicitly installed.
    """

    def test_spanner_golden_with_explicit_no_adversary(self, golden):
        g = gnp_random_graph(40, 0.15, seed=3)
        result = run_two_spanner(g, seed=1, adversary=NoAdversary())
        assert spanner_record(result) == golden["unweighted_n40_p015_s3_seed1"]
        assert result.metrics.per_adversary == {}

    def test_mds_golden_with_explicit_no_adversary(self, golden):
        g = gnp_random_graph(50, 0.10, seed=2)
        result = run_mds(g, seed=4, adversary=NoAdversary())
        record = {
            "dominators": sorted(result.dominators),
            "rounds": result.rounds,
            "iterations": result.iterations,
            "metrics": result.metrics.as_dict(),
        }
        assert record == golden["mds_n50_p010_s2_seed4"]


class FloodMax(NodeProgram):
    """Every node learns the maximum identifier in its component."""

    def on_start(self, ctx):
        self.best = ctx.node_id
        ctx.broadcast(self.best)

    def on_round(self, ctx, inbox):
        improved = False
        for _, payloads in inbox.items():
            for value in payloads:
                if value > self.best:
                    self.best = value
                    improved = True
        if improved:
            ctx.broadcast(self.best)
        else:
            ctx.set_output(self.best)
            ctx.halt()


class TestEngineEquivalence:
    """indexed vs reference engine on identical inputs."""

    def _run_both(self, graph, factory, **kwargs):
        runs = {}
        for engine in ("indexed", "reference"):
            sim = Simulator(graph, factory, engine=engine, **kwargs)
            runs[engine] = sim.run()
            runs[engine].metrics.check_invariants()
        return runs["indexed"], runs["reference"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flood_max(self, seed):
        g = gnp_random_graph(35, 0.12, seed=seed)
        new, ref = self._run_both(g, lambda v: FloodMax(), seed=seed)
        assert new.outputs == ref.outputs
        assert new.completed == ref.completed
        assert new.metrics.as_dict() == ref.metrics.as_dict()
        assert new.metrics.bits_per_round == ref.metrics.bits_per_round

    def test_mds_program_in_congest(self):
        g = gnp_random_graph(30, 0.15, seed=6)
        topo = g.freeze()
        options = MDSOptions()

        def factory(v):
            return MDSProgram(v, topo.neighbor_label_set(topo.index[v]), options)

        new, ref = self._run_both(
            g, factory, seed=3, model=congest_model(30, enforce=True)
        )
        assert new.outputs == ref.outputs
        assert new.metrics.as_dict() == ref.metrics.as_dict()

    @pytest.mark.parametrize("key", sorted(SPANNER_PROGRAMS))
    def test_directed_two_spanner_program(self, key):
        """Both 2-spanner programs (directed and undirected) on all three engines."""
        build, program, variant_cls = SPANNER_PROGRAMS[key]
        d, variant, options = build(), variant_cls(), TwoSpannerOptions()

        def factory(v):
            return program(v, variant.node_setup(d, v), variant, options)

        runs = {
            engine: Simulator(
                d, factory, model=local_model(d.number_of_nodes()), seed=7, engine=engine
            ).run()
            for engine in ("indexed", "columnar", "reference")
        }
        ref = runs.pop("reference")
        ref.metrics.check_invariants()
        for run in runs.values():
            run.metrics.check_invariants()
            assert run.outputs == ref.outputs
            assert run.metrics.as_dict() == ref.metrics.as_dict()
            assert run.metrics.bits_per_round == ref.metrics.bits_per_round

    def test_cut_accounting_matches(self):
        g = gnp_random_graph(24, 0.2, seed=9)
        cut = set(range(12))
        new, ref = self._run_both(g, lambda v: FloodMax(), seed=1, cut=cut)
        assert new.metrics.cut_bits == ref.metrics.cut_bits
        assert new.metrics.cut_messages == ref.metrics.cut_messages
