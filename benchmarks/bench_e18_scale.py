"""E18 — stepped columnar scale sweep: flood-max broadcast traffic at n >= 20000.

Like E16 this experiment measures the *substrate*: the flood-max workload
(pure broadcast, the traffic pattern the columnar engine fast-paths) runs
at n=20000 under both the stepped columnar engine (lowering off, so every
round calls the per-node programs and the columnar collect) and the
indexed engine, plus a columnar-only scale point at n=50000 (scenarios in
``repro.experiments.defs_substrate``, experiment ``E18``).  The registry
``verify`` pins identical physics across engines; this wrapper additionally
asserts the columnar-vs-indexed throughput floor, which stays here so CI
can relax it via ``E18_MIN_SPEEDUP`` without touching the registry.
"""

import os

from repro.experiments import bench_experiment

# CI sets E18_MIN_SPEEDUP lower to absorb shared-runner noise without
# losing the regression guard.
MIN_COLUMNAR_SPEEDUP = float(os.environ.get("E18_MIN_SPEEDUP", "2.0"))


def test_e18_stepped_columnar_scale(benchmark):
    report = bench_experiment(benchmark, "E18")
    results = {
        scenario["spec"]["name"]: scenario["result"]
        for scenario in report["experiments"][0]["scenarios"]
    }
    speedup = (
        results["n=20000 columnar"]["timing.messages_per_sec"]
        / results["n=20000 indexed"]["timing.messages_per_sec"]
    )
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= MIN_COLUMNAR_SPEEDUP, (
        f"stepped columnar engine only {speedup:.2f}x over indexed "
        f"(required {MIN_COLUMNAR_SPEEDUP}x)"
    )
    # The scale tier must actually reach the large-n regime.
    assert results["n=50000 columnar"]["n"] >= 20000
