"""Repository benchmark: four workloads, end-to-end metrics, an outside-in layer trace.

Runs one workload (or all four) for a fixed time, one iteration per fresh
child process (``worker.py``), and prints per-metric medians with units and
sample counts, an environment record, and, as the last line, one JSON
result object::

    python3 perfbench/run.py --workload spanner --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                  # all four workloads, 25 s each

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``msgs_per_s``, ``peak_rss_mb``).  ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics instead, plus
``trace.overhead_frac``.  See ``perfbench/README.md`` for the workloads,
the metrics and which layer metric should move which end-to-end metric.

Only the standard library is imported here, so this process stays small and
each child's ``ru_maxrss`` is its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("flood_mega", "flood_stepped", "spanner", "fanout_congest")

#: end-to-end metric -> unit (measured with tracing off).
END_TO_END = {"wall_s": "s", "setup_s": "s", "msgs_per_s": "msg/s", "peak_rss_mb": "MB"}

#: Traced spans reported as ``<span>_s`` (self seconds), and whether their
#: call count is reported as ``<span>_calls``.
SPANS = (
    ("graphs.generators.build", False),
    ("graphs.topology.compile", False),
    ("distributed.simulator.init", False),
    ("distributed.simulator.contexts", False),
    ("distributed.vectorize.lower", False),
    ("distributed.vectorize.kernel", True),
    ("distributed.vectorize.deliver", False),
    ("distributed.columnar.build", False),
    ("distributed.columnar.collect", True),
    ("distributed.targeted.build", False),
    ("distributed.targeted.collect", True),
    ("distributed.indexed.collect", True),
    ("distributed.encoding.estimate_bits", True),
    ("core.flood_max.step", True),
    ("core.two_spanner.step", True),
    ("spanner.stars.densest", True),
    ("core.star_selection.choose", True),
    ("perfbench.fanout.step", True),
    ("bench.verify", False),
)
RUN_SPAN = "distributed.simulator.run"

#: Untraced iterations per run, at least (setup_s is a median over them).
MIN_ITERATIONS = 3
#: A child that takes longer than this is killed and the run aborted.
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not a failed operation)."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name, counted in SPANS:
        units[f"{name}_s"] = "s"
        if counted:
            units[f"{name}_calls"] = "count"
    units.update({
        f"{RUN_SPAN}_s": "s",
        "distributed.simulator.loop_self_s": "s",
        "distributed.vectorize.lowered": "bool",
        "graphs.generators.edges": "count",
        "graphs.generators.peak_rss_mb": "MB",
        "distributed.simulator.peak_rss_mb": "MB",
        "distributed.metrics.messages": "count",
        "distributed.metrics.bits": "count",
        "distributed.metrics.rounds": "count",
        "bench.other_s": "s",
        "trace.wall_s": "s",
        "trace.accounted_frac": "ratio",
        "trace.overhead_frac": "ratio",
    })
    return units


def layer_values(sample: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample (0 for layers it never reached)."""
    self_s, calls = sample["self_s"], sample["calls"]
    values: dict[str, float] = {}
    for name, counted in SPANS:
        values[f"{name}_s"] = self_s.get(name, 0.0)
        if counted:
            values[f"{name}_calls"] = calls.get(name, 0)
    wall = sample["wall_s"]
    values.update({
        f"{RUN_SPAN}_s": sample["total_s"][RUN_SPAN],
        "distributed.simulator.loop_self_s": self_s[RUN_SPAN],
        "distributed.vectorize.lowered": int(bool(sample.get("lowered"))),
        "graphs.generators.edges": sample["edges"],
        "graphs.generators.peak_rss_mb": sample["graph_rss_mb"],
        "distributed.simulator.peak_rss_mb": sample["run_rss_mb"],
        "distributed.metrics.messages": sample["messages"],
        "distributed.metrics.bits": sample["bits"],
        "distributed.metrics.rounds": sample["rounds"],
        "bench.other_s": sample["other_s"],
        "trace.wall_s": wall,
        "trace.accounted_frac": 1.0 - sample["other_s"] / wall,
    })
    return values


def run_child(workload: str, seed: int, trace: bool) -> dict:
    """One iteration in a fresh interpreter; returns its sample record."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} iteration exceeded {CHILD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run iterations until ``seconds`` are used; samples in run order.

    Untraced runs make at least :data:`MIN_ITERATIONS` iterations and start
    another only while it is expected to end within ``seconds``.  Traced
    runs do the same with (untraced, traced) pairs, at least one pair.
    """
    samples: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    batch = (False, True) if trace else (False,)
    minimum = 1 if trace else MIN_ITERATIONS
    while True:
        began = time.perf_counter()
        for traced in batch:
            samples.append(run_child(workload, seed, traced))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            return samples


def summarise(samples: list[dict], trace: bool) -> dict:
    """Medians of the successful samples, plus attempted/failed counts."""
    good = [s for s in samples if s["ok"]]
    summary = {
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "problems": [p for s in samples for p in s.get("problems", [])],
        "metrics": {},
    }
    if trace:
        untraced = [s for s in good if not s["traced"]]
        traced = [s for s in good if s["traced"]]
        units = per_layer_units()
        if untraced and traced:
            rows = [layer_values(s) for s in traced]
            for name, unit in units.items():
                if name == "trace.overhead_frac":
                    continue
                values = [row[name] for row in rows]
                summary["metrics"][name] = _stat(values, unit)
            overhead = (
                statistics.median(s["wall_s"] for s in traced)
                / statistics.median(s["wall_s"] for s in untraced)
                - 1.0
            )
            summary["metrics"]["trace.overhead_frac"] = _stat([overhead], "ratio")
    elif good:
        for name, unit in END_TO_END.items():
            summary["metrics"][name] = _stat([s[name] for s in good], unit)
    return summary


def _stat(values: list[float], unit: str) -> dict:
    return {
        "value": statistics.median(values),
        "unit": unit,
        "samples": len(values),
        "min": min(values),
        "max": max(values),
    }


def fingerprint(samples: list[dict]) -> dict:
    """Commit, source digest, interpreter, NumPy and CPU count of this record."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    env = samples[0]["environment"] if samples else {}
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "numpy_enabled": env.get("numpy_enabled"),
        "repro_disable_numpy": os.environ.get("REPRO_DISABLE_NUMPY"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    summaries = {}
    all_samples = []
    try:
        for name in names:
            samples = measure(name, args.seed, args.seconds, trace)
            all_samples += samples
            summaries[name] = summarise(samples, trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"{'workload':<16} {'metric':<42} {'median':>16} {'unit':<6} n")
    for name, summary in summaries.items():
        for metric, stat in summary["metrics"].items():
            print(f"{name:<16} {metric:<42} {stat['value']:>16.7g} {stat['unit']:<6} {stat['samples']}")
        for problem in summary["problems"]:
            print(f"{name}: FAILED: {problem}")
    record = {
        "fingerprint": fingerprint(all_samples),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": summaries,
    }
    print(json.dumps({"record": record}))

    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    metrics = {}
    for name, summary in summaries.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, stat in summary["metrics"].items():
            metrics[prefix + metric] = {"value": stat["value"], "unit": stat["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
