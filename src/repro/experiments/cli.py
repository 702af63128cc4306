"""Command-line interface: ``python -m repro.experiments``.

Subcommands::

    list [--json]                 show every registered experiment + scenarios
                                  (--json: machine-readable ids, scenario
                                  counts, spec hashes, per-experiment engines,
                                  targeted-traffic flag, engine capability
                                  map and max_n for tooling/CI)
    run E01 E16 E20 [--all]       run experiments (sharded over --jobs workers)
        --jobs N                  worker processes (default 1)
        --json PATH               write the stable JSON report
        --cache DIR               on-disk result cache keyed by spec hash
        --engine NAME             pin engine-aware scenarios to one simulator
                                  engine (indexed / columnar / reference)
        --adversary SPEC          pin adversary-aware scenarios to one fault
                                  policy (none / drop:RATE / crash:N@R,... /
                                  budget:BITS)
        --scenario SUBSTR         run only scenarios whose name contains the
                                  substring (skips cross-scenario verify
                                  hooks; the CI smoke knob for heavy tiers)
        --strip-timing            drop wall-time fields from the JSON so
                                  repeated runs are byte-identical
        --no-tables               suppress the reproduced tables

Exit status is non-zero when any experiment invariant fails, so the ``run``
subcommand doubles as a CI smoke check.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.distributed.adversary import build_adversary
from repro.distributed.simulator import ENGINES
from repro.experiments import registry
from repro.experiments.registry import ExperimentCheckError
from repro.experiments.reporting import experiment_table
from repro.experiments.runner import SCHEMA, ResultCache, run_experiments, strip_timing, timed


def _scenario_n(spec) -> int | None:
    """Best-effort problem size of a scenario: its ``n`` param, else the
    first argument of its ``graph`` family tuple (the ``n`` slot for every
    sized family in :data:`repro.experiments.families.FAMILIES`)."""
    n = spec.param("n")
    if isinstance(n, int):
        return n
    graph = spec.param("graph")
    if isinstance(graph, tuple) and len(graph) >= 2 and isinstance(graph[1], int):
        return graph[1]
    return None


def _cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        # Machine-readable listing for tooling/CI: ids, scenario counts and
        # spec hashes are enough to detect registry drift without running
        # anything; engines/max_n let tooling pick tiers (e.g. "the biggest
        # columnar experiment") without parsing scenario names.  "targeted"
        # says whether the workload issues ctx.send, and "engine_support"
        # maps each engine to whether it can carry that traffic shape —
        # all True since the targeted fast path, kept explicit so tooling
        # never has to hard-code engine capabilities.
        entries = []
        for identifier in registry.experiment_ids():
            experiment = registry.get_experiment(identifier)
            sizes = [
                n for spec in experiment.scenarios if (n := _scenario_n(spec)) is not None
            ]
            entries.append(
                {
                    "id": experiment.id,
                    "title": experiment.title,
                    "scenario_count": len(experiment.scenarios),
                    "targeted": experiment.targeted,
                    "engine_support": {engine: True for engine in ENGINES},
                    "engines": sorted(
                        {spec.engine for spec in experiment.scenarios if spec.engine}
                    ),
                    "max_n": max(sizes) if sizes else None,
                    "scenarios": [
                        {"name": spec.name, "spec_hash": spec.spec_hash()}
                        for spec in experiment.scenarios
                    ],
                }
            )
        json.dump({"schema": SCHEMA, "experiments": entries}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    for identifier in registry.experiment_ids():
        experiment = registry.get_experiment(identifier)
        print(f"{experiment.id}  {experiment.title}")
        print(f"     {experiment.headline}")
        for spec in experiment.scenarios:
            print(f"     - {spec.name}  [{spec.spec_hash()}]")
    return 0


def _resolve_ids(args: argparse.Namespace) -> list[str]:
    if args.all:
        return registry.experiment_ids()
    if not args.experiments:
        raise SystemExit("run: name experiments (e.g. E01 E16 E17) or pass --all")
    return [identifier.upper() for identifier in args.experiments]


def _cmd_run(args: argparse.Namespace) -> int:
    identifiers = _resolve_ids(args)
    if args.adversary is not None:
        try:
            # Validate (and canonicalise) the spec up front so a typo fails
            # before any scenario runs, with the parser's message.
            args.adversary = build_adversary(args.adversary).spec()
        except ValueError as error:
            print(f"run: {error}", file=sys.stderr)
            return 2
    cache = ResultCache(args.cache) if args.cache else None
    try:
        report, elapsed = timed(
            run_experiments,
            identifiers,
            jobs=args.jobs,
            cache=cache,
            engine=args.engine,
            adversary=args.adversary,
            scenario_filter=args.scenario,
        )
    except ExperimentCheckError as error:
        print(f"experiment check failed: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        # e.g. a --scenario substring matching nothing.
        print(f"run: {error}", file=sys.stderr)
        return 2
    except KeyError as error:
        # e.g. a mistyped experiment id — the registry message lists the
        # known ids; surface it cleanly instead of a traceback.
        print(str(error).strip('"\''), file=sys.stderr)
        return 2

    if not args.no_tables:
        for entry in report["experiments"]:
            experiment = registry.get_experiment(entry["id"])
            results = [scenario["result"] for scenario in entry["scenarios"]]
            experiment_table(experiment, results)
        print()

    scenario_count = sum(len(entry["scenarios"]) for entry in report["experiments"])
    cached_count = sum(
        1
        for entry in report["experiments"]
        for scenario in entry["scenarios"]
        if scenario["cached"]
    )
    print(
        f"ran {scenario_count} scenarios across {len(identifiers)} experiments "
        f"in {elapsed:.2f}s (jobs={args.jobs}, cached={cached_count})",
        file=sys.stderr,
    )

    if args.json:
        payload: dict[str, Any] = strip_timing(report) if args.strip_timing else report
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``python -m repro.experiments`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the E01-E20 experiment reproductions through the "
        "scenario registry and sharded runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list registered experiments and scenarios")
    lister.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable listing (experiment ids, scenario "
        "counts, spec hashes) on stdout for tooling/CI consumption",
    )
    lister.set_defaults(func=_cmd_list)

    runner = sub.add_parser("run", help="run experiments and emit the JSON report")
    runner.add_argument("experiments", nargs="*", help="experiment ids, e.g. E01 E16 E17")
    runner.add_argument("--all", action="store_true", help="run every registered experiment")
    runner.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    runner.add_argument("--json", metavar="PATH", help="write the JSON report here")
    runner.add_argument(
        "--cache",
        metavar="DIR",
        help="on-disk result cache keyed by spec hash (keys cover spec "
        "contents only — clear the directory after code changes)",
    )
    runner.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="pin engine-aware scenarios to one simulator engine (the "
        "override becomes part of each spec, hence of its cache key); "
        "every engine carries both broadcast and targeted traffic, "
        "bit-for-bit",
    )
    runner.add_argument(
        "--adversary",
        metavar="SPEC",
        default=None,
        help="pin adversary-aware scenarios to one fault policy "
        "('none', 'drop:RATE[:SALT]', 'crash:NODE@ROUND[,...]', "
        "'budget:BITS'; the override becomes part of each spec, hence of "
        "its cache key)",
    )
    runner.add_argument(
        "--scenario",
        metavar="SUBSTR",
        default=None,
        help="run only scenarios whose name contains this substring; "
        "cross-scenario verify hooks are skipped and the report records "
        "the filter (CI smoke knob for heavy tiers such as E20)",
    )
    runner.add_argument(
        "--strip-timing",
        action="store_true",
        help="omit wall-time fields from the JSON (byte-identical across runs)",
    )
    runner.add_argument("--no-tables", action="store_true", help="suppress result tables")
    runner.set_defaults(func=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    return args.func(args)
