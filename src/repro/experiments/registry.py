"""The experiment registry: declarative scenario lists plus runner hooks.

Every experiment (E01-E23, less the retired E18 and E20) registers one
:class:`Experiment` object mapping its id to

* ``scenarios`` — the declarative :class:`~repro.experiments.spec.ScenarioSpec`
  list (the sweep the experiment reproduces),
* ``run_scenario`` — a module-level function executing ONE spec and returning
  a JSON-able result dict (per-scenario invariants are checked here with
  :func:`check`, so they hold under pytest and the CLI alike),
* ``verify`` — optional cross-scenario checks over the ordered result list,
  returning a JSON-able summary dict,
* ``columns`` — the table layout ``(header, result key, format spec | None)``
  used by both the CLI and the pytest-benchmark wrappers.

Workers resolve specs back to runner functions through this registry (only
the spec itself ever crosses a process boundary), so everything stays
picklable under both fork and spawn start methods.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.experiments.spec import ScenarioSpec

Columns = tuple[tuple[str, str, str | None], ...]


#: flattened result keys treated as timing (excluded from determinism checks)
TIMING_PREFIX = "timing."
#: fault counters an adversary-aware run adds to its metrics
ADVERSARY_PREFIX = "metrics.adversary_"


class ExperimentCheckError(AssertionError):
    """A reproduced invariant failed (raised by scenario runners / verify)."""


def check(condition: bool, message: str) -> None:
    """Assert an experiment invariant, surviving ``python -O``."""
    if not condition:
        raise ExperimentCheckError(message)


def check_twins(
    tag: str,
    left: dict[str, Any],
    right: dict[str, Any],
    exempt: Sequence[str] = (),
    zero_rate: bool = False,
) -> None:
    """Assert two flattened results of one workload carry identical physics.

    Compares every key either side reports except ``timing.*`` and the
    ``exempt`` labels naming the twins; a one-sided key is a disagreement,
    unless ``zero_rate`` (a zero-rate adversary twin) and it is a
    ``metrics.adversary_*`` counter whose value is 0.
    """
    for key in sorted((left.keys() | right.keys()) - set(exempt)):
        if key.startswith(TIMING_PREFIX):
            continue
        if zero_rate and key.startswith(ADVERSARY_PREFIX) and (key in left) != (key in right):
            value = left.get(key, right.get(key))
            check(value == 0, f"{tag}: zero-rate twin reports {key} = {value!r}")
        else:
            check(
                key in left and key in right and left[key] == right[key],
                f"{tag}: twins disagree on {key}: "
                f"{left.get(key, '<missing>')!r} != {right.get(key, '<missing>')!r}",
            )


def check_flood_max(name: str, result: Any, graph: Any, budget: int | None = None) -> None:
    """Assert flood-max on ``graph`` converged on the max label n - 1.

    With a fixed ``budget`` it also pins exactly ``budget`` rounds and
    ``budget * 2m`` messages: every vertex broadcasts in rounds 0..budget-1.
    """
    n = graph.number_of_nodes()
    check(result.converged, f"{name}: flood-max did not converge")
    check(
        result.leader == n - 1,
        f"{name}: elected leader {result.leader!r}, expected the max label {n - 1}",
    )
    if budget is None:
        return
    check(
        result.rounds == budget,
        f"{name}: used {result.rounds} rounds, the program budget is {budget}",
    )
    expected = budget * 2 * graph.number_of_edges()
    messages = result.metrics.messages_sent
    check(
        messages == expected,
        f"{name}: {messages} messages, expected budget * 2m = {expected}",
    )


@dataclass
class Experiment:
    """One registered experiment: scenarios, runner, checks, table layout.

    ``targeted`` records whether the experiment's workload issues targeted
    sends (``ctx.send``) — surfaced by ``list --json`` so tooling can tell
    traffic shapes apart without running anything.  Since the targeted
    fast path every engine carries both traffic shapes; the only remaining
    admission restriction is semantic (broadcast-only models reject
    ``ctx.send`` on every engine).
    """

    id: str
    title: str
    headline: str
    columns: Columns
    scenarios: list[ScenarioSpec]
    run_scenario: Callable[[ScenarioSpec], dict[str, Any]]
    verify: Callable[[Sequence[dict[str, Any]]], dict[str, Any]] | None = None
    tags: tuple[str, ...] = field(default=())
    targeted: bool = False


_REGISTRY: dict[str, Experiment] = {}
_LOADED = False
#: retired ids -> the experiment that now runs their scenarios.
_RETIRED = {"E18": "E23", "E20": "E23"}


def register(experiment: Experiment) -> Experiment:
    """Add ``experiment`` to the registry, validating id/scenario uniqueness."""
    if experiment.id in _REGISTRY:
        raise ValueError(f"experiment {experiment.id} registered twice")
    names = [spec.name for spec in experiment.scenarios]
    if len(set(names)) != len(names):
        raise ValueError(f"experiment {experiment.id} has duplicate scenario names")
    for spec in experiment.scenarios:
        if spec.experiment != experiment.id:
            raise ValueError(
                f"scenario {spec.name!r} claims experiment {spec.experiment!r}, "
                f"registered under {experiment.id!r}"
            )
    _REGISTRY[experiment.id] = experiment
    return experiment


def load_all() -> None:
    """Import every definition module (idempotent; spawn-safe)."""
    global _LOADED
    if _LOADED:
        return
    from repro.experiments import (  # noqa: F401
        defs_baselines,
        defs_clique_listing,
        defs_corruption,
        defs_lowerbounds,
        defs_mds,
        defs_robustness,
        defs_spanner,
        defs_substrate,
        defs_vectorized,
    )

    # Only after every import succeeded: a failed import must propagate again
    # on the next call, not leave a silently half-loaded registry behind.
    _LOADED = True


def experiment_ids() -> list[str]:
    """Sorted ids of every registered experiment (loads definitions)."""
    load_all()
    return sorted(_REGISTRY)


def get_experiment(experiment_id: str) -> Experiment:
    """Look up one experiment by (case-insensitive) id; raises ``KeyError``."""
    load_all()
    key = experiment_id.upper()
    if key in _RETIRED:
        raise KeyError(
            f"experiment {key} was retired: its flood-max scenarios run in "
            f"{_RETIRED[key]}"
        )
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r} (known: {known})")
    return _REGISTRY[key]
