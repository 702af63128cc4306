"""Shared helpers for the experiment benchmarks.

Since the experiment orchestration subsystem (``repro.experiments``) the
benchmarks are thin pytest-benchmark wrappers over the scenario registry —
see :func:`repro.experiments.bench_experiment`.  This module remains as a
small compatibility layer: ``print_table`` / ``fmt`` re-export the package
implementations, and :func:`record` attaches values to
``benchmark.extra_info`` with real flattening (it used to store ``as_dict()``
results as *nested* dicts despite claiming to flatten, so per-model counters
vanished from flat JSON consumers; nested keys now use ``key.subkey``
naming, the same convention the runner's JSON schema uses).
"""

from __future__ import annotations

from typing import Any

from repro.experiments.reporting import flatten_info, fmt, print_table  # noqa: F401


def record(benchmark, **info: Any) -> None:
    """Attach experiment outputs to the pytest-benchmark record.

    Values carrying an ``as_dict()`` method (``RunResult``, ``Metrics``) are
    converted through it, and any nested mapping is flattened into dotted
    ``key.subkey`` entries so the resulting ``extra_info`` is flat.
    """
    for key, value in info.items():
        benchmark.extra_info.update(flatten_info(value, prefix=key))

