"""Declarative, picklable scenario specifications.

A :class:`ScenarioSpec` is the unit of work of the experiment orchestrator:
one (graph family x size x seed x communication model x algorithm
configuration) point, identified by the experiment it belongs to and a
scenario name unique within that experiment.  Specs are frozen dataclasses
built only from JSON-able primitives (and nested tuples of them), so they

* pickle cleanly across ``multiprocessing`` workers,
* serialise to a canonical JSON form, and
* hash stably (``spec_hash``) for result caching — the hash depends only on
  the spec contents, never on definition order or process state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any

_PRIMITIVES = (type(None), bool, int, float, str)


def _freeze(value: Any) -> Any:
    """Canonicalise a parameter value to primitives / nested tuples."""
    if isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    raise TypeError(
        f"scenario parameters must be JSON-able primitives or sequences, got {value!r}"
    )


def _jsonable(value: Any) -> Any:
    """The JSON shape of a frozen value (tuples become lists)."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: an experiment id, a unique name, and frozen parameters.

    Two knobs are first-class (non-``params``): ``engine`` — which simulator
    engine (``"reference"`` / ``"indexed"`` / ``"columnar"``) an engine-aware
    scenario runs on — and ``adversary`` — the canonical fault-policy
    string (e.g. ``"drop:0.05"``) an adversary-aware scenario resolves via
    :func:`repro.distributed.adversary.build_adversary`.  For both,
    ``None`` means "the experiment's default" and is omitted from the
    canonical JSON, so specs predating the fields keep their hashes; a
    concrete value *is* part of the spec contents and therefore of
    ``spec_hash()`` (an override must never alias a cached result computed
    under a different engine or adversary).
    """

    experiment: str
    name: str
    params: tuple[tuple[str, Any], ...] = ()
    engine: str | None = None
    adversary: str | None = None

    @classmethod
    def make(
        cls,
        experiment: str,
        name: str,
        engine: str | None = None,
        adversary: str | None = None,
        **params: Any,
    ) -> "ScenarioSpec":
        """Build a spec, canonicalising ``params`` (sorted keys, frozen values)."""
        frozen = tuple(sorted((key, _freeze(value)) for key, value in params.items()))
        return cls(
            experiment=experiment,
            name=name,
            params=frozen,
            engine=engine,
            adversary=adversary,
        )

    def param(self, key: str, default: Any = None) -> Any:
        """The frozen value of parameter ``key``, or ``default`` if absent."""
        for name, value in self.params:
            if name == key:
                return value
        return default

    def with_engine(self, engine: str | None) -> "ScenarioSpec":
        """A copy of this spec pinned to ``engine`` (used by ``run --engine``)."""
        return replace(self, engine=engine)

    def with_adversary(self, adversary: str | None) -> "ScenarioSpec":
        """A copy pinned to fault policy ``adversary`` (``run --adversary``)."""
        return replace(self, adversary=adversary)

    def as_dict(self) -> dict[str, Any]:
        """JSON-able view: ``{"experiment", "name", "params": {...}[, "engine"][, "adversary"]}``."""
        out: dict[str, Any] = {
            "experiment": self.experiment,
            "name": self.name,
            "params": {key: _jsonable(value) for key, value in self.params},
        }
        if self.engine is not None:
            out["engine"] = self.engine
        if self.adversary is not None:
            out["adversary"] = self.adversary
        return out

    def canonical_json(self) -> str:
        """Canonical serialisation (sorted keys, no whitespace) — the hash input."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Stable content hash, the result-cache key."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:16]
