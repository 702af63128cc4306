"""reprolint health checks: the static determinism gate runs under tier-1.

Mirrors ``tests/test_docs.py``: the same checker CI invokes
(``tools/reprolint``) is executed here so the determinism/hot-path contract
is enforced by the test suite, not just by a separate workflow step.  Four
layers:

* the real tree is clean — ``src/repro`` lints with an **empty** baseline;
* every shipped rule demonstrably fires on a negative fixture and stays
  silent on the matching positive fixture;
* the suppression machinery (inline pragmas, baseline files) round-trips;
* the JSON reporter schema is pinned for artifact consumers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from reprolint import Baseline, all_rules, lint_paths, lint_source, registry  # noqa: E402
from reprolint.reporters import JSON_SCHEMA, render_json, render_text  # noqa: E402

EXPECTED_RULES = ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006")

#: Per-rule fixture pairs.  ``bad`` must trigger exactly its rule; ``good``
#: is the idiomatic repair and must be silent.  ``path`` places the fixture
#: for the path-scoped rules (timing whitelist, distributed/ hot path).
FIXTURES = {
    "REP001": {
        "path": "src/repro/core/fixture.py",
        "bad": (
            "import random\n"
            "def pick(xs):\n"
            "    return random.choice(xs)\n"
        ),
        "good": (
            "import random\n"
            "def pick(xs, seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.choice(xs)\n"
        ),
    },
    "REP002": {
        "path": "src/repro/core/fixture.py",
        "bad": (
            "def emit(xs):\n"
            "    out = []\n"
            "    for x in set(xs):\n"
            "        out.append(x)\n"
            "    return out\n"
        ),
        "good": (
            "def emit(xs):\n"
            "    out = []\n"
            "    for x in sorted(set(xs)):\n"
            "        out.append(x)\n"
            "    return out\n"
        ),
    },
    "REP003": {
        "path": "src/repro/core/fixture.py",
        "bad": (
            "def order(items):\n"
            "    return sorted(items, key=lambda x: hash(x))\n"
        ),
        "good": (
            "class Key:\n"
            "    def _key(self):\n"
            "        return ()\n"
            "    def __hash__(self):\n"
            "        return hash(self._key())\n"
        ),
    },
    "REP004": {
        "path": "src/repro/core/fixture.py",
        "bad": (
            "import time\n"
            "def run():\n"
            "    return time.perf_counter()\n"
        ),
        "good": (
            "import math\n"
            "def run():\n"
            "    return math.pi\n"
        ),
    },
    "REP005": {
        "path": "src/repro/core/fixture.py",
        "bad": "import numpy as np\n",
        "good": "import math\n",
    },
    "REP006": {
        "path": "src/repro/distributed/fixture.py",
        "bad": (
            "class PerMessage:\n"
            "    def __init__(self, payload):\n"
            "        self.payload = payload\n"
        ),
        "good": (
            "class PerMessage:\n"
            "    __slots__ = ('payload',)\n"
            "    def __init__(self, payload):\n"
            "        self.payload = payload\n"
        ),
    },
}


def lint(source: str, path: str) -> list:
    return lint_source(source, path=path)


class TestRuleCatalogue:
    def test_all_expected_rules_registered(self):
        assert tuple(r.code for r in all_rules()) == EXPECTED_RULES

    def test_rules_carry_metadata(self):
        for rule in all_rules():
            assert rule.name and rule.rationale, rule.code

    def test_select_subset_and_unknown(self):
        assert [r.code for r in registry.select("REP002,REP001")] == ["REP001", "REP002"]
        with pytest.raises(KeyError):
            registry.select("REP999")


class TestRuleFixtures:
    @pytest.mark.parametrize("code", EXPECTED_RULES)
    def test_negative_fixture_fires(self, code):
        fixture = FIXTURES[code]
        findings = lint(fixture["bad"], fixture["path"])
        assert [f.rule for f in findings] == [code], render_text(findings)

    @pytest.mark.parametrize("code", EXPECTED_RULES)
    def test_positive_fixture_is_silent(self, code):
        fixture = FIXTURES[code]
        findings = lint(fixture["good"], fixture["path"])
        assert findings == [], render_text(findings)

    def test_rep001_flags_from_import_of_global_rng(self):
        findings = lint("from random import shuffle\n", "src/repro/core/fixture.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_rep002_flags_comprehension_over_inline_set(self):
        src = "def centres(d):\n    return [c for c in set(d.values())]\n"
        assert [f.rule for f in lint(src, "src/repro/core/fixture.py")] == ["REP002"]

    def test_rep004_whitelists_timing_modules(self):
        bad = FIXTURES["REP004"]["bad"]
        for path in ("src/repro/experiments/runner.py", "benchmarks/bench_fixture.py"):
            assert lint(bad, path) == [], path
        # The CLI and the tier definitions time through runner.timed.
        for path in (
            "src/repro/experiments/cli.py",
            "src/repro/experiments/defs_vectorized.py",
        ):
            assert [f.rule for f in lint(bad, path)] == ["REP004"], path

    def test_rep004_flags_datetime_now(self):
        src = "from datetime import datetime\nSTAMP = datetime.now()\n"
        assert [f.rule for f in lint(src, "src/repro/core/fixture.py")] == ["REP004"]

    def test_rep005_allows_type_checking_import(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    import numpy as np\n"
        )
        assert lint(src, "src/repro/distributed/fixture.py") == []

    def test_rep005_allows_only_the_array_kernel_modules(self):
        bad = FIXTURES["REP005"]["bad"]
        for path in (
            "src/repro/distributed/columnar.py",
            "src/repro/distributed/targeted.py",
            "src/repro/distributed/vectorize.py",
            "src/repro/graphs/generators.py",
            "src/repro/spanner/lp_bound.py",
        ):
            assert lint(bad, path) == [], path
        # A try/except guard no longer makes an import legal elsewhere.
        guarded = "try:\n    import numpy\nexcept ImportError:\n    pass\n"
        for src in (bad, guarded, "from numpy import int64\n"):
            for path in (
                "src/repro/distributed/simulator.py",
                "src/repro/experiments/defs_vectorized.py",
            ):
                assert [f.rule for f in lint(src, path)] == ["REP005"], (src, path)

    def test_rep006_scope_is_distributed_only(self):
        bad = FIXTURES["REP006"]["bad"]
        assert lint(bad, "src/repro/core/fixture.py") == []

    def test_rep006_exempts_dataclasses_and_exceptions(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Record:\n"
            "    x: int\n"
            "class BoomError(RuntimeError):\n"
            "    pass\n"
        )
        assert lint(src, "src/repro/distributed/fixture.py") == []

    def test_rep006_flags_estimate_bits_in_loop(self):
        src = (
            "from repro.distributed.encoding import estimate_bits\n"
            "def tally(payloads):\n"
            "    return sum(estimate_bits(p) for p in payloads)\n"
        )
        findings = lint(src, "src/repro/distributed/fixture.py")
        assert [f.rule for f in findings] == ["REP006"]
        # ...but not in encoding.py itself, which implements the caches.
        assert lint(src, "src/repro/distributed/encoding.py") == []

    def test_rep006_flags_estimate_bits_anywhere_in_vector_round(self):
        # A straight-line call — no loop — still fires inside a lowered
        # whole-round kernel: vector_round is the hottest path of all.
        src = (
            "from repro.distributed.encoding import estimate_bits\n"
            "class Kernel:\n"
            "    __slots__ = ('bits',)\n"
            "    def vector_round(self, view):\n"
            "        self.bits = estimate_bits(view)\n"
        )
        findings = lint(src, "src/repro/distributed/fixture.py")
        assert [f.rule for f in findings] == ["REP006"]
        assert "vector_round" in findings[0].message
        # The same straight-line call outside vector_round stays legal.
        legal = src.replace("def vector_round", "def measure_once")
        assert lint(legal, "src/repro/distributed/fixture.py") == []


class TestSuppression:
    BAD = FIXTURES["REP002"]["bad"]

    def test_inline_pragma_silences_the_line(self):
        patched = self.BAD.replace(
            "for x in set(xs):", "for x in set(xs):  # reprolint: disable=REP002"
        )
        assert lint(patched, "src/repro/core/fixture.py") == []

    def test_pragma_is_rule_specific(self):
        patched = self.BAD.replace(
            "for x in set(xs):", "for x in set(xs):  # reprolint: disable=REP001"
        )
        assert [f.rule for f in lint(patched, "src/repro/core/fixture.py")] == ["REP002"]

    def test_disable_all_pragma(self):
        patched = self.BAD.replace(
            "for x in set(xs):", "for x in set(xs):  # reprolint: disable=all"
        )
        assert lint(patched, "src/repro/core/fixture.py") == []

    def test_file_level_pragma(self):
        patched = "# reprolint: disable-file=REP002\n" + self.BAD
        assert lint(patched, "src/repro/core/fixture.py") == []

    def test_baseline_roundtrip(self):
        findings = lint(self.BAD, "src/repro/core/fixture.py")
        assert findings
        baseline = Baseline(json.loads(Baseline.dump(findings))["findings"])
        assert baseline.filter(findings) == []
        # A *new* finding (different snippet) is not grandfathered.
        other = lint(
            self.BAD.replace("set(xs)", "set(ys)").replace("(xs)", "(ys)"),
            "src/repro/core/fixture.py",
        )
        assert baseline.filter(other) == other


class TestRealTreeIsClean:
    def test_src_repro_clean_with_empty_baseline(self):
        baseline_path = REPO_ROOT / "tools" / "reprolint" / "baseline.json"
        baseline = Baseline.load(baseline_path)
        assert len(baseline) == 0, "the committed baseline must stay empty"
        findings = lint_paths([REPO_ROOT / "src" / "repro"], baseline=baseline)
        assert findings == [], render_text(findings)

    def test_cli_acceptance_command(self):
        # The exact command the acceptance criteria and CI run.
        proc = subprocess.run(
            [sys.executable, "tools/reprolint", "--select", "all", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "reprolint: clean" in proc.stdout


class TestJsonReporter:
    def test_schema(self):
        findings = lint(FIXTURES["REP001"]["bad"], "src/repro/core/fixture.py")
        payload = json.loads(render_json(findings, all_rules(), scanned_files=1))
        assert payload["schema"] == JSON_SCHEMA
        assert payload["tool"] == "reprolint"
        assert payload["scanned_files"] == 1
        assert [r["code"] for r in payload["rules"]] == list(EXPECTED_RULES)
        assert payload["summary"] == {"total": len(findings), "clean": False}
        row = payload["findings"][0]
        assert set(row) == {"rule", "path", "line", "col", "message", "snippet"}
        assert row["rule"] == "REP001"
        assert row["line"] >= 1

    def test_clean_report(self):
        payload = json.loads(render_json([], all_rules(), scanned_files=3))
        assert payload["findings"] == []
        assert payload["summary"] == {"total": 0, "clean": True}
