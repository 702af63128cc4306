"""reprolint: AST-based determinism and hot-path invariant checker.

The repo's engine-parity guarantees (bit-for-bit identity across the
indexed/columnar/targeted engine paths, seeded adversary determinism,
lowered/stepped kernel equality) are enforced *dynamically* by the
differential test suite.  ``reprolint`` is the *static* half of that
contract: a small, dependency-free framework that walks the Python AST of
``src/repro/`` and flags constructs that can silently break determinism or
regress the hot paths — unseeded global randomness, hash-order-dependent
iteration, wall-clock reads inside algorithm code, NumPy outside the
array-kernel modules, and per-message ``estimate_bits`` calls that bypass the size tables.

Layout
------

``engine``
    ``Rule`` base class, ``Finding`` record, registry, file walker,
    ``# reprolint: disable=...`` pragma handling and baseline files.
``rules``
    The shipped REP001-REP006 rules (see ``docs/linting.md``).
``reporters``
    Text and JSON output.
``cli``
    The ``python tools/reprolint`` command line.

Run it as::

    python tools/reprolint --select all src/repro

The checker is wired into tier-1 via ``tests/test_lint.py`` and into CI's
lint/docs job, mirroring how ``tools/check_docstrings.py`` gates the docs.
"""

from reprolint.engine import (  # noqa: F401  (re-exported convenience API)
    Baseline,
    FileContext,
    Finding,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    registry,
)

__version__ = "1.0"
