"""Rule framework: findings, pragmas, baselines, registry and file walker.

Everything here is deliberately stdlib-only (``ast``, ``re``, ``json``,
``pathlib``) so the checker runs in any CI job without installing
anything.

Suppression model
-----------------

Two escape hatches, both explicit and greppable:

* **Inline pragmas** — ``# reprolint: disable=REP001`` (comma-separated
  codes, or ``all``) on the *first physical line* of the flagged statement
  silences that line.  ``# reprolint: disable-file=REP004`` within the
  first ten lines of a module silences a rule for the whole file.  Pragmas
  are the right tool for a *deliberate, documented* exception (say why on
  the same line or the one above).
* **Baseline file** — a JSON list of grandfathered findings matched by
  ``(rule, path, snippet)``; see :class:`Baseline`.  The baseline is the
  right tool for *inherited debt you intend to burn down*: new code never
  matches old snippets, so the debt can only shrink.  The committed
  baseline (``tools/reprolint/baseline.json``) is empty and the tier-1
  test keeps it that way.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

#: Matches one inline pragma comment.  ``disable`` silences the line,
#: ``disable-file`` (near the top of the module) silences the whole file.
_PRAGMA = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|disable-file)="
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: ``disable-file`` pragmas are only honoured within this many leading lines.
_FILE_PRAGMA_WINDOW = 10


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  #: rule code, e.g. ``"REP002"``
    path: str  #: file path as scanned (posix, relative when possible)
    line: int  #: 1-based line of the offending node
    col: int  #: 0-based column of the offending node
    message: str  #: human-oriented description with the suggested fix
    snippet: str  #: stripped source text of the offending line

    def key(self) -> tuple[str, str, str]:
        """Line-number-independent identity used for baseline matching."""
        return (self.rule, self.path, self.snippet)

    def as_dict(self) -> dict:
        """JSON-safe representation (the JSON reporter's row format)."""
        return asdict(self)


class FileContext:
    """Everything a rule may inspect about one source file."""

    __slots__ = ("path", "source", "lines", "tree")

    def __init__(self, path: str, source: str, tree: ast.AST) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    def line_text(self, lineno: int) -> str:
        """Source text of 1-based ``lineno`` (empty when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` for ``node`` with this file's coordinates."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.code,
            path=self.path,
            line=lineno,
            col=col,
            message=message,
            snippet=self.line_text(lineno).strip(),
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`code` / :attr:`name` / :attr:`rationale` and
    implement :meth:`check`, yielding :class:`Finding` objects.  Rules are
    stateless across files — any per-file bookkeeping lives inside
    ``check`` — so one instance serves the whole run.
    """

    code: str = ""  #: stable identifier, e.g. ``"REP001"``
    name: str = ""  #: short kebab-case label for listings
    rationale: str = ""  #: one-line justification shown by ``--list-rules``

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield every violation of this rule in ``ctx``."""
        raise NotImplementedError

    def applies_to(self, path: str) -> bool:
        """Whether this rule scans ``path`` at all (default: every file)."""
        return True


class Registry:
    """Orders rules by code and resolves ``--select`` expressions."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register(self, rule_cls: type[Rule]) -> type[Rule]:
        """Class decorator: instantiate and index a rule by its code."""
        rule = rule_cls()
        if not rule.code:
            raise ValueError(f"{rule_cls.__name__} has no code")
        if rule.code in self._rules:
            raise ValueError(f"duplicate rule code {rule.code}")
        self._rules[rule.code] = rule
        return rule_cls

    def rules(self) -> list[Rule]:
        """All registered rules, sorted by code."""
        return [self._rules[code] for code in sorted(self._rules)]

    def select(self, expr: str | None) -> list[Rule]:
        """Resolve a ``--select`` expression (``all``/``None`` = every rule)."""
        if expr is None or expr.strip().lower() == "all":
            return self.rules()
        chosen: list[Rule] = []
        for raw in expr.split(","):
            code = raw.strip().upper()
            if not code:
                continue
            if code not in self._rules:
                known = ", ".join(sorted(self._rules))
                raise KeyError(f"unknown rule {code!r}; known rules: {known}")
            chosen.append(self._rules[code])
        return sorted(chosen, key=lambda r: r.code)


#: The process-wide registry rules attach to via ``@registry.register``.
registry = Registry()


def all_rules() -> list[Rule]:
    """All registered rules (imports the rule module on first use)."""
    _ensure_rules_loaded()
    return registry.rules()


def _ensure_rules_loaded() -> None:
    # Deferred so ``engine`` never depends on ``rules`` at import time
    # (rules import engine for the base classes).
    import reprolint.rules  # noqa: F401


# --------------------------------------------------------------- suppression


class Baseline:
    """Grandfathered findings, matched by ``(rule, path, snippet)``.

    Matching ignores line numbers so unrelated edits above a grandfathered
    finding do not resurrect it; multiset semantics make two identical
    offending lines need two baseline entries.
    """

    def __init__(self, entries: Iterable[dict] | None = None) -> None:
        self._budget: dict[tuple[str, str, str], int] = {}
        for entry in entries or ():
            key = (entry["rule"], entry["path"], entry["snippet"])
            self._budget[key] = self._budget.get(key, 0) + 1

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file (``{"version": 1, "findings": [...]}``)."""
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("version") != 1:
            raise ValueError(f"unsupported baseline version in {path}")
        return cls(payload.get("findings", ()))

    @staticmethod
    def dump(findings: Iterable[Finding]) -> str:
        """Serialise ``findings`` as baseline-file JSON (for ``--write-baseline``)."""
        rows = [
            {"rule": f.rule, "path": f.path, "snippet": f.snippet}
            for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule))
        ]
        return json.dumps({"version": 1, "findings": rows}, indent=2) + "\n"

    def __len__(self) -> int:
        return sum(self._budget.values())

    def filter(self, findings: list[Finding]) -> list[Finding]:
        """Findings not covered by the baseline (consumes matched budget)."""
        budget = dict(self._budget)
        fresh: list[Finding] = []
        for finding in findings:
            key = finding.key()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
            else:
                fresh.append(finding)
        return fresh


def _pragma_tables(ctx: FileContext) -> tuple[dict[int, set[str]], set[str]]:
    """Per-line and per-file pragma codes for ``ctx`` (codes upper-cased)."""
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    for lineno, text in enumerate(ctx.lines, start=1):
        if "reprolint" not in text:
            continue
        match = _PRAGMA.search(text)
        if match is None:
            continue
        codes = {c.strip().upper() for c in match.group("codes").split(",") if c.strip()}
        if match.group("kind") == "disable-file":
            if lineno <= _FILE_PRAGMA_WINDOW:
                per_file |= codes
        else:
            per_line.setdefault(lineno, set()).update(codes)
    return per_line, per_file


def _suppressed(finding: Finding, per_line: dict[int, set[str]], per_file: set[str]) -> bool:
    for codes in (per_file, per_line.get(finding.line, ())):
        if "ALL" in codes or finding.rule in codes:
            return True
    return False


# -------------------------------------------------------------------- driver


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Iterable[Rule] | None = None,
    honor_pragmas: bool = True,
) -> list[Finding]:
    """Lint one source string — the fixture-test entry point.

    ``path`` participates in path-scoped rules (timing whitelists, the
    ``distributed/`` hot-path scope), so fixtures pick their virtual
    location; posix separators are normalised.
    """
    path = path.replace("\\", "/")
    if rules is None:
        rules = all_rules()
    tree = ast.parse(source, filename=path)
    ctx = FileContext(path, source, tree)
    findings: list[Finding] = []
    for rule in rules:
        if rule.applies_to(path):
            findings.extend(rule.check(ctx))
    if honor_pragmas:
        per_line, per_file = _pragma_tables(ctx)
        findings = [f for f in findings if not _suppressed(f, per_line, per_file)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the sorted ``*.py`` files to scan."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            yield path


def lint_paths(
    paths: Iterable[str | Path],
    rules: Iterable[Rule] | None = None,
    baseline: Baseline | None = None,
) -> list[Finding]:
    """Lint files/directories; returns findings not covered by ``baseline``."""
    if rules is None:
        rules = all_rules()
    rules = list(rules)
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        rel = file_path.as_posix()
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, path=rel, rules=rules))
    if baseline is not None:
        findings = baseline.filter(findings)
    return findings
