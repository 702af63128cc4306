"""The shipped REP001-REP006 rules.

Each rule encodes one invariant the repo's dynamic test suite relies on but
cannot itself see (a nondeterministic construct may be hash-order-lucky for
every seed the tests use).  The catalogue, with worked examples and the
contract each rule protects, lives in ``docs/linting.md``.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator

from reprolint.engine import FileContext, Finding, Rule, registry


def _walk_parents(tree: ast.AST) -> Iterator[tuple[ast.AST, tuple[ast.AST, ...]]]:
    """Yield ``(node, ancestors)`` pairs, ancestors ordered root-first."""
    stack: list[ast.AST] = []

    def rec(node: ast.AST) -> Iterator[tuple[ast.AST, tuple[ast.AST, ...]]]:
        yield node, tuple(stack)
        stack.append(node)
        for child in ast.iter_child_nodes(node):
            yield from rec(child)
        stack.pop()

    yield from rec(tree)


def _last_segment(node: ast.AST) -> str:
    """Trailing identifier of a decorator/base expression (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _module_aliases(tree: ast.AST, module: str) -> set[str]:
    """Names the module ``module`` is bound to by ``import`` statements."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


@registry.register
class UnseededRandomRule(Rule):
    """REP001 — algorithm randomness must flow through a seeded ``random.Random``.

    Module-level ``random.*`` calls draw from the interpreter-global RNG:
    any import-order change, library upgrade, or unrelated consumer shifts
    the stream, and no run can be replayed from a spec.  The repo's
    contract (PR 3/PR 5) is explicit seeded ``random.Random`` instances (or
    spec-hash seeding in the runner, pragma'd where deliberate).
    """

    code = "REP001"
    name = "unseeded-global-random"
    rationale = "global random.* calls are unreplayable; use seeded random.Random"

    #: constructors of self-contained generators — the blessed access points.
    _ALLOWED = frozenset({"Random", "SystemRandom"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _module_aliases(ctx.tree, "random")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [a.name for a in node.names if a.name not in self._ALLOWED]
                if bad:
                    yield ctx.finding(
                        self,
                        node,
                        f"from-import of global RNG function(s) {', '.join(bad)}; "
                        "import random.Random and seed it explicitly",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases
                    and func.attr not in self._ALLOWED
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"call to module-level random.{func.attr}(); route all "
                        "algorithm randomness through a seeded random.Random",
                    )


@registry.register
class UnorderedIterationRule(Rule):
    """REP002 — never iterate an inline-built unordered set.

    ``for x in set(...)`` (and set displays/comprehensions used directly as
    an iterable) visit elements in ``PYTHONHASHSEED``-dependent order.  The
    moment the loop body draws randomness, emits messages, or appends to a
    result, two identical runs can diverge — and stay hash-order-lucky under
    every seed the tests happen to use.  Iterate ``sorted(...)`` or keep an
    ordered container instead; order-insensitive reductions (``sum``,
    ``max``, set algebra) are untouched because they are not ``for`` loops.
    """

    code = "REP002"
    name = "unordered-set-iteration"
    rationale = "set iteration order is hash-dependent; sort before iterating"

    @staticmethod
    def _is_inline_set(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_inline_set(it):
                    yield ctx.finding(
                        self,
                        it,
                        "iteration over an unordered set expression; iterate "
                        "sorted(...) (or an ordered container) so element order "
                        "cannot depend on PYTHONHASHSEED",
                    )


@registry.register
class BuiltinHashOrderingRule(Rule):
    """REP003 — no builtin ``hash()``/``id()`` outside ``__hash__``.

    ``hash()`` is salted per process for strings and ``id()`` is an address:
    neither survives a restart, so any decision keyed on them (adversary
    choices, tie-breaks, orderings) silently varies between runs.  Fault
    decisions must stay keyed-BLAKE2 (``distributed/adversary.py``);
    ``__hash__`` implementations themselves are exempt, and deliberate
    identity-keying (e.g. ``BitsMemo``) carries a justified pragma.
    """

    code = "REP003"
    name = "builtin-hash-ordering"
    rationale = "hash()/id() are per-process values; key decisions on stable data"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, ancestors in _walk_parents(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("hash", "id")
            ):
                continue
            if any(
                isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
                and a.name == "__hash__"
                for a in ancestors
            ):
                continue
            yield ctx.finding(
                self,
                node,
                f"builtin {node.func.id}() result is process-local; derive keys "
                "and orderings from stable values (keyed BLAKE2, labels, reprs)",
            )


@registry.register
class WallClockRule(Rule):
    """REP004 — no wall-clock reads outside the timing-whitelisted modules.

    Algorithm and engine code must be a pure function of ``(graph, seed,
    model)``; a clock read anywhere else either leaks into results (breaking
    the byte-identical serial/parallel report contract) or tempts
    time-dependent control flow.  Timing belongs to ``benchmarks/`` and to
    ``experiments/runner.py``, whose ``timed`` helper is the one clock read
    the experiment tiers and the CLI go through.
    """

    code = "REP004"
    name = "wall-clock-read"
    rationale = "clock reads outside experiments/runner.py and benchmarks/ break purity"

    _WHITELIST = (
        "*/experiments/runner.py",
        "*benchmarks/*",
    )
    _TIME_FNS = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
            "sleep",
        }
    )
    _DATETIME_FNS = frozenset({"now", "utcnow", "today"})

    def applies_to(self, path: str) -> bool:
        return not any(fnmatch(path, pat) for pat in self._WHITELIST)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        time_aliases = _module_aliases(ctx.tree, "time")
        dt_module_aliases = _module_aliases(ctx.tree, "datetime")
        from_imported: set[str] = set()  # names from-imported out of time/datetime
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    from_imported.update(
                        (a.asname or a.name) for a in node.names if a.name in self._TIME_FNS
                    )
                elif node.module == "datetime":
                    from_imported.update(
                        (a.asname or a.name)
                        for a in node.names
                        if a.name in ("datetime", "date")
                    )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                # from time import perf_counter; perf_counter()
                if func.id in from_imported and func.id in self._TIME_FNS:
                    yield ctx.finding(self, node, self._message(func.id))
            elif isinstance(func, ast.Attribute):
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in time_aliases
                    and func.attr in self._TIME_FNS
                ):
                    yield ctx.finding(self, node, self._message(f"time.{func.attr}"))
                elif func.attr in self._DATETIME_FNS and (
                    (isinstance(base, ast.Name) and base.id in from_imported)
                    or (
                        isinstance(base, ast.Attribute)
                        and isinstance(base.value, ast.Name)
                        and base.value.id in dt_module_aliases
                        and base.attr in ("datetime", "date")
                    )
                ):
                    yield ctx.finding(self, node, self._message(f"datetime {func.attr}"))

    def _message(self, what: str) -> str:
        return (
            f"wall-clock read ({what}()) outside the timing whitelist; time "
            "through repro.experiments.runner.timed or move it into benchmarks/"
        )


@registry.register
class NumpyImportDisciplineRule(Rule):
    """REP005 — NumPy only in the array-kernel modules.

    NumPy is a required dependency, but a NumPy scalar that leaks into a
    program payload is sized wrongly: ``estimate_bits(np.int64(5))`` is
    64 bits where ``estimate_bits(5)`` is 4.  So ``core/``, the node
    programs and ``experiments/`` stay NumPy-free: a ``numpy`` import is a
    finding everywhere except the array-kernel modules
    (:attr:`_KERNEL_MODULES`), which convert back to Python ints at their
    boundary.  ``TYPE_CHECKING`` imports are exempt.
    """

    code = "REP005"
    name = "numpy-outside-array-kernels"
    rationale = "numpy scalars in payloads are mis-sized; numpy only in array kernels"

    _KERNEL_MODULES = (
        "*/distributed/columnar.py",
        "*/distributed/targeted.py",
        "*/distributed/vectorize.py",
        "*/graphs/generators.py",
        "*/spanner/lp_bound.py",
    )

    def applies_to(self, path: str) -> bool:
        return not any(fnmatch(path, pat) for pat in self._KERNEL_MODULES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, ancestors in _walk_parents(ctx.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                if not self._type_checking_only(ancestors):
                    yield ctx.finding(self, node, self._MESSAGE)

    @staticmethod
    def _type_checking_only(ancestors: tuple[ast.AST, ...]) -> bool:
        return any(
            isinstance(a, ast.If) and _last_segment(a.test) == "TYPE_CHECKING"
            for a in ancestors
        )

    _MESSAGE = (
        "numpy imported outside the array-kernel modules; a numpy scalar in a "
        "payload is mis-sized by estimate_bits — keep array code in "
        "distributed/columnar.py, targeted.py, vectorize.py, "
        "graphs/generators.py or spanner/lp_bound.py"
    )


@registry.register
class HotPathDisciplineRule(Rule):
    """REP006 — ``distributed/`` hot-path discipline.

    Three checks on the engine package, whose objects are instantiated per
    node, per round or per message:

    * every class declares ``__slots__`` (instance dicts cost ~3x the
      memory and a dict probe per attribute on the hot path) — dataclass
      records, enums and exception types are exempt;
    * ``estimate_bits`` is never called inside a loop — per-message sizing
      must route through ``PayloadSizeTable``/``BitsMemo`` so a round costs
      one probe per distinct payload, not one recursive walk per message
      (``encoding.py`` itself, which implements those caches, is exempt);
    * ``estimate_bits`` is never called anywhere inside a ``vector_round``
      function — lowered whole-round kernels (E23) are the hottest path of
      all and must size payloads through the closed forms
      (``int_payload_bits`` / ``repetition_frame_bits``), loop or no loop.
    """

    code = "REP006"
    name = "hot-path-discipline"
    rationale = "distributed/ classes need __slots__; size via PayloadSizeTable"

    _EXEMPT_BASE_SUFFIXES = ("Error", "Exception", "Warning")
    _EXEMPT_BASES = frozenset({"Enum", "IntEnum", "Flag", "IntFlag", "Protocol"})
    _LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def applies_to(self, path: str) -> bool:
        return "distributed/" in path

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, ancestors in _walk_parents(ctx.tree):
            if isinstance(node, ast.ClassDef):
                finding = self._check_class(ctx, node)
                if finding is not None:
                    yield finding
            elif (
                not ctx.path.endswith("distributed/encoding.py")
                and isinstance(node, ast.Call)
                and _last_segment(node.func) == "estimate_bits"
            ):
                if any(
                    isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and a.name == "vector_round"
                    for a in ancestors
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "estimate_bits() called inside a vector_round kernel; "
                        "lowered whole-round kernels must size payloads with "
                        "the closed forms (int_payload_bits / "
                        "repetition_frame_bits) — estimate_bits is "
                        "per-message work",
                    )
                elif any(isinstance(a, self._LOOPS) for a in ancestors):
                    yield ctx.finding(
                        self,
                        node,
                        "estimate_bits() called inside a loop; size payloads through "
                        "a PayloadSizeTable (value-keyed, run-lifetime) or BitsMemo "
                        "(identity-keyed, one delivery pass) instead",
                    )

    def _check_class(self, ctx: FileContext, node: ast.ClassDef) -> Finding | None:
        if any(_last_segment(d) == "dataclass" for d in node.decorator_list):
            return None
        for base in node.bases:
            seg = _last_segment(base)
            if seg in self._EXEMPT_BASES or seg.endswith(self._EXEMPT_BASE_SUFFIXES):
                return None
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return None
        return ctx.finding(
            self,
            node,
            f"class {node.name} in distributed/ lacks __slots__; engine-package "
            "objects are instantiated per node/per message — declare __slots__ "
            "(dataclasses, enums and exceptions are exempt)",
        )
