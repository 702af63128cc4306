"""Outside-in layer trace for the benchmark.

Nothing here changes the library.  Each layer is timed by wrapping the
calls *into* it — module functions, class methods, and the closures the
engines build — for the duration of one iteration, then restoring the
originals.  Spans nest: a layer's self time is its span's duration minus the
time of the traced spans it called, so the self times of all layers plus the
harness's own unattributed time add up to the traced iteration's wall time.

With tracing off only :class:`RunProbe` is installed: a single wrapper around
``Simulator.run`` that records when ``run`` was entered and left, which is
what separates ``setup_s`` from the rest of ``wall_s``.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager, nullcontext

import repro.core.star_selection as star_selection
import repro.core.two_spanner as two_spanner
import repro.distributed.columnar as columnar
import repro.distributed.encoding as encoding
import repro.distributed.models as models
import repro.distributed.simulator as simulator
import repro.distributed.targeted as targeted
import repro.distributed.vectorize as vectorize
import repro.spanner.stars as stars
from repro.core.flood_max import FloodMaxProgram
from repro.graphs.base import BaseGraph

clock = time.perf_counter

#: Span name of ``Simulator.run``; reported inclusive (``run_s``), while
#: every other span is reported as self time.
RUN = "distributed.simulator.run"
#: Pseudo-span from ``run`` entry to the first call into the round machinery.
CONTEXTS = "distributed.simulator.contexts"


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark in MB (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RunProbe:
    """Entry/exit timestamps of the (single) ``Simulator.run`` call."""

    def __init__(self) -> None:
        self.sim = None
        self.entered: float | None = None
        self.left: float | None = None


class Tracer:
    """Nested span recorder: per-name self seconds, total seconds, calls.

    Self time uses one running counter instead of a frame stack: ``covered``
    is the time of all spans closed so far, so a span's children are the
    growth of ``covered`` while it was open.  That keeps the per-call cost
    of a wrapper — paid millions of times on per-node program steps — to
    two clock reads and a few float additions.
    """

    def __init__(self) -> None:
        #: span name -> [total seconds, self seconds, calls]
        self.acc: dict[str, list] = {}
        self.covered = [0.0]
        self.contexts_open = False
        self._contexts_start: tuple[float, float] | None = None
        self._depth: dict[str, list[int]] = {}

    def _slot(self, name: str) -> list:
        slot = self.acc.get(name)
        if slot is None:
            slot = self.acc[name] = [0.0, 0.0, 0]
            self._depth[name] = [0]
        return slot

    def _close(self, slot: list, covered_at_open: float, elapsed: float) -> None:
        slot[0] += elapsed
        slot[1] += elapsed - (self.covered[0] - covered_at_open)
        slot[2] += 1
        self.covered[0] = covered_at_open + elapsed

    @property
    def self_s(self) -> dict[str, float]:
        return {name: slot[1] for name, slot in self.acc.items()}

    @property
    def total_s(self) -> dict[str, float]:
        return {name: slot[0] for name, slot in self.acc.items()}

    @property
    def calls(self) -> dict[str, int]:
        return {name: slot[2] for name, slot in self.acc.items()}

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as layer ``name``."""
        slot = self._slot(name)
        covered = self.covered[0]
        start = clock()
        try:
            yield
        finally:
            self._close(slot, covered, clock() - start)

    def open_contexts(self) -> None:
        """Start the contexts pseudo-span (called at ``run`` entry)."""
        self._slot(CONTEXTS)
        self._contexts_start = (self.covered[0], clock())
        self.contexts_open = True

    def end_contexts(self) -> None:
        """Close the contexts pseudo-span at the first round-machinery call."""
        covered, start = self._contexts_start
        self.contexts_open = False
        self._close(self.acc[CONTEXTS], covered, clock() - start)

    def wrap(self, name, fn, *, top_level: bool = False, ends_contexts: bool = False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``top_level`` times only the outermost of nested calls sharing the
        name (recursive functions such as ``estimate_bits``).
        ``ends_contexts`` marks a first call into the round machinery.
        A call that raises fails the iteration, so no cleanup is attempted.
        """
        slot = self._slot(name)
        depth = self._depth[name]
        covered = self.covered
        tracer = self

        if ends_contexts:
            inner = self.wrap(name, fn, top_level=top_level)

            def traced_marker(*args, **kwargs):
                if tracer.contexts_open:
                    tracer.end_contexts()
                return inner(*args, **kwargs)

            return traced_marker

        if top_level:

            def traced_top(*args, **kwargs):
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                at_open = covered[0]
                start = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                depth[0] = 0
                slot[0] += elapsed
                slot[1] += elapsed - (covered[0] - at_open)
                slot[2] += 1
                covered[0] = at_open + elapsed
                return result

            return traced_top

        def traced(*args, **kwargs):
            at_open = covered[0]
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            slot[0] += elapsed
            slot[1] += elapsed - (covered[0] - at_open)
            slot[2] += 1
            covered[0] = at_open + elapsed
            return result

        return traced

    def wrap_builder(self, build_name: str, collect_name: str, fn, *, ends_contexts=False):
        """Wrap a ``build_*_collect`` factory and the closure it returns."""
        build = self.wrap(build_name, fn, ends_contexts=ends_contexts)

        def traced_builder(*args, **kwargs):
            return self.wrap(collect_name, build(*args, **kwargs))

        return traced_builder


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op when tracing is off."""
    return nullcontext() if tracer is None else tracer.span(name)


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def set(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner)[attr] if own else None, own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _install_probe(patches: _Patches, probe: RunProbe, tracer: Tracer | None) -> None:
    run = simulator.Simulator.run

    def probed_run(sim, *args, **kwargs):
        probe.sim = sim
        if tracer is None:
            probe.entered = clock()
            try:
                return run(sim, *args, **kwargs)
            finally:
                probe.left = clock()
        with tracer.span(RUN):
            probe.entered = clock()
            tracer.open_contexts()
            try:
                return run(sim, *args, **kwargs)
            finally:
                if tracer.contexts_open:
                    tracer.end_contexts()
                probe.left = clock()

    patches.set(simulator.Simulator, "run", probed_run)


def _install_layers(patches: _Patches, tracer: Tracer, programs) -> None:
    def method(owner, attr, name, **flags):
        patches.set(owner, attr, tracer.wrap(name, vars(owner)[attr], **flags))

    def function(module, attr, name, original, **flags):
        patches.set(module, attr, tracer.wrap(name, original, **flags))

    sim_cls = simulator.Simulator
    method(sim_cls, "__init__", "distributed.simulator.init")
    method(sim_cls, "_collect_indexed", "distributed.indexed.collect")

    compile_name = "graphs.topology.compile"
    for model_cls in (models.CommunicationModel, *_subclasses(models.CommunicationModel)):
        if "communication_topology" in vars(model_cls):
            method(model_cls, "communication_topology", compile_name, top_level=True)
    method(BaseGraph, "freeze", compile_name, top_level=True)

    function(simulator, "try_lower", "distributed.vectorize.lower", simulator.try_lower,
             ends_contexts=True)
    method(vectorize.EngineView, "execute", "distributed.vectorize.deliver")
    for kernel_cls in _subclasses(vectorize.VectorKernel):
        for attr in ("on_start", "vector_round"):
            if attr in vars(kernel_cls):
                method(kernel_cls, attr, "distributed.vectorize.kernel")

    patches.set(simulator, "build_columnar_collect", tracer.wrap_builder(
        "distributed.columnar.build", "distributed.columnar.collect",
        simulator.build_columnar_collect, ends_contexts=True,
    ))
    # The columnar engine imports the targeted builder lazily from its
    # module, so patching the module attribute reaches it.
    patches.set(targeted, "build_targeted_collect", tracer.wrap_builder(
        "distributed.targeted.build", "distributed.targeted.collect",
        targeted.build_targeted_collect,
    ))

    bits = encoding.estimate_bits
    for module in (encoding, columnar):
        function(module, "estimate_bits", "distributed.encoding.estimate_bits", bits,
                 top_level=True)

    densest = stars.densest_star
    for module in (stars, two_spanner, star_selection):
        function(module, "densest_star", "spanner.stars.densest", densest, top_level=True)
    choose = star_selection.choose_candidate_star
    for module in (star_selection, two_spanner):
        function(module, "choose_candidate_star", "core.star_selection.choose", choose)

    steps = {
        FloodMaxProgram: "core.flood_max.step",
        two_spanner.TwoSpannerProgram: "core.two_spanner.step",
        **programs,
    }
    for program_cls, name in steps.items():
        method(program_cls, "on_start", name, ends_contexts=True)
        method(program_cls, "on_round", name)


@contextmanager
def instrument(probe: RunProbe, tracer: Tracer | None = None, programs=None):
    """Install the run probe (and, with a tracer, every layer span).

    ``programs`` maps extra program classes (the benchmark's own) to the
    span name of their ``on_start``/``on_round`` steps.
    """
    patches = _Patches()
    try:
        _install_probe(patches, probe, tracer)
        if tracer is not None:
            _install_layers(patches, tracer, programs or {})
        yield
    finally:
        patches.restore()
