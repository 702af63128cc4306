"""Every ``repro`` module imports with only the declared runtime dependencies.

A clean install gets exactly ``pyproject.toml``'s ``dependencies``; a module
that imports anything else at import time breaks ``import repro...`` there,
even when the developer's environment happens to have the package.  The
check runs in a subprocess whose ``sys.meta_path`` refuses every top-level
module that is neither in the standard library, nor ``repro``, nor a
declared dependency.

SciPy is declared but serves only the LP lower bounds: a second subprocess
drives the simulator, the 2-spanner, flood-max and the bulk CSR build and
checks that none of them loaded it (its import alone is most of a small
run's peak RSS).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

_CHILD = """
import importlib, importlib.machinery, os, sys, sysconfig

ALLOWED = set(sys.stdlib_module_names) | {"repro"} | set(sys.argv[1].split(","))
STDLIB = tuple(os.path.join(sysconfig.get_path(key), "") for key in ("stdlib", "platstdlib"))

class Refuse:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top in ALLOWED:
            return None
        spec = importlib.machinery.PathFinder.find_spec(top)
        origin = (spec and spec.origin) or ""
        if spec is None or (origin.startswith(STDLIB) and "-packages" not in origin):
            return None  # not installed, or a stdlib helper such as _sysconfigdata
        raise ModuleNotFoundError(f"undeclared dependency {top!r}", name=top)

sys.meta_path.insert(0, Refuse())
for module in sys.argv[2:]:
    importlib.import_module(module)
"""


def declared_dependencies() -> list[str]:
    """Top-level module names of ``[project] dependencies`` in pyproject.toml.

    Plain string handling: ``tomllib`` is not in Python 3.10's stdlib.
    """
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    start = text.index("\ndependencies = [") + len("\ndependencies = [")
    body = text[start : text.index("]", start)]
    names = []
    for item in body.split(","):
        requirement = item.strip().strip("\"'")
        for stop in "<>=!~;[ ":
            requirement = requirement.split(stop)[0]
        if requirement:
            names.append(requirement.replace("-", "_"))
    return names


def repro_modules() -> list[str]:
    """Dotted names of every module under ``src/repro``."""
    paths = sorted((SRC / "repro").rglob("*.py"))
    dotted = (".".join(path.relative_to(SRC).with_suffix("").parts) for path in paths)
    return [name.removesuffix(".__init__") for name in dotted]


def import_with_declared_dependencies(modules: list[str]) -> subprocess.CompletedProcess:
    """Import ``modules`` in a subprocess that refuses undeclared dependencies."""
    return subprocess.run(
        [sys.executable, "-c", _CHILD, ",".join(declared_dependencies()), *modules],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_every_module_imports_with_declared_dependencies_only():
    assert declared_dependencies() == ["numpy", "scipy"]
    modules = repro_modules()
    assert "repro.graphs" in modules and "repro.experiments.cli" in modules
    result = import_with_declared_dependencies(modules)
    assert result.returncode == 0, result.stderr


def test_installed_undeclared_module_is_refused():
    # pytest runs this test but is no runtime dependency: the finder must refuse it.
    result = import_with_declared_dependencies(["pytest"])
    assert result.returncode != 0
    assert "undeclared dependency 'pytest'" in result.stderr


_SCIPY_FREE_CHILD = """
import json, sys
import repro, repro.experiments.cli
from repro.core import run_flood_max, run_two_spanner
from repro.distributed import NodeProgram, Simulator
from repro.experiments.families import build_graph
from repro.graphs import complete_graph, gnp_random_graph
from repro.spanner import lp_lower_bound_2spanner


class Ping(NodeProgram):
    def on_start(self, ctx):
        for dst in sorted(ctx.neighbors):
            ctx.send(dst, 1)

    def on_round(self, ctx, inbox):
        ctx.set_output(len(inbox))
        ctx.halt()


def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")


loaded = {"import": scipy_modules()}
graph = gnp_random_graph(40, 0.2, seed=3)
assert run_two_spanner(graph, seed=1).edges
assert run_flood_max(graph, rounds=6, seed=2, vectorize=False).converged
targeted = Simulator(graph, lambda v: Ping(), seed=4, engine="columnar").run(max_rounds=3)
assert sum(targeted.outputs.values()) == 2 * graph.number_of_edges()
# ~2000 components: the bulk build's component kernel and chain patch run.
csr = build_graph(("sparse_gnp_csr", 3000, 2e-4, 5))
assert run_flood_max(csr, rounds=3, seed=2).rounds == 3
loaded["runs"] = scipy_modules()
# Each triangle edge at 1/2: itself plus its 2-path covers it.
assert abs(lp_lower_bound_2spanner(complete_graph(3)) - 1.5) < 1e-9
loaded["lp"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_simulator_graph_builds_and_spanner_do_not_load_scipy():
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_CHILD],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["runs"] == []
    # Positive control: the LP bound is what loads SciPy.
    assert "scipy.optimize" in loaded["lp"]
