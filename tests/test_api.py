"""Guards on the package's public names and on what the benchmark reaches.

The benchmark under ``bench/`` drives the package from outside, by module
and attribute name, so a renamed or deleted function would otherwise only
show when the benchmark runs.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import edgeplace
from edgeplace.harness import ALGO_CHOICES, build_simulator, run_scenario
from edgeplace.scenarios import fig_flat_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_FILES = ("spans.py", "workloads.py", "run.py")

needs_bench = pytest.mark.skipif(
    not BENCH.is_dir(), reason="the benchmark directory is not present"
)


def _modules() -> list[str]:
    return [info.name for info in pkgutil.iter_modules(edgeplace.__path__)]


def test_package_exports_resolve() -> None:
    missing = [name for name in edgeplace.__all__ if not hasattr(edgeplace, name)]
    assert missing == []


@pytest.mark.parametrize("module", _modules())
def test_module_exports_resolve(module: str) -> None:
    mod = importlib.import_module(f"edgeplace.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _defined_names(path: Path) -> set[str]:
    """Names a module binds at its top level by ``def``, ``class`` or
    assignment, not by import."""
    names: set[str] = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_each_public_name_has_one_import_path() -> None:
    # The modules are the API: the package root lists and binds only
    # modules, and a module lists only what it defines itself.
    assert set(edgeplace.__all__) <= set(_modules()) | {"__version__"}
    loose = sorted(
        name
        for name, value in vars(edgeplace).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    )
    assert loose == []
    root = Path(edgeplace.__file__).resolve().parent
    foreign = []
    for module in _modules():
        mod = importlib.import_module(f"edgeplace.{module}")
        exported = getattr(mod, "__all__", ())
        defined = _defined_names(root / f"{module}.py")
        foreign += [f"{module}.{name}" for name in exported if name not in defined]
    assert foreign == []


def _names_used_outside_tests() -> set[str]:
    """Every ``Name`` and ``Attribute`` in the package's modules other than
    ``__init__.py``, in ``bench/`` and in ``tools/``."""
    root = Path(edgeplace.__file__).resolve().parent
    files = [p for p in root.glob("*.py") if p.name != "__init__.py"]
    for folder in (BENCH, BENCH.parent / "tools"):
        files += sorted(folder.rglob("*.py"))
    used: set[str] = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_outside_the_tests() -> None:
    # A public name that only tests reach is code to delete.  Imports and
    # definitions do not count as uses; dunders such as __version__ are
    # metadata, not code.
    exported = set(edgeplace.__all__)
    for module in _modules():
        mod = importlib.import_module(f"edgeplace.{module}")
        exported.update(getattr(mod, "__all__", ()))
    public = {name for name in exported if not name.startswith("__")}
    assert sorted(public - _names_used_outside_tests()) == []


def _ep_lookups(path: Path) -> set[tuple[str, str]]:
    """``(module, attribute)`` pairs a benchmark file looks up on the package.

    These are the chains ``ep.<module>.<attribute>`` plus the calls that
    name an attribute by string, such as ``_span(ep.simnet, "message_bits")``.
    """
    found: set[tuple[str, str]] = set()

    def module_of(node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ep"
        ):
            return node.attr
        return None

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and (mod := module_of(node.value)):
            found.add((mod, node.attr))
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            owner, attr = node.args[0], node.args[1]
            mod = module_of(owner)
            if mod and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                found.add((mod, attr.value))
    return found


@needs_bench
def test_benchmark_module_lookups_resolve() -> None:
    lookups = set().union(*(_ep_lookups(BENCH / f) for f in BENCH_FILES))
    # the chains the benchmark cannot work without, so the scan above
    # cannot pass by finding nothing
    assert {
        ("harness", "run_scenario"),
        ("harness", "min_cpu_for"),
        ("model", "check_feasible"),
        ("simnet", "message_bits"),
        ("protocol", "ProtocolNode"),
    } <= lookups
    missing = sorted(
        f"{mod}.{attr}"
        for mod, attr in lookups
        if not hasattr(importlib.import_module(f"edgeplace.{mod}"), attr)
    )
    assert missing == []


@needs_bench
def test_importing_the_package_binds_the_modules_the_benchmark_reads() -> None:
    # the benchmark reads ep.<module> right after ``import edgeplace``; in a
    # fresh interpreter, so imports made by other tests cannot bind them
    modules = {mod for f in BENCH_FILES for mod, _ in _ep_lookups(BENCH / f)}
    src = str(Path(edgeplace.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import edgeplace; print(*dir(edgeplace))"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(modules - set(proc.stdout.split())) == []


@needs_bench
def test_benchmark_wrapped_methods_exist(monkeypatch: pytest.MonkeyPatch) -> None:
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    assert spec is not None and spec.loader is not None
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_spans", spans)
    spec.loader.exec_module(spans)
    node = edgeplace.protocol.ProtocolNode
    sim = edgeplace.simnet.Simulator
    assert len(spans.HANDLERS) == 10
    for method in spans.HANDLERS + spans.NODE_METHODS:
        assert callable(getattr(node, method, None)), method
    for method in spans.SIM_METHODS + ("run",):
        assert callable(getattr(sim, method, None)), method
    assert set(spans.ALGOS) <= set(ALGO_CHOICES)
    assert hasattr(edgeplace.baselines.ExactSolverStats(), "nodes_expanded")


def test_run_results_carry_what_the_benchmark_reads() -> None:
    scenario = fig_flat_scenario()
    for name in ("name", "topology", "classes", "rtt_by_level", "trace"):
        assert hasattr(scenario, name), name
    for algo in ("dapp", "ffit"):
        sim = build_simulator(scenario, algo)
        assert hasattr(sim, "mode") and hasattr(sim, "algorithm")
        result = run_scenario(scenario, algo)
        for name in (
            "verdict",
            "placements",
            "failed",
            "unplaced",
            "request_count",
            "decision_cost",
            "event_log",
            "counters",
        ):
            assert hasattr(result, name), name
        counters = result.counters
        for name in ("criticals", "events", "push_downs", "migrations", "placements"):
            assert hasattr(counters, name), name
        assert counters.total_messages() >= 0 and counters.total_bits() >= 0
