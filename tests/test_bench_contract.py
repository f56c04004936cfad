"""The benchmark's view of the package must keep working.

``perfbench/tracer.py`` patches functions by (module, attribute) from
outside the package, and ``perfbench/workloads.py`` counts every failed
operation of a round; a rename, a deletion or a broken check under ``src/``
would otherwise only surface as a failed ``perfbench/run.py`` run. The
tracer's lookup sites are also the only reason a module may import a name
it does not use.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggdr"


def _load(name):
    # executed from its source text, so no bytecode is written next to it;
    # registered first, because dataclasses look their module up by name
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


TRACER = _load("tracer")
SITES = sorted(set(TRACER.SPAN_SITES) | set(TRACER.LEAF_SITES))


@pytest.mark.parametrize("site", SITES, ids=".".join)
def test_traced_site_resolves_to_a_callable(site):
    module_name, attr = site
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None))


def _unused_imports(path):
    """Names a module imports at its top level and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_unused_imports_are_traced_sites(path):
    # a deletion that leaves its imports behind fails here
    pinned = {attr for mod, attr in SITES if mod == f"ggdr.{path.stem}"}
    assert _unused_imports(path) - pinned == set()


def test_health_counters_exist():
    from ggdr import metrics

    assert callable(metrics.health_counters)
    assert isinstance(metrics.health_counters(), dict)


def test_demo_round_has_no_failed_operation(tmp_path):
    workloads = _load("workloads")
    demo = workloads.WORKLOADS["demo"]
    workloads.generate(demo, 1, str(tmp_path))
    inputs, setup = workloads.prepare(demo, str(tmp_path))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rnd = workloads.run_round(demo, inputs, str(out_dir))
    assert setup.problems + rnd.problems == []
    assert (setup.failed, rnd.failed, len(rnd.fits)) == (0, 0, 15)


def test_traced_demo_round_reads_no_skipped_pair(tmp_path):
    # traced rounds note int(result[2]) of every cost_and_grad as its
    # skipped pairs: the third item must stay, and read 0
    workloads = _load("workloads")
    demo = workloads.WORKLOADS["demo"]
    workloads.generate(demo, 1, str(tmp_path))
    inputs, setup = workloads.prepare(demo, str(tmp_path))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        with tracer.root("bench.round"):
            rnd = workloads.run_round(demo, inputs, str(out_dir))
    finally:
        tracer.uninstall()
    assert setup.problems + rnd.problems == []
    assert (setup.failed, rnd.failed, len(rnd.fits)) == (0, 0, 15)
    spans = [s for s in tracer.spans if s.name == "objective.cost_and_grad"]
    assert spans and all(s.note == {"skipped": 0} for s in spans)
