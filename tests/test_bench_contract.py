"""The names the benchmark's tracer looks up in the package must exist.

``perfbench/tracer.py`` patches functions by (module, attribute) from
outside the package; a rename or deletion under ``src/`` would otherwise
only surface as a failed ``perfbench/run.py --trace 1`` run.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # executed from its source text, so no bytecode is written next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


TRACER = _load_tracer()
SITES = sorted(set(TRACER.SPAN_SITES) | set(TRACER.LEAF_SITES))


@pytest.mark.parametrize("site", SITES, ids=".".join)
def test_traced_site_resolves_to_a_callable(site):
    module_name, attr = site
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None))


def test_health_counters_exist():
    from ggdr import metrics

    assert callable(metrics.health_counters)
    assert isinstance(metrics.health_counters(), dict)
