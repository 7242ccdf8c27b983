"""The benchmark's traced run wraps mmprep functions by module attribute name.

bench/worker.py's install() looks those attributes up when it starts, so a
refactor that renames or drops one breaks `bench/run.py --trace 1` with an
AttributeError. This test installs and restores the tracer to catch that.
"""

import importlib.util
import sys
from pathlib import Path

from mmprep import budget, tiling
from mmprep.budget import BudgetConfig
from tests.conftest import make_sample

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def _load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_and_restores(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker prepends src/ and bench/
    worker = _load_worker()
    originals = (budget.plan, budget.select_grid, tiling.select_grid)
    tracer = worker.Tracer()
    worker.install(tracer)
    try:
        assert budget.plan is not originals[0]
        budget.plan(make_sample("s", images=[(4000, 3000)], text_tokens=10), BudgetConfig(l_max=8192))
        tiling.select_grid(make_sample("t", images=[(896, 448)]).items[0].dims)
    finally:
        tracer.restore()
    assert (budget.plan, budget.select_grid, tiling.select_grid) == originals
    assert {s.name for s in tracer.spans} >= {"budget.plan", "tiling.select_grid"}
