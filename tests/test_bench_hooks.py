"""The benchmark's traced run wraps mmprep functions by module attribute name.

bench/worker.py's install() looks those attributes up when it starts, so a
refactor that renames or drops one breaks `bench/run.py --trace 1` with an
AttributeError, and one that stops calling a wrapped name reads 0 in that
layer's metrics. These tests install the tracer, run `plan` and `pack` under
it, and restore it, to catch both.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from mmprep import budget, tiling
from mmprep.budget import BudgetConfig
from mmprep.manifest import dumps_sample
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


def test_traced_plan_and_pack_record_every_layer(monkeypatch, tmp_path):
    # The per-layer metrics come from spans of the wrapped names, so a command
    # that stops calling one of them by module attribute zeroes its metrics.
    monkeypatch.setattr(sys, "path", list(sys.path))
    worker = _load_worker()
    samples = [
        make_sample("v", videos=[100.0], text_tokens=768),
        make_sample("i", images=[(896, 448), (4000, 3000)], text_tokens=100),
        make_sample("d", docs=[10]),
        make_sample("over", text_tokens=99999),
    ]
    manifest_path, plans, packs = tmp_path / "m.jsonl", tmp_path / "plans.jsonl", tmp_path / "packs.jsonl"
    manifest_path.write_text("".join(dumps_sample(s) + "\n" for s in samples), encoding="utf-8")
    tracer = worker.Tracer()
    worker.install(tracer)
    try:
        rc_plan, _ = worker.cli_op("plan", ["plan", "-i", manifest_path, "-o", plans], plans).run(tracer)
        rc_pack, _ = worker.cli_op("pack", ["pack", "-i", plans, "-o", packs], packs).run(tracer)
    finally:
        tracer.restore()
    assert (rc_plan, rc_pack) == (0, 0)
    names = Counter(s.name for s in tracer.spans)
    assert names["manifest.parse_record"] == len(samples)
    assert names["budget.plan"] == len(samples)
    assert names["composer.pack"] == 1
    m = worker.span_metrics(tracer.spans, {}, images=2)
    assert m["manifest.samples"] == len(samples) and m["budget.plan_calls"] == len(samples)
    assert m["manifest.parse_s"] > 0 and m["budget.plan_s"] > 0 and m["composer.pack_s"] > 0
    assert 0 < m["cli.plan_io_s"] < m["cli.plan_s"]
