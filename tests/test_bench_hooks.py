"""The benchmark's traced run wraps mmprep functions by module attribute name.

bench/worker.py's install() looks those attributes up when it starts, so a
refactor that renames or drops one breaks `bench/run.py --trace 1` with an
AttributeError, and one that stops calling a wrapped name reads 0 in that
layer's metrics. These tests install the tracer, run `plan`, `pack` and
`curate` under it, and restore it, to catch both.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from mmprep import budget, tiling
from mmprep.budget import BudgetConfig
from mmprep.curator import write_feature_file
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


def test_traced_curate_records_every_layer(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    worker = _load_worker()
    rng = np.random.default_rng(11)
    for sub, n in (("ref", 3), ("cand", 2)):
        (tmp_path / sub).mkdir()
        for k in range(n):
            track = rng.normal(size=(25 + 10 * k, 16)).astype(np.float32)
            write_feature_file(tmp_path / sub / f"{k}.feat", f"{sub}{k}", track, binary=k % 2 == 0)
    out = tmp_path / "curate.jsonl"
    tracer = worker.Tracer()
    worker.install(tracer)
    try:
        rc, _ = worker.cli_op("curate", ["curate", "--reference", tmp_path / "ref",
                                         "--candidates", tmp_path / "cand", "-o", out], out).run(tracer)
    finally:
        tracer.restore()
    assert rc == 0 and len(out.read_text().splitlines()) == 2
    names = Counter(s.name for s in tracer.spans)
    assert names["curator.read_feature_file"] == 5
    assert names["curator.clips_from_seconds"] == 5
    assert names["curator.index_build"] == names["curator.select_novel"] == names["kernels.smax"] == 1
    counts = {name: n for (_, name), n in tracer.counts.items()}
    m = worker.span_metrics(tracer.spans, counts, images=0)
    assert m["kernels.smax_calls"] == 1 and m["kernels.rows_per_call_mean"] == 3 + 4  # clips of 25 s and 35 s tracks
    for name in ("curator.read_s", "curator.pool_s", "curator.index_build_s", "curator.select_s",
                 "kernels.smax_s", "kernels.gflop", "curator.read_bytes"):
        assert m[name] > 0, name
    assert m["curator.self_s"] < m["curator.select_s"]  # the kernel's span sits under select_novel
