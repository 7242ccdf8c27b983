"""The benchmark's traced run wraps mmprep functions by module attribute name.

bench/worker.py's install() looks those attributes up when it starts, so a
refactor that renames or drops one breaks `bench/run.py --trace 1` with an
AttributeError, and one that stops calling a wrapped name reads 0 in that
layer's metrics. These tests install the tracer, run `plan`, `pack`,
`curate` and the annotation pipeline under it, and restore it, to catch both.
The bench's own tests are not in this suite, so one more test reads every
bench file, and the set-up code the worker runs, for the mmprep attributes
they use, and checks that each one exists.
"""

import ast
import importlib.util
import json
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from mmprep import budget, tiling
from mmprep.annotator.captions import Chapter
from mmprep.annotator.pipeline import AnnotationJob, RetryPolicy, run_pipeline
from mmprep.budget import BudgetConfig
from mmprep.curator import write_feature_file
from tests.conftest import MockLlm, dumps_sample, make_sample

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKER = BENCH / "worker.py"


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


def test_traced_annotate_records_one_span_per_job(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    worker = _load_worker()
    chapters = (Chapter("a", (0.0, 10.0)), Chapter("b", (10.0, 20.0)))
    jobs = [AnnotationJob(0, "s", "vid://s", "story", chapters),
            AnnotationJob(1, "c", "vid://c", "clip", (Chapter("clip 0", (0.0, 10.0)),)),
            AnnotationJob(2, "bad", "vid://bad", "story", chapters[:1])]
    tracer = worker.Tracer()
    worker.install(tracer)
    try:
        records = run_pipeline(jobs, MockLlm(), RetryPolicy(max_in_flight=worker.MAX_IN_FLIGHT, sleep=lambda _: None))
    finally:
        tracer.restore()
    assert [r["status"] for r in records] == ["ok", "ok", "failed"]
    assert Counter(s.name for s in tracer.spans)["annotator.run_job"] == len(jobs)


def test_worker_annotate_op_runs_against_the_fake_endpoint(monkeypatch, tmp_path):
    # The annotate workload builds requests and responses through the fake
    # endpoint in bench/fake_llm.py, which no other test in this suite runs.
    monkeypatch.setattr(sys, "path", list(sys.path))
    worker = _load_worker()

    def segments(vid, word, n):
        return [{"title": f"{vid} {word} {c + 1}", "start": 30.0 * c, "end": 30.0 * c + 20.0} for c in range(n)]

    jobs = [
        {"video_id": "story-0000", "uri": "vid://story-0000", "chapters": segments("story-0000", "chapter", 3)},
        {"video_id": "clip-0001", "uri": "vid://clip-0001", "clips": segments("clip-0001", "scene", 2)},
        {"video_id": "story-0002", "uri": "vid://story-0002", "chapters": segments("story-0002", "chapter", 1)},
    ]
    (tmp_path / "jobs.jsonl").write_text("".join(json.dumps(j) + "\n" for j in jobs), encoding="utf-8")
    settings = {"seed": 1, "service_s": 0.0, "transient_rate": 0.3, "malformed_rate": 0.2, "leak_rate": 1.0,
                "planted": {"story-0002": "validate"}}
    (tmp_path / "endpoint.json").write_text(json.dumps(settings), encoding="utf-8")
    endpoints = []
    rc, _ = worker.annotate_op(tmp_path, 1, endpoints).run(None)
    assert rc == 0
    records = [json.loads(line) for line in (tmp_path / "annotations.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [r["video_id"] for r in records] == [j["video_id"] for j in jobs]
    assert [r["status"] for r in records] == ["ok", "ok", "failed"]
    assert records[2]["stage"] == "validate"
    assert len(records[1]["captions"]) == 2 and all(q["anchored_q"] for q in records[1]["qa"])
    counts = endpoints[0].counts
    assert counts["requests"] == counts["ok_replies"] + counts["transient_errors"] + counts["malformed"]
    assert counts["regenerations"] > 0


# bench/fake_llm.py's FakeEndpoint keeps the mmprep.annotator module it is given as self._annot.
_PASSED_MODULES = {"self._annot": "mmprep.annotator"}


def _chain(node) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, None for anything else."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        base = _chain(node.value)
        return None if base is None else [*base, node.attr]
    return None


def _mmprep_reads(tree: ast.AST) -> set[str]:
    """The dotted path of every mmprep name the code imports, reads as a.b, or wraps as tracer.wrap(a, "b", ...)."""
    names = dict(_PASSED_MODULES)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mmprep":
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                reads.add(f"{node.module}.{alias.name}")

    def path_of(node) -> str | None:
        chain = _chain(node) or []
        for k in range(len(chain), 0, -1):
            if ".".join(chain[:k]) in names:
                return ".".join([names[".".join(chain[:k])], *chain[k:]])
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and path_of(node.value):
            reads.add(f"{path_of(node.value)}.{node.attr}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap"
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant) and path_of(node.args[0])):
            reads.add(f"{path_of(node.args[0])}.{node.args[1].value}")
    return reads


def _exists(path: str) -> bool:
    try:
        pkgutil.resolve_name(path)  # imports the modules of the path as needed
    except AttributeError:
        return False
    return True


def test_every_mmprep_name_the_bench_reads_exists():
    trees = {f.name: ast.parse(f.read_text(encoding="utf-8"), str(f)) for f in BENCH.glob("*.py")}
    setup_code = next(node.value.value for node in ast.walk(trees["worker.py"])
                      if isinstance(node, ast.Assign) and _chain(node.targets[0]) == ["SETUP_CODE"])
    reads = set().union(*map(_mmprep_reads, [*trees.values(), ast.parse(setup_code, "worker.SETUP_CODE")]))
    assert {f"mmprep.annotator.{name}" for name in ("LlmError", "LlmResponse", "TransientLlmError", "RetryPolicy",
                                                    "parse_jobs", "run_pipeline")} <= reads
    assert {"mmprep.budget.select_grid", "mmprep.curator.load_feature_dir",
            "mmprep.curator.ReferenceIndex.from_clips"} <= reads
    assert sorted(path for path in reads if not _exists(path)) == []
