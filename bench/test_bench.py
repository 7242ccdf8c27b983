"""Self-tests for the benchmark: seeded inputs are reproducible, and every
correctness check rejects a corrupted output.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import gen  # noqa: E402
from fake_llm import FakeEndpoint  # noqa: E402
from mmprep import annotator, cli  # noqa: E402

WORKLOADS = ("images", "temporal", "curate", "annotate")


@pytest.fixture(scope="module")
def scratch():
    base = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    yield base
    shutil.rmtree(base, ignore_errors=True)


def _tree(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(scratch, workload):
    a, b, c = (scratch / f"{workload}-{tag}" for tag in ("a", "b", "c"))
    facts_a = gen.generate(workload, a, 7, gen.GridOracle())
    facts_b = gen.generate(workload, b, 7, gen.GridOracle())
    gen.generate(workload, c, 8, gen.GridOracle())
    assert _tree(a) == _tree(b)
    assert json.dumps(facts_a, sort_keys=True) == json.dumps(facts_b, sort_keys=True)
    assert _tree(a) != _tree(c)


def _write(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def planned(scratch):
    d = scratch / "plan-outputs"
    oracle = gen.GridOracle()
    facts = gen.generate("images", d, 3, oracle)
    m, plans, packs = d / "manifest.jsonl", d / "plans.jsonl", d / "packs.jsonl"
    assert cli.main(["plan", "--l-max", str(facts["l_max"]), "-i", str(m), "-o", str(plans)]) == 0
    assert cli.main(["pack", "--l-max", str(facts["pack_capacity"]), "-i", str(plans), "-o", str(packs)]) == 0
    return d, facts, oracle


def test_plan_check_rejects_total_over_l_max(planned):
    d, facts, oracle = planned
    plans = check.read_jsonl(d / "plans.jsonl")
    assert check.check_plans(d / "manifest.jsonl", d / "plans.jsonl", facts["l_max"], oracle)["bad"] == 0
    victim = next(p for p in plans if p["verdict"] == "planned")
    victim["total_tokens"] = facts["l_max"] + 1
    bad = _write(d / "plans-bad.jsonl", plans)
    assert check.check_plans(d / "manifest.jsonl", bad, facts["l_max"], oracle)["bad"] == 1


def test_pack_check_rejects_missing_id(planned):
    d, facts, _ = planned
    packs = check.read_jsonl(d / "packs.jsonl")
    assert check.check_packs(d / "plans.jsonl", d / "packs.jsonl", facts["pack_capacity"])["bad"] == 0
    victim = next(pk for pk in packs if len(pk["member_ids"]) >= 1)
    victim["member_ids"] = victim["member_ids"][1:]
    bad = _write(d / "packs-bad.jsonl", packs)
    assert check.check_packs(d / "plans.jsonl", bad, facts["pack_capacity"])["bad"] >= 1


def test_tile_check_rejects_wrong_grid(planned):
    d, _, oracle = planned
    assert cli.main(["tile", "-i", str(d / "manifest.jsonl"), "-o", str(d / "tiles.jsonl")]) == 0
    assert check.check_tiles(d / "manifest.jsonl", d / "tiles.jsonl", oracle)["bad"] == 0
    tiles = check.read_jsonl(d / "tiles.jsonl")
    tiles[0]["tokens"] += gen.TILE_TOKENS
    assert check.check_tiles(d / "manifest.jsonl", _write(d / "tiles-bad.jsonl", tiles), oracle)["bad"] == 1


def test_curate_check_rejects_flipped_verdict(scratch):
    d = scratch / "curate-outputs"
    facts = gen.generate("curate", d, 3, gen.GridOracle())
    out = d / "curate.jsonl"
    assert cli.main(["curate", "--reference", str(d / "ref"), "--candidates", str(d / "cand"), "-o", str(out)]) == 0
    assert check.check_curate(facts["expected_smax"], out, facts["tau"])["bad"] == 0
    reports = check.read_jsonl(out)
    victim = reports[0]
    novel = set(victim["novel_clips"])
    victim["novel_clips"] = sorted(novel ^ {0})
    victim["selected"] = bool(victim["novel_clips"])
    result = check.check_curate(facts["expected_smax"], _write(d / "curate-bad.jsonl", reports), facts["tau"])
    assert result["bad"] == 1 and result["verdict_mismatches"] == 1


def test_annotation_check_rejects_duplicate_record(scratch):
    d = scratch / "annotate-outputs"
    facts = gen.generate("annotate", d, 3, gen.GridOracle())
    settings = json.loads((d / "endpoint.json").read_text(encoding="utf-8"))
    with open(d / "jobs.jsonl", encoding="utf-8") as fh:
        jobs = annotator.parse_jobs(fh)
    policy = annotator.RetryPolicy(backoff_base_s=0.0, backoff_cap_s=0.0, max_in_flight=2, seed=3)
    records: list[dict] = []
    annotator.run_pipeline(jobs, FakeEndpoint(dict(settings, service_s=0.0), annotator), policy,
                           on_record=records.append)
    good = _write(d / "annotations.jsonl", records)
    assert check.check_annotations(d / "jobs.jsonl", facts["planted"], good)["bad"] == 0
    bad = _write(d / "annotations-bad.jsonl", records + [records[len(records) // 2]])
    assert check.check_annotations(d / "jobs.jsonl", facts["planted"], bad)["bad"] == 1
