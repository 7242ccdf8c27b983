"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from mmprep import cli, kernels
from mmprep.budget import TILE_LADDER, BudgetConfig, TextOverflowError, plan, temporal_cap
from mmprep.annotator import (
    AnchorLeakError,
    ClipQA,
    QUESTION_TYPES,
    anchor,
    pool_checksum,
    render_caption_prompt,
    render_clip_qa_prompt,
    render_video_qa_prompt,
    TYPES_BY_NAME,
)
from mmprep.annotator.pipeline import AnnotationJob, RetryPolicy, run_pipeline
from mmprep.composer import pack, progressive_stages
from mmprep.curator import ReferenceIndex, select_novel, ClipFeature
from mmprep.manifest import ImageDims, dumps_sample
from mmprep.tiling import TileGrid, grid_tokens, select_grid
from tests.conftest import MockLlm, make_sample, random_sample
from tests.test_composer import mkplan, optimal_bin_count

DATA = Path(__file__).parent / "data"

# Frozen once from the source question-type table.
POOL_SHA256 = "07aa2f58828cf8d28d2e365ac284c857f48a65cf50387bb631ead58813102f60"


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


# --- 1. tile grid selection oracle ----------------------------------------------


def _oracle_grid(width: int, height: int, tile_cap: int = 12) -> tuple[int, int]:
    thr = Fraction(0.6)
    s2 = 448 * 448
    best_key, best_grid = None, None
    for cols in range(1, tile_cap + 1):
        for rows in range(1, tile_cap // cols + 1):
            area = Fraction(cols * rows * s2, width * height)
            aspect = Fraction(cols * height, rows * width)
            score = min(area, thr) * min(aspect, 1 / aspect)
            dist = abs(Fraction(cols, rows) - Fraction(width, height))
            key = (-score, cols * rows, dist, cols)
            if best_key is None or key < best_key:
                best_key, best_grid = key, (cols, rows)
    return best_grid


def test_criterion_1_grid_selection_oracle():
    worked = (
        select_grid(ImageDims(448, 448)) == TileGrid(1, 1)
        and select_grid(ImageDims(896, 448)) == TileGrid(2, 1)
        and select_grid(ImageDims(4000, 3000)) == TileGrid(4, 3)
    )
    rng = random.Random(20250810)
    dims = [(rng.randint(1, 8192), rng.randint(1, 8192)) for _ in range(10000)]
    # Only the tiler is timed; the exact Fraction oracle below is far slower.
    start = time.monotonic()
    grids = [select_grid(ImageDims(w, h)) for w, h in dims]
    elapsed = time.monotonic() - start
    mismatches = sum((g.cols, g.rows) != _oracle_grid(w, h) for g, (w, h) in zip(grids, dims))
    report(
        1,
        "tile grid oracle equivalence",
        worked and mismatches == 0 and elapsed < 2.0,
        f"10000 dims, {mismatches} mismatches, select_grid {elapsed:.2f}s",
    )


# --- 2. budget planner exactness --------------------------------------------------


def test_criterion_2_ads_exactness():
    cfg32 = BudgetConfig(l_max=32768)
    p1 = plan(make_sample("v", videos=[100.0], text_tokens=768), cfg32)
    p2 = plan(make_sample("d", docs=[10], text_tokens=1000), BudgetConfig(l_max=8192))
    p3 = plan(make_sample("i", images=[(896, 448)] * 3, text_tokens=1000), BudgetConfig(l_max=4096))
    p4 = plan(make_sample("x", videos=[50.0], text_tokens=1500), BudgetConfig(l_max=2048))
    worked = (
        p1.planned and p1.temporal_counts == (125,) and p1.total_tokens == 32768
        and p2.planned and p2.temporal_counts == (10,) and p2.total_tokens == 3560
        and p3.planned and p3.tile_cap == 12 and p3.total_tokens == 3304
        and p4.verdict == "discarded" and p4.reason == "insufficient_budget"
    )

    rng = random.Random(424242)
    cfg_pool = [BudgetConfig(l_max=m) for m in (2048, 4096, 8192, 32768)]
    violations = 0
    checked = 0
    for i in range(16000):
        cfg = rng.choice(cfg_pool)
        sample = random_sample(rng, f"r{i}", cfg.l_max)
        try:
            p = plan(sample, cfg)
        except TextOverflowError:
            continue
        if not p.planned:
            continue
        checked += 1
        l_visual = cfg.l_max - sample.text_tokens
        n_total = sum(p.temporal_counts)
        if p.total_tokens > cfg.l_max:  # budget safety
            violations += 1
            continue
        if p.l_text != sample.text_tokens:  # text primacy
            violations += 1
            continue
        m = sum(1 for it in sample.items if it.kind == "image")
        temporal_items = [it for it in sample.items if it.kind != "image"]
        if len(temporal_items) == 1:  # n* maximality
            cap = temporal_cap(temporal_items[0], cfg)
            if n_total < cap and 256 * (n_total + 1) + 256 * m <= l_visual:
                violations += 1
                continue
        if m and p.tile_cap is not None:  # t* maximality
            idx = TILE_LADDER.index(p.tile_cap)
            if idx > 0:
                bigger = TILE_LADDER[idx - 1]
                cost = sum(
                    grid_tokens(select_grid(it.dims, bigger)) for it in sample.items if it.kind == "image"
                )
                if cost <= l_visual - 256 * n_total:
                    violations += 1
    report(
        2,
        "budget planner worked plans + property suite",
        worked and checked >= 10000 and violations == 0,
        f"{checked} planned samples, {violations} violations",
    )


# --- 3. packing --------------------------------------------------------------------


def test_criterion_3_packing():
    packs = pack([mkplan(f"p{i}", t) for i, t in enumerate([30000, 20000, 12000, 2000])], 32768)
    worked = sorted(p.total_tokens for p in packs) == [32000, 32000]

    rng = random.Random(99021)
    invariant_violations = 0
    for _ in range(200):
        n = rng.randint(1, 300)
        plans = [mkplan(f"s{i}", rng.randint(1, 32768)) for i in range(n)]
        out = pack(plans, 32768)
        members = sorted(m for p in out for m in p.member_ids)
        if members != sorted(p.sample_id for p in plans):
            invariant_violations += 1
        if any(p.total_tokens > 32768 for p in out):
            invariant_violations += 1

    over_gap = 0
    for _ in range(1000):
        n = rng.randint(1, 10)
        sizes = [rng.randint(1, 32768) for _ in range(n)]
        got = len(pack([mkplan(f"s{i}", t) for i, t in enumerate(sizes)], 32768))
        if got - optimal_bin_count(sizes, 32768) > 1:
            over_gap += 1
    report(
        3,
        "packing invariants + near-optimality",
        worked and invariant_violations == 0 and over_gap == 0,
        f"{invariant_violations} invariant violations, {over_gap}/1000 beyond optimum+1",
    )


# --- 4. stage table ------------------------------------------------------------------


def test_criterion_4_stage_table():
    stages = progressive_stages()
    expected = [
        ("Stage-1", 4096, 1024, 2e-4, "connector"),
        ("Stage-1.5", 8192, 1024, 2e-5, "full"),
        ("Stage-2", 32768, 256, 2e-5, "full"),
        ("Stage-3", 65536, 128, 2e-5, "full"),
        ("Stage-4", 131072, 128, 2e-5, "full"),
    ]
    got = [(s.name, s.l_max, s.batch_size, s.learning_rate, s.trainable_scope) for s in stages]
    mixes_ok = all(s.mix_short_long == (1.0, 1.0) for s in stages[2:])
    report(4, "stage table fidelity", got == expected and mixes_ok, f"{len(stages)} stages")


# --- 5. curator -----------------------------------------------------------------------


def test_criterion_5_curator():
    rng = np.random.default_rng(5150)
    dim = 64
    cand = rng.normal(size=(10000, dim))
    ref = rng.normal(size=(10000, dim))
    cn = cand / np.linalg.norm(cand, axis=1)[:, None]
    rn = ref / np.linalg.norm(ref, axis=1)[:, None]

    default_block = kernels.smax(cn, rn)
    small_block = kernels.smax(cn, rn, block=256)
    scan = np.empty(cn.shape[0])
    for i in range(cn.shape[0]):  # exhaustive row-wise scan, no blocking
        scan[i] = np.max(rn @ cn[i])
    kernel_err = max(np.abs(default_block - scan).max(), np.abs(small_block - scan).max())

    # strict tau boundary: 0.49 in, 0.50 out
    ref_idx = ReferenceIndex(np.array([[1.0, 0.0]]))
    boundary = select_novel(
        [
            ClipFeature("v", 0, (0.0, 10.0), np.array([0.49, np.sqrt(1 - 0.49**2)])),
            ClipFeature("v", 1, (10.0, 20.0), np.array([0.5, np.sqrt(0.75)])),
        ],
        ref_idx,
        tau=0.5,
    )
    boundary_ok = boundary[0].novel_clips == (0,)

    # tau monotonicity on random sweeps
    sweep_ref = ReferenceIndex(rng.normal(size=(200, 16)))
    clips = [ClipFeature(f"v{i // 4}", i % 4, ((i % 4) * 10.0, (i % 4) * 10.0 + 10.0),
                         rng.normal(size=16)) for i in range(200)]
    monotone = True
    prev: set = set()
    for tau in np.linspace(-0.9, 1.0, 20):
        selected = {r.video_id for r in select_novel(clips, sweep_ref, float(tau)) if r.selected}
        if not prev <= selected:
            monotone = False
        prev = selected

    report(
        5,
        "curator S_max oracle + tau behavior",
        kernel_err < 1e-6 and boundary_ok and monotone,
        f"max kernel error {kernel_err:.2e}",
    )


# --- 6. annotator -----------------------------------------------------------------------


def test_criterion_6_annotator():
    checksum_ok = pool_checksum() == POOL_SHA256 and len(QUESTION_TYPES) == 63

    fixed = [TYPES_BY_NAME[n] for n in
             ("object_recognition", "human_emotion", "camera_movement", "event_causality", "video_topic")]
    golden_ok = (
        render_caption_prompt("Opening scene")
        == (DATA / "caption_prompt.golden.txt").read_text(encoding="utf-8")
        and render_clip_qa_prompt(
            "A chef dices onions on a wooden board, then slides them into a pan.",
            "A chef prepares onions in a kitchen.",
            fixed,
        )
        == (DATA / "clip_qa_prompt.golden.txt").read_text(encoding="utf-8")
        and render_video_qa_prompt(
            "0 ~ 10: A chef dices onions on a wooden board.\n"
            "10 ~ 25: The onions are cooked in a pan until golden.",
            fixed,
        )
        == (DATA / "video_qa_prompt.golden.txt").read_text(encoding="utf-8")
    )

    # leak check: planted leaks all rejected, clean fixtures all accepted
    words = ["red", "umbrella", "bicycle", "harbor", "violin", "Lantern", "STAIRCASE", "fox"]
    rng = random.Random(66)
    leak_ok = True
    for i in range(200):
        answer = rng.choice(words)
        filler = [rng.choice(words) for _ in range(4)]
        qa = ClipQA("object_recognition", "What is shown?", answer, (0.0, 10.0))
        planted = f"a scene with a {' and a '.join(filler)} plus a {answer.lower()} nearby"
        try:
            anchor(qa, planted)
            leak_ok = False  # every planted leak must be rejected
        except AnchorLeakError:
            pass
        clean_words = [w for w in words if w.lower() != answer.lower()]
        clean = f"a scene with a {' and a '.join(rng.sample(clean_words, 3))}"
        try:
            anchor(qa, clean)
        except AnchorLeakError:
            leak_ok = False  # every clean fixture must be accepted

    # 1000 mock jobs, every 10th endpoint call fails transiently once
    jobs = [
        AnnotationJob(index=i, video_id=f"v{i:04d}", uri=f"vid://{i}",
                      clips=((0.0, 10.0),), clip_titles=(f"clip {i}",))
        for i in range(1000)
    ]
    client = MockLlm(fail_every=10)
    policy = RetryPolicy(max_retries=3, sleep=lambda _: None, max_in_flight=8)
    result = run_pipeline(jobs, client, policy)
    ids = sorted(r["video_id"] for r in result.records)
    pipeline_ok = (
        len(result.records) == 1000
        and ids == sorted(j.video_id for j in jobs)
        and not result.failures
        and sum(r["retry_count"] for r in result.records) > 0
    )
    report(
        6,
        "annotator pool/goldens/leaks/pipeline",
        checksum_ok and golden_ok and leak_ok and pipeline_ok,
        f"{client.calls} endpoint calls, {len(result.failures)} lost jobs",
    )


# --- 7. end-to-end smoke -------------------------------------------------------------------


def _synthetic_manifest(n: int, seed: int) -> list:
    rng = random.Random(seed)
    samples = []
    for i in range(n):
        kind = rng.random()
        if kind < 0.4:
            s = make_sample(
                f"s{i}",
                images=[(rng.randint(200, 6000), rng.randint(200, 6000))
                        for _ in range(rng.randint(1, 4))],
                text_tokens=rng.randint(50, 2000),
            )
        elif kind < 0.7:
            s = make_sample(f"s{i}", videos=[rng.uniform(10, 900)], text_tokens=rng.randint(50, 1500))
        elif kind < 0.9:
            s = make_sample(f"s{i}", docs=[rng.randint(1, 60)], text_tokens=rng.randint(50, 1500))
        else:
            s = make_sample(f"s{i}", text_tokens=rng.randint(200, 4000))
        samples.append(s)
    return samples


def test_criterion_7_end_to_end_smoke(tmp_path, capsys):
    start = time.monotonic()
    manifest_path = tmp_path / "manifest.jsonl"
    manifest_path.write_text(
        "\n".join(dumps_sample(s) for s in _synthetic_manifest(1000, seed=7)) + "\n"
    )
    plans_path = tmp_path / "plans.jsonl"
    packs_path = tmp_path / "packs.jsonl"

    code_plan = cli.main(["plan", "--l-max", "32768", "-i", str(manifest_path), "-o", str(plans_path)])
    code_pack = cli.main(["pack", "--l-max", "32768", "-i", str(plans_path), "-o", str(packs_path)])
    capsys.readouterr()  # drop CLI stderr chatter from the report

    packs = [json.loads(l) for l in packs_path.read_text().splitlines()]
    plan_lines = [json.loads(l) for l in plans_path.read_text().splitlines()]
    planned_ids = sorted(p["id"] for p in plan_lines if p["verdict"] == "planned")
    packed_ids = sorted(m for p in packs for m in p["member_ids"])

    elapsed = time.monotonic() - start
    capacity_ok = all(p["total_tokens"] <= 32768 for p in packs)
    util = sum(p["total_tokens"] for p in packs) / (32768 * len(packs))
    report(
        7,
        "end-to-end plan+pack smoke",
        code_plan == 0 and code_pack == 0 and capacity_ok and packed_ids == planned_ids
        and util >= 0.90 and elapsed < 60.0,
        f"{len(plan_lines)} plans, {len(packs)} packs, mean util {util:.4f}, {elapsed:.1f}s",
    )
