"""Correctness checks for each command's output, run outside the timed section.

Each check reads the generated inputs and one output file and returns a dict
with `records` (outputs expected), `bad` (records that violate a rule),
`errors` (the first few violations) and the statistics the report quotes. A
check never trusts mmprep's own arithmetic: costs, grids and similarities are
recomputed by the oracles in gen.py.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

from gen import FPS, LADDER, MIN_FRAMES, TILE_PX, TILE_TOKENS, GridOracle, grid_tokens

SMAX_TOLERANCE = 1e-9
NEAR_TAU = 1e-5  # margin-guard width named in ROADMAP item 2
DISCARD_REASONS = ("insufficient_budget", "text_overflow")
FAILURE_STAGES = ("validate", "caption", "qa", "internal")
_MAX_ERRORS = 5


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class _Result:
    def __init__(self, records: int):
        self.records = records
        self.bad = 0
        self.errors: list[str] = []
        self.stats: dict = {}

    def fail(self, message: str, n: int = 1) -> None:
        self.bad += n
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(message)

    def to_obj(self) -> dict:
        return {"records": self.records, "bad": min(self.bad, self.records), "errors": self.errors, **self.stats}


def check_plans(manifest: Path, plans: Path, l_max: int, oracle: GridOracle) -> dict:
    """One record per sample; every planned cost recomputes exactly and fits l_max."""
    samples = read_jsonl(manifest)
    out = read_jsonl(plans)
    res = _Result(len(samples))
    if len(out) != len(samples):
        res.fail(f"{len(out)} plan records for {len(samples)} samples", abs(len(out) - len(samples)))
    caps, reasons = Counter(), Counter()
    zero_units = 0
    for sample, plan in zip(samples, out):
        sid, items, text = sample["id"], sample["items"], sample["text_tokens"]
        if plan.get("id") != sid:
            res.fail(f"plan {plan.get('id')!r} where {sid!r} was expected")
            continue
        if plan["verdict"] == "discarded":
            reason = plan.get("reason")
            reasons[reason] += 1
            if reason not in DISCARD_REASONS or (reason == "text_overflow") != (text >= l_max):
                res.fail(f"{sid}: discard reason {reason!r} with text_tokens={text}")
            continue
        if plan["verdict"] != "planned":
            res.fail(f"{sid}: unknown verdict {plan['verdict']!r}")
            continue
        counts, stamps, cap = plan["n_per_item"], plan["timestamps"], plan["tile_cap"]
        if len(counts) != len(items) or len(stamps) != len(items) or cap not in LADDER:
            res.fail(f"{sid}: plan fields do not align with the sample's items")
            continue
        caps[cap] += 1
        cost, ok = text, True
        for item, n, ts in zip(items, counts, stamps):
            if item["kind"] == "image":
                cost += grid_tokens(oracle.grid(item["width"], item["height"], cap))
                ok &= n == 0
                continue
            cost += TILE_TOKENS * n
            zero_units += n == 0
            if item["kind"] == "video":
                ok &= MIN_FRAMES <= n <= math.ceil(item["duration_s"] * FPS) and len(ts) == n
            else:
                ok &= 0 <= n <= item["pages"] and ts == []
        if not ok:
            res.fail(f"{sid}: per-item units out of range")
        elif cost != plan["total_tokens"] or cost > l_max:
            res.fail(f"{sid}: total_tokens={plan['total_tokens']} but recomputed {cost} (l_max={l_max})")
    res.stats = {
        "planned": sum(caps.values()),
        "discarded": dict(reasons),
        "tile_cap": {str(c): caps[c] for c in LADDER},
        "zero_unit_items": zero_units,
    }
    return res.to_obj()


def check_packs(plans: Path, packs: Path, capacity: int) -> dict:
    """Every planned id packed exactly once; pack totals add up and fit capacity."""
    sizes = {p["id"]: p["total_tokens"] for p in read_jsonl(plans) if p["verdict"] == "planned"}
    out = read_jsonl(packs)
    res = _Result(len(sizes))
    seen = Counter(m for pk in out for m in pk["member_ids"])
    for sid in sizes:
        if seen[sid] != 1:
            res.fail(f"plan {sid!r} packed {seen[sid]} times")
    for sid in seen.keys() - sizes.keys():
        res.fail(f"pack member {sid!r} is not a planned sample")
    for pk in out:
        total = sum(sizes.get(m, 0) for m in pk["member_ids"])
        if total != pk["total_tokens"] or total > capacity:
            res.fail(f"pack {pk['pack_id']}: total_tokens={pk['total_tokens']}, members sum to {total}",
                     len(pk["member_ids"]))
    utils = [pk["total_tokens"] / capacity for pk in out] or [0.0]
    res.stats = {
        "packs": len(out),
        "plans_per_pack": len(sizes) / max(1, len(out)),
        "utilization_mean": sum(utils) / len(utils),
        "utilization_min": min(utils),
    }
    return res.to_obj()


def check_tiles(manifest: Path, tiles: Path, oracle: GridOracle, tile_cap: int = 12) -> dict:
    """One record per image, in manifest order, with grid, tokens and canvas consistent."""
    images = [(s["id"], it) for s in read_jsonl(manifest) for it in s["items"] if it["kind"] == "image"]
    out = read_jsonl(tiles)
    res = _Result(len(images))
    if len(out) != len(images):
        res.fail(f"{len(out)} tile records for {len(images)} images", abs(len(out) - len(images)))
    for (sid, item), rec in zip(images, out):
        cols, rows = oracle.grid(item["width"], item["height"], tile_cap)
        want = {"id": sid, "grid": [cols, rows], "tokens": grid_tokens((cols, rows)),
                "canvas": [cols * TILE_PX, rows * TILE_PX]}
        if rec != want:
            res.fail(f"tile record {rec} != expected {want}")
    return res.to_obj()


def check_curate(expected: dict[str, list[float]], out_path: Path, tau: float) -> dict:
    """Per-clip smax matches the exhaustive float64 scan; verdicts follow smax < tau."""
    out = {r["video_id"]: r for r in read_jsonl(out_path)}
    res = _Result(sum(len(v) for v in expected.values()))
    mismatches = near_tau = 0
    for vid, want in expected.items():
        rec = out.get(vid)
        if rec is None or len(rec["per_clip_smax"]) != len(want):
            res.fail(f"{vid}: missing or wrong clip count", len(want))
            continue
        got = rec["per_clip_smax"]
        novel = set(rec["novel_clips"])
        for i, (g, w) in enumerate(zip(got, want)):
            near_tau += abs(g - tau) < NEAR_TAU
            verdict_ok = (i in novel) == (w < tau)
            mismatches += not verdict_ok
            if abs(g - w) > SMAX_TOLERANCE or not verdict_ok:
                res.fail(f"{vid} clip {i}: smax {g!r} novel={i in novel}, expected {w!r}")
        if rec["selected"] != bool(novel) or len(novel) != len(rec["novel_clips"]):
            res.fail(f"{vid}: selected={rec['selected']} disagrees with novel_clips")
    for vid in out.keys() - expected.keys():
        res.fail(f"unexpected video {vid!r} in curate output")
    res.stats = {
        "selected_videos": sum(bool(r["selected"]) for r in out.values()),
        "smax_near_tau": near_tau,
        "verdict_mismatches": mismatches,
    }
    return res.to_obj()


def check_annotations(jobs_path: Path, planted: dict[str, str], records_path: Path) -> dict:
    """Exactly one record per job; only planted jobs fail; no anchor reveals its answer."""
    jobs = {j["video_id"]: j for j in read_jsonl(jobs_path)}
    records = read_jsonl(records_path)
    res = _Result(len(jobs))
    seen = Counter(r["video_id"] for r in records)
    for vid in jobs:
        if seen[vid] != 1:
            res.fail(f"job {vid!r} has {seen[vid]} records")
    for vid in seen.keys() - jobs.keys():
        res.fail(f"record for unknown job {vid!r}")
    failed, retries = Counter(), 0
    for rec in records:
        vid = rec["video_id"]
        retries += rec.get("retry_count", 0)
        if rec["status"] != "ok":
            failed[rec.get("stage")] += 1
            if planted.get(vid) != rec.get("stage"):
                res.fail(f"{vid}: unplanted failure at {rec.get('stage')}: {rec.get('reason')}")
            continue
        if vid in planted:
            res.fail(f"{vid}: planted {planted[vid]} failure came back ok")
            continue
        job = jobs.get(vid, {})
        segments = job.get("chapters") or job.get("clips") or []
        if len(rec["captions"]) != len(segments):
            res.fail(f"{vid}: {len(rec['captions'])} captions for {len(segments)} segments")
        for qa in rec["qa"]:
            anchored = qa["anchored_q"]
            if "clips" in job and (not anchored or qa["a"].casefold() in anchored.casefold()):
                res.fail(f"{vid}: anchored question {anchored!r} reveals answer {qa['a']!r}")
    res.stats = {
        "failed_jobs": {stage: failed[stage] for stage in FAILURE_STAGES},
        "retries": retries,
    }
    return res.to_obj()
