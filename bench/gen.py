"""Seeded input generators for the four benchmark workloads, plus their oracles.

Every generator writes plain files into a work directory and returns a small
dict of facts the checker and the report need (expected results, traffic
properties). The same seed always gives byte-identical files. The generators
never import mmprep: the program under test only ever sees the files, and the
oracles below are independent re-derivations from the documented rules.

Cost factors are stratified rather than drawn independently (image counts,
target tile caps, video durations, job shapes), so the total work in a
workload barely moves between seeds while the arrangement still does.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

# --- shared constants of the documented formats -------------------------------

TILE_PX = 448
TILE_TOKENS = 256
AREA_THRESHOLD = Fraction(0.6)  # the exact binary value of the float 0.6
LADDER = (12, 8, 6, 4, 2, 1)
MIN_FRAMES = 8
FPS = 2.0
CLIP_LEN_S = 10
TAU = 0.5

# --- workload sizes -------------------------------------------------------------

IMAGES_SAMPLES = 360
IMAGES_L_MAX = 32768
TEMPORAL_SAMPLES = 16000
TEMPORAL_L_MAX = 8192
TEMPORAL_PACK_CAPACITY = 131072  # Stage-4 context length
CURATE_DIM = 512
CURATE_REF_VIDEOS = 220
CURATE_CAND_VIDEOS = 120
CURATE_MEAN_S = 170  # mean video length: the mean of a log-uniform law on [20, 600] s
CURATE_COPY_SHARE = 0.4
CURATE_TEXT_SHARE = 0.05
ANNOTATE_STORY_JOBS = 100
ANNOTATE_CLIP_JOBS = 140
ANNOTATE_PLANTED = ("validate", "caption", "qa", "internal")

CAMERA_DIMS = ((4032, 3024), (4000, 3000), (3264, 2448), (6000, 4000), (2048, 1536),
               (1920, 1080), (1280, 720), (640, 480), (8000, 2000))
SCAN_DIMS = ((2480, 3508), (1700, 2200), (2550, 3300), (1275, 1650), (3508, 4961), (800, 2400))


def stable_unit(*parts) -> float:
    """Deterministic value in [0, 1) from the parts; independent of PYTHONHASHSEED."""
    digest = hashlib.blake2b("|".join(map(str, parts)).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2**64


def _stratified(rng: random.Random, values, n: int) -> list:
    """n values cycling through `values` in shuffled blocks: exact shares, seeded order."""
    out = []
    while len(out) < n:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def _log_uniform_stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One draw from each of n equal-probability strata of a log-uniform law, shuffled."""
    out = [math.exp(math.log(lo) + (k + rng.random()) / n * (math.log(hi) - math.log(lo))) for k in range(n)]
    rng.shuffle(out)
    return out


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# --- tiling oracle -----------------------------------------------------------


def ref_best_grids(width: int, height: int) -> dict[int, tuple[int, int]]:
    """(cols, rows) chosen at every ladder cap, by exhaustive exact scoring.

    Score = min(area ratio, threshold) * min(grid aspect / image aspect, inverse);
    ties go to fewer tiles, then smaller |grid aspect - image aspect|, then fewer
    columns.
    """
    image_aspect = Fraction(width, height)
    keyed = []
    for cols in range(1, LADDER[0] + 1):
        for rows in range(1, LADDER[0] // cols + 1):
            area = min(Fraction(cols * rows * TILE_PX * TILE_PX, width * height), AREA_THRESHOLD)
            grid_aspect = Fraction(cols, rows)
            score = area * min(grid_aspect / image_aspect, image_aspect / grid_aspect)
            keyed.append(((-score, cols * rows, abs(grid_aspect - image_aspect), cols), (cols, rows)))
    keyed.sort()
    return {cap: next(g for _, g in keyed if g[0] * g[1] <= cap) for cap in LADDER}


def grid_tokens(grid: tuple[int, int]) -> int:
    k = grid[0] * grid[1]
    return TILE_TOKENS if k == 1 else (k + 1) * TILE_TOKENS


class GridOracle:
    """Memoised ref_best_grids, shared by the generator and the checker."""

    def __init__(self):
        self._cache: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}

    def grid(self, width: int, height: int, cap: int) -> tuple[int, int]:
        key = (width, height)
        if key not in self._cache:
            self._cache[key] = ref_best_grids(width, height)
        return self._cache[key][cap]


# --- images -----------------------------------------------------------------


def _image_dims(rng: random.Random) -> tuple[int, int]:
    w, h = rng.choice(CAMERA_DIMS if rng.random() < 0.6 else SCAN_DIMS)
    if rng.random() < 0.5:
        w, h = h, w
    if rng.random() < 0.5:  # resized or cropped copy: sizes no longer repeat
        scale = rng.uniform(0.25, 1.0)
        w = max(1, round(w * scale * rng.uniform(0.85, 1.15)))
        h = max(1, round(h * scale * rng.uniform(0.85, 1.15)))
    return w, h


def gen_images(out: Path, seed: int, oracle: GridOracle) -> dict:
    """Image-heavy manifest whose text tokens put each sample on a chosen ladder rung."""
    rng = random.Random(f"images:{seed}")
    n = IMAGES_SAMPLES
    image_counts = _stratified(rng, range(1, 9), n)
    target_rungs = _stratified(rng, LADDER, n)
    records, dims_seen, n_images = [], [], 0
    for i in range(n):
        dims = [_image_dims(rng) for _ in range(image_counts[i])]
        items = [{"kind": "image", "width": w, "height": h, "uri": f"img://{i}/{k}"} for k, (w, h) in enumerate(dims)]
        frames = 0
        if rng.random() < 0.25:
            duration = round(rng.uniform(4.0, 20.0), 1)
            frames = math.ceil(FPS * duration)
            items.insert(rng.randrange(len(items) + 1), {"kind": "video", "duration_s": duration, "uri": f"vid://{i}"})
        cost = {cap: sum(grid_tokens(oracle.grid(w, h, cap)) for w, h in dims) for cap in LADDER}
        rung = target_rungs[i]
        higher = [cost[c] for c in LADDER if c > rung and cost[c] > cost[rung]]
        upper = min(higher) - 1 if higher else cost[rung] + 2 * TILE_TOKENS
        residual = rng.randint(cost[rung], upper)
        text = IMAGES_L_MAX - TILE_TOKENS * frames - residual
        if text < 0:
            text = rng.randint(16, 512)
        records.append({"id": f"img-{i:05d}", "items": items, "text_tokens": text, "tags": ["images"]})
        dims_seen.extend(dims)
        n_images += len(dims)
    _write_jsonl(out / "manifest.jsonl", records)
    return {
        "samples": n,
        "images": n_images,
        "l_max": IMAGES_L_MAX,
        "pack_capacity": IMAGES_L_MAX,
        "traffic": {
            "images_per_sample_mean": n_images / n,
            "samples_with_video_share": sum(any(it["kind"] == "video" for it in r["items"]) for r in records) / n,
            "distinct_dims_share": len(set(dims_seen)) / len(dims_seen),
        },
    }


# --- temporal -----------------------------------------------------------------


def gen_temporal(out: Path, seed: int) -> dict:
    """Videos and documents only: tiling is never reached, about half is discarded."""
    rng = random.Random(f"temporal:{seed}")
    n = TEMPORAL_SAMPLES
    item_counts = _stratified(rng, (1, 2, 3, 4), n)
    total_items = sum(item_counts)
    kinds = _stratified(rng, ("video", "document"), total_items)
    durations = iter(_log_uniform_stratified(rng, 5.0, 1800.0, total_items))
    pages = iter(_log_uniform_stratified(rng, 1.0, 200.0, total_items))
    texts = _log_uniform_stratified(rng, 32.0, 12000.0, n)
    records, k = [], 0
    for i in range(n):
        items = []
        for j in range(item_counts[i]):
            if kinds[k] == "video":
                items.append({"kind": "video", "duration_s": round(next(durations), 1), "uri": f"vid://{i}/{j}"})
            else:
                items.append({"kind": "document", "pages": int(next(pages)), "uri": f"doc://{i}/{j}"})
            k += 1
        records.append({"id": f"tmp-{i:05d}", "items": items, "text_tokens": int(texts[i]), "tags": ["temporal"]})
    _write_jsonl(out / "manifest.jsonl", records)
    return {
        "samples": n,
        "images": 0,
        "l_max": TEMPORAL_L_MAX,
        "pack_capacity": TEMPORAL_PACK_CAPACITY,
        "traffic": {
            "items_per_sample_mean": total_items / n,
            "video_item_share": kinds.count("video") / total_items,
            "text_overflow_share": sum(t >= TEMPORAL_L_MAX for t in texts) / n,
        },
    }


# --- curate -------------------------------------------------------------------


def _track(rng: np.random.Generator, seconds: int) -> np.ndarray:
    """Per-second features made of scenes: a scene vector plus per-second jitter."""
    out = np.empty((seconds, CURATE_DIM), dtype=np.float32)
    t = 0
    while t < seconds:
        length = min(int(rng.integers(3, 31)), seconds - t)
        scene = rng.standard_normal(CURATE_DIM)
        out[t : t + length] = scene + 0.35 * rng.standard_normal((length, CURATE_DIM))
        t += length
    return out


def _write_features(path: Path, video_id: str, track: np.ndarray, text: bool) -> None:
    header = json.dumps({"video_id": video_id, "dim": CURATE_DIM, "fps": 1, "count": int(track.shape[0])})
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        if text:
            for row in track:
                fh.write((" ".join(repr(float(v)) for v in row) + "\n").encode("utf-8"))
        else:
            fh.write(track.astype("<f4").tobytes())


def ref_pooled_clips(track: np.ndarray) -> np.ndarray:
    """Mean-pooled float64 10-second clips of a 1-fps track; a tail counts if >= 1 s."""
    seconds = track.shape[0]
    starts = list(range(0, seconds - CLIP_LEN_S + 1, CLIP_LEN_S))
    tail = (seconds // CLIP_LEN_S) * CLIP_LEN_S
    if seconds - tail >= 1:
        starts.append(tail)
    return np.stack([track[s : s + CLIP_LEN_S].astype(np.float64).mean(axis=0) for s in starts])


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1)[:, None]


def gen_curate(out: Path, seed: int) -> dict:
    """Reference and candidate feature dirs; a share of candidates are noisy copies."""
    rng = random.Random(f"curate:{seed}")
    nrng = np.random.default_rng(rng.getrandbits(64))
    ref_dir, cand_dir = out / "ref", out / "cand"
    ref_dir.mkdir()
    cand_dir.mkdir()

    def durations(count):
        # Scaled to a fixed total, so the number of clips barely moves between seeds.
        drawn = _log_uniform_stratified(rng, 20.0, 600.0, count)
        scale = count * CURATE_MEAN_S / sum(drawn)
        return [max(20, round(d * scale)) for d in drawn]

    def text_flags(durs):
        # Text files parse about 100x slower per second of video than binary
        # ones, so they go to the shortest videos only.
        short = [i for i, d in sorted(enumerate(durs), key=lambda x: x[1])][: len(durs) // 10]
        return set(rng.sample(short, round(CURATE_TEXT_SHARE * len(durs))))

    ref_durs = durations(CURATE_REF_VIDEOS)
    ref_text = text_flags(ref_durs)
    ref_tracks = []
    for i, d in enumerate(ref_durs):
        track = _track(nrng, d)
        ref_tracks.append(track)
        _write_features(ref_dir / f"r{i:04d}.feat", f"ref-{i:04d}", track, i in ref_text)

    n_cand = CURATE_CAND_VIDEOS
    n_copies = round(CURATE_COPY_SHARE * n_cand)
    copy_slots = set(rng.sample(range(n_cand), n_copies))
    sigmas = iter(_log_uniform_stratified(rng, 1.5, 10.0, n_copies))
    cand_durs = durations(n_cand)
    cand_text = text_flags(cand_durs)
    cand_ids, cand_tracks, copy_ids = [], [], set()
    for i, d in enumerate(cand_durs):
        vid = f"cand-{i:04d}"
        if i in copy_slots:
            offset = rng.choice((0, 0, 0, 5))
            long_enough = [t for t in ref_tracks if t.shape[0] >= d + offset] or [max(ref_tracks, key=len)]
            src = rng.choice(long_enough)
            d = min(d, src.shape[0] - offset)
            noise = nrng.standard_normal((d, CURATE_DIM)) * next(sigmas)
            track = (src[offset : offset + d] + noise).astype(np.float32)
            copy_ids.add(vid)
        else:
            track = _track(nrng, d)
        cand_ids.append(vid)
        cand_tracks.append(track)
        _write_features(cand_dir / f"c{i:04d}.feat", vid, track, i in cand_text)

    # Exhaustive float64 scan: the expected verdicts, computed once per seed.
    ref = _unit_rows(np.concatenate([ref_pooled_clips(t) for t in ref_tracks]))
    expected, clips_per_video, smax_all, copy_clips = {}, [], [], 0
    for vid, track in zip(cand_ids, cand_tracks):
        smax = (_unit_rows(ref_pooled_clips(track)) @ ref.T).max(axis=1)
        expected[vid] = [float(s) for s in smax]
        clips_per_video.append(len(smax))
        smax_all.extend(expected[vid])
        copy_clips += len(smax) if vid in copy_ids else 0
    edges = [0.3, 0.4, 0.45, 0.49, 0.499, 0.5, 0.501, 0.51, 0.55, 0.6, 0.7]
    hist = [0] * (len(edges) + 1)
    for s in smax_all:
        hist[sum(s >= e for e in edges)] += 1
    return {
        "tau": TAU,
        "expected_smax": expected,
        "ref_clips": int(ref.shape[0]),
        "cand_clips": len(smax_all),
        "traffic": {
            "ref_videos": len(ref_tracks),
            "cand_videos": n_cand,
            "near_duplicate_clip_share": copy_clips / len(smax_all),
            "text_encoded_file_share": (len(ref_text) + len(cand_text)) / (len(ref_tracks) + n_cand),
            "smax_hist_edges": edges,
            "smax_hist": hist,
            "smax_within_1e-5_of_tau": sum(abs(s - TAU) < 1e-5 for s in smax_all),
            "clips_per_video": _distribution(clips_per_video),
        },
    }


def _distribution(values: list[int]) -> dict:
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "p50": ordered[len(ordered) // 2],
        "p90": ordered[(9 * len(ordered)) // 10],
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
    }


# --- annotate -----------------------------------------------------------------


def gen_annotate(out: Path, seed: int) -> dict:
    """Story and clip jobs plus the fake endpoint's injection settings."""
    rng = random.Random(f"annotate:{seed}")
    jobs = []
    chapter_counts = _stratified(rng, (3, 4, 5, 6), ANNOTATE_STORY_JOBS)
    for i, count in enumerate(chapter_counts):
        vid = f"story-{i:04d}"
        t, chapters = 0.0, []
        for c in range(count):
            length = float(rng.randint(20, 120))
            chapters.append({"title": f"{vid} chapter {c + 1}", "start": t, "end": t + length})
            t += length
        jobs.append({"video_id": vid, "uri": f"vid://{vid}", "chapters": chapters})
    clip_counts = _stratified(rng, (1, 2, 3), ANNOTATE_CLIP_JOBS)
    for i, count in enumerate(clip_counts):
        vid = f"clip-{i:04d}"
        starts = sorted(rng.sample(range(0, 3600, 10), count))
        clips = [{"title": f"{vid} scene {c + 1}", "start": float(s), "end": float(s + 10)} for c, s in enumerate(starts)]
        jobs.append({"video_id": vid, "uri": f"vid://{vid}", "clips": clips})
    rng.shuffle(jobs)

    # Planted permanent failures: one job per failing stage.
    story_ids = [j["video_id"] for j in jobs if "chapters" in j]
    clip_ids = [j["video_id"] for j in jobs if "clips" in j]
    single = rng.choice(story_ids)
    planted = {single: "validate"}
    for stage, vid in zip(ANNOTATE_PLANTED[1:], rng.sample([v for v in story_ids if v != single] + clip_ids, 3)):
        planted[vid] = stage
    for job in jobs:
        if job["video_id"] == single:
            job["chapters"] = job["chapters"][:1]
    _write_jsonl(out / "jobs.jsonl", jobs)
    endpoint = {
        "seed": seed,
        "service_s": 0.002,
        "transient_rate": 0.06,
        "malformed_rate": 0.04,
        "leak_rate": 0.15,
        "planted": planted,
    }
    (out / "endpoint.json").write_text(json.dumps(endpoint, sort_keys=True) + "\n", encoding="utf-8")
    return {
        "jobs": len(jobs),
        "planted": planted,
        "traffic": {
            "story_jobs": len(story_ids),
            "clip_jobs": len(clip_ids),
            "segments_per_job_mean": sum(len(j.get("chapters", j.get("clips"))) for j in jobs) / len(jobs),
            "planted_failures": len(planted),
        },
    }


def generate(workload: str, out: Path, seed: int, oracle: GridOracle) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "images":
        return gen_images(out, seed, oracle)
    if workload == "temporal":
        return gen_temporal(out, seed)
    if workload == "curate":
        return gen_curate(out, seed)
    if workload == "annotate":
        return gen_annotate(out, seed)
    raise ValueError(f"unknown workload {workload!r}")
