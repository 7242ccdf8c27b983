"""Degradation-based token budget allocation for mixed visual/text samples.

Text is never truncated: the text token count is subtracted from the sequence
budget first, and the remaining visual budget is filled in two phases. Phase
one fixes every image at the cheapest tiling and spends the remainder on
temporal units (video frames at a target FPS, document pages): every temporal
item gets one unit, and the rest is split in proportion to what each item can
still take, scaling the counts down when the budget is short. Phase two
raises the per-image tile cap along a descending ladder as far as the
leftover budget allows, reading every image's grid at each rung from one
tiling.best_grids lookup. Samples whose videos cannot reach the minimum frame
count, or whose budget cannot give every temporal item one unit, are
discarded rather than degraded below usefulness.

A plan record carries every field its cost is made of (l_text, the units per
item and each image's grid), so total_tokens can be recomputed from it, and
plan_from_obj(json.loads(dumps_plan(p))) == p. Budget and SamplingPlan are
immutable NamedTuples, cheap to build once per sample. dumps_plan writes the
record line directly, byte for byte what json.dumps(..., ensure_ascii=False)
writes for the record's dict; a record itself never goes to json.dumps, which
would write it as an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_str
from typing import Callable, NamedTuple

from .manifest import ImageDims, Sample, VisualItem
from .tiling import TILE_TOKENS, TileGrid, best_grids, grid_tokens
from .tiling import select_grid  # noqa: F401  (bench/worker.py traces budget.select_grid by name)

# Per-image tile caps tried in phase two, largest first; ends at one tile.
TILE_LADDER = (12, 8, 6, 4, 2, 1)

PLANNED = "planned"
DISCARDED = "discarded"


class TextOverflowError(ValueError):
    """Text alone meets or exceeds the sequence budget; nothing can be truncated."""

    def __init__(self, sample_id: str, text_tokens: int, l_max: int):
        super().__init__(
            f"sample {sample_id!r}: text_tokens={text_tokens} >= l_max={l_max}"
        )
        self.sample_id = sample_id
        self.text_tokens = text_tokens
        self.l_max = l_max


class PlanError(ValueError):
    """The sample is valid but cannot be planned (a video too long to count frames for)."""


@dataclass(frozen=True)
class BudgetConfig:
    l_max: int
    min_frames: int = 8
    fps_target: float = 2.0

    def __post_init__(self):
        if self.l_max <= 0:
            raise ValueError("l_max must be positive")
        if self.min_frames < 1 or not (math.isfinite(self.fps_target) and self.fps_target > 0):
            raise ValueError("min_frames must be positive and fps_target positive and finite")


class Budget(NamedTuple):
    l_text: int
    l_visual: int


class SamplingPlan(NamedTuple):
    sample_id: str
    verdict: str
    reason: str | None = None
    tile_cap: int | None = None
    image_grids: tuple[TileGrid | None, ...] = ()  # aligned to sample.items, None for non-images
    temporal_counts: tuple[int, ...] = ()  # aligned to sample.items, 0 for images
    frame_timestamps: tuple[tuple[float, ...], ...] = ()  # aligned to sample.items, () for non-videos
    l_text: int = 0
    total_tokens: int | None = None

    @property
    def planned(self) -> bool:
        return self.verdict == PLANNED


def compute_budget(sample: Sample, cfg: BudgetConfig) -> Budget:
    """Split the sequence budget: full text first, remainder for visual content."""
    if sample.text_tokens >= cfg.l_max:
        raise TextOverflowError(sample.id, sample.text_tokens, cfg.l_max)
    return Budget(sample.text_tokens, cfg.l_max - sample.text_tokens)


def temporal_cap(item: VisualItem, cfg: BudgetConfig) -> int:
    """Most temporal units an item can contribute: FPS-target frames or page count."""
    if item.kind == "video":
        return math.ceil(cfg.fps_target * item.duration_s)
    if item.kind == "document":
        return item.pages
    raise ValueError("temporal_cap is defined for video and document items only")


def frame_timestamps(duration_s: float, n: int) -> tuple[float, ...]:
    """Midpoint-uniform sampling times: n frames centered in equal slices of the video."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    step = duration_s / n
    return tuple([(k + 0.5) * step for k in range(n)])


def _largest_remainder_split(total: int, caps: list[int]) -> list[int]:
    # Distribute `total` units proportionally to caps, never exceeding a cap.
    cap_sum = sum(caps)
    if cap_sum == 0 or total == 0:
        return [0] * len(caps)
    assert total <= cap_sum
    base = [total * c // cap_sum for c in caps]
    remainders = [(-(total * c % cap_sum), i) for i, c in enumerate(caps)]
    remainders.sort()
    leftover = total - sum(base)
    for _, i in remainders[:leftover]:
        base[i] += 1
    assert all(n <= c for n, c in zip(base, caps))
    return base


def _discard(sample: Sample, reason: str, l_text: int) -> SamplingPlan:
    return SamplingPlan(sample.id, DISCARDED, reason, l_text=l_text)


def plan(sample: Sample, cfg: BudgetConfig,
         grids_of: Callable[[ImageDims], tuple[TileGrid, ...]] = best_grids) -> SamplingPlan:
    """Allocate the sample's visual budget; returns a plan or a discard verdict.

    grids_of gives an image's best grid under every tile cap (best_grids, or
    a memo of it that a caller shares across the samples of one run).
    Raises TextOverflowError when the text alone does not fit, and PlanError
    when a video is so long that its frame count overflows. Discards (a
    verdict, not an error) happen when any video would fall below the
    configured minimum frame count, or when the visual items cannot fit even
    at minimal degradation (one tile per image, one unit per temporal item).
    """
    budget = compute_budget(sample, cfg)
    tok = TILE_TOKENS  # one frame, page or image tile

    images = [(i, it) for i, it in enumerate(sample.items) if it.kind == "image"]
    temporal = [(i, it) for i, it in enumerate(sample.items) if it.kind != "image"]
    m = len(images)

    if sample.items and budget.l_visual < tok:
        return _discard(sample, "insufficient_budget", budget.l_text)
    if budget.l_visual < tok * m:
        return _discard(sample, "insufficient_budget", budget.l_text)

    # Phase 1: every image held at one tile; spend the rest on temporal units.
    counts = [0] * len(sample.items)
    n_total = 0
    if temporal:
        try:
            # Every temporal item gets one unit; spare is what each can take beyond it.
            spare = [temporal_cap(it, cfg) - 1 for _, it in temporal]
        except OverflowError as exc:  # fps_target * duration_s beyond float range
            raise PlanError(
                f"sample {sample.id!r}: video too long to plan at fps_target={cfg.fps_target}"
            ) from exc
        allowance = (budget.l_visual - tok * m) // tok - len(temporal)
        if allowance < 0:
            return _discard(sample, "insufficient_budget", budget.l_text)
        extra = min(sum(spare), allowance)
        n_total = len(temporal) + extra
        for (i, it), n in zip(temporal, _largest_remainder_split(extra, spare)):
            if it.kind == "video" and n + 1 < cfg.min_frames:
                return _discard(sample, "insufficient_budget", budget.l_text)
            counts[i] = n + 1

    # Phase 2: raise the per-image tile cap as far as the leftover budget allows.
    # The last rung, one tile per image, always fits: phase 1 reserved it.
    residual = budget.l_visual - tok * n_total
    ladders = [grids_of(it.dims) for _, it in images]
    for tile_cap in TILE_LADDER:
        image_total = sum(grid_tokens(ladder[tile_cap - 1]) for ladder in ladders)
        if image_total <= residual:
            break

    grids: list[TileGrid | None] = [None] * len(sample.items)
    for (i, _), ladder in zip(images, ladders):
        grids[i] = ladder[tile_cap - 1]

    stamps: list[tuple[float, ...]] = [()] * len(sample.items)
    for i, it in temporal:
        if it.kind == "video" and counts[i] > 0:
            stamps[i] = frame_timestamps(it.duration_s, counts[i])

    total = budget.l_text + tok * n_total + image_total
    assert total <= cfg.l_max
    return SamplingPlan(
        sample_id=sample.id,
        verdict=PLANNED,
        tile_cap=tile_cap,
        image_grids=tuple(grids),
        temporal_counts=tuple(counts),
        frame_timestamps=tuple(stamps),
        l_text=budget.l_text,
        total_tokens=total,
    )


def plan_from_obj(obj: dict) -> SamplingPlan:
    return SamplingPlan(
        obj["id"],
        obj["verdict"],
        obj.get("reason"),
        obj.get("tile_cap"),
        tuple([None if g is None else TileGrid(*g) for g in obj.get("grids", ())]),
        tuple(obj.get("n_per_item", ())),
        tuple(map(tuple, obj.get("timestamps", ()))),
        obj.get("l_text", 0),
        obj.get("total_tokens"),
    )


def _json_int(x: int | None) -> str:
    return "null" if x is None else repr(x)


def _json_numbers(xs: tuple[int, ...] | tuple[float, ...]) -> str:
    return f"[{', '.join(map(repr, xs))}]"


def dumps_plan(p: SamplingPlan) -> str:
    """The plan's record line, written directly from its fields.

    It is byte for byte json.dumps(d, ensure_ascii=False) of the dict d with keys
    "id", "verdict", "reason" (only when set), "tile_cap", "n_per_item", "grids",
    "timestamps", "l_text" and "total_tokens". Timestamps must be finite, as plan
    makes them: repr would write nan and inf where JSON has no such numbers.
    """
    reason = "" if p.reason is None else f'"reason": {_json_str(p.reason)}, '
    grids = ", ".join("null" if g is None else f"[{g.cols!r}, {g.rows!r}]" for g in p.image_grids)
    stamps = ", ".join(map(_json_numbers, p.frame_timestamps))
    return (
        f'{{"id": {_json_str(p.sample_id)}, "verdict": {_json_str(p.verdict)}, {reason}'
        f'"tile_cap": {_json_int(p.tile_cap)}, "n_per_item": {_json_numbers(p.temporal_counts)}, "grids": [{grids}], '
        f'"timestamps": [{stamps}], "l_text": {p.l_text!r}, "total_tokens": {_json_int(p.total_tokens)}}}'
    )
