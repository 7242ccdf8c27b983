"""Degradation-based token budget allocation for mixed visual/text samples.

Text is never truncated: a sample whose text alone meets the sequence budget is
discarded as text_overflow, and otherwise the text token count is subtracted
from the sequence budget first and the remaining visual budget is filled in
two phases. Phase one fixes every image at the cheapest tiling and spends the
remainder on temporal units (video frames at a target FPS, document pages):
every temporal item gets one unit, and the rest is split in proportion to what
each item can still take, scaling the counts down when the budget is short.
Phase two raises the per-image tile cap along a descending ladder as far as the
leftover budget allows, reading every image's grid at each rung from one
tiling.best_grids lookup and summing the rung's token cost from the per-grid
table tiling.GRID_TOKENS; a sample without images skips it. Samples whose
videos cannot reach the minimum frame count, or whose budget cannot give every
temporal item one unit, are discarded rather than degraded below usefulness.
plan walks a sample's items once, before any discard, so a video so long that
its frame count overflows raises InputError whatever else the sample holds;
every other outcome is a verdict, never an exception.

A plan record carries every field its cost is made of (l_text, the units per
item and each image's grid), so total_tokens can be recomputed from it, and
read_plan(dumps_plan(p), line) == p. This module alone knows the record
format: read_plan is the one place a record line is read (through
jsonl.load_object), requiring every field but reason and checking each one's
shape and, given the ids seen so far, that the id is new; check_plan checks
the fields against each other and against l_max. Both raise InputError naming
the line and the field.
SamplingPlan is an immutable NamedTuple, built once per sample from all its
fields by tuple.__new__, as is each grid read_plan has checked. dumps_plan
writes the record line directly, byte for byte what json.dumps(...,
ensure_ascii=False) writes for the record's dict: it writes n_per_item and
timestamps each as one repr of a list, which for ints and finite floats is
json.dumps's own text, and each grid as its text in tiling.GRID_TEXT,
formatting only a grid outside that table. A record itself never goes to
json.dumps, which would write it as an array.
"""

from __future__ import annotations

import math
import operator
from json.encoder import encode_basestring as _json_str
from typing import Callable, NamedTuple

from .jsonl import InputError, load_object
from .manifest import ImageDims, Sample, VisualItem
from .tiling import GRID_TEXT, GRID_TOKENS, MAX_TILES, TILE_TOKENS, TileGrid, best_grids, grid_tokens
from .tiling import select_grid  # noqa: F401  (bench/worker.py traces budget.select_grid by name)

# Per-image tile caps tried in phase two, largest first; ends at one tile.
TILE_LADDER = (12, 8, 6, 4, 2, 1)
# Each rung's cap with the getter of its grid from a best_grids ladder.
_RUNGS = tuple((cap, operator.itemgetter(cap - 1)) for cap in TILE_LADDER)
# A record's grids entry: each table grid's text, and null for a non-image.
_GRID_TEXT = {None: "null", **GRID_TEXT}

PLANNED = "planned"
DISCARDED = "discarded"
DISCARD_REASONS = ("text_overflow", "insufficient_budget")  # every reason plan gives a discard
_REQUIRED = operator.itemgetter("verdict", "tile_cap", "n_per_item", "grids", "timestamps", "l_text", "total_tokens")
_NUMBER = frozenset([int, float])  # a JSON number's types: json.loads gives bool, not int, for true and false

# A record built from all of its fields in order, without the Python frame of a
# NamedTuple's own __new__: plan and read_plan each build one per sample, and
# read_plan one per grid it has checked.
_new = tuple.__new__


class _BudgetFields(NamedTuple):
    l_max: int
    min_frames: int = 8
    fps_target: float = 2.0


class BudgetConfig(_BudgetFields):
    """The budget one plan run shares: immutable and hashable, and checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        if cfg.l_max <= 0:
            raise ValueError("l_max must be positive")
        if cfg.min_frames < 1 or not (math.isfinite(cfg.fps_target) and cfg.fps_target > 0):
            raise ValueError("min_frames must be positive and fps_target positive and finite")
        return cfg

    @classmethod
    def _make(cls, iterable):  # what _replace builds with: checked, as a new config is
        return cls(*iterable)


class SamplingPlan(NamedTuple):
    sample_id: str
    verdict: str
    reason: str | None
    tile_cap: int | None
    image_grids: tuple[TileGrid | None, ...]  # aligned to sample.items, None for non-images
    temporal_counts: tuple[int, ...]  # aligned to sample.items, 0 for images
    frame_timestamps: tuple[tuple[float, ...], ...]  # aligned to sample.items, () for non-videos
    l_text: int
    total_tokens: int | None

    @property
    def planned(self) -> bool:
        return self.verdict == PLANNED


def temporal_cap(item: VisualItem, cfg: BudgetConfig) -> int:
    """Most temporal units an item can contribute: FPS-target frames or page count.

    A video can always contribute one frame, even when fps_target * duration_s
    underflows to 0.
    """
    if item.kind == "video":
        return max(1, math.ceil(cfg.fps_target * item.duration_s))
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
    # Distribute `total` units proportionally to caps, never exceeding a cap: each
    # part is the floor of its exact share, and the units left over go one each to
    # the largest remainders, ties to the lower index.
    cap_sum = sum(caps)
    if cap_sum == 0 or total == 0:
        return [0] * len(caps)
    assert total <= cap_sum
    base = [total * c // cap_sum for c in caps]
    leftover = total - sum(base)
    if leftover:  # a reverse sort is still stable: equal remainders keep index order
        remainders = [total * c % cap_sum for c in caps]
        for i in sorted(range(len(caps)), key=remainders.__getitem__, reverse=True)[:leftover]:
            base[i] += 1
    assert all(map(operator.le, base, caps))
    return base


def _discard(sample: Sample, reason: str, l_text: int) -> SamplingPlan:
    return _new(SamplingPlan, (sample.id, DISCARDED, reason, None, (), (), (), l_text, None))


def plan(sample: Sample, cfg: BudgetConfig,
         grids_of: Callable[[ImageDims], tuple[TileGrid, ...]] = best_grids) -> SamplingPlan:
    """Allocate the sample's visual budget; returns a plan or a discard verdict.

    grids_of gives an image's best grid under every tile cap (best_grids, or
    a memo of it that a caller shares across the samples of one run).
    Raises InputError, before any discard, when a video is so long that its
    frame count overflows. Otherwise discards (a verdict, not an error) happen
    when the text alone meets l_max (text_overflow), and when any video would
    fall below the configured minimum frame count or the visual items cannot
    fit even at minimal degradation (one tile per image, one unit per temporal
    item; insufficient_budget).
    """
    items = sample.items
    tok = TILE_TOKENS  # one frame, page or image tile
    # One walk over the items: the images' positions, and each temporal item's
    # position and the units it can take beyond the one it always gets.
    images, temporal, spare = [], [], []
    for i, it in enumerate(items):
        if it.kind == "image":
            images.append(i)
            continue
        try:
            spare.append(temporal_cap(it, cfg) - 1)
        except OverflowError as exc:  # fps_target * duration_s beyond float range
            raise InputError(
                f"sample {sample.id!r}: video too long to plan at fps_target={cfg.fps_target}", field="duration_s"
            ) from exc
        temporal.append(i)

    l_text = sample.text_tokens
    if l_text >= cfg.l_max:
        return _discard(sample, "text_overflow", l_text)
    l_visual = cfg.l_max - l_text  # text first, the remainder for visual content
    if l_visual < tok * len(images):
        return _discard(sample, "insufficient_budget", l_text)

    # Phase 1: every image held at one tile; spend the rest on temporal units.
    counts = [0] * len(items)
    stamps: list[tuple[float, ...]] = [()] * len(items)
    n_total = 0
    if temporal:
        allowance = (l_visual - tok * len(images)) // tok - len(temporal)
        if allowance < 0:
            return _discard(sample, "insufficient_budget", l_text)
        extra = min(sum(spare), allowance)
        n_total = len(temporal) + extra
        for i, n in zip(temporal, _largest_remainder_split(extra, spare)):
            counts[i] = n + 1
            if items[i].kind == "video" and n + 1 < cfg.min_frames:
                return _discard(sample, "insufficient_budget", l_text)
        for i in temporal:
            if items[i].kind == "video":
                stamps[i] = frame_timestamps(items[i].duration_s, counts[i])

    # Phase 2: raise the per-image tile cap as far as the leftover budget allows.
    # The last rung, one tile per image, always fits: phase 1 reserved it.
    tile_cap, image_total = TILE_LADDER[0], 0
    grids: list[TileGrid | None] = [None] * len(items)
    if images:
        residual = l_visual - tok * n_total
        ladders = [grids_of(items[i].dims) for i in images]
        for tile_cap, rung in _RUNGS:
            image_total = sum(map(GRID_TOKENS.__getitem__, map(rung, ladders)))
            if image_total <= residual:
                break
        for i, g in zip(images, map(rung, ladders)):
            grids[i] = g

    total = l_text + tok * n_total + image_total
    assert total <= cfg.l_max
    return _new(SamplingPlan,
                (sample.id, PLANNED, None, tile_cap, tuple(grids), tuple(counts), tuple(stamps), l_text, total))


def _is_count(x) -> bool:
    return type(x) is int and x >= 0  # json.loads gives bool for true/false, so bools fail


def _finite_number_lists(xss) -> bool:
    """Whether xss is a list of lists of finite numbers."""
    if type(xss) is not list:
        return False
    try:
        for xs in xss:
            if type(xs) is not list or xs and not (_NUMBER.issuperset(map(type, xs)) and all(map(math.isfinite, xs))):
                return False
    except OverflowError:  # an int beyond float range
        return False
    return True


def _read_grid(g, sample_id: str, line: int) -> TileGrid:
    if type(g) is list and len(g) == 2 and type(g[0]) is int and type(g[1]) is int and g[0] >= 1 and g[1] >= 1:
        return _new(TileGrid, g)
    raise InputError(f"plan {sample_id!r}: grids must hold null or [cols, rows] of positive integers", line, "grids")


def read_plan(text: str, line: int, seen_ids: set[str] | None = None) -> SamplingPlan:
    """Parse one plan record line into a SamplingPlan, checking each field's shape once.

    Every field dumps_plan writes but reason is required. With seen_ids, an id
    already in the set is rejected and a new one added. Whether the fields agree
    with each other and with a budget is check_plan's to decide. Raises
    InputError naming the line and the first missing or malformed field.
    """
    obj = load_object(text, line, "plan")
    sid = obj.get("id")
    if type(sid) is not str or sid == "":
        raise InputError(f"plan id {sid!r} is not a non-empty string", line, "id")
    if seen_ids is not None:
        if sid in seen_ids:
            raise InputError(f"duplicate plan id {sid!r}", line, "id")
        seen_ids.add(sid)
    try:  # the fields after the id in SamplingPlan's order, reason aside; a KeyError names the first one missing
        verdict, tile_cap, counts, grids, stamps, l_text, total = _REQUIRED(obj)
    except KeyError as exc:
        raise InputError(f"plan {sid!r}: {exc.args[0]} is missing", line, exc.args[0]) from None
    reason = obj.get("reason")
    if verdict not in (PLANNED, DISCARDED):
        raise InputError(f"plan {sid!r}: unknown verdict {verdict!r}", line, "verdict")
    if reason is not None and type(reason) is not str:
        raise InputError(f"plan {sid!r}: reason {reason!r} is not a string", line, "reason")
    if tile_cap is not None and type(tile_cap) is not int:
        raise InputError(f"plan {sid!r}: tile_cap {tile_cap!r} is not an integer", line, "tile_cap")
    if type(l_text) is not int or l_text < 0:
        raise InputError(f"plan {sid!r}: l_text {l_text!r} is not a non-negative integer", line, "l_text")
    if type(counts) is not list or not all(map(_is_count, counts)):
        raise InputError(f"plan {sid!r}: n_per_item must hold non-negative integers", line, "n_per_item")
    if not ((type(total) is int and total >= 0) or (total is None and verdict == DISCARDED)):
        raise InputError(f"plan {sid!r}: total_tokens {total!r} is not a non-negative integer", line, "total_tokens")
    if type(grids) is not list:
        raise InputError(f"plan {sid!r}: grids must be a list", line, "grids")
    if grids.count(None) != len(grids):  # videos and documents have no grid to read
        grids = [g if g is None else _read_grid(g, sid, line) for g in grids]
    grids = tuple(grids)
    if not _finite_number_lists(stamps):
        raise InputError(f"plan {sid!r}: timestamps must hold lists of finite numbers", line, "timestamps")
    stamps = tuple(map(tuple, stamps))
    return _new(SamplingPlan, (sid, verdict, reason, tile_cap, grids, tuple(counts), stamps, l_text, total))


def check_plan(p: SamplingPlan, line: int, l_max: int) -> None:
    """Raise InputError when a record's fields disagree with each other or with l_max.

    read_plan has checked each field's shape; here they must be ones plan could
    write together, with l_max the budget the plans were made with. A discard
    is what _discard writes: one of DISCARD_REASONS, text_overflow exactly when
    l_text >= l_max, a null tile_cap and total_tokens, and no units, grids or
    timestamps. A planned record has no reason and a tile_cap in 1..MAX_TILES,
    and its cost is recomputed from its fields.
    """
    sid = p.sample_id
    if not p.planned:
        if p.reason not in DISCARD_REASONS:
            raise InputError(f"plan {sid!r}: discard reason {p.reason!r} is not one of {', '.join(DISCARD_REASONS)}",
                             line, "reason")
        for field, value in (("total_tokens", p.total_tokens), ("tile_cap", p.tile_cap)):
            if value is not None:
                raise InputError(f"plan {sid!r}: a discard has {field}={value}, not null", line, field)
        for field, values in (("n_per_item", p.temporal_counts), ("grids", p.image_grids),
                              ("timestamps", p.frame_timestamps)):
            if values:
                raise InputError(f"plan {sid!r}: a discard has {field}, which plan leaves empty", line, field)
        if (p.l_text >= l_max) != (p.reason == "text_overflow"):
            raise InputError(f"plan {sid!r}: l_text={p.l_text} at l_max={l_max} gives no {p.reason} discard",
                             line, "l_text")
        return
    if p.reason is not None:
        raise InputError(f"plan {sid!r}: a planned record has reason {p.reason!r}", line, "reason")
    if len(p.image_grids) != len(p.temporal_counts):
        raise InputError(f"plan {sid!r}: grids do not align with n_per_item", line, "grids")
    if any((g is None) == (n == 0) for g, n in zip(p.image_grids, p.temporal_counts)):
        raise InputError(f"plan {sid!r}: an item must have a grid exactly when it has 0 units", line, "grids")
    tiles = [g.tiles for g in p.image_grids if g is not None]
    if not (p.tile_cap is not None and 1 <= p.tile_cap <= MAX_TILES):
        raise InputError(f"plan {sid!r}: tile_cap {p.tile_cap!r} is not an integer in 1..{MAX_TILES}", line, "tile_cap")
    if tiles and max(tiles) > p.tile_cap:
        raise InputError(f"plan {sid!r}: a grid of {max(tiles)} tiles exceeds tile_cap={p.tile_cap}", line, "grids")
    if len(p.frame_timestamps) != len(p.temporal_counts) or any(
        len(ts) not in (0, n) for ts, n in zip(p.frame_timestamps, p.temporal_counts)
    ):
        raise InputError(f"plan {sid!r}: each timestamps entry must hold 0 or n_per_item values", line, "timestamps")
    cost = (p.l_text + TILE_TOKENS * sum(p.temporal_counts)
            + sum(grid_tokens(g) for g in p.image_grids if g is not None))
    if p.total_tokens != cost:
        raise InputError(f"plan {sid!r}: total_tokens={p.total_tokens} but its fields cost {cost}",
                         line, "total_tokens")
    if cost > l_max:
        raise InputError(f"plan {sid!r} exceeds l_max={l_max}", line, "total_tokens")


def dumps_plan(p: SamplingPlan) -> str:
    """The plan's record line, written directly from its fields.

    It is byte for byte json.dumps(d, ensure_ascii=False) of the dict d with keys
    "id", "verdict", "reason" (only when set), "tile_cap", "n_per_item", "grids",
    "timestamps", "l_text" and "total_tokens". n_per_item and timestamps are each
    one repr of a list: Python writes a list of ints or finite floats, nested or
    not, exactly as json.dumps does. Timestamps must be finite, as plan makes
    them: repr would write nan and inf where JSON has no such numbers.
    """
    reason = "" if p.reason is None else f'"reason": {_json_str(p.reason)}, '
    try:
        grids = ", ".join(map(_GRID_TEXT.__getitem__, p.image_grids))
    except KeyError:  # a grid best_grids never returns, such as 12 x 12
        grids = ", ".join("null" if g is None else f"[{g.cols!r}, {g.rows!r}]" for g in p.image_grids)
    return (
        f'{{"id": {_json_str(p.sample_id)}, "verdict": {_json_str(p.verdict)}, {reason}'
        f'"tile_cap": {"null" if p.tile_cap is None else p.tile_cap}, "n_per_item": {list(p.temporal_counts)!r}, '
        f'"grids": [{grids}], "timestamps": {list(map(list, p.frame_timestamps))!r}, "l_text": {p.l_text!r}, '
        f'"total_tokens": {"null" if p.total_tokens is None else p.total_tokens}}}'
    )
