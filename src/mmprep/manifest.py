"""Data model and streaming parser for newline-delimited sample manifests.

A manifest line is one JSON object describing a training sample: an id, an
ordered list of visual items (images, videos, multi-page documents), a fixed
text token count, and provenance tags. Token counting happens upstream; this
module only validates and carries the numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

KINDS = ("image", "video", "document")

# Fixed histogram bucket edges (upper bounds, last bucket open-ended).
TEXT_TOKEN_BUCKETS = (64, 256, 1024, 4096, 16384, 65536)
DURATION_BUCKETS_S = (10.0, 30.0, 60.0, 300.0, 600.0, 1800.0, 3600.0)


class ManifestError(ValueError):
    """Raised for a malformed manifest record; carries line number and field."""

    def __init__(self, message: str, line: int, fieldname: str):
        super().__init__(f"{message} at line {line}")
        self.line = line
        self.field = fieldname


@dataclass(frozen=True)
class ImageDims:
    width_px: int
    height_px: int

    def __post_init__(self):
        if self.width_px < 1 or self.height_px < 1:
            raise ValueError(f"image dims must be positive, got {self.width_px}x{self.height_px}")


@dataclass(frozen=True)
class VisualItem:
    """One visual element of a sample; exactly the fields for its kind are set."""

    kind: str
    uri: str = ""
    dims: ImageDims | None = None
    duration_s: float | None = None
    pages: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "image" and self.dims is None:
            raise ValueError("image item requires dims")
        if self.kind == "video" and (self.duration_s is None or self.duration_s <= 0):
            raise ValueError("video item requires duration_s > 0")
        if self.kind == "document" and (self.pages is None or self.pages < 1):
            raise ValueError("document item requires pages >= 1")


def image_item(width: int, height: int, uri: str = "") -> VisualItem:
    return VisualItem(kind="image", uri=uri, dims=ImageDims(width, height))


def video_item(duration_s: float, uri: str = "") -> VisualItem:
    return VisualItem(kind="video", uri=uri, duration_s=float(duration_s))


def document_item(pages: int, uri: str = "") -> VisualItem:
    return VisualItem(kind="document", uri=uri, pages=pages)


@dataclass(frozen=True)
class Sample:
    id: str
    items: tuple[VisualItem, ...]
    text_tokens: int
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.text_tokens < 0:
            raise ValueError("text_tokens must be non-negative")


def _require(cond: bool, message: str, line: int, fieldname: str) -> None:
    if not cond:
        raise ManifestError(message, line, fieldname)


def _parse_item(obj: dict, line: int) -> VisualItem:
    _require(isinstance(obj, dict), "malformed item", line, "items")
    kind = obj.get("kind")
    uri = obj.get("uri", "")
    _require(isinstance(uri, str), "invalid uri", line, "uri")
    if kind == "image":
        w, h = obj.get("width"), obj.get("height")
        _require(isinstance(w, int) and not isinstance(w, bool) and w >= 1, "invalid width", line, "width")
        _require(isinstance(h, int) and not isinstance(h, bool) and h >= 1, "invalid height", line, "height")
        return image_item(w, h, uri)
    if kind == "video":
        d = obj.get("duration_s")
        _require(isinstance(d, (int, float)) and not isinstance(d, bool), "invalid duration", line, "duration_s")
        try:
            d = float(d)
        except OverflowError:  # an integer beyond float range
            d = math.inf
        _require(math.isfinite(d) and d > 0, "invalid duration", line, "duration_s")
        return video_item(d, uri)
    if kind == "document":
        p = obj.get("pages")
        _require(isinstance(p, int) and not isinstance(p, bool) and p >= 1, "invalid pages", line, "pages")
        return document_item(p, uri)
    raise ManifestError(f"unknown kind {kind!r}", line, "kind")


def parse_record(text: str, line: int, seen_ids: set[str] | None = None) -> Sample:
    """Parse one manifest line into a Sample, raising ManifestError with context."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"malformed record ({exc.msg})", line, "record") from exc
    _require(isinstance(obj, dict), "malformed record (not an object)", line, "record")
    sid = obj.get("id")
    _require(isinstance(sid, str) and sid != "", "invalid id", line, "id")
    if seen_ids is not None:
        _require(sid not in seen_ids, f"duplicate id {sid!r}", line, "id")
        seen_ids.add(sid)
    tt = obj.get("text_tokens")
    _require(isinstance(tt, int) and not isinstance(tt, bool) and tt >= 0, "invalid text_tokens", line, "text_tokens")
    raw_items = obj.get("items", [])
    _require(isinstance(raw_items, list), "invalid items", line, "items")
    items = tuple(_parse_item(it, line) for it in raw_items)
    tags = obj.get("tags", [])
    _require(
        isinstance(tags, list) and all(isinstance(t, str) for t in tags),
        "invalid tags", line, "tags",
    )
    return Sample(id=sid, items=items, text_tokens=tt, tags=tuple(tags))


def iter_manifest(stream: IO[str] | Iterable[str]) -> Iterator[Sample]:
    """Stream Samples from newline-delimited records; single pass, constant memory.

    Blank lines are skipped. The first invalid record aborts with ManifestError.
    """
    seen: set[str] = set()
    for line_no, raw in enumerate(stream, start=1):
        text = raw.strip()
        if not text:
            continue
        yield parse_record(text, line_no, seen)


def parse_manifest(stream: IO[str] | Iterable[str]) -> list[Sample]:
    """Parse a whole manifest; raises ManifestError on the first bad record."""
    return list(iter_manifest(stream))


def scan_manifest(stream: IO[str] | Iterable[str]) -> tuple[list[Sample], list[ManifestError]]:
    """Lint-mode parse: collect every valid Sample and every error, no early stop."""
    samples: list[Sample] = []
    errors: list[ManifestError] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(stream, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            samples.append(parse_record(text, line_no, seen))
        except ManifestError as exc:
            errors.append(exc)
    return samples, errors


def item_to_obj(item: VisualItem) -> dict:
    if item.kind == "image":
        assert item.dims is not None
        return {"kind": "image", "width": item.dims.width_px, "height": item.dims.height_px, "uri": item.uri}
    if item.kind == "video":
        return {"kind": "video", "duration_s": item.duration_s, "uri": item.uri}
    return {"kind": "document", "pages": item.pages, "uri": item.uri}


def sample_to_obj(sample: Sample) -> dict:
    return {
        "id": sample.id,
        "items": [item_to_obj(it) for it in sample.items],
        "text_tokens": sample.text_tokens,
        "tags": list(sample.tags),
    }


def dumps_sample(sample: Sample) -> str:
    return json.dumps(sample_to_obj(sample), ensure_ascii=False)


def _bucket_index(value: float, edges: tuple) -> int:
    for i, edge in enumerate(edges):
        if value < edge:
            return i
    return len(edges)


@dataclass
class ManifestStats:
    total: int = 0
    image_count: int = 0
    video_count: int = 0
    document_count: int = 0
    # Buckets: len(edges)+1 counters, last one open-ended.
    text_token_hist: list[int] = field(default_factory=lambda: [0] * (len(TEXT_TOKEN_BUCKETS) + 1))
    duration_hist_s: list[int] = field(default_factory=lambda: [0] * (len(DURATION_BUCKETS_S) + 1))

    def to_obj(self) -> dict:
        return {
            "total": self.total,
            "image_count": self.image_count,
            "video_count": self.video_count,
            "document_count": self.document_count,
            "text_token_bucket_edges": list(TEXT_TOKEN_BUCKETS),
            "text_token_hist": list(self.text_token_hist),
            "duration_bucket_edges_s": list(DURATION_BUCKETS_S),
            "duration_hist_s": list(self.duration_hist_s),
        }


def manifest_stats(samples: Iterable[Sample]) -> ManifestStats:
    """Exact per-kind counts plus fixed-bucket text-token and duration histograms."""
    stats = ManifestStats()
    for s in samples:
        stats.total += 1
        stats.text_token_hist[_bucket_index(s.text_tokens, TEXT_TOKEN_BUCKETS)] += 1
        for item in s.items:
            if item.kind == "image":
                stats.image_count += 1
            elif item.kind == "video":
                stats.video_count += 1
                stats.duration_hist_s[_bucket_index(item.duration_s, DURATION_BUCKETS_S)] += 1
            else:
                stats.document_count += 1
    return stats
