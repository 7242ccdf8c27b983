"""Data model and streaming parser for newline-delimited sample manifests.

A manifest line is one JSON object describing a training sample: an id, an
ordered list of visual items (images, videos, multi-page documents), a fixed
text token count, and provenance tags. Token counting happens upstream; this
module only validates and carries the numbers.

VisualItem and Sample are immutable, hashable NamedTuples whose constructors
check their fields. parse_record checks each field of a line once, as it reads
it, and builds the records without repeating those checks. Records reach JSON
only through sample_to_obj/dumps_sample: json.dumps would write a NamedTuple
as an array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NamedTuple

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


class _VisualItemFields(NamedTuple):
    kind: str
    uri: str = ""
    dims: ImageDims | None = None
    duration_s: float | None = None
    pages: int | None = None


class VisualItem(_VisualItemFields):
    """One visual element of a sample; exactly the fields for its kind are set."""

    __slots__ = ()

    def __new__(cls, kind: str, uri: str = "", dims: ImageDims | None = None,
                duration_s: float | None = None, pages: int | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "image" and dims is None:
            raise ValueError("image item requires dims")
        if kind == "video" and (duration_s is None or duration_s <= 0):
            raise ValueError("video item requires duration_s > 0")
        if kind == "document" and (pages is None or pages < 1):
            raise ValueError("document item requires pages >= 1")
        return super().__new__(cls, kind, uri, dims, duration_s, pages)

    @classmethod
    def _make(cls, iterable):  # so _replace checks its result too
        return cls(*iterable)


def image_item(width: int, height: int, uri: str = "") -> VisualItem:
    return VisualItem(kind="image", uri=uri, dims=ImageDims(width, height))


def video_item(duration_s: float, uri: str = "") -> VisualItem:
    return VisualItem(kind="video", uri=uri, duration_s=float(duration_s))


def document_item(pages: int, uri: str = "") -> VisualItem:
    return VisualItem(kind="document", uri=uri, pages=pages)


class _SampleFields(NamedTuple):
    id: str
    items: tuple[VisualItem, ...]
    text_tokens: int
    tags: tuple[str, ...] = ()


class Sample(_SampleFields):
    __slots__ = ()

    def __new__(cls, id: str, items: tuple[VisualItem, ...], text_tokens: int, tags: tuple[str, ...] = ()):
        if text_tokens < 0:
            raise ValueError("text_tokens must be non-negative")
        return super().__new__(cls, id, items, text_tokens, tags)

    @classmethod
    def _make(cls, iterable):  # so _replace checks its result too
        return cls(*iterable)


# The parser checks every field itself, once, and then builds the record with
# tuple.__new__, skipping the constructor's second pass over the same checks.
# json.loads gives plain dict, list, str, int, float, bool and None, so the
# type(x) is int tests below also reject bools.
_record = tuple.__new__


def _parse_item(obj: dict, line: int) -> VisualItem:
    if type(obj) is not dict:
        raise ManifestError("malformed item", line, "items")
    kind = obj.get("kind")
    uri = obj.get("uri", "")
    if type(uri) is not str:
        raise ManifestError("invalid uri", line, "uri")
    if kind == "image":
        w, h = obj.get("width"), obj.get("height")
        if type(w) is not int or w < 1:
            raise ManifestError("invalid width", line, "width")
        if type(h) is not int or h < 1:
            raise ManifestError("invalid height", line, "height")
        return _record(VisualItem, ("image", uri, ImageDims(w, h), None, None))
    if kind == "video":
        d = obj.get("duration_s")
        if type(d) is int:
            try:
                d = float(d)
            except OverflowError:  # an integer beyond float range
                d = math.inf
        elif type(d) is not float:
            raise ManifestError("invalid duration", line, "duration_s")
        if not (math.isfinite(d) and d > 0):
            raise ManifestError("invalid duration", line, "duration_s")
        return _record(VisualItem, ("video", uri, None, d, None))
    if kind == "document":
        p = obj.get("pages")
        if type(p) is not int or p < 1:
            raise ManifestError("invalid pages", line, "pages")
        return _record(VisualItem, ("document", uri, None, None, p))
    raise ManifestError(f"unknown kind {kind!r}", line, "kind")


def parse_record(text: str, line: int, seen_ids: set[str] | None = None) -> Sample:
    """Parse one manifest line into a Sample, raising ManifestError with context."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"malformed record ({exc.msg})", line, "record") from exc
    if type(obj) is not dict:
        raise ManifestError("malformed record (not an object)", line, "record")
    sid = obj.get("id")
    if type(sid) is not str or sid == "":
        raise ManifestError("invalid id", line, "id")
    if seen_ids is not None:
        if sid in seen_ids:
            raise ManifestError(f"duplicate id {sid!r}", line, "id")
        seen_ids.add(sid)
    tt = obj.get("text_tokens")
    if type(tt) is not int or tt < 0:
        raise ManifestError("invalid text_tokens", line, "text_tokens")
    raw_items = obj.get("items", [])
    if type(raw_items) is not list:
        raise ManifestError("invalid items", line, "items")
    items = tuple([_parse_item(it, line) for it in raw_items])
    tags = obj.get("tags", [])
    if type(tags) is not list or not all(type(t) is str for t in tags):
        raise ManifestError("invalid tags", line, "tags")
    return _record(Sample, (sid, items, tt, tuple(tags)))


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
