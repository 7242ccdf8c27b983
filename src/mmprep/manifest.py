"""Data model and streaming parser for newline-delimited sample manifests.

A manifest line is one JSON object describing a training sample: an id, an
ordered list of visual items (images, videos, multi-page documents), a fixed
text token count, and provenance tags. Token counting happens upstream; this
module only validates and carries the numbers.

ImageDims, VisualItem and Sample are plain immutable, hashable NamedTuples:
they carry fields and check none. parse_record is where a manifest's fields
are checked, once, as it reads them through jsonl.load_object; a bad line or
field raises jsonl.InputError naming the line and the field, and a repeated
id is rejected with field "id". A line must hold id, items ([] for a
text-only sample) and text_tokens; a missing tags reads as [] and a missing
item uri as "", the only defaults. So a record is only as good as what built
it: one from parse_record holds checked fields. The module reads manifests
and writes none; a writer builds each line's JSON object field by field, as
json.dumps would write a NamedTuple as an array.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Iterator, NamedTuple

from .jsonl import InputError, lines, load_object


class ImageDims(NamedTuple):
    width_px: int
    height_px: int


class VisualItem(NamedTuple):
    """One visual element of a sample; exactly the fields for its kind are set."""

    kind: str  # "image", "video" or "document"
    uri: str = ""
    dims: ImageDims | None = None
    duration_s: float | None = None
    pages: int | None = None


class Sample(NamedTuple):
    id: str
    items: tuple[VisualItem, ...]
    text_tokens: int
    tags: tuple[str, ...] = ()


# A record built from all of its fields in order, without the Python frame of a
# NamedTuple's own __new__: a manifest line builds a Sample and each of its items.
_new = tuple.__new__
_STR = frozenset([str])  # the one type a tag may have


# json.loads gives plain dict, list, str, int, float, bool and None, so the
# type(x) is int tests below also reject bools.
def _parse_item(obj: dict, line: int) -> VisualItem:
    if type(obj) is not dict:
        raise InputError("malformed item", line, "items")
    kind = obj.get("kind")
    uri = obj.get("uri", "")
    if type(uri) is not str:
        raise InputError("invalid uri", line, "uri")
    if kind == "image":
        w, h = obj.get("width"), obj.get("height")
        if type(w) is not int or w < 1:
            raise InputError("invalid width", line, "width")
        if type(h) is not int or h < 1:
            raise InputError("invalid height", line, "height")
        return _new(VisualItem, ("image", uri, _new(ImageDims, (w, h)), None, None))
    if kind == "video":
        d = obj.get("duration_s")
        if type(d) is int:
            try:
                d = float(d)
            except OverflowError:  # an integer beyond float range
                d = math.inf
        if type(d) is not float or not 0.0 < d < math.inf:  # NaN fails both comparisons
            raise InputError("invalid duration", line, "duration_s")
        return _new(VisualItem, ("video", uri, None, d, None))
    if kind == "document":
        p = obj.get("pages")
        if type(p) is not int or p < 1:
            raise InputError("invalid pages", line, "pages")
        return _new(VisualItem, ("document", uri, None, None, p))
    raise InputError(f"unknown kind {kind!r}", line, "kind")


def parse_record(text: str, line: int, seen_ids: set[str] | None = None) -> Sample:
    """Parse one manifest line into a Sample, raising InputError naming the line and field.

    With seen_ids, an id already in the set is rejected and a new one added.
    """
    obj = load_object(text, line, "manifest")
    sid = obj.get("id")
    if type(sid) is not str or sid == "":
        raise InputError("invalid id", line, "id")
    if seen_ids is not None:
        if sid in seen_ids:
            raise InputError(f"duplicate id {sid!r}", line, "id")
        seen_ids.add(sid)
    tt = obj.get("text_tokens")
    if type(tt) is not int or tt < 0:
        raise InputError("invalid text_tokens", line, "text_tokens")
    raw_items = obj.get("items")
    if type(raw_items) is not list:  # missing, too: a sample without visual items holds []
        raise InputError("invalid items", line, "items")
    items = tuple([_parse_item(it, line) for it in raw_items])
    tags = obj.get("tags", [])
    if type(tags) is not list or not _STR.issuperset(map(type, tags)):
        raise InputError("invalid tags", line, "tags")
    return _new(Sample, (sid, items, tt, tuple(tags)))


def iter_manifest(stream: IO[str] | Iterable[str]) -> Iterator[Sample]:
    """Stream Samples from newline-delimited records; single pass, constant memory.

    Blank lines are skipped but counted. The first invalid record aborts with InputError.
    """
    seen: set[str] = set()
    for line_no, text in lines(stream):
        yield parse_record(text, line_no, seen)
