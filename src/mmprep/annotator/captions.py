"""Chapter captioning: frame planning, response parsing, caption aggregation."""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

MAX_CAPTION_FRAMES = 50
CAPTION_FPS = 2.0


class ResponseParseError(ValueError):
    """Model output could not be parsed into the expected structure."""


@dataclass(frozen=True)
class Chapter:
    title: str
    span: tuple[float, float]


@dataclass(frozen=True)
class CaptionPair:
    brief: str
    detailed: str


def format_seconds(value: float) -> str:
    """Whole seconds render as integers, fractional ones with one decimal."""
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def caption_frames_plan(chapter: Chapter) -> tuple[float, ...]:
    """Frame sampling times for a segment: 2 FPS, capped at 50, at least one.

    Timestamps are midpoint-uniform within the span so the segment's start
    and end are represented evenly.
    """
    start, end = chapter.span
    n = max(1, min(MAX_CAPTION_FRAMES, math.ceil(CAPTION_FPS * (end - start))))
    step = (end - start) / n
    return tuple(start + (k + 0.5) * step for k in range(n))


def extract_json_object(text: str) -> dict:
    """First parseable JSON object in the text; tolerates fences and trailing prose.

    A reply nested too deeply for the decoder, or holding an integer longer
    than Python converts, fails at once, not scanned on for a later object;
    so does a first object holding an unpaired surrogate, which no UTF-8
    output can hold. These are jsonl.load_object's rules for a record line.
    """
    decoder = json.JSONDecoder()
    pos = text.find("{")
    while pos != -1:
        try:
            obj, _ = decoder.raw_decode(text, pos)
        except json.JSONDecodeError:
            pos = text.find("{", pos + 1)
            continue
        except RecursionError as exc:
            raise ResponseParseError("response nests too deeply to parse") from exc
        except ValueError as exc:  # the one other ValueError the decoder raises: int() refused the digits
            raise ResponseParseError(
                f"response holds an integer of more than {sys.get_int_max_str_digits()} digits") from exc
        if isinstance(obj, dict):
            try:  # a \u escape or the reply's own text can hold a lone surrogate
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ResponseParseError("response holds an unpaired surrogate") from exc
            return obj
        pos = text.find("{", pos + 1)
    raise ResponseParseError("no JSON object found in response (offset 0)")


def parse_caption_response(text: str) -> CaptionPair:
    """Pull the brief/detailed caption pair out of a model response.

    The brief must keep some text once anchor strips whitespace and trailing periods.
    """
    obj = extract_json_object(text)
    for key in ("Brief Caption", "Detailed Caption"):
        if key not in obj:
            raise ResponseParseError(f"caption response missing {key!r}")
        if not isinstance(obj[key], str) or not obj[key]:
            raise ResponseParseError(f"caption response has empty {key!r}")
    if not obj["Brief Caption"].strip().rstrip("."):
        raise ResponseParseError("caption response has no text in 'Brief Caption'")
    return CaptionPair(brief=obj["Brief Caption"], detailed=obj["Detailed Caption"])


def check_chapters(chapters: Sequence[Chapter]) -> None:
    """Raise ValueError unless there are at least two chapters, sorted and non-overlapping.

    Videos with a single chapter carry no story structure.
    """
    if len(chapters) < 2:
        raise ValueError("insufficient chapters: need at least two")
    for prev, ch in zip(chapters, chapters[1:]):
        if ch.span[0] < prev.span[1]:
            raise ValueError("chapters must be sorted and non-overlapping")


def aggregate_chapter_captions(chapters: list[tuple[Chapter, CaptionPair]]) -> str:
    """Timestamped one-line-per-chapter digest feeding whole-video QA generation.

    The chapters must have passed check_chapters; the story job checks them
    before it captions any.
    """
    return "\n".join(
        f"{format_seconds(ch.span[0])} ~ {format_seconds(ch.span[1])}: {pair.detailed}"
        for ch, pair in chapters
    )
