"""QA parsing and anchor construction.

Story and clip QA replies parse into ClipQA entries, which carry no time.
Clip-level questions are only unambiguous inside their clip; anchor prepends
the clip's time interval plus a short scene description so the question
survives at whole-video scale. The scene description must not give the
answer away, which the leak check enforces with a conservative
normalized-substring test: anchor returns None for a question whose answer
leaks into the scene description.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .captions import ResponseParseError, extract_json_object, format_seconds
from .question_types import QuestionType


@dataclass(frozen=True)
class ClipQA:
    qtype: str
    question: str
    answer: str


_QTYPE_PLACEHOLDER = re.compile(r"^question_type_(\d+)$")


def parse_qa_response(text: str, expected_types: Sequence[QuestionType]) -> list[ClipQA]:
    """Decode a QA response keyed by question type; nulls mean 'no question fits'.

    Keys may be the actual type names or positional question_type_N
    placeholders; anything else is an error. A Q or A that is not a string
    with some text besides whitespace is an error too, so the stage retries
    it. Only non-null entries come back.
    """
    obj = extract_json_object(text)
    by_name = {t.name: t for t in expected_types}
    out: list[ClipQA] = []
    for key, value in obj.items():
        if key in by_name:
            qtype = by_name[key]
        else:
            m = _QTYPE_PLACEHOLDER.match(key)
            if not m or not 1 <= int(m.group(1)) <= len(expected_types):
                raise ResponseParseError(f"unknown question type key {key!r}")
            qtype = expected_types[int(m.group(1)) - 1]
        if value is None:
            continue
        if not isinstance(value, dict) or "Q" not in value or "A" not in value:
            raise ResponseParseError(f"entry for {key!r} must be null or have Q and A")
        q, a = value["Q"], value["A"]
        if not isinstance(q, str) or not isinstance(a, str) or not q.strip() or not a.strip():
            raise ResponseParseError(f"entry for {key!r} has empty Q or A")
        out.append(ClipQA(qtype=qtype.name, question=q, answer=a))
    return out


def _normalize(text: str) -> str:
    return text.strip().casefold()


def anchor(qa: ClipQA, brief: str, span: tuple[float, float]) -> str | None:
    """Prefix a clip question with its clip's time interval and scene context.

    Returns None when the normalized answer appears inside the brief caption;
    the caller should regenerate the caption and retry. The brief must keep
    some text once whitespace and trailing periods are stripped, as
    parse_caption_response ensures.
    """
    context = brief.strip().rstrip(".")
    if _normalize(qa.answer) in _normalize(context):
        return None
    start, end = span
    return (
        f"Between {format_seconds(start)}s and {format_seconds(end)}s, "
        f"in the scene where {context}: {qa.question}"
    )
