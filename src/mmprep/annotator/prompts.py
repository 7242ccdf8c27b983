"""Prompt templates for caption and QA generation requests.

The templates live as verbatim data files next to this module and are
substituted with plain string replacement (no format-string escaping of the
literal JSON braces they contain). Rendering is byte-deterministic; the test
suite pins each template against golden files. The renderers check nothing:
titles come from parse_jobs, captions from parse_caption_response and question
types from sample_question_types, each of which has checked them.
"""

from __future__ import annotations

from importlib import resources
from typing import Sequence

from .question_types import QuestionType


def _load(name: str) -> str:
    return (resources.files(__package__) / "templates" / name).read_text(encoding="utf-8")


CAPTION_TEMPLATE = _load("caption.txt")
CLIP_QA_TEMPLATE = _load("clip_qa.txt")
VIDEO_QA_TEMPLATE = _load("video_qa.txt")


def render_type_pool(types: Sequence[QuestionType]) -> str:
    """One 'name: description' line per selected question type."""
    return "\n".join(f"{t.name}: {t.description}" for t in types)


def render_caption_prompt(title: str, banned_terms: Sequence[str] = ()) -> str:
    """Captioning request for one titled segment: brief plus detailed captions.

    A caption re-requested after an anchor leak names the leaked answers as
    banned_terms, which the brief caption must not mention.
    """
    prompt = CAPTION_TEMPLATE.replace("{title}", title)
    if banned_terms:
        terms = ", ".join(f'"{t}"' for t in banned_terms)
        prompt += f"\n\nAdditional requirement: the brief caption must not mention {terms}."
    return prompt


def render_clip_qa_prompt(caption: str, brief: str, types: Sequence[QuestionType]) -> str:
    """QA request for one clip, given its detailed and brief captions."""
    return (
        CLIP_QA_TEMPLATE.replace("{question_type_pool}", render_type_pool(types))
        .replace("{brief_caption}", brief)
        .replace("{caption}", caption)
    )


def render_video_qa_prompt(aggregated_captions: str, types: Sequence[QuestionType]) -> str:
    """QA request over the whole video, given the timestamped caption digest."""
    return (
        VIDEO_QA_TEMPLATE.replace("{question_type_pool}", render_type_pool(types))
        .replace("{caption}", aggregated_captions)
    )
