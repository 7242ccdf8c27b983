import json
from pathlib import Path

import pytest

from mmprep.annotator.captions import (
    CaptionPair,
    Chapter,
    ResponseParseError,
    aggregate_chapter_captions,
    caption_frames_plan,
    check_chapters,
    format_seconds,
    parse_caption_response,
)
from mmprep.annotator.prompts import (
    render_caption_prompt,
    render_clip_qa_prompt,
    render_type_pool,
    render_video_qa_prompt,
)
from mmprep.annotator.qa import ClipQA, anchor, parse_qa_response
from mmprep.annotator.question_types import (
    QUESTION_TYPES,
    TYPES_BY_NAME,
    TYPES_PER_REQUEST,
    pool_checksum,
    sample_question_types,
)

DATA = Path(__file__).parent / "data"

FIXED_TYPES = [
    TYPES_BY_NAME["object_recognition"],
    TYPES_BY_NAME["human_emotion"],
    TYPES_BY_NAME["camera_movement"],
    TYPES_BY_NAME["event_causality"],
    TYPES_BY_NAME["video_topic"],
]


# --- question type pool -----------------------------------------------------------


def test_pool_has_63_entries_with_stable_indices():
    assert len(QUESTION_TYPES) == 63
    assert [t.index for t in QUESTION_TYPES] == list(range(1, 64))
    assert len({t.name for t in QUESTION_TYPES}) == 63


def test_pool_spot_entries():
    assert QUESTION_TYPES[0].name == "object_recognition"
    assert QUESTION_TYPES[0].description == "Questions about what an object is"
    assert QUESTION_TYPES[38].name == "camera_movement"
    assert QUESTION_TYPES[62].name == "anomaly_recognition"


def test_sampling_is_seeded_and_distinct():
    a = sample_question_types(seed=42)
    b = sample_question_types(seed=42)
    assert a == b
    assert len({t.name for t in a}) == TYPES_PER_REQUEST == 5
    assert sample_question_types(seed=43) != a


def test_pool_checksum_stable():
    assert pool_checksum() == pool_checksum(QUESTION_TYPES)
    assert len(pool_checksum()) == 64


# --- prompt rendering ---------------------------------------------------------------


def test_caption_prompt_contains_quoted_title():
    assert 'titled "Opening scene"' in render_caption_prompt("Opening scene")


def test_caption_prompt_golden_byte_match():
    golden = (DATA / "caption_prompt.golden.txt").read_text(encoding="utf-8")
    assert render_caption_prompt("Opening scene") == golden


def test_caption_prompt_differs_only_at_placeholder():
    a = render_caption_prompt("AAA")
    b = render_caption_prompt("BBB")
    assert a.replace('titled "AAA"', 'titled "XXX"') == b.replace('titled "BBB"', 'titled "XXX"')


def test_clip_qa_prompt_golden_byte_match():
    golden = (DATA / "clip_qa_prompt.golden.txt").read_text(encoding="utf-8")
    rendered = render_clip_qa_prompt(
        "A chef dices onions on a wooden board, then slides them into a pan.",
        "A chef prepares onions in a kitchen.",
        FIXED_TYPES,
    )
    assert rendered == golden


def test_video_qa_prompt_golden_byte_match():
    golden = (DATA / "video_qa_prompt.golden.txt").read_text(encoding="utf-8")
    rendered = render_video_qa_prompt(
        "0 ~ 10: A chef dices onions on a wooden board.\n"
        "10 ~ 25: The onions are cooked in a pan until golden.",
        FIXED_TYPES,
    )
    assert rendered == golden


def test_clip_prompt_has_brief_criterion_video_prompt_does_not():
    clip = render_clip_qa_prompt("c", "b", FIXED_TYPES)
    video = render_video_qa_prompt("c", FIXED_TYPES)
    clause = "cannot be fully answered using only the brief caption"
    assert clause in clip
    assert clause not in video


def test_type_pool_renders_name_description_lines():
    text = render_type_pool(FIXED_TYPES[:2])
    assert text == (
        "object_recognition: Questions about what an object is\n"
        "human_emotion: Questions about human emotional state"
    )


def test_retry_prompt_appends_banned_terms():
    base = render_caption_prompt("T")
    retry = render_caption_prompt("T", ["red", "dog"])
    assert retry == base + '\n\nAdditional requirement: the brief caption must not mention "red", "dog".'
    assert render_caption_prompt("T", ()) == base


# --- caption parsing ------------------------------------------------------------------


def test_parse_fenced_caption():
    pair = parse_caption_response('```json\n{"Brief Caption":"b","Detailed Caption":"d"}\n```')
    assert pair == CaptionPair(brief="b", detailed="d")


def test_parse_caption_missing_key():
    with pytest.raises(ResponseParseError):
        parse_caption_response('{"Brief Caption":"b"}')


def test_parse_caption_with_trailing_prose():
    pair = parse_caption_response(
        'Here you go: {"Brief Caption":"b","Detailed Caption":"d"} hope that helps!'
    )
    assert pair.brief == "b"


@pytest.mark.parametrize("brief", ["", " ", ".", " ... ", "\n.\t"])
def test_parse_caption_brief_without_text_rejected(brief):
    # anchor's scene context is the brief stripped of whitespace and trailing periods.
    with pytest.raises(ResponseParseError, match="Brief Caption"):
        parse_caption_response(json.dumps({"Brief Caption": brief, "Detailed Caption": "d"}))


def test_parse_caption_unparseable():
    with pytest.raises(ResponseParseError):
        parse_caption_response("no json here")


def test_parse_caption_skips_braces_in_prose():
    text = '{not json} then {"Brief Caption":"b","Detailed Caption":"d"}'
    assert parse_caption_response(text).detailed == "d"


# --- frame planning -------------------------------------------------------------------


def test_frames_two_fps():
    assert len(caption_frames_plan(Chapter("t", (0.0, 10.0)))) == 20


def test_frames_capped_at_fifty():
    ts = caption_frames_plan(Chapter("t", (0.0, 100.0)))
    assert len(ts) == 50


def test_frames_tiny_span_one_frame():
    ts = caption_frames_plan(Chapter("t", (0.0, 0.4)))
    assert len(ts) == 1
    assert 0.0 < ts[0] < 0.4


def test_frames_within_span_and_increasing():
    ch = Chapter("t", (12.0, 47.5))
    ts = caption_frames_plan(ch)
    assert all(12.0 < t < 47.5 for t in ts)
    assert all(b > a for a, b in zip(ts, ts[1:]))


# --- aggregation -----------------------------------------------------------------------


def test_aggregate_format():
    agg = aggregate_chapter_captions(
        [
            (Chapter("a", (0.0, 10.0)), CaptionPair("b1", "c1")),
            (Chapter("b", (10.0, 25.0)), CaptionPair("b2", "c2")),
        ]
    )
    assert agg == "0 ~ 10: c1\n10 ~ 25: c2"


def test_aggregate_fractional_seconds_one_decimal():
    agg = aggregate_chapter_captions(
        [
            (Chapter("a", (0.0, 10.5)), CaptionPair("b1", "c1")),
            (Chapter("b", (10.5, 20.0)), CaptionPair("b2", "c2")),
        ]
    )
    assert agg.splitlines()[0] == "0 ~ 10.5: c1"


def test_check_chapters_single_chapter_rejected():
    with pytest.raises(ValueError, match="insufficient chapters"):
        check_chapters([Chapter("a", (0.0, 10.0))])


def test_check_chapters_unsorted_rejected():
    with pytest.raises(ValueError, match="sorted and non-overlapping"):
        check_chapters([Chapter("b", (10.0, 25.0)), Chapter("a", (0.0, 10.0))])


def test_format_seconds():
    assert format_seconds(12.0) == "12"
    assert format_seconds(18.5) == "18.5"
    assert format_seconds(0.0) == "0"


# --- QA parsing --------------------------------------------------------------------------


def test_parse_qa_nulls_skipped():
    text = (
        '{"object_recognition": {"Q": "q1", "A": "a1"},'
        ' "human_emotion": null,'
        ' "camera_movement": {"Q": "q3", "A": "a3"},'
        ' "event_causality": null,'
        ' "video_topic": {"Q": "q5", "A": "a5"}}'
    )
    out = parse_qa_response(text, FIXED_TYPES)
    assert out == [ClipQA("object_recognition", "q1", "a1"), ClipQA("camera_movement", "q3", "a3"),
                   ClipQA("video_topic", "q5", "a5")]


def test_parse_qa_all_null_is_valid_empty():
    text = '{"object_recognition": null, "human_emotion": null}'
    assert parse_qa_response(text, FIXED_TYPES) == []


def test_parse_qa_positional_placeholder_keys():
    text = '{"question_type_1": {"Q": "q", "A": "a"}, "question_type_2": null}'
    out = parse_qa_response(text, FIXED_TYPES)
    assert out[0].qtype == "object_recognition"


def test_parse_qa_unknown_key_rejected():
    with pytest.raises(ResponseParseError):
        parse_qa_response('{"weather": {"Q": "q", "A": "a"}}', FIXED_TYPES)
    with pytest.raises(ResponseParseError):
        parse_qa_response('{"question_type_9": {"Q": "q", "A": "a"}}', FIXED_TYPES)


@pytest.mark.parametrize("entry", [
    {"Q": "q", "A": ""}, {"Q": "q", "A": "  "}, {"Q": "\t\n", "A": "a"}, {"Q": " ", "A": " "}, {"Q": "q", "A": 1},
])
def test_parse_qa_blank_or_non_string_fields_rejected(entry):
    with pytest.raises(ResponseParseError, match="empty Q or A"):
        parse_qa_response(json.dumps({"object_recognition": entry}), FIXED_TYPES)


def test_parse_qa_malformed_json_reports_error():
    with pytest.raises(ResponseParseError):
        parse_qa_response("{{{{", FIXED_TYPES)


def test_parse_qa_entry_missing_answer():
    with pytest.raises(ResponseParseError):
        parse_qa_response('{"object_recognition": {"Q": "q"}}', FIXED_TYPES)


# --- anchoring ------------------------------------------------------------------------------


SPAN = (12.0, 18.5)


def qa(question="What color is the car?", answer="red"):
    return ClipQA(qtype="object_properties", question=question, answer=answer)


def test_anchor_contains_span_and_context():
    out = anchor(qa(), "a vehicle drives by", SPAN)
    assert out == (
        "Between 12s and 18.5s, in the scene where a vehicle drives by: What color is the car?"
    )


def test_anchor_detects_substring_leak():
    assert anchor(qa(), "a red car drives by", SPAN) is None


def test_anchor_leak_is_case_insensitive():
    assert anchor(qa(answer="Red"), "a RED car drives by", SPAN) is None


def test_anchor_leak_check_ignores_surrounding_whitespace():
    assert anchor(qa(answer="  red "), "the red car", SPAN) is None


def test_anchor_clean_brief_passes():
    out = anchor(qa(answer="red"), "a vehicle drives by.", SPAN)
    assert out is not None and "red" not in out


def test_anchor_whole_second_span_renders_integers():
    out = anchor(qa(), "a vehicle drives by", (5.0, 15.0))
    assert out.startswith("Between 5s and 15s,")
