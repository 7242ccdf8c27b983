import io
import json

import pytest
from hypothesis import given, strategies as st

from mmprep.manifest import (
    ImageDims,
    Sample,
    VisualItem,
    iter_manifest,
    parse_record,
)
from mmprep.jsonl import InputError
from tests.conftest import dumps_sample, sample_to_obj


def test_empty_stream():
    assert list(iter_manifest(io.StringIO(""))) == []


def test_single_image_record_round_trip():
    line = json.dumps(
        {
            "id": "a",
            "items": [{"kind": "image", "width": 896, "height": 448, "uri": "u"}],
            "text_tokens": 100,
            "tags": [],
        }
    )
    samples = list(iter_manifest(io.StringIO(line + "\n")))
    assert len(samples) == 1
    s = samples[0]
    assert s.id == "a" and s.text_tokens == 100
    assert len(s.items) == 1
    assert s.items[0].kind == "image"
    assert (s.items[0].dims.width_px, s.items[0].dims.height_px) == (896, 448)


def test_negative_duration_names_line_and_field():
    line = json.dumps(
        {"id": "a", "items": [{"kind": "video", "duration_s": -1, "uri": "u"}], "text_tokens": 0, "tags": []}
    )
    with pytest.raises(InputError) as exc:
        list(iter_manifest(io.StringIO(line)))
    assert "invalid duration at line 1" in str(exc.value)
    assert exc.value.line == 1
    assert exc.value.field == "duration_s"


def test_duplicate_id_rejected():
    rec = json.dumps({"id": "a", "items": [], "text_tokens": 0, "tags": []})
    with pytest.raises(InputError) as exc:
        list(iter_manifest(io.StringIO(rec + "\n" + rec)))
    assert exc.value.line == 2
    assert exc.value.field == "id"


def test_unknown_kind_rejected():
    line = json.dumps({"id": "a", "items": [{"kind": "audio", "uri": "u"}], "text_tokens": 0, "tags": []})
    with pytest.raises(InputError) as exc:
        list(iter_manifest(io.StringIO(line)))
    assert exc.value.field == "kind"


_GOOD = {"id": "a", "items": [], "text_tokens": 0, "tags": []}


def _item(**fields):
    return {**_GOOD, "items": [{"uri": "u", **fields}]}


@pytest.mark.parametrize("line,field,message", [
    ("[1]", "record", "malformed manifest record (not an object)"),
    (json.dumps({**_GOOD, "id": ""}), "id", "invalid id"),
    (json.dumps({**_GOOD, "id": 7}), "id", "invalid id"),
    (json.dumps({**_GOOD, "id": 7, "text_tokens": -1}), "id", "invalid id"),  # fields are checked in order
    (json.dumps({**_GOOD, "text_tokens": True}), "text_tokens", "invalid text_tokens"),
    (json.dumps({**_GOOD, "text_tokens": 1.0}), "text_tokens", "invalid text_tokens"),
    (json.dumps({**_GOOD, "text_tokens": -1, "items": 3}), "text_tokens", "invalid text_tokens"),
    (json.dumps({k: v for k, v in _GOOD.items() if k != "text_tokens"}), "text_tokens", "invalid text_tokens"),
    (json.dumps({**_GOOD, "items": {}, "tags": 3}), "items", "invalid items"),
    (json.dumps({k: v for k, v in _GOOD.items() if k != "items"}), "items", "invalid items"),
    (json.dumps({**_GOOD, "items": None}), "items", "invalid items"),
    (json.dumps({**_GOOD, "items": [5]}), "items", "malformed item"),
    (json.dumps(_item(kind="image", width=4, height=4, uri=5)), "uri", "invalid uri"),
    (json.dumps(_item(kind="image", width=True, height=4)), "width", "invalid width"),
    (json.dumps(_item(kind="image", width=0, height=0)), "width", "invalid width"),
    (json.dumps(_item(kind="image", width=4)), "height", "invalid height"),
    (json.dumps(_item(kind="image", width=4, height=2.0)), "height", "invalid height"),
    (json.dumps(_item(kind="video", duration_s="3")), "duration_s", "invalid duration"),
    (json.dumps(_item(kind="video", duration_s=True)), "duration_s", "invalid duration"),
    (json.dumps(_item(kind="video", duration_s=0)), "duration_s", "invalid duration"),
    (json.dumps(_item(kind="video", duration_s=10**400)), "duration_s", "invalid duration"),
    (json.dumps(_item(kind="video", duration_s=float("nan"))), "duration_s", "invalid duration"),
    (json.dumps(_item(kind="video", duration_s=float("inf"))), "duration_s", "invalid duration"),
    (json.dumps(_item(kind="document", pages=0)), "pages", "invalid pages"),
    (json.dumps(_item(kind="document", pages=2.0)), "pages", "invalid pages"),
    (json.dumps(_item(kind="document", pages=False)), "pages", "invalid pages"),
    (json.dumps(_item(kind="audio")), "kind", "unknown kind 'audio'"),
    (json.dumps(_item(kind=None)), "kind", "unknown kind None"),
    (json.dumps({**_GOOD, "tags": "x"}), "tags", "invalid tags"),
    (json.dumps({**_GOOD, "tags": ["x", 1]}), "tags", "invalid tags"),
])
def test_parse_record_rejects_each_field(line, field, message):
    with pytest.raises(InputError) as exc:
        parse_record(line, 3)
    assert str(exc.value) == f"{message} at line 3"
    assert (exc.value.line, exc.value.field) == (3, field)


def test_parse_record_types():
    s = parse_record(json.dumps(_item(kind="video", duration_s=12)), 1)
    assert type(s) is Sample and type(s.items[0]) is VisualItem
    assert s.items[0].duration_s == 12.0 and type(s.items[0].duration_s) is float
    assert s.tags == () and type(s.tags) is tuple
    image = parse_record(json.dumps(_item(kind="image", width=4, height=3)), 1).items[0]
    assert type(image.dims) is ImageDims and image == VisualItem("image", "u", ImageDims(4, 3))


def test_parse_record_defaults_tags_and_uri_alone():
    # tags and an item's uri are the only keys a line may leave out.
    s = parse_record(json.dumps({"id": "a", "items": [{"kind": "document", "pages": 2}], "text_tokens": 0}), 1)
    assert s == Sample("a", (VisualItem("document", "", pages=2),), 0, ())


def test_malformed_json_names_line():
    with pytest.raises(InputError) as exc:
        list(iter_manifest(io.StringIO('{"id": "a"\n')))
    assert "line 1" in str(exc.value)


def test_blank_lines_skipped_line_numbers_kept():
    good = json.dumps({"id": "a", "items": [], "text_tokens": 0, "tags": []})
    bad = '{"nope"'
    with pytest.raises(InputError) as exc:
        list(iter_manifest(io.StringIO(good + "\n\n" + bad + "\n")))
    assert exc.value.line == 3


def test_iter_manifest_is_streaming():
    def gen():
        yield json.dumps({"id": "a", "items": [], "text_tokens": 0, "tags": []}) + "\n"
        yield json.dumps({"id": "b", "items": [], "text_tokens": 0, "tags": []}) + "\n"

    ids = [s.id for s in iter_manifest(gen())]
    assert ids == ["a", "b"]


# --- round-trip property -----------------------------------------------------

_items = st.lists(
    st.one_of(
        st.builds(
            lambda w, h, u: {"kind": "image", "width": w, "height": h, "uri": u},
            st.integers(1, 8192), st.integers(1, 8192), st.text(max_size=8),
        ),
        st.builds(
            lambda d, u: {"kind": "video", "duration_s": d, "uri": u},
            st.floats(0.001, 7200, allow_nan=False), st.text(max_size=8),
        ),
        st.builds(
            lambda p, u: {"kind": "document", "pages": p, "uri": u},
            st.integers(1, 500), st.text(max_size=8),
        ),
    ),
    max_size=4,
)


@given(
    records=st.lists(
        st.builds(
            lambda i, items, tt, tags: {"id": f"s{i}", "items": items, "text_tokens": tt, "tags": tags},
            st.integers(0, 10**6), _items, st.integers(0, 10**6),
            st.lists(st.text(max_size=6), max_size=3),
        ),
        max_size=6,
        unique_by=lambda r: r["id"],
    )
)
def test_parse_serialize_parse_is_identity(records):
    text = "\n".join(json.dumps(r) for r in records)
    first = list(iter_manifest(io.StringIO(text)))
    second = list(iter_manifest(io.StringIO("\n".join(dumps_sample(s) for s in first))))
    assert first == second
    assert [sample_to_obj(s) for s in first] == [sample_to_obj(s) for s in second]
