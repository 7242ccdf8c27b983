import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmprep.jsonl import InputError, lines, load_object


def test_lines_skip_blank_lines_and_count_them():
    stream = io.StringIO('{"a": 1}\n\n   \n\t{"b": 2}  \n')
    assert list(lines(stream)) == [(1, '{"a": 1}'), (4, '{"b": 2}')]


def test_lines_strip_json_blank_space_alone():
    # A form feed, a no-break space and U+2028 are not JSON's blank space: the line keeps them and the decoder refuses.
    data = ' {"a": 1}\t\r\n\f\n{"b": 2}\u00a0\n{"c": 3}\u2028\n'.encode()
    numbered = list(lines(io.BytesIO(data)))
    assert numbered == [(1, '{"a": 1}'), (2, "\f"), (3, '{"b": 2}\u00a0'), (4, '{"c": 3}\u2028')]
    for line_no, text in numbered[1:]:
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        with pytest.raises(InputError, match=rf"malformed manifest record \(.+\) at line {line_no}"):
            load_object(text, line_no, "manifest")


def test_input_error_without_a_line_is_the_bare_message():
    err = InputError("config file x.json must hold a JSON object")
    assert str(err) == "config file x.json must hold a JSON object"
    assert (err.line, err.field) == (None, "record")
    assert isinstance(err, ValueError)


def test_jsonl_imports_neither_numpy_nor_click():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import mmprep.jsonl; "
             "print([m for m in ('numpy', 'click') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("text, value", [
    (r'{"id": "\ud83d\ude00"}', "\U0001F600"),  # a surrogate pair is one character
    (r'{"id": "a\\ud800"}', "a\\ud800"),  # an escaped backslash, then plain text
    (r'{"id": "\u00e9"}', "\u00e9"),
])
def test_load_object_accepts_escapes_that_decode_to_characters(text, value):
    assert load_object(text, 1, "manifest") == {"id": value}


@pytest.mark.parametrize("text", [
    r'{"id": "a\ud800b"}', r'{"id": "\udc00"}', r'{"id": "\ude00\ud83d"}', r'{"\ud800": 1}',
    r'{"items": [{"uri": "x\udbff"}]}',
])
def test_load_object_rejects_unpaired_surrogate_escapes(text):
    with pytest.raises(InputError, match=r"malformed job record \(unpaired surrogate escape\) at line 7"):
        load_object(text, 7, "job")


# load_object's messages for each case, as the decoder gave them before load_object
# called the scanner directly; a case without a message decodes to what json.loads gives.
_MALFORMED = "malformed manifest record ({}) at line 3"
_CORPUS = {
    "bom": ('\ufeff{"a": 1}', _MALFORMED.format("Unexpected UTF-8 BOM (decode using utf-8-sig)")),
    "trailing_text": ('{} x', _MALFORMED.format("Extra data")),
    "two_objects": ('{}{}', _MALFORMED.format("Extra data")),
    "array": ('[1]', _MALFORMED.format("not an object")),
    "string": ('"s"', _MALFORMED.format("not an object")),
    "bare_nan": ('NaN', _MALFORMED.format("not an object")),
    "nan_value": ('{"a": NaN}', None),
    "infinite_value": ('{"a": 1e400}', None),
    "negative_infinity": ('{"a": -Infinity}', None),
    "digits_5000": ('{"a": ' + "7" * 5000 + '}', _MALFORMED.format("integer of more than 4300 digits")),
    "nested_100000": ('{"a": ' + "[" * 100_000 + "]" * 100_000 + '}', _MALFORMED.format("nested too deeply")),
    "unpaired_surrogate": (r'{"a": "\ud800"}', _MALFORMED.format("unpaired surrogate escape")),
    "two_high_surrogates": (r'{"a": "x\ud800\ud800"}', _MALFORMED.format("unpaired surrogate escape")),
    "escaped_slash": (r'{"a": "x\/y\/z"}', None),
    "escaped_backslash_u": (r'{"a": "\\ud800"}', None),  # a backslash, then the text ud800
    "escaped_quote": (r'{"a": "say \"hi\""}', None),
    "escaped_surrogate_pair": (r'{"a": "\ud83d\ude00", "\ud83d\ude00": 1}', None),
    "inner_whitespace": ('{ "a" : [ 1 ,\t2 ] , "b":{"c" :null},"d" : "e" }', None),
    "outer_whitespace": ('  {"a": 1}\t\n', None),
    "repeated_key": ('{"a": 1, "a": 2}', None),
    "empty": ('', _MALFORMED.format("Expecting value")),
    "open_brace": ('{', _MALFORMED.format("Expecting property name enclosed in double quotes")),
    "bad_literal": ('{"a": tru}', _MALFORMED.format("Expecting value")),
}


@pytest.mark.parametrize("text, message", _CORPUS.values(), ids=_CORPUS.keys())
def test_load_object_reads_what_json_loads_reads(text, message):
    if message is None:
        # repr, because a NaN is not equal to itself
        assert repr(load_object(text, 3, "manifest")) == repr(json.loads(text))
    else:
        with pytest.raises(InputError) as err:
            load_object(text, 3, "manifest")
        assert str(err.value) == message
        assert (err.value.line, err.value.field) == (3, "record")


def test_load_object_does_not_re_encode_a_line_without_a_u_escape(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", fail)
    line = r'{"id": "a\/b", "uri": "img:\/\/1\/2", "tags": ["x\/y"]}'
    assert load_object(line, 1, "manifest") == {"id": "a/b", "uri": "img://1/2", "tags": ["x/y"]}
    with pytest.raises(AssertionError, match="json.dumps called"):  # a line with a \u escape is re-encoded
        load_object(r'{"id": "\u00e9\/"}', 1, "manifest")


def _json_loads_reference(text: str) -> str:
    """What load_object gives for text, from json.loads alone: the repr of a dict, or the error message."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"malformed job record ({exc.msg}) at line 1"
    except ValueError:
        return f"malformed job record (integer of more than {sys.get_int_max_str_digits()} digits) at line 1"
    except RecursionError:
        return "malformed job record (nested too deeply) at line 1"
    if type(obj) is not dict:
        return "malformed job record (not an object) at line 1"
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return "malformed job record (unpaired surrogate escape) at line 1"
    return repr(obj)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_lines = st.one_of(
    st.text(max_size=40),
    st.builds(lambda v, pre, post: pre + json.dumps(v) + post, _json_values,
              st.sampled_from(["", " ", "\ufeff", "x"]), st.sampled_from(["", " ", "}", "{}", ",", "\t"])),
    st.dictionaries(st.text(max_size=4), _json_values, max_size=4).map(json.dumps),
)


@settings(max_examples=300, deadline=None)
@given(text=_lines)
def test_load_object_agrees_with_json_loads(text):
    try:
        got = repr(load_object(text, 1, "job"))
    except InputError as err:
        got = str(err)
    assert got == _json_loads_reference(text)
