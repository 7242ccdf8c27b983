import io
import subprocess
import sys
from pathlib import Path

import pytest

from mmprep.jsonl import InputError, lines, load_object


def test_lines_skip_blank_lines_and_count_them():
    stream = io.StringIO('{"a": 1}\n\n   \n\t{"b": 2}  \n')
    assert list(lines(stream)) == [(1, '{"a": 1}'), (4, '{"b": 2}')]


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
