"""The one reader of the JSON-lines files mmprep passes between stages.

Manifests, plan files and annotation job files are read the same way: lines
yields each non-blank line with its 1-based number (blank lines count), and
load_object decodes one line into a dict. It calls the JSON decoder's scanner
once and keeps the value when the scan consumed the whole line; any other
outcome (no value, an error, or text after the value) re-runs json.loads on the
line, so what load_object accepts and every rejection message are json.loads's
own. A line that is not JSON, is nested too deeply for the decoder, holds an
integer longer than Python converts (4 300 digits by default), holds a \\u
escape of an unpaired surrogate (which no UTF-8 output can hold), or holds
something other than an object raises
InputError("malformed <kind> record (<reason>)", line).

InputError is every rejection of input, in every module, command-line usage
errors included: the CLI catches it once and exits 1. It imports no numpy.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Iterable, Iterator


class InputError(ValueError):
    """Input mmprep rejects; names the line when it is known and the field at fault."""

    def __init__(self, message: str, line: int | None = None, field: str = "record"):
        super().__init__(message if line is None else f"{message} at line {line}")
        self.line = line
        self.field = field


def lines(stream: IO[str] | Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line; single pass, constant memory."""
    for line_no, raw in enumerate(stream, start=1):
        text = raw.strip()
        if text:
            yield line_no, text


# The decoder's own scanner: one call decodes a value, without json.loads's BOM,
# whitespace and extra-data steps around it.
_scan_once = json.JSONDecoder().scan_once


def load_object(text: str, line: int, kind: str) -> dict:
    """One record line as a dict, or InputError naming the kind of record and the line."""
    try:
        try:
            obj, end = _scan_once(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(text):  # not one value filling the line: json.loads decodes it or says why not
            obj = json.loads(text)
        if "\\" in text and "\\u" in text:  # the memchr for a backslash spares a plain line the search for \u
            # A \u escape can decode to a lone surrogate, which no UTF-8 writer can write back.
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed {kind} record ({exc.msg})", line) from exc
    except UnicodeEncodeError as exc:
        raise InputError(f"malformed {kind} record (unpaired surrogate escape)", line) from exc
    except ValueError as exc:  # the one other ValueError json.loads raises: int() refused the digits
        raise InputError(f"malformed {kind} record (integer of more than {sys.get_int_max_str_digits()} digits)",
                         line) from exc
    except RecursionError as exc:
        raise InputError(f"malformed {kind} record (nested too deeply)", line) from exc
    if type(obj) is not dict:
        raise InputError(f"malformed {kind} record (not an object)", line)
    return obj
