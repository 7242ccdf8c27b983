"""The one reader of the JSON-lines files mmprep passes between stages.

Manifests, plan files and annotation job files are read the same way: lines
yields each non-blank line with its number (blank lines count), and
load_object decodes one line into a dict. The CLI hands lines the bytes of a
path or of stdin alike, split at \\n only, as JSON Lines is: a lone \\r is not
a line end, and only JSON's blank space (space, \\t, \\r, \\n) is stripped from
a line's ends, so a form feed or a no-break space is the decoder's to reject.
Each line is decoded as UTF-8 on its own, so a byte that is not UTF-8 raises
InputError("input <name> is not UTF-8", line) once every earlier line has gone
to the caller. A stream of str lines is taken as it is.

load_object calls the JSON decoder's scanner once and keeps the value when the
scan consumed the whole line; any other outcome (no value, an error, or text
after the value) re-runs json.loads on the line, so what load_object accepts
and every rejection message are json.loads's own. A line that is not JSON, is
nested too deeply for the decoder, holds an integer longer than Python
converts (4 300 digits by default), holds a \\u escape of an unpaired surrogate
(which no UTF-8 output can hold), or holds something other than an object
raises InputError("malformed <kind> record (<reason>)", line).

run_ranges runs a command's work over its input. A regular file is cut, just
after a \\n, into up to one range per usable CPU (the affinity mask, so
taskset limits it), each of about MIN_RANGE_BYTES or more. The first range
runs in the calling process and writes straight to the output; each later one
runs in a forked child, which writes its output to an unlinked temporary file
and marshals its result and the ids it read into a second one. The parent,
in range order, reads each report, appends each output and checks each
range's ids against those of the ranges before it. A range whose child met
an error, or which holds an earlier range's id, runs again in the parent with
every earlier id and its own first line number, so it stops at its first
error exactly where one process reading the whole file stops, after the same
records. Stdin, a file too short for two ranges and a platform without
os.fork run the work once, in-process.

finite and finite_lists hold the one rule for a decoded JSON number: an int or
a float, not a bool, NaN, an infinity or an integer beyond float range.

InputError is every rejection of input, in every module, command-line usage
errors included: the CLI catches it once and exits 1. It imports no numpy.
"""

from __future__ import annotations

import io
import json
import marshal
import math
import os
import stat
import sys
from typing import IO, Callable, Iterable, Iterator

# The fewest bytes a range of a split input holds. On a 2-CPU VM, a split costs
# a process with numpy loaded about 8 ms: the fork round trip (about 3 ms), and
# copy-on-write faults on the pages it writes while a child shares them. tile
# and pack read 15-20 kB of input per ms, so a range of less than about 150 kB
# saves less than that; the 147 kB image manifest of the benchmark loses 2-6 ms
# of a 10 ms tile when split in two.
MIN_RANGE_BYTES = 256 * 1024
_CHUNK = 1 << 16  # bytes one read of a range asks for
_NUMBER = frozenset([int, float])  # a JSON number's types: json.loads gives bool, not int, for true and false


class InputError(ValueError):
    """Input mmprep rejects; names the line when it is known and the field at fault."""

    def __init__(self, message: str, line: int | None = None, field: str = "record"):
        super().__init__(message if line is None else f"{message} at line {line}")
        self.line = line
        self.field = field


def lines(stream: IO[bytes] | IO[str] | Iterable[str], name: str = "stream",
          start: int = 1) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line, numbered from start; single pass, constant memory.

    A line of bytes that is not UTF-8 raises InputError("input <name> is not UTF-8", line).
    """
    for line_no, raw in enumerate(stream, start):
        if type(raw) is bytes:
            try:
                raw = raw.decode()
            except UnicodeDecodeError:
                raise InputError(f"input {name} is not UTF-8", line_no) from None
        text = raw.strip(" \t\r\n")  # JSON's blank space alone: str.strip() would drop \f, \xa0 and \u2028 too
        if text:
            yield line_no, text


# The decoder's own scanner: one call decodes a value, without json.loads's BOM,
# whitespace and extra-data steps around it.
_scan_once = json.JSONDecoder().scan_once


def load_object(text: str, line: int, kind: str) -> dict:
    """One record line as a dict, or InputError naming the kind of record and the line.

    text must be valid Unicode, as every line decoded from UTF-8 bytes is: the
    rule against an unpaired surrogate applies to \\u escapes, and a raw lone
    surrogate in text passes through into the record.
    """
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


def finite(x) -> float | None:
    """x as a float when it is a finite JSON number, else None."""
    if type(x) is float:  # tested first: most numbers a reader checks are floats
        return x if math.isfinite(x) else None
    try:
        return float(x) if type(x) is int else None
    except OverflowError:  # an integer beyond float range
        return None


def finite_lists(xss) -> bool:
    """Whether xss is a list of lists of finite JSON numbers."""
    if type(xss) is not list:
        return False
    try:
        for xs in xss:
            if type(xs) is not list or xs and not (_NUMBER.issuperset(map(type, xs)) and all(map(math.isfinite, xs))):
                return False
    except OverflowError:  # an int beyond float range
        return False
    return True


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _Span(io.RawIOBase):
    """Bytes start..end of a file descriptor, read at their offsets: processes sharing it share no position."""

    def __init__(self, fd: int, start: int, end: int):
        self._fd, self._pos, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self._fd, min(len(buf), self._end - self._pos), self._pos)
        buf[:len(data)] = data
        self._pos += len(data)
        return len(data)


def _read(fd: int, start: int, end: int) -> IO[bytes]:
    return io.BufferedReader(_Span(fd, start, end), _CHUNK)


def _range_starts(fd: int, size: int, n: int) -> list[int]:
    """0, then the start of each of up to n - 1 more ranges of about size / n bytes, each just after a \\n."""
    starts = [0]
    for k in range(1, n):
        pos = max(size * k // n, starts[-1])
        start = pos + len(_read(fd, pos, size).readline())
        if start >= size:
            break
        starts.append(start)
    return starts


# A command's work over one range: (its numbered lines, the ids seen, the output or None) -> its result.
Work = Callable[[Iterator[tuple[int, str]], set[str], IO[str] | None], object]


def run_ranges(fh: IO[bytes], name: str, work: Work, out: IO[str] | None, split: bool) -> list:
    """work's result for each range of fh's lines, in file order.

    work(numbered, seen, out) takes the (line number, text) pairs of a range,
    checks each id against seen and adds it, writes its output to out (None
    when the command writes nothing while it reads) and returns what the
    command needs of the range. Its result must be made of what marshal
    writes: numbers, strings, None, and tuples and lists of them. fh is
    split only when split is true and it is a regular file of at least two
    ranges of MIN_RANGE_BYTES; name is what a line that is not UTF-8 calls it.
    """
    starts = [0]
    if split and hasattr(os, "fork"):
        fd = fh.fileno()
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size >= 2 * MIN_RANGE_BYTES:
            starts = _range_starts(fd, st.st_size, min(usable_cpus(), st.st_size // MIN_RANGE_BYTES))
    if len(starts) == 1:
        return [work(lines(fh, name), set(), out)]

    import shutil  # only a split run needs these
    import signal
    import tempfile

    ends = [*starts[1:], st.st_size]
    pids: list[int | None] = []  # ranges 2.., None once reaped
    tmps = []  # the output (text) and the report (bytes) of each of ranges 2..
    try:
        for start, end in zip(starts[1:], ends[1:]):
            tmps += [tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n"), tempfile.TemporaryFile()]
            pid = os.fork()
            if pid == 0:
                _run_child(work, lines(_read(fd, start, end), name), tmps[-2] if out is not None else None, tmps[-1])
            pids.append(pid)
        seen: set[str] = set()
        results = [work(lines(_read(fd, 0, ends[0]), name), seen, out)]
        for k, (pid, tmp, report_file) in enumerate(zip(pids, tmps[::2], tmps[1::2]), start=1):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids[k - 1] = None
            if code:
                raise OSError(f"the process reading lines of {name} from byte {starts[k]} exited with status {code}")
            report_file.seek(0)
            report = marshal.loads(report_file.read())  # marshal.load would call readinto once per field
            if type(report) is str:  # the child's OSError
                raise OSError(report)
            if report is None or not seen.isdisjoint(report[1]):
                # The range holds an error or an earlier range's id: this run meets the first of them
                # after writing the records before it, as one process reading the whole file does.
                first = 1 + sum(1 for _ in _read(fd, 0, starts[k]))
                results.append(work(lines(_read(fd, starts[k], ends[k]), name, first), seen, out))
                continue
            if out is not None:
                tmp.seek(0)
                shutil.copyfileobj(tmp, out, _CHUNK)
            seen.update(report[1])
            results.append(report[0])
        return results
    finally:  # no child outlives the call, whatever it raises
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for tmp in tmps:
            tmp.close()


def _run_child(work: Work, numbered: Iterator[tuple[int, str]], out: IO[str] | None, report_file: IO[bytes]) -> None:
    """Run work over one range in a forked child, writing its output to out and its report to report_file.

    Never returns. The report is marshal's dump of (result, the ids as a
    list) when work returns, of the message of an OSError, or of None for any
    other error, which the parent meets again when it runs the range itself.
    """
    try:
        seen: set[str] = set()
        try:
            result = work(numbered, seen, out)
            if out is not None:
                out.flush()
            report = (result, list(seen))  # marshal sorts a set's items; a list goes as it is
        except OSError as exc:
            report = str(exc)
        except Exception:
            report = None
        marshal.dump(report, report_file)
        report_file.flush()
        os._exit(0)
    finally:  # reached only when the report could not be written
        os._exit(1)
