"""plan, pack and tile cut a regular input file into ranges, one per usable CPU.

Most tests here run a command on a file split into three ranges (with the
minimum range size and the CPU count patched so small files split) and again
read in one range, and require the same exit code, stdout, stderr and output
file, byte for byte, with no child process left behind once cli.main returns.
The defects are planted in each range in turn, duplicate ids straddle ranges,
and blank lines, CRLF endings and a last line without \\n fall on boundaries.
The last tests call jsonl.fork_shares, the fork-join of every split, directly.
"""

import io
import json
import os
import signal
import sys
import tempfile
import time

import pytest

from mmprep import budget, cli, jsonl, manifest
from tests.conftest import dumps_sample, make_sample, plan_record, split_into

N_LINES = 30


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(capsys, monkeypatch, tmp_path, argv, ranges, stdin=None):
    """(exit code, stdout, stderr, output file bytes or None) of one command, its input split into ranges."""
    split_into(monkeypatch, ranges)
    out = tmp_path / "out.jsonl"
    out.unlink(missing_ok=True)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    code = cli.main([*argv, "-o", str(out)])
    captured = capsys.readouterr()
    _assert_no_children()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


def _same_in_one_range_and_three(capsys, monkeypatch, tmp_path, argv):
    """The run split in three, once it is checked to equal the run in one range."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    one = _run(capsys, monkeypatch, tmp_path, argv, 1)
    monkeypatch.setattr(os, "fork", counting_fork)
    three = _run(capsys, monkeypatch, tmp_path, argv, 3)
    assert len(forks) == 2
    assert three == one
    return three


def _range_of(path, line_no: int) -> int:
    """Which of three ranges (0, 1, 2) holds the 1-based line."""
    data = path.read_bytes()
    with open(path, "rb") as fh:
        starts = jsonl._range_starts(fh.fileno(), len(data), 3)
    offset = sum(len(line) for line in data.splitlines(keepends=True)[:line_no - 1])
    return sum(offset >= s for s in starts) - 1


def _manifest_lines(n: int = N_LINES) -> list[str]:
    return [dumps_sample(make_sample(f"s{k:02d}", images=[(640 + k, 480)], videos=[10.0 + k], text_tokens=k))
            for k in range(n)]


def _plan_lines() -> list[str]:
    return [json.dumps(plan_record(id=f"p{k:02d}", l_text=100 * k, total_tokens=100 * k)) for k in range(N_LINES)]


# The line index planted in each range: with 30 lines of about equal length the
# cuts fall near lines 10 and 20.
IN_RANGE = {0: 4, 1: 15, 2: 25}

_BAD_MANIFEST = {
    "malformed": '{"id": "bad", "items": [',
    "bad-field": '{"id": "bad", "items": [], "text_tokens": -1}',
    "frame-overflow": dumps_sample(make_sample("huge", videos=[1e308])),
}
_BAD_PLAN = {
    "malformed": '{"id": "bad", "verdict": [',
    "bad-field": json.dumps(plan_record(id="bad", l_text=-1)),
    "over-capacity": json.dumps(plan_record(id="big", l_text=99999, total_tokens=99999)),
}
_COMMANDS = {
    "plan": (["plan", "--l-max", "8192"], _manifest_lines, _BAD_MANIFEST),
    "tile": (["tile"], _manifest_lines, {k: v for k, v in _BAD_MANIFEST.items() if k != "frame-overflow"}),
    "pack": (["pack", "--l-max", "32768"], _plan_lines, _BAD_PLAN),
}
_DEFECTS = [(command, defect) for command, (_, _, bad) in _COMMANDS.items() for defect in bad]


@pytest.mark.parametrize("where", sorted(IN_RANGE))
@pytest.mark.parametrize("command, defect", _DEFECTS, ids=[f"{c}-{d}" for c, d in _DEFECTS])
def test_a_defect_in_any_range_reads_as_in_one_range(capsys, monkeypatch, tmp_path, command, defect, where):
    argv, make_lines, bad = _COMMANDS[command]
    lines = make_lines()
    lines[IN_RANGE[where]] = bad[defect]
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _range_of(path, IN_RANGE[where] + 1) == where
    code, out, err, written = _same_in_one_range_and_three(capsys, monkeypatch, tmp_path, [*argv, "-i", str(path)])
    assert code == 1 and "Error: " in err and "Traceback" not in err
    if command == "pack":
        assert written is None  # pack writes only once every plan is read
    else:  # the records before the bad line, one line each, as one process writes them
        assert written.count(b"\n") == IN_RANGE[where]


@pytest.mark.parametrize("plants", [
    {15: "dup:3"},  # an id of range 1 again in range 2
    {25: "dup:15"},  # an id of range 2 again in range 3
    {15: "dup:3+bad"},  # the duplicate's later field is bad as well: the duplicate wins
    {25: "dup:4+bad"},
    {13: "bad", 16: "dup:3"},  # range 2's own error comes first
    {13: "dup:3", 16: "bad"},  # range 2's duplicate comes first
    {15: "bad", 25: "dup:3"},  # range 2's error before range 3's duplicate
    {15: "dup:14"},  # a duplicate within range 2
], ids=str)
@pytest.mark.parametrize("command", ["plan", "tile", "pack"])
def test_duplicate_ids_across_ranges_read_as_in_one_range(capsys, monkeypatch, tmp_path, command, plants):
    argv, make_lines, _ = _COMMANDS[command]
    lines = make_lines()
    for index, plant in plants.items():
        record = json.loads(lines[index])
        if plant.startswith("dup:"):
            record["id"] = json.loads(lines[int(plant[4:].split("+")[0])])["id"]
        if plant.endswith("bad"):
            record["text_tokens" if command != "pack" else "l_text"] = -1
        lines[index] = json.dumps(record)
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err, _ = _same_in_one_range_and_three(capsys, monkeypatch, tmp_path, [*argv, "-i", str(path)])
    first, message = min(plants), err.rstrip().rsplit("\n", 1)[-1]
    assert code == 1
    assert message.endswith(f"at line {first + 1}")
    assert ("duplicate" in message) == plants[first].startswith("dup")


def _odd_endings(lines: list[str], shift: int) -> bytes:
    """Records with CRLF or LF endings, blank and blank-looking lines between them, no \\n after the last."""
    text = "".join([" \r\n", "\n", "\t\n"][:shift])
    for k, line in enumerate(lines):
        text += line + ("\r\n" if k % 2 else "\n") + ("" if k % 3 else "\n  \r\n")
    return text.rstrip("\r\n").encode("utf-8")


@pytest.mark.parametrize("shift", range(4))
@pytest.mark.parametrize("command", ["plan", "tile", "pack"])
def test_blank_lines_crlf_and_a_last_line_without_newline_at_boundaries(capsys, monkeypatch, tmp_path,
                                                                       command, shift):
    argv, make_lines, _ = _COMMANDS[command]
    path = tmp_path / "in.jsonl"
    path.write_bytes(_odd_endings(make_lines(), shift))
    code, _, err, written = _same_in_one_range_and_three(capsys, monkeypatch, tmp_path, [*argv, "-i", str(path)])
    assert code == 0, err
    if command != "pack":
        assert written.count(b"\n") == N_LINES


def test_the_shifts_put_blank_and_crlf_lines_before_a_boundary(tmp_path):
    # The cuts of the test above fall, across its shifts, just after a blank line and after a CRLF record.
    before = set()
    path = tmp_path / "in.jsonl"
    for shift in range(4):
        data = _odd_endings(_manifest_lines(), shift)
        path.write_bytes(data)
        with open(path, "rb") as fh:
            starts = jsonl._range_starts(fh.fileno(), len(data), 3)
        for s in starts[1:]:
            line = data[:s].splitlines(keepends=True)[-1]
            before.add("blank" if not line.strip() else "crlf" if line.endswith(b"\r\n") else "lf")
    assert before >= {"blank", "crlf"}


# An id of 300 000 bytes of two- and four-byte UTF-8: a cut inside it searches several reads for the line's end.
_LONG_ID = "\u00e9\U0001F600" * 50_000


@pytest.mark.parametrize("command", ["plan", "tile", "pack"])
def test_a_cut_inside_a_line_longer_than_a_read_moves_to_its_end(capsys, monkeypatch, tmp_path, command):
    argv, make_lines, _ = _COMMANDS[command]
    lines = make_lines()
    record = json.loads(lines[5])
    record["id"] = _LONG_ID
    lines[5] = json.dumps(record, ensure_ascii=False)
    data = ("\n".join(lines) + "\n").encode()
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    long_end = len("\n".join(lines[:6]).encode()) + 1
    with open(path, "rb") as fh:
        starts = jsonl._range_starts(fh.fileno(), len(data), 3)
    assert long_end - len(data) // 3 > 2 * jsonl._CHUNK  # the first cut falls more than two reads before the \n
    assert starts == [0, long_end, long_end + len(lines[6]) + 1]  # the second cut falls inside the long line too
    code, _, err, written = _same_in_one_range_and_three(capsys, monkeypatch, tmp_path, [*argv, "-i", str(path)])
    assert code == 0, err
    if command != "pack":
        assert written.count(b"\n") == N_LINES


@pytest.mark.parametrize("command", ["plan", "tile", "pack"])
def test_a_split_run_leaves_no_file_descriptor_open(capsys, monkeypatch, tmp_path, command):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("the platform lists no open file descriptors")
    argv, make_lines, _ = _COMMANDS[command]
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(make_lines()) + "\n", encoding="utf-8")
    split_into(monkeypatch, 3)
    before = len(os.listdir("/proc/self/fd"))
    assert cli.main([*argv, "-i", str(path), "-o", str(tmp_path / "out.jsonl")]) == 0
    assert len(os.listdir("/proc/self/fd")) == before
    capsys.readouterr()


def test_a_temporary_file_that_cannot_be_made_closes_those_made_before(capsys, monkeypatch, tmp_path):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("the platform lists no open file descriptors")
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(_manifest_lines()) + "\n", encoding="utf-8")
    made, real = [], tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        if len(made) == 3:
            _no_space()
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    before = len(os.listdir("/proc/self/fd"))
    code, _, err, _ = _run(capsys, monkeypatch, tmp_path, ["plan", "-i", str(path)], 3)
    assert code == cli.EXIT_IO and "No space left on device" in err
    assert all(tmp.closed for tmp in made)
    assert len(os.listdir("/proc/self/fd")) == before


def test_plan_split_to_stdout_matches_one_range(capsys, monkeypatch, tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(_manifest_lines()) + "\n", encoding="utf-8")
    split_into(monkeypatch, 1)
    assert cli.main(["plan", "-i", str(path)]) == 0
    one = capsys.readouterr()
    split_into(monkeypatch, 3)
    assert cli.main(["plan", "-i", str(path)]) == 0
    assert capsys.readouterr() == one
    _assert_no_children()


class _ClosedPipe(io.TextIOBase):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_on_stdout_leaves_no_child(capsys, monkeypatch, tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(_manifest_lines()) + "\n", encoding="utf-8")
    split_into(monkeypatch, 3)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(["plan", "-i", str(path)]) == cli.EXIT_IO
    _assert_no_children()


def _in_children_only(monkeypatch, module, name, fail):
    """Replace module.name with a version that calls fail() in a child process, and the original otherwise."""
    parent, real = os.getpid(), getattr(module, name)

    def wrapper(*args):
        if os.getpid() != parent:
            fail()
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)


def _no_space():
    raise OSError(28, "No space left on device")


def _die():
    os._exit(7)


# A function each command calls once per record, in every range.
_PER_RECORD = {"plan": (manifest, "parse_record"), "tile": (manifest, "parse_record"), "pack": (budget, "read_plan")}


@pytest.mark.parametrize("fail", [_no_space, _die], ids=["oserror", "killed"])
@pytest.mark.parametrize("command", ["plan", "tile", "pack"])
def test_a_child_that_fails_is_run_again_in_the_parent(capsys, monkeypatch, tmp_path, command, fail):
    argv, make_lines, _ = _COMMANDS[command]
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(make_lines()) + "\n", encoding="utf-8")
    _in_children_only(monkeypatch, *_PER_RECORD[command], fail)
    code, _, err, _ = _same_in_one_range_and_three(capsys, monkeypatch, tmp_path, [*argv, "-i", str(path)])
    assert code == 0, err


def test_an_io_error_met_again_in_the_parent_exits_2_never_short(capsys, monkeypatch, tmp_path):
    # Every child fails, and the parent, running range 1 again, fails at its line 16: exit 2 after the records before.
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(_manifest_lines()) + "\n", encoding="utf-8")
    assert _range_of(path, 16) == 1
    parent, real = os.getpid(), manifest.parse_record

    def parse_record(text, line_no, seen):
        if os.getpid() != parent or line_no == 16:
            _no_space()
        return real(text, line_no, seen)

    monkeypatch.setattr(manifest, "parse_record", parse_record)
    code, _, err, written = _run(capsys, monkeypatch, tmp_path, ["plan", "-i", str(path)], 3)
    assert code == cli.EXIT_IO
    assert err.endswith("i/o error: [Errno 28] No space left on device\n")
    assert "Traceback" not in err
    assert written.count(b"\n") == 15


def test_an_error_met_in_a_child_alone_is_run_again_in_the_parent(capsys, monkeypatch, tmp_path):
    # A range whose child raised runs again in the parent, which writes what one process writes.
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(_manifest_lines()) + "\n", encoding="utf-8")
    one = _run(capsys, monkeypatch, tmp_path, ["plan", "-i", str(path)], 1)

    def refuse():
        raise jsonl.InputError("met in a child only")

    _in_children_only(monkeypatch, manifest, "parse_record", refuse)
    assert _run(capsys, monkeypatch, tmp_path, ["plan", "-i", str(path)], 3) == one


@pytest.mark.parametrize("argv, make_lines", [
    (["plan"], _manifest_lines), (["tile"], _manifest_lines), (["validate", "--kind", "manifest"], _manifest_lines),
    (["pack"], _plan_lines), (["validate", "--kind", "plans"], _plan_lines),
], ids=["plan", "tile", "validate-manifest", "pack", "validate-plans"])
@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_a_path_and_stdin_read_the_same_lines(capsys, monkeypatch, tmp_path, argv, make_lines, eol):
    # Lines end at \n alone, by either route: a lone \r is blank space inside one line.
    path = tmp_path / "in.jsonl"

    def run(eol, stdin):
        """The run without its config line, which names the input."""
        data = eol.join(line.encode() for line in make_lines()[:3]) + eol
        path.write_bytes(data)
        code, out, err, written = _run(capsys, monkeypatch, tmp_path, argv if stdin else [*argv, "-i", str(path)],
                                       3, stdin=data if stdin else None)
        return code, out, err.split("\n", 1)[1], written

    by_path = run(eol, stdin=False)
    assert by_path == run(eol, stdin=True)
    if eol == b"\r":
        assert by_path[0] == 1 and "(Extra data) at line 1" in by_path[2] + (by_path[3] or b"").decode()
    else:
        assert by_path == run(b"\n", stdin=False)


@pytest.mark.parametrize("ranges", [1, 3])
def test_a_byte_that_is_not_utf8_names_its_line(capsys, monkeypatch, tmp_path, ranges):
    good = [line.encode() for line in _manifest_lines(60)]
    data = b"\n".join([*good, b'{"id": "a\xff", "items": [], "text_tokens": 1}']) + b"\n"
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    for argv, name in ((["-i", str(path)], str(path)), ([], "stdin")):
        code, _, err, written = _run(capsys, monkeypatch, tmp_path, ["plan", *argv], ranges,
                                     stdin=data if not argv else None)
        assert code == 1
        assert err.endswith(f"Error: input {name} is not UTF-8 at line {len(good) + 1}\n")
        assert written.count(b"\n") == len(good)  # every record before the bad line


def test_stdin_and_a_short_file_run_in_one_process(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(_manifest_lines()) + "\n", encoding="utf-8")
    assert cli.main(["plan", "-i", str(path)]) == 0  # shorter than two ranges of MIN_RANGE_BYTES
    split_into(monkeypatch, 3)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes())))
    assert cli.main(["plan"]) == 0
    monkeypatch.delattr(os, "fork")
    assert cli.main(["plan", "-i", str(path)]) == 0
    capsys.readouterr()


def test_ranges_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert jsonl.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert jsonl.usable_cpus() == 6


def _raise():
    raise ValueError("met in one share")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def test_fork_shares_gives_the_first_result_and_which_children_finished(capfd):
    result, finished = jsonl.fork_shares(lambda: "first", [lambda: None, _raise, _die, _kill_self, lambda: 1])
    assert (result, finished) == ("first", [True, False, False, False, True])
    _assert_no_children()
    assert capfd.readouterr() == ("", "")  # a child that raises prints no traceback


def test_fork_shares_kills_a_busy_child_when_the_first_share_raises():
    started = time.monotonic()
    with pytest.raises(ValueError):
        jsonl.fork_shares(_raise, [lambda: time.sleep(60)])
    assert time.monotonic() - started < 10
    _assert_no_children()


def test_text_buffered_before_a_fork_is_written_once(tmp_path):
    path = tmp_path / "out.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("before the fork\n")
        jsonl.fork_shares(lambda: None, [lambda: None, _raise])
        fh.flush()
    assert path.read_text(encoding="utf-8") == "before the fork\n"
