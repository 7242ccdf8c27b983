"""curate reads and pools its reference directory in one share per usable CPU.

Every test here forces the split (the minimum share size and the CPU count
patched, so it runs on a one-CPU host too) and requires what one process
gives: the same matrix bits, output bytes, exit code and error line, with no
child process or file descriptor left once the call returns.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mmprep import cli, curator
from mmprep.curator import write_feature_file
from tests.conftest import split_reference_into

N_REF = 6  # r0..r5: with two shares, the parent pools r0, r2, r4 and the child r1, r3, r5


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counting_forks(monkeypatch) -> list:
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _dirs(tmp_path, seed=0) -> list[str]:
    """ref/ of N_REF tracks and cand/ of four, binary and text, with tail clips; returns the curate argv."""
    rng = np.random.default_rng(seed)
    for sub, n in (("ref", N_REF), ("cand", 4)):
        (tmp_path / sub).mkdir()
        for k in range(n):
            track = rng.normal(size=(int(rng.integers(5, 60)), 8)).astype(np.float32)
            write_feature_file(tmp_path / sub / f"{sub[0]}{k}.feat", f"{sub}{k}", track, binary=k % 3 != 1)
    return ["curate", "--reference", str(tmp_path / "ref"), "--candidates", str(tmp_path / "cand")]


def _run(capsys, monkeypatch, tmp_path, argv, shares):
    """(exit code, stdout, stderr, output file bytes or None) of one curate, its reference read in shares."""
    split_reference_into(monkeypatch, shares)
    out = tmp_path / "out.jsonl"
    out.unlink(missing_ok=True)
    code = cli.main([*argv, "-o", str(out)])
    captured = capsys.readouterr()
    _assert_no_children()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


def _same_in_one_share_and_two(capsys, monkeypatch, tmp_path, argv):
    one = _run(capsys, monkeypatch, tmp_path, argv, 1)
    forks = _counting_forks(monkeypatch)
    two = _run(capsys, monkeypatch, tmp_path, argv, 2)
    assert len(forks) == 1
    assert two == one
    return two


@pytest.mark.parametrize("pool", ["mean", "max"])
@pytest.mark.parametrize("shares", [2, 3, N_REF])
def test_a_split_read_gives_the_matrix_of_one_process(monkeypatch, tmp_path, pool, shares):
    _dirs(tmp_path)
    one, videos = curator.read_clip_matrix(tmp_path / "ref", pool)
    split_reference_into(monkeypatch, shares)
    forks = _counting_forks(monkeypatch)
    split, split_videos = curator.read_clip_matrix(tmp_path / "ref", pool)
    assert len(forks) == shares - 1
    _assert_no_children()
    assert split_videos == videos
    assert split.shape == one.shape and split.tobytes() == one.tobytes()


@pytest.mark.parametrize("pool", ["mean", "max"])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_split_curate_writes_the_bytes_of_one_process(capsys, monkeypatch, tmp_path, pool, seed):
    argv = [*_dirs(tmp_path, seed), "--pool", pool, "--tau", "0.2"]
    code, _, err, written = _same_in_one_share_and_two(capsys, monkeypatch, tmp_path, argv)
    assert code == 0, err
    assert written.count(b"\n") == 4


def _truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[: data.rindex(b"\n", 0, 2 * len(data) // 3) + 1])  # whole text lines, too few values


def _nan(path):
    video_id, track = curator.read_feature_file(path)
    track[3, 1] = np.nan
    write_feature_file(path, video_id, track)


def _zero_clip(path):
    video_id, track = curator.read_feature_file(path)
    track[:10] = 0.0
    write_feature_file(path, video_id, track)


def _rewritten_after_layout(monkeypatch):
    """A plant that makes a file three times as long once clip_layout has read its header, on every run."""
    layout, planted = curator.clip_layout, {}

    def layout_then_rewrite(directory, dim_of=None):
        mine = {path: track for path, track in planted.items() if path.parent == Path(directory)}
        for path, (video_id, track) in mine.items():
            write_feature_file(path, video_id, track)
        result = layout(directory, dim_of)
        for path, (video_id, track) in mine.items():
            write_feature_file(path, video_id, np.vstack([track] * 3))
        return result

    def plant(path):
        planted[path] = curator.read_feature_file(path)

    monkeypatch.setattr(curator, "clip_layout", layout_then_rewrite)
    return plant


_FAULTS = {
    "truncated": (_truncated, "body has"),
    "nan": (_nan, "non-finite feature value (NaN or Inf)"),
    "zero-clip": (_zero_clip, "clip 0 pools to a zero vector"),
    "rewritten": (None, "header changed while reading"),
}


@pytest.mark.parametrize("bad", [(2,), (1,), (1, 2), (0, 3), (4, 5)],
                         ids=["share0", "share1", "both-share1-first", "both-share0-first", "last-two"])
@pytest.mark.parametrize("fault", _FAULTS)
def test_a_bad_reference_file_in_any_share_reads_as_in_one_process(capsys, monkeypatch, tmp_path, fault, bad):
    argv = _dirs(tmp_path)
    plant, message = _FAULTS[fault]
    if plant is None:
        plant = _rewritten_after_layout(monkeypatch)
    for k in bad:
        path = tmp_path / "ref" / f"r{k}.feat"
        if fault == "truncated":  # a text body, which the layout cannot size exactly
            video_id, track = curator.read_feature_file(path)
            write_feature_file(path, video_id, track, binary=False)
        plant(path)
    code, out, err, written = _same_in_one_share_and_two(capsys, monkeypatch, tmp_path, argv)
    assert (code, out, written) == (1, "", None)
    error = err.splitlines()[-1]
    assert error.startswith(f"Error: {tmp_path / 'ref' / f'r{min(bad)}.feat'}: ")
    assert message in error
    assert "Traceback" not in err


def _in_parent_only(monkeypatch, exc, child_sleeps):
    """Make _pooled_clips raise exc in the calling process; in a child it pools, or sleeps until killed."""
    parent, real = os.getpid(), curator._pooled_clips

    def pooled(*args):
        if os.getpid() == parent:
            raise exc
        if child_sleeps:
            time.sleep(60)
        return real(*args)

    monkeypatch.setattr(curator, "_pooled_clips", pooled)


@pytest.mark.parametrize("exc, child_sleeps", [
    (KeyboardInterrupt(), True),
    (KeyboardInterrupt(), False),
    (OSError(5, "Input/output error"), True),
    (OSError(5, "Input/output error"), False),
], ids=["interrupt-child-busy", "interrupt", "oserror-child-busy", "oserror"])
def test_an_error_in_the_parents_share_leaves_no_child_and_no_descriptor(monkeypatch, tmp_path, exc, child_sleeps):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("the platform lists no open file descriptors")
    _dirs(tmp_path)
    split_reference_into(monkeypatch, 2)
    forks = _counting_forks(monkeypatch)
    _in_parent_only(monkeypatch, exc, child_sleeps)
    before = len(os.listdir("/proc/self/fd"))
    started = time.monotonic()
    with pytest.raises(type(exc)):
        curator.read_clip_matrix(tmp_path / "ref")
    assert time.monotonic() - started < 30  # the sleeping child was killed, not waited for
    assert len(forks) == 1
    _assert_no_children()
    assert len(os.listdir("/proc/self/fd")) == before


def test_a_child_that_dies_is_read_again_in_the_parent(capsys, monkeypatch, tmp_path):
    argv = _dirs(tmp_path)
    one = _run(capsys, monkeypatch, tmp_path, argv, 1)
    parent, real = os.getpid(), curator._pooled_clips
    monkeypatch.setattr(curator, "_pooled_clips", lambda *a: real(*a) if os.getpid() == parent else os._exit(7))
    assert _run(capsys, monkeypatch, tmp_path, argv, 2) == one


def test_one_usable_cpu_a_small_reference_or_no_fork_reads_in_one_process(capsys, monkeypatch, tmp_path):
    argv = [*_dirs(tmp_path), "-o", str(tmp_path / "out.jsonl")]
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(curator, "usable_cpus", lambda: 8)
    assert cli.main(argv) == 0  # far below two shares of MIN_SHARE_BYTES
    split_reference_into(monkeypatch, 1)
    assert cli.main(argv) == 0
    split_reference_into(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert cli.main(argv) == 0
    capsys.readouterr()


def test_a_reference_of_one_file_is_one_share(monkeypatch, tmp_path):
    write_feature_file(tmp_path / "r.feat", "r", np.ones((30, 4)))
    split_reference_into(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    matrix, _ = curator.read_clip_matrix(tmp_path)
    assert matrix.tolist() == [[1.0] * 4] * 3


_PEAK = """
import sys
from mmprep import curator
curator.MIN_SHARE_BYTES, curator.usable_cpus = 1, lambda: int(sys.argv[1])
matrix, _ = curator.read_clip_matrix(sys.argv[2])
curator.ReferenceIndex.from_clips(matrix)  # normalizes every row in the calling process
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


def test_a_split_read_holds_the_matrix_once(tmp_path):
    # tracemalloc does not see the shared mapping, so the peak RSS of a process that reads and normalizes the
    # reference is compared: 32 tracks of 640 s at dim 256 pool into a 4 MiB matrix, which a copy would add to.
    # The peak is the kernel's VmHWM: ru_maxrss would keep the pytest process's own, carried over by exec.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("the platform reports no peak RSS of the process image")
    rng = np.random.default_rng(3)
    for k in range(32):
        write_feature_file(tmp_path / f"{k:02d}.feat", f"r{k}", rng.normal(size=(640, 256)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(curator.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    peak_kib = {shares: int(subprocess.run([sys.executable, "-c", _PEAK, str(shares), str(tmp_path)], env=env,
                                           capture_output=True, text=True, check=True).stdout)
                for shares in (1, 2)}
    matrix_kib = 32 * 64 * 256 * 8 // 1024
    assert peak_kib[2] < peak_kib[1] + matrix_kib // 4
