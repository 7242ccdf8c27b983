"""Novelty-driven video selection against an existing clip collection.

Candidate videos arrive as per-second embedding vectors. Each video is cut
into CLIP_SECONDS-long clips, the last one possibly shorter (clip_count),
every clip's vectors are pooled into one feature, and the clip's maximum
cosine similarity against the whole reference collection decides novelty:
strictly below the threshold means novel, and a video is selected when at
least one of its clips is novel.

curate is the one place a run is put together. Both sides, reference and
candidates, are laid out from the header line of every feature file
(clip_layout): the clip counts give every video's rows before any track is
read. Each track is then read, pooled into its clip rows and dropped before
the next is read. The reference side is read first, straight into one float64
matrix built once at its final size (read_clip_matrix): a reference of at
least two shares of MIN_SHARE_BYTES is dealt into one share per usable CPU,
each pooled by its own process into one shared mapping, with the bits of a
one-process read. clip_blocks reads the candidate side in one process, copying
each track's rows into one reused block. Every candidate header is checked
before any candidate body. The candidate side is never held whole:
select_novel normalizes each block of kernels.BLOCK_ROWS rows as it is read,
kernels.smax scores the block in one piece, and one float64 score per clip is
kept. At the peak, during the scan, curation holds the reference matrix, one
candidate block, the scan's one similarity tile (kernels.TILE_VALUES float64
values, 2 MiB) and the score vector. After the scan, each video's output record is built from its slice
of the score vector only as it is written, so the 8-byte score is all that
curation keeps of a candidate clip. Every fault of a feature file or
directory raises a jsonl.InputError naming it; a misuse no command makes (a
bad pool mode, tau or shape, an empty reference) raises a ValueError.
"""

from __future__ import annotations

import json
import mmap
import os
import signal
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .jsonl import InputError, load_object, usable_cpus

CLIP_SECONDS = 10  # tracks are 1 fps, so a clip is this many vectors
DEFAULT_TAU = 0.5
# The fewest float32 bytes (count*dim*4) a share of a split reference read holds. On a 2-CPU VM a split in two
# costs about 4 ms (a 2 ms fork round trip, faults on the shared matrix, the child's exit) and binary bodies pool
# at about 2 MB/ms: two shares of 4 MiB lose 1.6 ms (6.5 against 4.9 ms), two of 8 MiB break even (9.9 ms), and
# two of 24 MiB save 5 ms (21.9 against 27.1 ms).
MIN_SHARE_BYTES = 8 << 20
# float64 values normalized at a time: np.linalg.norm's two temporaries then
# take 512 KiB each, whatever the matrix size.
NORM_BLOCK_VALUES = 1 << 16


class VideoRows(NamedTuple):
    """Where one feature file's clips sit in a clip matrix: rows first_row .. first_row+clip_count-1."""

    path: Path | str
    video_id: str
    first_row: int
    clip_count: int


def clip_count(seconds: int) -> int:
    """Clips of a 1-fps track of this many seconds: every full CLIP_SECONDS and any shorter tail."""
    return -(-seconds // CLIP_SECONDS)


def pool_clip(vectors: Sequence[np.ndarray] | np.ndarray, mode: str = "mean") -> np.ndarray:
    """Collapse a clip's per-second vectors into one float64 feature (mean or max per dim).

    Reduces over the second-to-last axis, so a (clips, seconds, dim) block pools
    every clip at once; the input is never copied to float64 first.
    """
    arr = np.asarray(vectors)
    if arr.shape[-2] == 0:
        raise ValueError("cannot pool an empty clip")
    if mode == "mean":
        return arr.mean(axis=-2, dtype=np.float64)
    if mode == "max":
        return arr.max(axis=-2).astype(np.float64)
    raise ValueError(f"unknown pooling mode {mode!r}")


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Scale the rows of a float64 matrix to unit length in place and return it.

    Works NORM_BLOCK_VALUES values at a time; each row's norm is the one
    np.linalg.norm gives over the whole matrix, so the result is bit for bit
    m / np.linalg.norm(m, axis=1)[:, None].
    """
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix of row vectors")
    step = max(1, NORM_BLOCK_VALUES // max(1, m.shape[1]))
    for i0 in range(0, m.shape[0], step):
        block = m[i0 : i0 + step]
        if not np.isfinite(block).all():
            raise ValueError("non-finite value in feature matrix")
        norms = np.linalg.norm(block, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("zero vector in feature matrix")
        block /= norms[:, None]
    return m


class ReferenceIndex:
    """Immutable normalized matrix of reference clip features; safe to share.

    ReferenceIndex(matrix) takes over a float64 matrix and normalizes it in
    place, so a caller that still needs its matrix passes a copy. from_clips
    also stacks a sequence of clip vectors into a matrix of its own first.
    """

    def __init__(self, matrix: np.ndarray):
        if len(matrix) == 0:
            raise ValueError("reference set is empty")
        self._matrix = _unit_rows(matrix)
        self._matrix.setflags(write=False)

    @classmethod
    def from_clips(cls, clips: np.ndarray | Sequence[np.ndarray]) -> "ReferenceIndex":
        return cls(np.asarray(clips, dtype=np.float64))

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]


def clips_from_seconds(
    video_id: str,
    per_second_vectors: np.ndarray,
    pool: str = "mean",
) -> np.ndarray:
    """Cut a 1-fps feature track into clips and pool each into one float64 row.

    Returns a (clip_count(seconds), dim) matrix whose row k pools seconds
    CLIP_SECONDS*k onwards. Full clips are pooled together through one
    (clips, seconds, dim) view of the track; the shorter tail clip, if any, is
    pooled on its own.
    """
    track = np.asarray(per_second_vectors)
    if track.ndim != 2 or track.shape[0] == 0:
        raise ValueError(f"{video_id}: per_second_vectors must be a non-empty 2-D array")
    n_full = track.shape[0] // CLIP_SECONDS
    full = n_full * CLIP_SECONDS
    clips = pool_clip(track[:full].reshape(n_full, CLIP_SECONDS, track.shape[1]), pool)
    if full < len(track):
        clips = np.vstack([clips, pool_clip(track[full:], pool)])
    return clips


def select_novel(
    blocks: Iterable[np.ndarray],
    videos: Sequence[VideoRows],
    reference: ReferenceIndex,
    tau: float = DEFAULT_TAU,
) -> Iterator[dict]:
    """Score every candidate clip, then return an iterator of per-video novelty records.

    A clip is novel iff its max similarity < tau. blocks yields the candidate
    clip rows in row order as float64 matrices (clip_blocks, or a list of one
    matrix), and each VideoRows names one video's rows. The videos are sorted
    by video_id before the first block is asked for, and two with one id are an
    InputError naming both paths. Each block is taken over: its rows are
    normalized in place and scored by kernels.smax, at most kernels.BLOCK_ROWS
    rows a call, before the next block is asked for, so only one float64 score
    per clip is kept.
    The whole scan runs before this returns. The iterator then builds each
    video's output record, {"video_id", "per_clip_smax", "novel_clips",
    "selected"}, from its slice of the scores only when asked for it, in
    video_id order, with the clips in row order.
    """
    if not -1 < tau <= 1:
        raise ValueError("tau must be in (-1, 1]")
    order = sorted(videos, key=lambda v: v.video_id)
    for a, b in zip(order, order[1:]):
        if a.video_id == b.video_id:
            raise InputError(f"duplicate candidate video_id {a.video_id!r} in {a.path} and {b.path}")
    smax = np.empty(sum(v.clip_count for v in videos))
    row = 0
    for block in blocks:
        if block.ndim != 2 or block.shape[1] != reference.dim:
            raise ValueError(f"dimension mismatch: candidates {block.shape} vs reference dim {reference.dim}")
        for i0 in range(0, len(block), kernels.BLOCK_ROWS):  # more rows a call would shorten smax's reference blocks
            piece = block[i0 : i0 + kernels.BLOCK_ROWS]
            smax[row : row + len(piece)] = kernels.smax(_unit_rows(piece), reference._matrix)
            row += len(piece)
    if row != len(smax):
        raise ValueError(f"candidate blocks hold {row} rows, the videos {len(smax)}")

    def records():
        for v in order:
            scores = smax[v.first_row : v.first_row + v.clip_count]
            novel = np.flatnonzero(scores < tau).tolist()
            yield {"video_id": v.video_id, "per_clip_smax": scores.tolist(), "novel_clips": novel,
                   "selected": bool(novel)}

    return records()


# --- feature file format: one header line, then count x dim vectors ---------
#
# Header (UTF-8 JSON, newline-terminated): {"video_id","dim","fps":1,"count",
# "encoding"}. With "encoding": "f32le" the body is `count*dim` little-endian
# float32 values, read straight from the file into one array; with "text" it
# is `count` whitespace-separated text lines. write_feature_file always writes
# the field and the reader trusts it. A header without it is decided by size:
# a body of exactly `count*dim*4` bytes is binary, unless every byte of it could
# belong to a text body, which is ambiguous and rejected; any other length is
# parsed as text.

ENCODINGS = ("f32le", "text")
# Every byte a text body can hold: separators, digits and the characters of
# float literals, nan and inf included.
_TEXT_BYTES = b" \t\n\r\v\f0123456789+-.eEaAfFiInNtTyY"


def _is_text(data: bytes) -> bool:
    return not data.translate(None, _TEXT_BYTES)


def write_feature_file(path: str | Path, video_id: str, vectors: np.ndarray, binary: bool = True) -> None:
    arr = np.asarray(vectors, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError("vectors must be 2-D (count x dim)")
    header = json.dumps({
        "video_id": video_id, "dim": int(arr.shape[1]), "fps": 1, "count": int(arr.shape[0]),
        "encoding": "f32le" if binary else "text",
    })
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        if binary:
            fh.write(arr.astype("<f4").tobytes())
        else:
            for row in arr:
                fh.write((" ".join(repr(float(v)) for v in row) + "\n").encode("utf-8"))


class FeatureHeader(NamedTuple):
    """A feature file's header line, checked against itself and against the body's size."""

    video_id: str
    dim: int
    count: int
    encoding: str | None  # as declared; None when the header leaves it out
    binary: bool  # the body is read as count*dim float32 values


def _read_header(fh, path: str | Path) -> FeatureHeader:
    """Read and check the header line of a feature file open for reading in binary.

    The line is decoded by jsonl.load_object, so what it rejects in a record
    (an unpaired surrogate escape too) is a malformed header. video_id must be
    a non-empty str, dim and count ints >= 1, and fps, when present, the int 1.
    The body that follows must be able to hold count*dim values: exactly that
    many float32 bytes when binary, and at least one byte per value and per
    separator when text. Every failure is an InputError naming the file.
    """
    try:
        header = load_object(fh.readline().decode("utf-8"), 1, "feature header")
        video_id, dim, count = header["video_id"], header["dim"], header["count"]
    except KeyError as exc:
        raise InputError(f"{path}: feature header missing {exc.args[0]!r}") from None
    except ValueError as exc:  # not UTF-8, or load_object's InputError
        raise InputError(f"{path}: malformed feature header") from exc
    if type(video_id) is not str or not video_id:
        raise InputError(f"{path}: feature header 'video_id' must be a non-empty string, not {video_id!r}")
    for key, value in (("dim", dim), ("count", count)):
        if type(value) is not int or value < 1:
            raise InputError(f"{path}: feature header {key!r} must be an integer >= 1, not {value!r}")
    fps = header.get("fps", 1)
    if type(fps) is not int or fps != 1:  # the JSON integer 1: not true, not 1.0
        raise InputError(f"{path}: unsupported feature fps {fps!r} (expected 1)")
    declared = header.get("encoding")
    if declared is not None and declared not in ENCODINGS:
        raise InputError(f"{path}: unknown feature encoding {declared!r} (expected one of {ENCODINGS})")
    n = count * dim
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    binary = declared == "f32le" or (declared is None and size == n * 4)
    if binary and size != n * 4:
        raise InputError(f"{path}: f32le body is {size} bytes, header promises {n * 4}")
    if not binary and size < 2 * n - 1:
        raise InputError(f"{path}: text body of {size} bytes cannot hold the {n} values the header promises")
    return FeatureHeader(video_id, dim, count, declared, binary)


def read_feature_file(path: str | Path) -> tuple[str, np.ndarray]:
    """Load a per-second feature track; returns (video_id, count x dim float32)."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        n = header.count * header.dim
        if header.binary:
            values = np.fromfile(fh, dtype="<f4", count=n)
            # The prefix test settles almost every binary body without a full scan.
            if header.encoding is None and _is_text(values[:16].tobytes()) and _is_text(values.tobytes()):
                raise InputError(f"{path}: body of {n * 4} bytes reads as float32 and as text; "
                                 "declare its encoding in the header")
        else:
            try:
                with np.errstate(over="ignore"):  # a value beyond float32 range reads as inf, rejected below
                    values = np.array(fh.read().decode("utf-8").split(), dtype=np.float32)
            except ValueError as exc:  # undecodable bytes or a token that is not a number
                expected = "text" if header.encoding else f"{n * 4} bytes of float32 or text"
                raise InputError(f"{path}: body is not {expected}") from exc
    if values.size != n:
        raise InputError(f"{path}: body has {values.size} values, header promises {n}")
    arr = values.reshape(header.count, header.dim)
    if not np.isfinite(arr).all():
        raise InputError(f"{path}: non-finite feature value (NaN or Inf)")
    return header.video_id, arr


def feature_paths(directory: str | Path) -> list[Path]:
    """The feature files of a directory, in filename order; an empty directory is an error."""
    paths = sorted(p for p in Path(directory).iterdir() if p.is_file())
    if not paths:
        raise InputError(f"no feature files in {directory}")
    return paths


def load_feature_dir(directory: str | Path) -> list[tuple[str, np.ndarray]]:
    """Read every feature file in a directory, sorted by filename."""
    return [read_feature_file(path) for path in feature_paths(directory)]


def clip_layout(
    directory: str | Path,
    dim_of: tuple[Path | str, int] | None = None,
) -> tuple[list[VideoRows], int]:
    """Lay out the clip rows of every feature file of a directory from the header lines alone.

    Files are taken in filename order, each one's rows after the last's. Every
    file must share one dim: that of dim_of, a (path, dim) pair, or else that
    of the first file. Returns one VideoRows per file, in file order, and the
    dim.
    """
    headers = []
    for path in feature_paths(directory):
        with open(path, "rb") as fh:
            headers.append((path, _read_header(fh, path)))
    like, dim = dim_of or (headers[0][0], headers[0][1].dim)
    videos = []
    row = 0
    for path, header in headers:
        if header.dim != dim:
            raise InputError(f"{path}: dim {header.dim} does not match dim {dim} of {like}")
        count = clip_count(header.count)
        videos.append(VideoRows(path, header.video_id, row, count))
        row += count
    return videos, dim


def _pooled_clips(video: VideoRows, dim: int, pool: str) -> np.ndarray:
    """Read one video's track, check it still fits its layout, and pool it into clip rows, none of them zero."""
    video_id, track = read_feature_file(video.path)
    if (video_id, track.shape[1], clip_count(len(track))) != (video.video_id, dim, video.clip_count):
        raise InputError(f"{video.path}: header changed while reading: now {video_id!r}, count {track.shape[0]}, "
                         f"dim {track.shape[1]}; before, {video.video_id!r} with {video.clip_count} clips of dim {dim}")
    clips = clips_from_seconds(video_id, track, pool)
    zero = np.flatnonzero(~clips.any(axis=1))
    if zero.size:
        raise InputError(f"{video.path}: clip {zero[0]} pools to a zero vector")
    return clips


def clip_blocks(
    videos: Sequence[VideoRows],
    dim: int,
    pool: str = "mean",
    block_rows: int = kernels.BLOCK_ROWS,
) -> Iterator[np.ndarray]:
    """Yield the clip rows of the videos, in order, block_rows rows at a time.

    One buffer of min(block_rows, clip rows) x dim float64 values is reused
    for every block, so a block holds its rows only until the next is asked
    for. Each track is read, pooled and copied into the buffer before the next
    is read; a video's clips may span blocks, and the last block may be short.
    """
    buf = np.empty((min(block_rows, sum(v.clip_count for v in videos)), dim))
    fill = 0
    for video in videos:
        clips = _pooled_clips(video, dim, pool)
        done = 0
        while done < len(clips):
            n = min(len(buf) - fill, len(clips) - done)
            buf[fill : fill + n] = clips[done : done + n]
            fill += n
            done += n
            if fill == len(buf):
                yield buf
                fill = 0
    if fill:
        yield buf[:fill]


def _fill_rows(matrix: np.ndarray, videos: Iterable[VideoRows], dim: int, pool: str) -> None:
    for video in videos:
        matrix[video.first_row : video.first_row + video.clip_count] = _pooled_clips(video, dim, pool)


def read_clip_matrix(directory: str | Path, pool: str = "mean") -> tuple[np.ndarray, list[VideoRows]]:
    """Pool every feature file of a directory into one float64 matrix, one row per clip.

    clip_layout checks every header and sizes the matrix. The videos are dealt,
    interleaved, into one share per usable CPU (jsonl.usable_cpus, so the
    affinity mask limits it), but no more shares than the tracks hold
    MIN_SHARE_BYTES of float32 values; with one share the calling process
    fills every row. Otherwise the matrix lies in one shared anonymous
    mapping, each later share is pooled by a forked child that writes its rows
    there and exits, and the caller pools share 0 and reaps the children. If
    any share meets an error, the caller fills the whole matrix again in file
    order, so it raises the error one process meets first. Returns the matrix
    and one VideoRows per file, in file order.
    """
    videos, dim = clip_layout(directory)
    rows = sum(v.clip_count for v in videos)
    body = 4 * dim * sum((v.clip_count - 1) * CLIP_SECONDS + 1 for v in videos)  # the fewest bytes the tracks hold
    shares = min(usable_cpus(), len(videos), body // MIN_SHARE_BYTES) if hasattr(os, "fork") else 1
    if shares < 2:
        matrix = np.empty((rows, dim))
        _fill_rows(matrix, videos, dim, pool)
        return matrix, videos
    matrix = np.frombuffer(mmap.mmap(-1, rows * dim * 8), np.float64).reshape(rows, dim)
    pids: list[int] = []  # children not yet reaped
    try:
        for share in range(1, shares):
            pid = os.fork()
            if pid == 0:  # the child writes nothing but its rows; the caller meets any error of it again
                try:
                    _fill_rows(matrix, videos[share::shares], dim, pool)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        _fill_rows(matrix, videos[::shares], dim, pool)
        done = True
        while done and pids:
            done = os.waitpid(pids[-1], 0)[1] == 0
            pids.pop()
    except Exception:  # met again below, in file order
        done = False
    finally:  # no child outlives the call, whatever it raises
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not done:
        _fill_rows(matrix, videos, dim, pool)
    return matrix, videos


def curate(
    reference_dir: str | Path,
    candidates_dir: str | Path,
    tau: float = DEFAULT_TAU,
    pool: str = "mean",
) -> Iterator[dict]:
    """Score the candidate videos of a directory against the reference videos of another.

    Reads the whole reference side first, then checks every candidate header
    and its dim, and only then scans the candidate bodies, one block at a
    time. Returns select_novel's records; any bad feature file is an InputError
    naming it.
    """
    ref_matrix, ref_videos = read_clip_matrix(reference_dir, pool)
    reference = ReferenceIndex.from_clips(ref_matrix)  # normalizes ref_matrix in place, no copy
    videos, dim = clip_layout(candidates_dir, dim_of=(ref_videos[0].path, reference.dim))
    return select_novel(clip_blocks(videos, dim, pool), videos, reference, tau)
