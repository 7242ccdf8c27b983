"""Novelty-driven video selection against an existing clip collection.

Candidate videos arrive as per-second embedding vectors. Each video is cut
into fixed-length clips, every clip's vectors are pooled into one feature,
and the clip's maximum cosine similarity against the whole reference
collection decides novelty: strictly below the threshold means novel, and a
video is selected when at least one of its clips is novel.

Curation is one streaming pass: feature files are read one at a time and each
track is pooled into clip features as soon as it is read, so raw tracks never
accumulate. The clips of all candidate videos are then scored against the
reference collection in a single blocked scan. The reference and candidate
matrices are each stacked once from the clip vectors and normalized in place,
so neither is ever held twice.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import kernels

CLIP_SECONDS = 10  # tracks are 1 fps, so a clip is this many vectors
MIN_TAIL_S = 1.0
DEFAULT_TAU = 0.5


@dataclass(frozen=True)
class ClipFeature:
    video_id: str
    clip_index: int
    span: tuple[float, float]
    vector: np.ndarray

    def __post_init__(self):
        if self.span[1] <= self.span[0]:
            raise ValueError("clip span must have end > start")


@dataclass(frozen=True)
class NoveltyReport:
    video_id: str
    per_clip_smax: tuple[float, ...]
    novel_clips: tuple[int, ...]
    selected: bool

    def to_obj(self) -> dict:
        return {
            "video_id": self.video_id,
            "per_clip_smax": list(self.per_clip_smax),
            "novel_clips": list(self.novel_clips),
            "selected": self.selected,
        }


def segment_clips(duration_s: float) -> list[tuple[float, float]]:
    """Consecutive CLIP_SECONDS-long spans; a partial tail survives only if >= 1 s long."""
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    n_full = int(duration_s // CLIP_SECONDS)
    spans = [(float(k * CLIP_SECONDS), float((k + 1) * CLIP_SECONDS)) for k in range(n_full)]
    tail_start = float(n_full * CLIP_SECONDS)
    if duration_s - tail_start >= MIN_TAIL_S:
        spans.append((tail_start, duration_s))
    return spans


def pool_clip(vectors: Sequence[np.ndarray] | np.ndarray, mode: str = "mean") -> np.ndarray:
    """Collapse a clip's per-second vectors into one float64 feature (mean or max per dim).

    Reduces over the second-to-last axis, so a (clips, seconds, dim) block pools
    every clip at once; the input is never copied to float64 first.
    """
    arr = np.asarray(vectors)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[-2] == 0:
        raise ValueError("cannot pool an empty clip")
    if mode == "mean":
        return arr.mean(axis=-2, dtype=np.float64)
    if mode == "max":
        return arr.max(axis=-2).astype(np.float64)
    raise ValueError(f"unknown pooling mode {mode!r}")


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("cosine requires two 1-D vectors of equal dimension")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine is undefined for a zero vector")
    return float(np.dot(a, b) / (na * nb))


def _row_norms(m: np.ndarray) -> np.ndarray:
    """L2 norm of every row, after checking the matrix is 2-D, finite and has no zero row."""
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix of row vectors")
    if not np.isfinite(m).all():
        raise ValueError("non-finite value in feature matrix")
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero vector in feature matrix")
    return norms


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """A unit-row copy of the matrix; the caller's array is never written."""
    m = np.asarray(matrix, dtype=np.float64)
    return m / _row_norms(m)[:, None]


def _normalized_stack(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Stack vectors into a fresh float64 matrix and scale its rows to unit length in place.

    Bit for bit _normalize_rows(np.stack(vectors)), without a second matrix-sized copy.
    """
    m = np.stack(vectors).astype(np.float64, copy=False)
    m /= _row_norms(m)[:, None]
    return m


class ReferenceIndex:
    """Immutable normalized matrix of reference clip features; safe to share.

    ReferenceIndex(matrix) normalizes a copy of the caller's matrix;
    from_clips stacks the clip vectors into a matrix of its own and
    normalizes that in place.
    """

    def __init__(self, matrix: np.ndarray):
        self._own(_normalize_rows(matrix))

    def _own(self, unit_rows: np.ndarray) -> None:
        self._matrix = unit_rows
        self._matrix.setflags(write=False)

    @classmethod
    def from_clips(cls, clips: Iterable[ClipFeature]) -> "ReferenceIndex":
        vectors = [c.vector for c in clips]
        if not vectors:
            raise ValueError("reference set is empty")
        index = cls.__new__(cls)
        index._own(_normalized_stack(vectors))
        return index

    @property
    def count(self) -> int:
        return self._matrix.shape[0]

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def smax_many(self, vectors: np.ndarray) -> np.ndarray:
        """Max cosine of each row vector against the whole reference set."""
        return self._smax(_normalize_rows(np.atleast_2d(np.asarray(vectors, dtype=np.float64))))

    def _smax(self, cand: np.ndarray) -> np.ndarray:
        # cand holds unit rows already.
        if cand.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: {cand.shape[1]} vs reference {self.dim}")
        return kernels.smax(cand, self._matrix)


def clips_from_seconds(
    video_id: str,
    per_second_vectors: np.ndarray,
    pool: str = "mean",
) -> list[ClipFeature]:
    """Cut a 1-fps feature track into pooled clip features.

    Full clips are pooled together through one (clips, seconds, dim) view of
    the track; the tail clip, if any, is pooled on its own.
    """
    track = np.asarray(per_second_vectors)
    if track.ndim != 2 or track.shape[0] == 0:
        raise ValueError("per_second_vectors must be a non-empty 2-D array")
    spans = segment_clips(float(track.shape[0]))  # 1 vector per second
    n_full = track.shape[0] // CLIP_SECONDS
    full = n_full * CLIP_SECONDS
    vectors = list(pool_clip(track[:full].reshape(n_full, CLIP_SECONDS, track.shape[1]), pool))
    if len(spans) > n_full:
        vectors.append(pool_clip(track[full:], pool))
    return [
        ClipFeature(video_id=video_id, clip_index=idx, span=span, vector=vec)
        for idx, (span, vec) in enumerate(zip(spans, vectors))
    ]


def select_novel(
    candidates: Iterable[ClipFeature],
    reference: ReferenceIndex,
    tau: float = DEFAULT_TAU,
) -> list[NoveltyReport]:
    """Per-video novelty verdicts: a clip is novel iff its max similarity < tau.

    The clips of every video are stacked into one matrix, normalized in place
    and scored in one kernels.smax call; reports come out sorted by video_id
    with each video's clips in clip_index order.
    """
    if not -1 < tau <= 1:
        raise ValueError("tau must be in (-1, 1]")
    by_video: dict[str, list[ClipFeature]] = {}
    for clip in candidates:
        by_video.setdefault(clip.video_id, []).append(clip)
    groups = [(vid, sorted(by_video[vid], key=lambda c: c.clip_index)) for vid in sorted(by_video)]
    if not groups:
        return []

    smax = reference._smax(_normalized_stack([c.vector for _, clips in groups for c in clips]))
    reports = []
    start = 0
    for video_id, clips in groups:
        scores = smax[start : start + len(clips)]
        start += len(clips)
        novel = tuple(c.clip_index for c, s in zip(clips, scores) if s < tau)
        reports.append(
            NoveltyReport(
                video_id=video_id,
                per_clip_smax=tuple(float(s) for s in scores),
                novel_clips=novel,
                selected=bool(novel),
            )
        )
    return reports


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


def read_feature_file(path: str | Path) -> tuple[str, np.ndarray]:
    """Load a per-second feature track; returns (video_id, count x dim float32)."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: malformed feature header") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: malformed feature header")
        for key in ("video_id", "dim", "count"):
            if key not in header:
                raise ValueError(f"{path}: feature header missing {key!r}")
        if header.get("fps", 1) != 1:
            raise ValueError(f"{path}: unsupported feature fps {header.get('fps')!r} (expected 1)")
        declared = header.get("encoding")
        if declared is not None and declared not in ENCODINGS:
            raise ValueError(f"{path}: unknown feature encoding {declared!r} (expected one of {ENCODINGS})")
        dim, count = int(header["dim"]), int(header["count"])
        if dim < 1 or count < 1:
            raise ValueError(f"{path}: invalid dim/count in header")
        n = count * dim
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if declared == "f32le" or (declared is None and size == n * 4):
            if size != n * 4:
                raise ValueError(f"{path}: f32le body is {size} bytes, header promises {n * 4}")
            values = np.fromfile(fh, dtype="<f4", count=n)
            # The prefix test settles almost every binary body without a full scan.
            if declared is None and _is_text(values[:16].tobytes()) and _is_text(values.tobytes()):
                raise ValueError(f"{path}: body of {size} bytes reads as float32 and as text; "
                                 "declare its encoding in the header")
        else:
            try:
                values = np.array(fh.read().decode("utf-8").split(), dtype=np.float32)
            except ValueError as exc:  # undecodable bytes or a token that is not a number
                expected = "text" if declared else f"{n * 4} bytes of float32 or text"
                raise ValueError(f"{path}: body is not {expected}") from exc
    if values.size != n:
        raise ValueError(f"{path}: body has {values.size} values, header promises {n}")
    arr = values.reshape(count, dim)
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: non-finite feature value (NaN or Inf)")
    return str(header["video_id"]), arr


def iter_feature_dir(directory: str | Path) -> Iterator[tuple[Path, str, np.ndarray]]:
    """Read a directory's feature files one at a time, in filename order.

    Yields (path, video_id, track); nothing is read ahead, so a caller that
    drops each track before taking the next holds one track at a time.
    """
    paths = sorted(p for p in Path(directory).iterdir() if p.is_file())
    if not paths:
        raise ValueError(f"no feature files in {directory}")
    for path in paths:
        video_id, track = read_feature_file(path)
        yield path, video_id, track


def load_feature_dir(directory: str | Path) -> list[tuple[str, np.ndarray]]:
    """Read every feature file in a directory, sorted by filename."""
    return [(video_id, track) for _, video_id, track in iter_feature_dir(directory)]
