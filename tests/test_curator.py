import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mmprep import cli, curator, kernels
from mmprep.curator import (
    ReferenceIndex,
    VideoRows,
    clip_blocks,
    clip_layout,
    clips_from_seconds,
    load_feature_dir,
    pool_clip,
    read_clip_matrix,
    read_feature_file,
    select_novel,
    write_feature_file,
)


def candidates(videos):
    """(clip matrix, VideoRows) for {video_id: [clip vectors]}, each video's rows in dict order."""
    rows, meta = [], []
    for vid, vectors in videos.items():
        meta.append(VideoRows(f"{vid}.feat", vid, len(rows), len(vectors)))
        rows.extend(vectors)
    return np.array(rows, dtype=np.float64), meta


def smax_of(index, vectors):
    """Max cosine of each row of vectors against the index, as select_novel reports it."""
    matrix, videos = candidates({"v": list(np.atleast_2d(vectors))})
    (record,) = select_novel([matrix], videos, index, tau=1.0)
    return np.array(record["per_clip_smax"])


# --- segmentation ---------------------------------------------------------------


def test_clip_count_is_the_full_clips_and_any_tail():
    # The span rule: consecutive 10 s spans, then whatever is left when it is at least 1 s long.
    for seconds in range(1, 1001):
        spans = [(start, start + 10) for start in range(0, seconds - 9, 10)]
        tail_start = 10 * len(spans)
        if seconds - tail_start >= 1:
            spans.append((tail_start, seconds))
        assert curator.clip_count(seconds) == len(spans), seconds
        assert len(clips_from_seconds("v", np.ones((seconds, 1)))) == len(spans), seconds


# --- pooling --------------------------------------------------------------------


def test_pool_mean():
    out = pool_clip([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(out, [0.5, 0.5])


def test_pool_single_vector_identity():
    v = np.array([0.3, -2.0, 5.0])
    assert np.allclose(pool_clip([v]), v)


def test_pool_identical_vectors_identity():
    v = np.array([1.0, 2.0])
    assert np.allclose(pool_clip([v] * 10), v)


def test_pool_max_mode():
    out = pool_clip([np.array([1.0, -5.0]), np.array([0.0, 3.0])], mode="max")
    assert np.allclose(out, [1.0, 3.0])


def test_pool_empty_rejected():
    with pytest.raises(ValueError):
        pool_clip(np.empty((0, 4)))


# --- max similarity and kernels ---------------------------------------------------


@pytest.mark.parametrize("vector, expected", [
    ([0.2, 0.5], 1.0),  # the reference itself, at another length
    ([0.5, -0.2], 0.0),  # orthogonal
    ([-0.4, -1.0], -1.0),  # opposite
], ids=["self", "orthogonal", "opposite"])
def test_smax_against_one_reference_is_its_cosine(vector, expected):
    assert smax_of(ReferenceIndex(np.array([[0.2, 0.5]])), vector) == pytest.approx([expected])


def test_candidate_duplicated_in_reference_gives_one():
    ref = ReferenceIndex(np.array([[1.0, 2.0], [3.0, -1.0]]))
    assert smax_of(ref, [1.0, 2.0]) == pytest.approx([1.0])


def test_candidate_orthogonal_to_all_gives_zero():
    ref = ReferenceIndex(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert smax_of(ref, [0.0, 0.0, 1.0]) == pytest.approx([0.0])


def brute_force_smax(cands, refs):
    """Max cosine of each candidate against every reference, one pair at a time."""
    return np.array([
        max(float(np.dot(c, r) / (np.linalg.norm(c) * np.linalg.norm(r))) for r in refs) for c in cands
    ])


def test_kernels_match_brute_force_small():
    rng = np.random.default_rng(1)
    cands = rng.normal(size=(40, 16))
    refs = rng.normal(size=(70, 16))
    expected = brute_force_smax(cands, refs)
    got = smax_of(ReferenceIndex(refs), cands)
    assert np.allclose(got, expected, atol=1e-9)


def test_blocked_numpy_equals_unblocked():
    rng = np.random.default_rng(3)
    cand = rng.normal(size=(97, 8))
    ref = rng.normal(size=(131, 8))
    cn = cand / np.linalg.norm(cand, axis=1)[:, None]
    rn = ref / np.linalg.norm(ref, axis=1)[:, None]
    whole = kernels.smax(cn, rn)
    sliced = np.concatenate([kernels.smax(cn[i : i + 16], rn) for i in range(0, len(cn), 16)])
    assert np.array_equal(whole, sliced)


def _unit_rows(rng, rows, dim):
    m = rng.normal(size=(rows, dim))
    return m / np.linalg.norm(m, axis=1)[:, None]


def _traced_peak(fn):
    """(fn(), peak bytes numpy and Python allocated while fn ran)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_smax_working_memory_is_one_tile():
    rng = np.random.default_rng(8)
    cand, ref = _unit_rows(rng, 3000, 64), _unit_rows(rng, 20000, 64)
    out, peak = _traced_peak(lambda: kernels.smax(cand, ref))
    assert peak <= kernels.TILE_VALUES * 8 + out.nbytes + 64 * 1024  # the 2 MiB tile, the output, small buffers
    # Calls on 7-row slices, each against the whole reference in one tile, give the same maxima.
    sliced = np.concatenate([kernels.smax(cand[i : i + 7], ref) for i in range(0, len(cand), 7)])
    assert np.allclose(out, sliced, rtol=0, atol=1e-12)


def test_smax_few_rows_keep_tall_reference_blocks():
    # The reference block is sized from min(BLOCK_ROWS, rows), not from BLOCK_ROWS itself.
    rng = np.random.default_rng(9)
    cand, ref = _unit_rows(rng, 5, 4), _unit_rows(rng, 3000, 4)
    out, peak = _traced_peak(lambda: kernels.smax(cand, ref))
    assert 5 * 3000 * 8 <= peak <= 5 * 3000 * 8 + 4096  # one 5 x 3000 tile
    assert np.allclose(out, [np.max(ref @ c) for c in cand], rtol=0, atol=1e-12)


def test_from_clips_matrix_is_bitwise_the_copied_index():
    clips = clips_from_seconds("v", np.random.default_rng(12).normal(size=(95, 16)).astype(np.float32))
    own = clips.copy()
    copied = ReferenceIndex(own)._matrix
    assert copied is own  # the constructor takes over its matrix, as from_clips does
    stacked = ReferenceIndex.from_clips(list(clips))._matrix  # a sequence of clip vectors is stacked
    built = ReferenceIndex.from_clips(clips)._matrix  # a float64 matrix is taken over
    assert built is clips
    assert built.dtype == copied.dtype == np.float64 and built.shape == copied.shape == (10, 16)
    assert built.tobytes() == copied.tobytes() == stacked.tobytes()
    assert not built.flags.writeable


def test_unit_rows_in_blocks_is_bitwise_whole_matrix_normalization(monkeypatch):
    m = np.random.default_rng(13).normal(size=(101, 7)) * 1e3
    whole = m / np.linalg.norm(m, axis=1)[:, None]
    monkeypatch.setattr(curator, "NORM_BLOCK_VALUES", 7 * 10)  # 10-row blocks and a 1-row tail
    assert curator._unit_rows(m) is m
    assert m.tobytes() == whole.tobytes()


def test_normalization_temporaries_stay_one_block():
    m = np.random.default_rng(14).normal(size=(4096, 256))  # 8 MiB
    _, peak = _traced_peak(lambda: curator._unit_rows(m))
    assert peak <= curator.NORM_BLOCK_VALUES * 8 * 2 + 64 * 1024  # np.linalg.norm's temporaries of one block


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_from_clips_and_select_novel_check_every_row(bad):
    matrix, videos = candidates({"v": [np.ones(4), np.full(4, bad)]})
    with pytest.raises(ValueError):
        ReferenceIndex.from_clips(matrix.copy())
    with pytest.raises(ValueError):
        select_novel([matrix], videos, ReferenceIndex(np.ones((1, 4))))


def test_select_novel_dimension_mismatch_rejected():
    matrix, videos = candidates({"v": [np.ones(5)]})
    with pytest.raises(ValueError, match="dimension mismatch"):
        select_novel([matrix], videos, ReferenceIndex(np.ones((2, 4))))


def test_select_novel_rejects_blocks_that_do_not_cover_the_videos():
    # Rows left unscored would hold whatever np.empty gave.
    matrix, videos = candidates({"a": [np.ones(4)] * 2, "b": [np.ones(4)]})
    with pytest.raises(ValueError, match="candidate blocks hold 2 rows, the videos 3"):
        select_novel([matrix[:2]], videos, _axis_reference())
    with pytest.raises(ValueError):  # numpy refuses a fourth row
        select_novel([matrix, np.ones((1, 4))], videos, _axis_reference())


def test_empty_reference_rejected():
    with pytest.raises(ValueError):
        kernels.smax(np.ones((1, 4)), np.ones((0, 4)))
    for empty in ([], np.empty((0, 4))):
        with pytest.raises(ValueError, match="reference set is empty"):
            ReferenceIndex.from_clips(empty)
    with pytest.raises(ValueError, match="reference set is empty"):
        ReferenceIndex(np.empty((0, 4)))


def test_non_finite_vectors_rejected():
    with pytest.raises(ValueError):
        ReferenceIndex(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        smax_of(ReferenceIndex(np.ones((2, 2))), [np.inf, 1.0])


def test_adding_reference_never_decreases_smax():
    rng = np.random.default_rng(4)
    cands = rng.normal(size=(30, 8))
    refs = rng.normal(size=(50, 8))
    small = ReferenceIndex(refs[:25].copy())  # the index takes over its matrix
    big = ReferenceIndex(refs)
    assert np.all(smax_of(big, cands) >= smax_of(small, cands) - 1e-12)


# --- novelty selection -------------------------------------------------------------


def _axis_reference(dim=4):
    return ReferenceIndex(np.eye(dim)[:2])  # e0, e1


def test_strict_threshold_boundary():
    # candidate at exactly cos=0.5 to the best reference is NOT novel
    ref = ReferenceIndex(np.array([[1.0, 0.0]]))
    matrix, videos = candidates({"v": [[0.5, np.sqrt(3) / 2], [0.49, np.sqrt(1 - 0.49**2)]]})
    (record,) = select_novel([matrix], videos, ref, tau=0.5)
    assert record["novel_clips"] == [1]
    assert record["selected"] is True


def test_video_with_no_novel_clips_not_selected():
    ref = _axis_reference()
    matrix, videos = candidates({"v": [np.eye(4)[0]] * 3})  # smax = 1.0 each
    (record,) = select_novel([matrix], videos, ref, tau=0.5)
    assert record == {"video_id": "v", "per_clip_smax": [1.0, 1.0, 1.0], "novel_clips": [], "selected": False}


def test_selection_monotone_in_tau():
    rng = np.random.default_rng(5)
    refs = rng.normal(size=(40, 8))
    ref = ReferenceIndex(refs)
    clips = {f"v{i}": list(rng.normal(size=(3, 8))) for i in range(10)}
    prev: set = set()
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        matrix, videos = candidates(clips)
        selected = {r["video_id"] for r in select_novel([matrix], videos, ref, tau) if r["selected"]}
        assert prev <= selected
        prev = selected


def test_reports_sorted_and_order_independent():
    ref = _axis_reference()
    rng = np.random.default_rng(6)
    clips = {f"v{i}": list(rng.normal(size=(2, 4))) for i in range(5)}
    matrix, videos = candidates(clips)
    a = list(select_novel([matrix], videos, ref))
    matrix, videos = candidates(dict(reversed(clips.items())))
    b = list(select_novel([matrix], videos, ref))
    assert a == b
    assert [r["video_id"] for r in a] == sorted(clips)


def test_select_novel_normalizes_the_candidate_matrix_in_place():
    matrix, videos = candidates({"v": [[3.0, 4.0], [0.0, 2.0]]})
    select_novel([matrix], videos, _axis_reference(2))
    assert matrix.tobytes() == np.array([[0.6, 0.8], [0.0, 1.0]]).tobytes()


def test_batched_select_novel_matches_per_video_scans():
    rng = np.random.default_rng(9)
    ref = ReferenceIndex(rng.normal(size=(300, 16)))
    for trial in range(20):
        clips = {f"v{v}": list(rng.normal(size=(int(rng.integers(1, 40)), 16)))
                 for v in rng.permutation(int(rng.integers(1, 12)))}
        tau = float(rng.uniform(0.2, 0.6))
        matrix, videos = candidates(clips)
        records = list(select_novel([matrix], videos, ref, tau))
        assert [r["video_id"] for r in records] == sorted(clips)
        for r in records:
            smax = smax_of(ref, clips[r["video_id"]])
            assert np.allclose(r["per_clip_smax"], smax, rtol=0, atol=1e-12)
            assert r["novel_clips"] == [k for k, s in enumerate(r["per_clip_smax"]) if s < tau]
            assert r["selected"] == bool(r["novel_clips"])


def test_select_novel_rejects_duplicate_ids_before_reading_a_block():
    matrix, videos = candidates({"b": [np.ones(4)], "a": [np.ones(4)], "c": [np.ones(4)]})
    videos.append(VideoRows("b2.feat", "b", 3, 1))
    taken = []

    def blocks():
        taken.append(1)
        yield np.vstack([matrix, np.ones(4)])

    with pytest.raises(ValueError, match=r"^duplicate candidate video_id 'b' in b.feat and b2.feat$"):
        select_novel(blocks(), videos, _axis_reference())
    assert taken == []


def test_select_novel_no_candidates():
    assert list(select_novel([], [], _axis_reference())) == []


def test_tau_domain_validated():
    ref = _axis_reference()
    with pytest.raises(ValueError):
        select_novel([], [], ref, tau=-1.0)
    with pytest.raises(ValueError):
        select_novel([], [], ref, tau=1.5)


# --- clip construction from 1 fps tracks --------------------------------------------


def test_clips_from_seconds_pools_ten_rows():
    track = np.tile(np.arange(1, 5, dtype=np.float64), (25, 1))
    track[10:20] *= 2  # second clip has doubled vectors
    clips = clips_from_seconds("vid", track)
    assert clips.shape == (3, 4)  # 25 s -> [0,10), [10,20), [20,25)
    assert np.allclose(clips[0], [1, 2, 3, 4])
    assert np.allclose(clips[1], [2, 4, 6, 8])
    assert np.allclose(clips[2], [1, 2, 3, 4])


@pytest.mark.parametrize("pool", ["mean", "max"])
@pytest.mark.parametrize("seconds", [30, 34, 7, 1])  # no tail, a tail, shorter than one clip
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vectorized_pooling_matches_per_clip_loop(pool, seconds, dtype):
    rng = np.random.default_rng(seconds)
    track = (rng.normal(size=(seconds, 9)) * 100).astype(dtype)
    clips = clips_from_seconds("vid", track, pool=pool)
    spans = [(start, min(start + 10, seconds)) for start in range(0, seconds, 10)]
    assert clips.dtype == np.float64 and clips.shape == (len(spans), 9)
    for row, (start, end) in zip(clips, spans):
        per_clip = pool_clip(track[start:end], pool)
        # Reference: widen the clip to float64, then reduce.
        widened = track[start:end].astype(np.float64)
        reference = widened.mean(axis=0) if pool == "mean" else widened.max(axis=0)
        assert row.tobytes() == per_clip.tobytes() == reference.tobytes()


# --- feature file IO -----------------------------------------------------------------


def test_feature_file_binary_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(13, 6)).astype(np.float32)
    path = tmp_path / "a.feat"
    write_feature_file(path, "videoA", vecs, binary=True)
    vid, loaded = read_feature_file(path)
    assert vid == "videoA"
    assert np.array_equal(loaded, vecs)


def test_feature_file_text_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(5, 4)).astype(np.float32)
    path = tmp_path / "b.feat"
    write_feature_file(path, "videoB", vecs, binary=False)
    vid, loaded = read_feature_file(path)
    assert vid == "videoB"
    assert np.array_equal(loaded, vecs)


def test_feature_file_bad_header(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"not json\n\x00\x01")
    with pytest.raises(ValueError):
        read_feature_file(path)


def test_feature_file_count_mismatch(tmp_path):
    path = tmp_path / "short.feat"
    header = b'{"video_id": "x", "dim": 4, "fps": 1, "count": 10}\n'
    path.write_bytes(header + b"1.0 2.0 3.0 4.0\n")
    with pytest.raises(ValueError):
        read_feature_file(path)


def test_feature_file_truncated_binary_rejected(tmp_path):
    path = tmp_path / "cut.feat"
    write_feature_file(path, "v", np.full((10, 4), 2.25, dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-6])
    with pytest.raises(ValueError, match="cut.feat"):
        read_feature_file(path)


def test_feature_file_short_text_rejected(tmp_path):
    path = tmp_path / "short.feat"
    write_feature_file(path, "v", np.full((3, 4), 2.25, dtype=np.float32), binary=False)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))  # header and 2 of the 3 promised rows
    with pytest.raises(ValueError, match="8 values, header promises 12"):
        read_feature_file(path)


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_file_non_finite_rejected(tmp_path, binary, bad):
    vecs = np.full((3, 4), 2.25, dtype=np.float32)
    vecs[1, 2] = bad
    path = tmp_path / "bad.feat"
    write_feature_file(path, "v", vecs, binary=binary)
    with pytest.raises(ValueError, match="bad.feat"):
        read_feature_file(path)


def test_feature_file_text_of_binary_size_round_trips(tmp_path):
    # Every value written as "1.0 " is 4 bytes, a float32's size: only the
    # declared encoding tells this body from a binary one.
    path = tmp_path / "ones.feat"
    write_feature_file(path, "v", np.ones((3, 4)), binary=False)
    assert json.loads(path.read_bytes().splitlines()[0])["encoding"] == "text"
    assert len(path.read_bytes().split(b"\n", 1)[1]) == 3 * 4 * 4
    _, loaded = read_feature_file(path)
    assert np.array_equal(loaded, np.ones((3, 4), dtype=np.float32))


def _feature_bytes(header: dict, body: bytes) -> bytes:
    return json.dumps({"video_id": "v", "dim": 4, "fps": 1, "count": 3, **header}).encode() + b"\n" + body


@pytest.mark.parametrize("encoding, body", [
    ("f32le", b"2.25 2.25 2.25 2.25\n" * 3),  # text under a binary declaration
    ("text", np.full((3, 4), 2.25, dtype="<f4").tobytes()),  # binary under a text declaration
    ("f16", np.full((3, 4), 2.25, dtype="<f2").tobytes()),  # unknown encoding
], ids=["f32le-text-body", "text-binary-body", "unknown"])
def test_feature_file_declared_encoding_enforced(tmp_path, encoding, body):
    path = tmp_path / "declared.feat"
    path.write_bytes(_feature_bytes({"encoding": encoding}, body))
    with pytest.raises(ValueError, match="declared.feat"):
        read_feature_file(path)


def test_feature_file_without_encoding_decided_by_size(tmp_path):
    path = tmp_path / "old.feat"
    vecs = np.random.default_rng(9).normal(size=(3, 4)).astype("<f4")
    path.write_bytes(_feature_bytes({}, vecs.tobytes()))
    assert np.array_equal(read_feature_file(path)[1], vecs)
    path.write_bytes(_feature_bytes({}, b"2.25 2.25 2.25 2.25\n" * 3))
    assert np.array_equal(read_feature_file(path)[1], np.full((3, 4), 2.25, dtype=np.float32))
    # A text body of exactly count*dim*4 bytes could be either: rejected, not guessed.
    path.write_bytes(_feature_bytes({}, b"1.0 1.0 1.0 1.0\n" * 3))
    with pytest.raises(ValueError, match="old.feat"):
        read_feature_file(path)


def test_load_feature_dir_sorted(tmp_path):
    for name in ("b.feat", "a.feat"):
        write_feature_file(tmp_path / name, name[0], np.ones((3, 2), dtype=np.float32))
    loaded = load_feature_dir(tmp_path)
    assert [vid for vid, _ in loaded] == ["a", "b"]


@pytest.mark.parametrize("field, value", [
    ("video_id", ["x"]), ("video_id", ""), ("video_id", 7),
    ("dim", None), ("dim", 4.7), ("dim", "4"), ("dim", True), ("dim", 0),
    ("count", 1e999), ("count", -3), ("count", False), ("count", 3.0),
])
def test_feature_header_fields_checked_by_layout_and_file_reader(tmp_path, field, value):
    path = tmp_path / "h.feat"
    path.write_bytes(_feature_bytes({field: value}, np.ones((3, 4), dtype="<f4").tobytes()))
    for read in (lambda p: clip_layout(p.parent), read_feature_file):
        with pytest.raises(ValueError, match=f"h.feat: feature header '{field}' must be"):
            read(path)


def test_feature_header_checks_the_body_can_hold_count_values(tmp_path):
    path = tmp_path / "big.feat"
    # A text body needs at least one byte per value and one per separator.
    path.write_bytes(_feature_bytes({"count": 10**12}, b"2.25 2.25 2.25 2.25\n" * 3))
    with pytest.raises(ValueError, match="big.feat: text body of 60 bytes cannot hold"):
        clip_layout(tmp_path)
    path.write_bytes(_feature_bytes({"count": 3, "dim": 11}, b"1 " * 32 + b"1"))  # 33 values in 65 bytes
    assert clip_layout(tmp_path) == ([VideoRows(path, "v", 0, 1)], 11)
    assert read_feature_file(path)[1].shape == (3, 11)
    path.write_bytes(_feature_bytes({"encoding": "f32le"}, np.ones(11, dtype="<f4").tobytes()))
    with pytest.raises(ValueError, match="big.feat: f32le body is 44 bytes, header promises 48"):
        clip_layout(tmp_path)


def test_read_clip_matrix_stacks_pooled_files_in_filename_order(tmp_path):
    rng = np.random.default_rng(15)
    tracks = {"b.feat": rng.normal(size=(25, 6)), "a.feat": rng.normal(size=(7, 6)), "c.feat": rng.normal(size=(40, 6))}
    for name, track in tracks.items():
        write_feature_file(tmp_path / name, f"id-{name[0]}", track, binary=name != "c.feat")
    for pool in ("mean", "max"):
        matrix, videos = read_clip_matrix(tmp_path, pool)
        names = sorted(tracks)
        blocks = [clips_from_seconds(n, read_feature_file(tmp_path / n)[1], pool) for n in names]
        assert matrix.tobytes() == np.vstack(blocks).tobytes()
        assert videos == [VideoRows(tmp_path / "a.feat", "id-a", 0, 1), VideoRows(tmp_path / "b.feat", "id-b", 1, 3),
                          VideoRows(tmp_path / "c.feat", "id-c", 4, 4)]


def test_read_clip_matrix_and_clip_layout_name_the_file_of_another_dim(tmp_path):
    write_feature_file(tmp_path / "a.feat", "a", np.ones((3, 4)))
    write_feature_file(tmp_path / "b.feat", "b", np.ones((3, 5)))
    with pytest.raises(ValueError, match=r"b.feat: dim 5 does not match dim 4 of .*a.feat"):
        read_clip_matrix(tmp_path)
    with pytest.raises(ValueError, match=r"a.feat: dim 4 does not match dim 5 of ref.feat"):
        clip_layout(tmp_path, dim_of=("ref.feat", 5))


def _write_tracks(directory, clip_counts, dim, rng):
    """One feature file per clip count, v00.feat, v01.feat, ...; odd counts end in a 5 s tail clip."""
    directory.mkdir()
    for k, n in enumerate(clip_counts):
        seconds = 10 * n if n % 2 == 0 else 10 * (n - 1) + 5
        write_feature_file(directory / f"v{k:02d}.feat", f"v{k:02d}", rng.normal(size=(seconds, dim)))


@pytest.mark.parametrize("clip_counts", [
    [100, 155],  # 255 clips: one short block
    [128, 128],  # 256: one full block, nothing after it
    [200, 57],  # 257: the second video straddles the block edge, then a 1-row block
    [300, 213],  # 513: the first video is longer than a block, the second straddles row 512
])
def test_block_scan_matches_one_block_scan(tmp_path, monkeypatch, clip_counts):
    rng = np.random.default_rng(17)
    _write_tracks(tmp_path / "cand", clip_counts, 8, rng)
    ref = ReferenceIndex(rng.normal(size=(50, 8)))
    videos, dim = clip_layout(tmp_path / "cand")
    assert [v.clip_count for v in videos] == clip_counts and dim == 8
    matrix, same_videos = read_clip_matrix(tmp_path / "cand")
    assert same_videos == videos
    tau = float(np.median(kernels.smax(curator._unit_rows(matrix.copy()), ref._matrix)))
    one_block = list(select_novel([matrix], videos, ref, tau))

    rows = sum(clip_counts)
    assert [len(b) for b in clip_blocks(videos, dim)] == [256] * (rows // 256) + ([rows % 256] if rows % 256 else [])
    calls = []
    smax = kernels.smax
    monkeypatch.setattr(kernels, "smax", lambda cand, ref: calls.append(len(cand)) or smax(cand, ref))
    blocked = select_novel(clip_blocks(videos, dim), videos, ref, tau)
    assert len(calls) == -(-rows // kernels.BLOCK_ROWS)  # the whole scan runs before the first record
    blocked = list(blocked)
    assert [(r["video_id"], r["novel_clips"], r["selected"]) for r in blocked] == \
        [(r["video_id"], r["novel_clips"], r["selected"]) for r in one_block]
    assert any(r["novel_clips"] for r in blocked)
    assert not all(len(r["novel_clips"]) == len(r["per_clip_smax"]) for r in blocked)
    for b, o in zip(blocked, one_block):
        assert np.allclose(b["per_clip_smax"], o["per_clip_smax"], rtol=0, atol=1e-12)


def test_select_novel_scores_a_tall_block_in_kernel_blocks(monkeypatch):
    # A caller's one 1 000-row matrix goes to smax in BLOCK_ROWS slices, which keep the reference blocks tall.
    rng = np.random.default_rng(21)
    matrix, videos = candidates({"a": list(rng.normal(size=(600, 8))), "b": list(rng.normal(size=(400, 8)))})
    refs = rng.normal(size=(300, 8))
    expected = (matrix / np.linalg.norm(matrix, axis=1)[:, None]) @ (refs / np.linalg.norm(refs, axis=1)[:, None]).T
    calls = []
    smax = kernels.smax
    monkeypatch.setattr(kernels, "smax", lambda cand, ref: calls.append(len(cand)) or smax(cand, ref))
    records = list(select_novel([matrix], videos, ReferenceIndex(refs), tau=0.5))
    assert calls == [256, 256, 256, 232]
    got = np.concatenate([r["per_clip_smax"] for r in records])
    assert np.allclose(got, expected.max(axis=1), rtol=0, atol=1e-12)


def test_clip_blocks_reuse_one_buffer_sized_to_the_rows(tmp_path):
    _write_tracks(tmp_path / "cand", [3, 2], 4, np.random.default_rng(18))
    videos, dim = clip_layout(tmp_path / "cand")
    blocks = clip_blocks(videos, dim, block_rows=2)
    first = next(blocks)
    assert [len(b) for b in blocks] == [2, 1]
    assert first.base is None and first.shape == (2, 4)  # the buffer itself: two rows, not block_rows
    (one,) = clip_blocks(videos, dim)
    assert one.shape == (5, 4)  # min(BLOCK_ROWS, 5 rows)


def test_clip_blocks_reject_a_track_rewritten_with_another_id(tmp_path):
    _write_tracks(tmp_path / "cand", [2, 2], 4, np.random.default_rng(19))
    videos, dim = clip_layout(tmp_path / "cand")
    write_feature_file(tmp_path / "cand" / "v01.feat", "other", np.ones((20, 4)))
    changed = r"v01.feat: header changed while reading: now 'other', count 20, dim 4; before, 'v01' with 2 clips"
    with pytest.raises(ValueError, match=changed):
        list(clip_blocks(videos, dim))


def test_curate_peak_does_not_grow_with_candidates(tmp_path):
    # Same-length candidate files at dim 64: 10 clips (5 KiB) each, 320 clips against 1280.
    rng = np.random.default_rng(20)
    _write_tracks(tmp_path / "ref", [6] * 4, 64, rng)
    peaks = []
    for files in (32, 128):
        cand = tmp_path / f"cand{files}"
        cand.mkdir()
        for k in range(files):
            write_feature_file(cand / f"c{k:03d}.feat", f"c{k:03d}", rng.normal(size=(100, 64)))
        records, peak = _traced_peak(lambda: curator.curate(tmp_path / "ref", cand, 0.5, "mean"))
        assert sum(1 for _ in records) == files
        peaks.append(peak)
    block_bytes = kernels.BLOCK_ROWS * 64 * 8
    scores_bytes = 128 * 10 * 8
    # Holding the candidate matrix would grow the peak by 960 rows, 480 KiB.
    assert peaks[1] - peaks[0] < block_bytes + scores_bytes


def test_curate_command_peak_grows_by_the_scores_alone(tmp_path):
    # Long tracks at a small dim, 400 clips (3.2 KiB of scores) a file: records held until the end would take
    # about 30 B per clip more than the scores, so 24 more files would grow the peak by well over 250 KiB. Each
    # file also costs its layout entry, about 0.5 KiB, which the one-block term covers for 24 files.
    rng = np.random.default_rng(21)
    _write_tracks(tmp_path / "ref", [6] * 4, 8, rng)
    peaks = []
    for files in (8, 32):
        cand = tmp_path / f"cand{files}"
        cand.mkdir()
        for k in range(files):
            write_feature_file(cand / f"c{k:03d}.feat", f"c{k:03d}", rng.normal(size=(4000, 8)))
        out = tmp_path / f"out{files}.jsonl"
        code, peak = _traced_peak(lambda: cli.main(["curate", "--reference", str(tmp_path / "ref"),
                                                    "--candidates", str(cand), "-o", str(out)]))
        assert code == 0
        assert len(out.read_text().splitlines()) == files
        peaks.append(peak)
    block_bytes = kernels.BLOCK_ROWS * 8 * 8
    added_scores_bytes = 24 * 400 * 8
    report_bytes = 400 * (24 + 8 + 8 + 25)  # per clip: a float and its list slot, an index's slot, the line's text
    assert peaks[1] - peaks[0] < block_bytes + added_scores_bytes + report_bytes


def test_readme_curate_example_prints_the_selected_videos(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library example", 1)[1].split("```python\n")[2].split("```", 1)[0]
    assert "curator.curate(" in example
    e = np.eye(4)
    for sub, tracks in (("ref_dir", {"r": [e[0]] * 20}), ("cand_dir", {"seen": [e[0]] * 15, "new": [e[1]] * 25})):
        (tmp_path / sub).mkdir()
        for video_id, track in tracks.items():
            write_feature_file(tmp_path / sub / f"{video_id}.feat", video_id, np.array(track))
    monkeypatch.chdir(tmp_path)
    exec(example, {})
    assert capsys.readouterr().out == "new [0, 1, 2]\n"
