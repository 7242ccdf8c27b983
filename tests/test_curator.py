import json
import tracemalloc

import numpy as np
import pytest

from mmprep import kernels
from mmprep.curator import (
    ClipFeature,
    ReferenceIndex,
    clips_from_seconds,
    cosine,
    load_feature_dir,
    pool_clip,
    read_feature_file,
    segment_clips,
    select_novel,
    write_feature_file,
)


def clip(vid, idx, vec, span=None):
    return ClipFeature(video_id=vid, clip_index=idx, span=span or (idx * 10.0, idx * 10.0 + 10.0),
                       vector=np.asarray(vec, dtype=np.float64))


# --- segmentation ---------------------------------------------------------------


def test_segment_exact_division():
    spans = segment_clips(30)
    assert spans == [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0)]
    assert all(type(t) is float for span in spans for t in span)


def test_segment_keeps_long_tail():
    spans = segment_clips(35)
    assert len(spans) == 4
    assert spans[-1] == (30.0, 35)


def test_segment_drops_sub_second_tail():
    assert len(segment_clips(30.5)) == 3


def test_segment_one_second_tail_kept():
    assert segment_clips(31.0)[-1] == (30.0, 31.0)


def test_segment_short_video():
    assert segment_clips(4.0) == [(0.0, 4.0)]
    assert segment_clips(0.5) == []


def test_segment_rejects_nonpositive():
    with pytest.raises(ValueError):
        segment_clips(0)


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


# --- cosine ---------------------------------------------------------------------


def test_cosine_self_is_one():
    v = np.array([0.2, 0.5, -1.0])
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal_zero():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_cosine_opposite_minus_one():
    assert cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(-1.0)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError):
        cosine(np.zeros(3), np.ones(3))


def test_cosine_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        cosine(np.ones(3), np.ones(4))


# --- max similarity and kernels ---------------------------------------------------


def test_candidate_duplicated_in_reference_gives_one():
    ref = ReferenceIndex(np.array([[1.0, 2.0], [3.0, -1.0]]))
    assert ref.smax_many(clip("v", 0, [1.0, 2.0]).vector) == pytest.approx([1.0])


def test_candidate_orthogonal_to_all_gives_zero():
    ref = ReferenceIndex(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert ref.smax_many(clip("v", 0, [0.0, 0.0, 1.0]).vector) == pytest.approx([0.0])


def brute_force_smax(cands, refs):
    return np.array([max(cosine(c, r) for r in refs) for c in cands])


def test_kernels_match_brute_force_small():
    rng = np.random.default_rng(1)
    cands = rng.normal(size=(40, 16))
    refs = rng.normal(size=(70, 16))
    expected = brute_force_smax(cands, refs)
    index = ReferenceIndex(refs)
    got = index.smax_many(cands)
    assert np.allclose(got, expected, atol=1e-9)


def test_blocked_numpy_equals_unblocked():
    rng = np.random.default_rng(3)
    cand = rng.normal(size=(97, 8))
    ref = rng.normal(size=(131, 8))
    cn = cand / np.linalg.norm(cand, axis=1)[:, None]
    rn = ref / np.linalg.norm(ref, axis=1)[:, None]
    a = kernels.smax(cn, rn, block=16)
    b = kernels.smax(cn, rn, block=10**6)
    assert np.array_equal(a, b)


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
    assert peak <= 8 * 2**20 + out.nbytes + 64 * 1024  # the 8 MiB tile, the output, small buffers
    # One candidate block against 349-row reference blocks gives the same maxima.
    assert np.allclose(out, kernels.smax(cand, ref, block=10**6), rtol=0, atol=1e-12)


def test_smax_huge_block_keeps_tall_reference_blocks():
    # The reference block is sized from min(block, rows), not from block itself.
    rng = np.random.default_rng(9)
    cand, ref = _unit_rows(rng, 5, 4), _unit_rows(rng, 3000, 4)
    out, peak = _traced_peak(lambda: kernels.smax(cand, ref, block=10**9))
    assert 5 * 3000 * 8 <= peak <= 5 * 3000 * 8 + 4096  # one 5 x 3000 tile
    assert np.allclose(out, [np.max(ref @ c) for c in cand], rtol=0, atol=1e-12)


def test_reference_index_never_writes_callers_matrix():
    m = np.random.default_rng(10).normal(size=(50, 8))
    saved = m.copy()
    index = ReferenceIndex(m)
    assert np.array_equal(m, saved)
    assert index.smax_many(m[:3]) == pytest.approx([1.0, 1.0, 1.0])


def test_from_clips_matrix_is_bitwise_the_stacked_index():
    track = np.random.default_rng(12).normal(size=(95, 16)).astype(np.float32)
    clips = clips_from_seconds("v", track)
    built = ReferenceIndex.from_clips(clips)._matrix
    stacked = ReferenceIndex(np.stack([c.vector for c in clips]))._matrix
    assert built.dtype == stacked.dtype == np.float64 and built.shape == stacked.shape
    assert built.tobytes() == stacked.tobytes()
    assert not built.flags.writeable


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_from_clips_and_select_novel_check_every_row(bad):
    vectors = [np.ones(4), np.full(4, bad)]
    clips = [clip("v", i, v) for i, v in enumerate(vectors)]
    with pytest.raises(ValueError):
        ReferenceIndex.from_clips(clips)
    with pytest.raises(ValueError):
        select_novel(clips, ReferenceIndex(np.ones((1, 4))))


def test_select_novel_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        select_novel([clip("v", 0, np.ones(5))], ReferenceIndex(np.ones((2, 4))))


def test_empty_reference_rejected():
    with pytest.raises(ValueError):
        kernels.smax(np.ones((1, 4)), np.ones((0, 4)))
    with pytest.raises(ValueError):
        ReferenceIndex.from_clips([])


def test_dimension_mismatch_rejected():
    index = ReferenceIndex(np.ones((2, 4)))
    with pytest.raises(ValueError):
        index.smax_many(np.ones((1, 5)))


def test_non_finite_vectors_rejected():
    with pytest.raises(ValueError):
        ReferenceIndex(np.array([[1.0, np.nan]]))
    index = ReferenceIndex(np.ones((2, 2)))
    with pytest.raises(ValueError):
        index.smax_many(np.array([[np.inf, 1.0]]))


def test_adding_reference_never_decreases_smax():
    rng = np.random.default_rng(4)
    cands = rng.normal(size=(30, 8))
    refs = rng.normal(size=(50, 8))
    small = ReferenceIndex(refs[:25])
    big = ReferenceIndex(refs)
    assert np.all(big.smax_many(cands) >= small.smax_many(cands) - 1e-12)


# --- novelty selection -------------------------------------------------------------


def _axis_reference(dim=4):
    return ReferenceIndex(np.eye(dim)[:2])  # e0, e1


def test_strict_threshold_boundary():
    # candidate at exactly cos=0.5 to the best reference is NOT novel
    ref = ReferenceIndex(np.array([[1.0, 0.0]]))
    at_half = clip("v", 0, [0.5, np.sqrt(3) / 2])
    below = clip("v", 1, [0.49, np.sqrt(1 - 0.49**2)])
    reports = select_novel([at_half, below], ref, tau=0.5)
    assert reports[0].novel_clips == (1,)
    assert reports[0].selected


def test_video_with_no_novel_clips_not_selected():
    ref = _axis_reference()
    clips = [clip("v", i, np.eye(4)[0]) for i in range(3)]  # smax = 1.0 each
    reports = select_novel(clips, ref, tau=0.5)
    assert reports[0].selected is False
    assert reports[0].novel_clips == ()
    assert reports[0].per_clip_smax == pytest.approx((1.0, 1.0, 1.0))


def test_selection_monotone_in_tau():
    rng = np.random.default_rng(5)
    refs = rng.normal(size=(40, 8))
    ref = ReferenceIndex(refs)
    clips = [clip(f"v{i // 3}", i % 3, rng.normal(size=8)) for i in range(30)]
    prev: set = set()
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        selected = {r.video_id for r in select_novel(clips, ref, tau) if r.selected}
        assert prev <= selected
        prev = selected


def test_reports_sorted_and_order_independent():
    ref = _axis_reference()
    rng = np.random.default_rng(6)
    clips = [clip(f"v{i}", j, rng.normal(size=4)) for i in range(5) for j in range(2)]
    a = select_novel(clips, ref)
    b = select_novel(list(reversed(clips)), ref)
    assert a == b
    assert [r.video_id for r in a] == sorted(r.video_id for r in a)


def test_batched_select_novel_matches_per_video_scans():
    rng = np.random.default_rng(9)
    ref = ReferenceIndex(rng.normal(size=(300, 16)))
    for trial in range(20):
        clips = [
            clip(f"v{v}", j, rng.normal(size=16))
            for v in range(int(rng.integers(1, 12)))
            for j in range(int(rng.integers(1, 40)))
        ]
        rng.shuffle(clips)
        tau = float(rng.uniform(0.2, 0.6))
        reports = select_novel(clips, ref, tau)
        assert [r.video_id for r in reports] == sorted({c.video_id for c in clips})
        for r in reports:
            own = sorted((c for c in clips if c.video_id == r.video_id), key=lambda c: c.clip_index)
            smax = ref.smax_many(np.stack([c.vector for c in own]))
            assert np.allclose(r.per_clip_smax, smax, rtol=0, atol=1e-12)
            assert r.novel_clips == tuple(c.clip_index for c, s in zip(own, r.per_clip_smax) if s < tau)
            assert r.selected == bool(r.novel_clips)


def test_select_novel_no_candidates():
    assert select_novel([], _axis_reference()) == []


def test_tau_domain_validated():
    ref = _axis_reference()
    with pytest.raises(ValueError):
        select_novel([], ref, tau=-1.0)
    with pytest.raises(ValueError):
        select_novel([], ref, tau=1.5)


# --- clip construction from 1 fps tracks --------------------------------------------


def test_clips_from_seconds_pools_ten_rows():
    track = np.tile(np.arange(1, 5, dtype=np.float64), (25, 1))
    track[10:20] *= 2  # second clip has doubled vectors
    clips = clips_from_seconds("vid", track)
    assert len(clips) == 3  # 25 s -> [0,10), [10,20), [20,25)
    assert np.allclose(clips[0].vector, [1, 2, 3, 4])
    assert np.allclose(clips[1].vector, [2, 4, 6, 8])
    assert np.allclose(clips[2].vector, [1, 2, 3, 4])


def test_clip_spans_and_indices():
    track = np.ones((25, 3))
    clips = clips_from_seconds("vid", track)
    assert [c.clip_index for c in clips] == [0, 1, 2]
    assert clips[-1].span == (20.0, 25.0)


@pytest.mark.parametrize("pool", ["mean", "max"])
@pytest.mark.parametrize("seconds", [30, 34, 7, 1])  # no tail, a tail, shorter than one clip
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vectorized_pooling_matches_per_clip_loop(pool, seconds, dtype):
    rng = np.random.default_rng(seconds)
    track = (rng.normal(size=(seconds, 9)) * 100).astype(dtype)
    clips = clips_from_seconds("vid", track, pool=pool)
    spans = segment_clips(float(seconds))
    assert [c.span for c in clips] == spans
    for c, (start, end) in zip(clips, spans):
        per_clip = pool_clip(track[int(start) : int(end)], pool)
        # Reference: widen the clip to float64, then reduce.
        widened = track[int(start) : int(end)].astype(np.float64)
        reference = widened.mean(axis=0) if pool == "mean" else widened.max(axis=0)
        assert c.vector.dtype == np.float64
        assert c.vector.tobytes() == per_clip.tobytes() == reference.tobytes()


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
