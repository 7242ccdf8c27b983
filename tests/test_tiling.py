import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmprep import cli
from mmprep.manifest import ImageDims, dumps_sample
from mmprep.tiling import (
    AREA_THRESHOLD,
    TILE_SIZE_PX,
    TileGrid,
    best_grids,
    candidate_grids,
    grid_tokens,
    select_grid,
)
from tests.conftest import make_sample


def oracle_select(width, height, tile_cap=12):
    """Independent exhaustive argmax over the candidate grids, exact rationals."""
    thr = Fraction(AREA_THRESHOLD)
    s2 = TILE_SIZE_PX**2
    best_key, best_grid = None, None
    for cols in range(1, tile_cap + 1):
        for rows in range(1, tile_cap // cols + 1):
            area = Fraction(cols * rows * s2, width * height)
            aspect = Fraction(cols * height, rows * width)
            score = min(area, thr) * min(aspect, 1 / aspect)
            dist = abs(Fraction(cols, rows) - Fraction(width, height))
            key = (-score, cols * rows, dist, cols)
            if best_key is None or key < best_key:
                best_key, best_grid = key, (cols, rows)
    return best_grid


def test_candidate_grids_max_tiles_1():
    assert candidate_grids(1) == [TileGrid(1, 1)]


def test_candidate_grids_max_tiles_2():
    assert candidate_grids(2) == [TileGrid(1, 1), TileGrid(1, 2), TileGrid(2, 1)]


def test_candidate_grids_count_at_12():
    grids = candidate_grids(12)
    assert len(grids) == 35
    assert len(set(grids)) == 35
    assert all(g.cols * g.rows <= 12 for g in grids)


def test_score_matches_hand_computed_values():
    # On 896x448, 2x1 scores 0.6 (area capped, aspect exact), 1x1 scores 0.25
    # and 1x2 scores 0.15: 2x1 wins once the cap allows two tiles.
    assert select_grid(ImageDims(896, 448), tile_cap=1) == TileGrid(1, 1)
    assert select_grid(ImageDims(896, 448), tile_cap=2) == TileGrid(2, 1)


def test_score_saturates_at_threshold_for_matching_aspect():
    # 2x1 and 4x2 on 896x448 both score exactly the threshold; the tie goes
    # to the grid with fewer tiles under every cap that allows both.
    assert all(g == TileGrid(2, 1) for g in best_grids(ImageDims(896, 448))[1:])


def test_worked_example_grids():
    assert select_grid(ImageDims(448, 448)) == TileGrid(1, 1)
    assert select_grid(ImageDims(896, 448)) == TileGrid(2, 1)
    assert select_grid(ImageDims(4000, 3000)) == TileGrid(4, 3)


def test_4000x3000_beats_3x3():
    # 4x3 scores ~0.2007 against ~0.1129 for 3x3, which wins only while 4x3 is capped out.
    assert select_grid(ImageDims(4000, 3000), tile_cap=12) == TileGrid(4, 3)
    assert select_grid(ImageDims(4000, 3000), tile_cap=11) == TileGrid(3, 3)


def test_select_respects_tile_cap():
    assert select_grid(ImageDims(4000, 3000), tile_cap=1) == TileGrid(1, 1)
    g = select_grid(ImageDims(4000, 3000), tile_cap=6)
    assert g.tiles <= 6
    assert (g.cols, g.rows) == oracle_select(4000, 3000, tile_cap=6)


def test_select_rejects_bad_cap():
    with pytest.raises(ValueError):
        select_grid(ImageDims(100, 100), tile_cap=0)
    with pytest.raises(ValueError):
        select_grid(ImageDims(100, 100), tile_cap=13)


def test_oracle_equivalence_randomized():
    rng = random.Random(20240817)
    for _ in range(2000):
        w, h = rng.randint(1, 8192), rng.randint(1, 8192)
        got = select_grid(ImageDims(w, h))
        assert (got.cols, got.rows) == oracle_select(w, h), (w, h)


def test_best_grids_matches_oracle_at_every_cap():
    rng = random.Random(606)
    dims = [(rng.randint(1, 8192), rng.randint(1, 8192)) for _ in range(60)] + [(1, 8192), (8192, 1), (448, 448)]
    for w, h in dims:
        grids = best_grids(ImageDims(w, h))
        assert len(grids) == 12
        for cap, g in enumerate(grids, start=1):
            assert g.tiles <= cap
            assert (g.cols, g.rows) == oracle_select(w, h, tile_cap=cap), (w, h, cap)
            assert select_grid(ImageDims(w, h), cap) == g


_sides = st.integers(1, 10**6)
_strip = st.tuples(st.integers(1, 40), _sides)
_dims = st.one_of(st.tuples(_sides, _sides), _strip, _strip.map(lambda d: d[::-1]))


@settings(max_examples=300, deadline=None)
@given(dims=_dims)
def test_best_grids_property_matches_oracle_at_every_cap(dims):
    w, h = dims
    grids = best_grids(ImageDims(w, h))
    assert [(g.cols, g.rows) for g in grids] == [oracle_select(w, h, tile_cap=cap) for cap in range(1, 13)]


def test_degenerate_strip_dims():
    g = select_grid(ImageDims(1, 8192))
    assert (g.cols, g.rows) == oracle_select(1, 8192)
    g = select_grid(ImageDims(8192, 1))
    assert (g.cols, g.rows) == oracle_select(8192, 1)


# --- layout -------------------------------------------------------------------


def tile_rows(capsys, tmp_path, dims, cap):
    """Rows the `tile` command writes for one sample holding images of `dims`."""
    path = tmp_path / "m.jsonl"
    path.write_text(dumps_sample(make_sample("img", images=dims)) + "\n", encoding="utf-8")
    assert cli.main(["tile", "--tile-cap", str(cap), "-i", str(path)]) == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(rows) == len(dims)
    return rows


def test_layout_2x1_covers_canvas(capsys, tmp_path):
    for cap in (2, 12):
        (row,) = tile_rows(capsys, tmp_path, [(896, 448)], cap)
        assert row["grid"] == [2, 1]
        assert row["canvas"] == [896, 448]


def test_layout_1x1_is_single_tile(capsys, tmp_path):
    (row,) = tile_rows(capsys, tmp_path, [(123, 7)], 1)
    assert row["grid"] == [1, 1]
    assert row["canvas"] == [448, 448]
    assert row["tokens"] == 256


def test_layout_partition_exact(capsys, tmp_path):
    rng = random.Random(3)
    dims = [(rng.randint(1, 8192), rng.randint(1, 8192)) for _ in range(50)]
    for cap in (1, 2, 12):
        for (w, h), row in zip(dims, tile_rows(capsys, tmp_path, dims, cap)):
            grid = select_grid(ImageDims(w, h), cap)
            assert row["grid"] == [grid.cols, grid.rows]
            assert row["canvas"] == [grid.cols * TILE_SIZE_PX, grid.rows * TILE_SIZE_PX]
            assert row["tokens"] == grid_tokens(grid)


# --- tokens -------------------------------------------------------------------


def test_tokens_single_tile_has_no_thumbnail():
    assert grid_tokens(select_grid(ImageDims(5000, 5000), 1)) == 256
    assert grid_tokens(select_grid(ImageDims(30, 77), 1)) == 256


def test_tokens_worked_examples():
    assert grid_tokens(select_grid(ImageDims(896, 448), 12)) == 768  # 2x1 -> (2+1)*256
    assert grid_tokens(select_grid(ImageDims(4000, 3000), 12)) == 3328  # 4x3 -> 13*256


def test_tokens_monotone_in_tile_cap():
    rng = random.Random(99)
    for _ in range(300):
        w, h = rng.randint(1, 8192), rng.randint(1, 8192)
        costs = [grid_tokens(g) for g in best_grids(ImageDims(w, h))]
        assert costs == sorted(costs), (w, h, costs)


def test_scale_invariance_in_capped_regime():
    # While every candidate keeps the area term at the cap, the choice depends
    # only on the aspect ratio, so integer upscaling cannot change it.
    rng = random.Random(11)
    for _ in range(200):
        w, h = rng.randint(1, 40), rng.randint(1, 40)
        for k in (2, 3):
            kw, kh = k * w, k * h
            if 0.6 * kw * kh <= 448 * 448:  # every grid still area-capped
                assert select_grid(ImageDims(kw, kh)) == select_grid(ImageDims(w, h))
