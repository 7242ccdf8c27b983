"""Area-preserving tile grid selection and per-image token accounting.

An input image of W x H pixels is resized onto a cols x rows canvas of
448 px square tiles, at most 12 of them. The grid is chosen to keep as much
of the original area as possible (capped at 60%) while staying close to the
original aspect ratio; the two factors multiply into the selection score.
Grid choice drives the token cost of the image: 256 tokens per tile, plus
one thumbnail tile when the grid has more than one tile. best_grids scores
the 35 candidate grids once and returns the best grid under every tile cap
from 1 to 12, so a planner that tries several caps searches once per image;
select_grid is a lookup into it. The constants below are the source paper's
values; every caller shares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .manifest import ImageDims

TILE_SIZE_PX = 448
MAX_TILES = 12
AREA_THRESHOLD = 0.6
TILE_TOKENS = 256

# Exact value of the float threshold (not 3/5): ties between grids are
# decided against this rational, so it must stay the float's binary value.
_THR = Fraction(AREA_THRESHOLD)


@dataclass(frozen=True)
class TileGrid:
    cols: int
    rows: int

    def __post_init__(self):
        if self.cols < 1 or self.rows < 1:
            raise ValueError("grid dims must be positive")

    @property
    def tiles(self) -> int:
        return self.cols * self.rows


@dataclass(frozen=True)
class TileLayout:
    canvas_w: int
    canvas_h: int
    rects: tuple[tuple[int, int, int, int], ...]


def candidate_grids(max_tiles: int) -> list[TileGrid]:
    """All cols x rows grids with cols*rows <= max_tiles, lexicographic order."""
    if max_tiles < 1:
        raise ValueError("max_tiles must be >= 1")
    return [
        TileGrid(cols, rows)
        for cols in range(1, max_tiles + 1)
        for rows in range(1, max_tiles // cols + 1)
    ]


# The candidates of the largest cap, one tuple per tile count 1..MAX_TILES, each
# candidate as (grid, cols, rows, tiles, capped-area numerator of the grid
# before the min with the image's area), in candidate_grids order.
_BY_TILES = tuple(
    tuple((g, g.cols, g.rows, t, t * TILE_SIZE_PX**2 * _THR.denominator) for g in candidate_grids(t) if g.tiles == t)
    for t in range(1, MAX_TILES + 1)
)


def best_grids(dims: ImageDims) -> tuple[TileGrid, ...]:
    """The best grid for every tile cap: entry cap-1 is the pick among grids of <= cap tiles.

    Maximizes the selection score with exact integer arithmetic (no float
    ties). Ties break toward fewest tiles, then smallest aspect-ratio
    distance to the original, then smallest column count. That order is
    strict and total, so one pass in tile-count order, recording the running
    best after each tile count, answers every cap at once.
    """
    w, h = dims.width_px, dims.height_px
    area_cap = _THR.numerator * w * h
    out = []
    # Every score is positive, so the 0/1 start loses to the first candidate.
    best, best_cols, best_rows, best_tiles, best_num, best_den, best_diff = None, 0, 0, 0, 0, 1, 0
    for group in _BY_TILES:
        for grid, cols, rows, tiles, tile_area in group:
            # Exact score as num/den, dropping the factor 1 / (thr.denominator * W * H)
            # that every candidate shares.
            ch = cols * h
            rw = rows * w
            area_num = min(tile_area, area_cap)
            if ch < rw:
                num, den = area_num * ch, rw
            else:
                num, den = area_num * rw, ch
            # |cols/rows - W/H| up to the common 1/H factor: |cols*H - rows*W| / rows
            diff = abs(ch - rw)
            lhs, rhs = num * best_den, best_num * den
            if lhs != rhs:
                better = lhs > rhs
            elif tiles != best_tiles:
                better = False  # tile-count order: the running best has fewer tiles
            elif diff * best_rows != best_diff * rows:
                better = diff * best_rows < best_diff * rows
            else:
                better = cols < best_cols
            if better:
                best, best_cols, best_rows, best_tiles = grid, cols, rows, tiles
                best_num, best_den, best_diff = num, den, diff
        out.append(best)
    return tuple(out)


def select_grid(dims: ImageDims, tile_cap: int = MAX_TILES) -> TileGrid:
    """Pick the best grid among candidates with at most tile_cap tiles (see best_grids)."""
    if not 1 <= tile_cap <= MAX_TILES:
        raise ValueError(f"tile_cap must be in [1, {MAX_TILES}], got {tile_cap}")
    return best_grids(dims)[tile_cap - 1]


def grid_tokens(grid: TileGrid) -> int:
    """Token cost of a chosen grid: k tiles plus a thumbnail tile when k > 1."""
    k = grid.tiles
    return TILE_TOKENS if k == 1 else (k + 1) * TILE_TOKENS


def tile_layout(dims: ImageDims, grid: TileGrid) -> TileLayout:
    """Row-major crop boxes on the resize canvas; the caller resizes dims to the canvas."""
    s = TILE_SIZE_PX
    rects = tuple(
        (c * s, r * s, (c + 1) * s, (r + 1) * s)
        for r in range(grid.rows)
        for c in range(grid.cols)
    )
    return TileLayout(canvas_w=grid.cols * s, canvas_h=grid.rows * s, rects=rects)
