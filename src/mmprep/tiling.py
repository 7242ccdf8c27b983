"""Area-preserving tile grid selection and per-image token accounting.

An input image of W x H pixels is resized onto a cols x rows canvas of
448 px square tiles, at most 12 of them. The grid is chosen to keep as much
of the original area as possible (capped at 60%) while staying close to the
original aspect ratio; the two factors multiply into the selection score.
Grid choice drives the token cost of the image: 256 tokens per tile, plus
one thumbnail tile when the grid has more than one tile. best_grids returns
the best grid under every tile cap from 1 to 12 in one pass over the tile
counts: all grids of one tile count share the area factor, so each count is
decided between the two grids whose cols/rows bracket W/H, and a running best
over counts 1..12 gives every cap. A planner that tries several caps thus
searches once per image; select_grid is a lookup into it. The constants
below are the source paper's values; every caller shares them. TileGrid is a
plain NamedTuple; budget.read_plan checks the grids a plan record holds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .manifest import ImageDims

TILE_SIZE_PX = 448
MAX_TILES = 12
AREA_THRESHOLD = 0.6
TILE_TOKENS = 256

# Exact value of the float threshold (not 3/5): ties between grids are
# decided against this rational, so it must stay the float's binary value.
_THR = Fraction(AREA_THRESHOLD)


class TileGrid(NamedTuple):
    cols: int
    rows: int

    @property
    def tiles(self) -> int:
        return self.cols * self.rows


def candidate_grids(max_tiles: int) -> list[TileGrid]:
    """All cols x rows grids with cols*rows <= max_tiles, lexicographic order."""
    return [
        TileGrid(cols, rows)
        for cols in range(1, max_tiles + 1)
        for rows in range(1, max_tiles // cols + 1)
    ]


# The grids of each tile count 1..MAX_TILES as (grid, cols, rows), in increasing
# cols and so in increasing cols/rows.
_GRIDS_BY_TILES = tuple(
    tuple((g, g.cols, g.rows) for g in candidate_grids(t) if g.tiles == t) for t in range(1, MAX_TILES + 1)
)


def best_grids(dims: ImageDims) -> tuple[TileGrid, ...]:
    """The best grid for every tile cap: entry cap-1 is the pick among grids of <= cap tiles.

    Maximizes the selection score with exact integer arithmetic (no float
    ties). Ties break toward fewest tiles, then smallest aspect-ratio
    distance to the original, then smallest column count; only the first
    rule ever decides (see the tie note below). Grids of one tile count share
    the area factor, and the aspect factor only falls as cols/rows moves away
    from W/H, so each tile count is won by one of the two grids whose ratios
    bracket W/H. One pass over the tile counts, keeping the running best,
    answers every cap at once.
    """
    w, h = dims.width_px, dims.height_px
    area_cap = _THR.numerator * w * h
    tile_area = TILE_SIZE_PX**2 * _THR.denominator
    out = []
    # Every score is positive, so the 0/1 start loses to the first tile count.
    best, best_num, best_den = None, 0, 1
    for tiles, group in enumerate(_GRIDS_BY_TILES, start=1):
        # lo: the last grid with cols/rows <= W/H (cols*H <= rows*W); hi: the grid after it.
        lo = hi = None
        for cand in group:
            if cand[1] * h <= cand[2] * w:
                lo = cand
            else:
                hi = cand
                break
        if hi is None:
            grid, cols, rows = lo
        elif lo is None:
            grid, cols, rows = hi
        else:
            # Aspect factors lo_c*H/(lo_r*W) against hi_r*W/(hi_c*H). They tie only
            # at W/H = lo_c*hi_c/tiles, which the grid lo_c x hi_r of fewer tiles
            # matches exactly; it scores at least as high, so a tie never decides
            # the ladder and either grid may stand for this tile count.
            _, lo_c, lo_r = lo
            _, hi_c, hi_r = hi
            grid, cols, rows = lo if lo_c * hi_c * h * h >= lo_r * hi_r * w * w else hi
        # Exact score as num/den, dropping the factor 1 / (thr.denominator * W * H)
        # that every grid shares; a tie keeps the running best, which has fewer tiles.
        ch, rw = cols * h, rows * w
        area_num = tiles * tile_area
        if area_num > area_cap:
            area_num = area_cap
        if ch < rw:
            num, den = area_num * ch, rw
        else:
            num, den = area_num * rw, ch
        if num * best_den > best_num * den:
            best, best_num, best_den = grid, num, den
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
