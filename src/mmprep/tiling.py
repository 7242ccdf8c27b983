"""Area-preserving tile grid selection and per-image token accounting.

An input image of W x H pixels is resized onto a cols x rows canvas of
448 px square tiles, at most 12 of them. The grid is chosen to keep as much
of the original area as possible (capped at 60%) while staying close to the
original aspect ratio; the two factors multiply into the selection score.
Grid choice drives the token cost of the image: 256 tokens per tile, plus
one thumbnail tile when the grid has more than one tile. best_grids returns
the best grid under every tile cap from 1 to 12 in one pass over the tile
counts. All grids of one tile count share the area factor, so which of them
a count picks depends on W/H alone, and changes only at eleven cuts of W/H
(1/6, 1/5, 1/4, 1/3, 1/2, 1, 2, 3, 4, 5, 6). A table built once at import
from candidate_grids holds the cuts and, for each of the twelve gaps between
them, the grid every tile count picks there; a call binary-searches the cuts
with exact integer compares, then scores that row's twelve grids, and a
running best over counts 1..12 gives every cap. A planner that tries several
caps thus searches once per image; select_grid is a lookup into it. The
constants below are the source paper's values; every caller shares them.
TileGrid is a plain NamedTuple; budget.read_plan checks the grids a plan
record holds. GRID_TOKENS and GRID_TEXT, built once at import over
candidate_grids(MAX_TILES), give each grid a selection can return its token
cost and its record text "[cols, rows]", so a per-record caller looks both up
instead of working them out; grid_tokens stays the rule for any other grid.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd
from typing import NamedTuple

from .manifest import ImageDims

TILE_SIZE_PX = 448
MAX_TILES = 12
AREA_THRESHOLD = 0.6
TILE_TOKENS = 256

# Exact value of the float threshold (not 3/5) as numerator and denominator:
# ties between grids are decided against this rational, so it must stay the
# float's binary value.
_THR_NUM, _THR_DEN = AREA_THRESHOLD.as_integer_ratio()


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


def _table() -> tuple[tuple[tuple[int, int], ...], tuple[tuple[tuple[int, TileGrid, int, int], ...], ...]]:
    """The cuts of W/H where some tile count's pick moves, and the picks in each gap between them.

    The grids of t tiles, in increasing cols and so cols/rows, are each won on
    a range of W/H: between consecutive grids (d, t/d) and (d', t/d') the pick
    moves to (d', t/d') just above W/H = d*d'/t, where their aspect factors tie
    (at the cut itself the narrower grid stays; see the tie note in
    best_grids). Cuts are kept as reduced (p, q) for p/q and compared by
    cross-multiplying. Gap i holds the W/H with cut i-1 < W/H <= cut i; its
    row has one (t * tile area, grid, cols, rows) per tile count t, the grid
    being the one past every cut of t that lies below the gap.
    """
    by_tiles = [[g for g in candidate_grids(t) if g.tiles == t] for t in range(1, MAX_TILES + 1)]
    cuts_of = []
    for t, grids in enumerate(by_tiles, start=1):
        pq = [(a.cols * b.cols, t) for a, b in zip(grids, grids[1:])]
        cuts_of.append([(p // gcd(p, q), q // gcd(p, q)) for p, q in pq])
    cuts = sorted({c for cs in cuts_of for c in cs}, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
    tile_area = TILE_SIZE_PX**2 * _THR_DEN
    rows = []
    for low in (None, *cuts):  # the lower end of each gap; the first gap has none
        row = []
        for t, (grids, cs) in enumerate(zip(by_tiles, cuts_of), start=1):
            g = grids[0 if low is None else sum(p * low[1] <= low[0] * q for p, q in cs)]
            row.append((t * tile_area, g, g.cols, g.rows))
        rows.append(tuple(row))
    return tuple(cuts), tuple(rows)


_CUTS, _ROWS = _table()


def best_grids(dims: ImageDims) -> tuple[TileGrid, ...]:
    """The best grid for every tile cap: entry cap-1 is the pick among grids of <= cap tiles.

    Maximizes the selection score with exact integer arithmetic (no float
    ties). Ties break toward fewest tiles, then smallest aspect-ratio
    distance to the original, then smallest column count; only the first
    rule ever decides (see the tie note below). Grids of one tile count share
    the area factor, and the aspect factor only falls as cols/rows moves away
    from W/H, so each tile count is won by one of the two grids whose ratios
    bracket W/H; which one changes only at the cuts of _table. A binary search
    of the cuts finds the gap holding W/H, whose row gives each tile count's
    grid; one pass over that row, scoring each grid and keeping the running
    best, answers every cap at once.
    """
    w, h = dims.width_px, dims.height_px
    # Gap index: the number of cuts p/q below W/H (p*H < q*W).
    lo, hi = 0, len(_CUTS)
    while lo < hi:
        mid = (lo + hi) >> 1
        p, q = _CUTS[mid]
        if p * h < q * w:
            lo = mid + 1
        else:
            hi = mid
    # Tie note: the aspect factors of the grids (d, t/d) and (d', t/d') on either
    # side of a cut tie only at W/H = d*d'/t, which the grid d x t/d' of fewer
    # tiles matches exactly; it scores at least as high, so a tie never decides
    # the ladder and either grid may stand for this tile count.
    area_cap = _THR_NUM * w * h
    out = []
    # Every score is positive, so the 0/1 start loses to the first tile count.
    best, best_num, best_den = None, 0, 1
    for area_num, grid, cols, rows in _ROWS[lo]:
        # Exact score as num/den, dropping the factor 1 / (_THR_DEN * W * H)
        # that every grid shares; a tie keeps the running best, which has fewer tiles.
        ch, rw = cols * h, rows * w
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


# Each grid best_grids can return, with its token cost and its plan-record text.
GRID_TOKENS = {g: grid_tokens(g) for g in candidate_grids(MAX_TILES)}
GRID_TEXT = {g: f"[{g.cols}, {g.rows}]" for g in GRID_TOKENS}
