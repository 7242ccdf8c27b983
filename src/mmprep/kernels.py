"""Hot inner loop for the clip-similarity scan.

One kernel: the row-wise max dot product of L2-normalized float64 candidate
rows against every reference row, computed as a blocked BLAS matrix product.
It is the one owner of the scan's block rule. Candidate rows are multiplied
BLOCK_ROWS at a time, and each candidate block goes against reference blocks
as tall as a similarity tile of TILE_VALUES values (2 MiB) allows for that
many rows: 1024 reference rows against 256 candidate rows, taller ones
against fewer. So a call on any number of rows keeps tall reference blocks,
and gives the bits of calls on its BLOCK_ROWS-row slices. The tile and a
row-max buffer are allocated once per call and reused for every product, so
the scan's working memory stays fixed however large either side grows.
curator.select_novel calls it once per candidate block clip_blocks reads and
keeps only the row maxima it returns, one float64 per candidate clip.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 256  # most candidate rows multiplied at once, and the rows of a curate candidate block
TILE_VALUES = 1 << 18  # float64 values in the similarity tile: 2 MiB


def smax(cand: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Max dot product of each candidate row against all reference rows.

    The tile holds min(BLOCK_ROWS, rows) x min(TILE_VALUES // that, ref rows)
    values; a shorter last candidate block gets taller reference blocks.
    """
    if cand.ndim != 2 or ref.ndim != 2 or cand.shape[1] != ref.shape[1]:
        raise ValueError("cand and ref must be 2-D with matching dimension")
    if ref.shape[0] == 0:
        raise ValueError("reference set is empty")
    rows = cand.shape[0]
    out = np.full(rows, -np.inf)
    if rows == 0:
        return out
    block = min(BLOCK_ROWS, rows)
    tile = np.empty(block * min(TILE_VALUES // block, ref.shape[0]))
    row_max = np.empty(block)
    for i0 in range(0, rows, block):
        cb, ob = cand[i0 : i0 + block], out[i0 : i0 + block]
        ref_rows = len(tile) // len(cb)
        for j0 in range(0, ref.shape[0], ref_rows):
            rb = ref[j0 : j0 + ref_rows]
            sims = tile[: len(cb) * len(rb)].reshape(len(cb), len(rb))
            np.matmul(cb, rb.T, out=sims)
            np.maximum(ob, sims.max(axis=1, out=row_max[: len(cb)]), out=ob)
    return out
