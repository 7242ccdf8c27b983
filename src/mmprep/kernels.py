"""Hot inner loop for the clip-similarity scan.

One kernel: the row-wise max dot product of L2-normalized float64 candidate
rows against every reference row, computed as a blocked BLAS matrix product.
Candidate rows go through in blocks of BLOCK_ROWS rows; reference rows go
through in blocks sized so that one similarity tile holds at most TILE_VALUES
values (2 MiB: 1024 reference rows against 256 candidate rows, and taller
reference blocks for fewer candidate rows). The tile and a row-max buffer are
allocated once per call and reused for every block pair, so the scan's
working memory stays fixed however large the reference set grows.
curator.select_novel calls it once per candidate block of at most BLOCK_ROWS
rows and keeps only the row maxima it returns, one float64 per candidate
clip, from which it builds the output records.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 256  # candidate rows multiplied at once
TILE_VALUES = 1 << 18  # float64 values in the similarity tile: 2 MiB


def smax(cand: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Max dot product of each candidate row against all reference rows.

    Up to BLOCK_ROWS candidate rows are multiplied at once, against a
    reference block as tall as the tile allows for that many rows.
    """
    if cand.ndim != 2 or ref.ndim != 2 or cand.shape[1] != ref.shape[1]:
        raise ValueError("cand and ref must be 2-D with matching dimension")
    if ref.shape[0] == 0:
        raise ValueError("reference set is empty")
    out = np.full(cand.shape[0], -np.inf)
    if cand.shape[0] == 0:
        return out
    cand_rows = min(BLOCK_ROWS, cand.shape[0])
    ref_rows = min(max(1, TILE_VALUES // cand_rows), ref.shape[0])
    tile = np.empty(cand_rows * ref_rows)
    row_max = np.empty(cand_rows)
    for i0 in range(0, cand.shape[0], cand_rows):
        cb = cand[i0 : i0 + cand_rows]
        best, rmax = out[i0 : i0 + cb.shape[0]], row_max[: cb.shape[0]]
        for j0 in range(0, ref.shape[0], ref_rows):
            rb = ref[j0 : j0 + ref_rows]
            sims = tile[: cb.shape[0] * rb.shape[0]].reshape(cb.shape[0], rb.shape[0])
            np.matmul(cb, rb.T, out=sims)
            np.maximum(best, sims.max(axis=1, out=rmax), out=best)
    return out
