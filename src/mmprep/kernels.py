"""Hot inner loop for the clip-similarity scan.

One kernel: the row-wise max dot product of L2-normalized float64 candidate
rows against every reference row, computed as a blocked BLAS matrix product.
The candidate rows it is given are multiplied at once; reference rows go
through in blocks sized so that one similarity tile holds at most TILE_VALUES
values (2 MiB: 1024 reference rows against 256 candidate rows; taller
reference blocks for fewer candidate rows, shorter ones for more). The tile and a row-max buffer are
allocated once per call and reused for every reference block, so the scan's
working memory stays fixed however large the reference set grows.
curator.select_novel calls it once per candidate block of at most BLOCK_ROWS
rows and keeps only the row maxima it returns, one float64 per candidate
clip, from which it builds the output records.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 256  # most candidate rows curator.select_novel hands the kernel at once
TILE_VALUES = 1 << 18  # float64 values in the similarity tile: 2 MiB


def smax(cand: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Max dot product of each candidate row against all reference rows.

    Every candidate row is multiplied at once against a reference block as
    tall as the tile allows for that many rows, and one row tall at least.
    """
    if cand.ndim != 2 or ref.ndim != 2 or cand.shape[1] != ref.shape[1]:
        raise ValueError("cand and ref must be 2-D with matching dimension")
    if ref.shape[0] == 0:
        raise ValueError("reference set is empty")
    rows = cand.shape[0]
    out = np.full(rows, -np.inf)
    if rows == 0:
        return out
    ref_rows = min(max(1, TILE_VALUES // rows), ref.shape[0])
    tile = np.empty(rows * ref_rows)
    row_max = np.empty(rows)
    for j0 in range(0, ref.shape[0], ref_rows):
        rb = ref[j0 : j0 + ref_rows]
        sims = tile[: rows * len(rb)].reshape(rows, len(rb))
        np.matmul(cand, rb.T, out=sims)
        np.maximum(out, sims.max(axis=1, out=row_max), out=out)
    return out
