"""Hot inner loop for the clip-similarity scan.

One kernel: the row-wise max dot product of L2-normalized float64 candidate
rows against every reference row, computed as a blocked BLAS matrix product
so that no similarity temporary exceeds block x block values.
"""

from __future__ import annotations

import numpy as np


def smax(cand: np.ndarray, ref: np.ndarray, block: int = 2048) -> np.ndarray:
    """Max dot product of each candidate row against all reference rows."""
    if cand.ndim != 2 or ref.ndim != 2 or cand.shape[1] != ref.shape[1]:
        raise ValueError("cand and ref must be 2-D with matching dimension")
    if ref.shape[0] == 0:
        raise ValueError("reference set is empty")
    out = np.empty(cand.shape[0], dtype=np.float64)
    for i0 in range(0, cand.shape[0], block):
        cb = cand[i0 : i0 + block]
        best = np.full(cb.shape[0], -np.inf)
        for j0 in range(0, ref.shape[0], block):
            sims = cb @ ref[j0 : j0 + block].T
            np.maximum(best, sims.max(axis=1), out=best)
        out[i0 : i0 + block] = best
    return out
