"""Host-speed calibration: a fixed task timed next to every measured round.

On the 2-core reference box the same code runs up to 2x slower for seconds at
a time, depending on what shares the physical cores. Timing a fixed task
right before and right after each command and scaling the command's time by
nominal / measured removes most of that drift from the medians: across five
seeds of the images workload, the quartile spread of items_per_s was 0.32 raw
and 0.04 scaled. Raw times are reported as well.

Different code slows by different amounts, so each workload is scaled by the
tasks that resemble its work: "python" the planner and tiler (exact fractions,
tuples), "json" the manifest and plan I/O (parsing records into small objects
and writing plan-like records), "blas" the curation scan (a float64 GEMM with
a row max) and its feature reads (a large buffer copy).
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

# Seconds each task takes on the reference box when its cores are not shared;
# scaled times read as times on that box at that speed.
NOMINAL_S = {"python": 0.060, "json": 0.060, "blas": 0.035}

_RECORDS = [
    json.dumps({"id": f"s{i:05d}", "text_tokens": 37 * i % 9000, "tags": ["calib"],
                "items": [{"kind": "video", "duration_s": 1.5 * k + i % 97, "uri": f"vid://{i}/{k}"}
                          if k % 2 else {"kind": "document", "pages": 1 + k + i % 50, "uri": f"doc://{i}/{k}"}
                          for k in range(1 + i % 4)]})
    for i in range(1500)
]


class _Item:
    __slots__ = ("kind", "uri", "amount")

    def __init__(self, kind: str, uri: str, amount: float):
        self.kind, self.uri, self.amount = kind, uri, amount


def _python_task() -> int:
    acc = 0
    for i in range(1, 4000):
        score = Fraction(i * 7, i + 3) * min(Fraction(3, i + 1), Fraction(2, 5))
        key = (-score, i % 12, abs(Fraction(i, 9) - 1))
        acc += key[1] + json.loads(json.dumps({"id": f"s{i}", "n": [i, i + 1], "t": i * 0.5}))["n"][0]
    return acc


def _json_task() -> int:
    size = 0
    for line in _RECORDS * 3:
        obj = json.loads(line)
        items = tuple(_Item(it["kind"], it["uri"], it.get("pages") or it["duration_s"]) for it in obj["items"])
        size += len(json.dumps({"id": obj["id"], "verdict": "planned", "n_per_item": [1] * len(items),
                                "timestamps": [[0.5 * k for k in range(4)] for _ in items]}))
    return size


_blas_inputs: list = []


def _blas_task() -> float:
    if not _blas_inputs:  # built on first use, so other workloads' memory is not charged for it
        rng = np.random.default_rng(0)
        _blas_inputs.extend((rng.standard_normal((256, 512)), rng.standard_normal((2048, 512)),
                             rng.standard_normal(500_000).astype(np.float32).tobytes()))
    cand, ref, buf = _blas_inputs
    total = 0.0
    for _ in range(4):
        total += float((cand @ ref.T).max(axis=1).sum())
        for _ in range(4):
            total += float(np.frombuffer(buf, dtype="<f4").astype(np.float64)[:8].sum())
    return total


_TASKS = {"python": _python_task, "json": _json_task, "blas": _blas_task}


def calibrate(kinds: tuple[str, ...]) -> float:
    """Host speed factor: measured / nominal time of the given tasks (1.0 = reference box).

    With no tasks the factor is 1.0: the round is reported unscaled.
    """
    if not kinds:
        return 1.0
    measured = nominal = 0.0
    for kind in kinds:
        t0 = time.perf_counter()
        _TASKS[kind]()
        measured += time.perf_counter() - t0
        nominal += NOMINAL_S[kind]
    return measured / nominal
