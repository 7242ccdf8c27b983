"""Sequence packing and the progressive training stage table.

pack works on (sample_id, total_tokens) pairs alone, so a caller keeps only
those of each planned sample. Each stage carries its short/long data mix
(mix_short_long) as data for the trainer that reads the table; mmprep itself
never interleaves datasets.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple

from .jsonl import InputError


class StageConfig(NamedTuple):
    name: str
    l_max: int
    batch_size: int
    learning_rate: float
    trainable_scope: str
    mix_short_long: tuple[float, float]


def pack(sizes: Iterable[tuple[str, int]], l_max: int) -> list[tuple[list[str], int]]:
    """Worst-fit-decreasing packing of (sample_id, total_tokens) pairs into capacity-l_max sequences.

    Items are placed largest-first into whichever open pack has the most
    remaining room; a new pack opens only when nothing fits. Filling the
    emptiest pack first keeps pack loads near-equal. Fully deterministic:
    ties in size break by sample id, ties in remaining room by pack id.
    Returns one (member_ids, total_tokens) pair per pack, in pack-id order. An
    item of more than l_max tokens raises InputError.
    """
    members: list[list[str]] = []
    totals: list[int] = []
    heap: list[tuple[int, int]] = []  # (-remaining, pack_id)
    for sample_id, tokens in sorted(sizes, key=lambda s: (-s[1], s[0])):
        if heap and -heap[0][0] >= tokens:
            neg_rem, pid = heap[0]
            heapq.heapreplace(heap, (neg_rem + tokens, pid))
            members[pid].append(sample_id)
            totals[pid] += tokens
            continue
        if tokens > l_max:  # fits no pack, not even a new one
            raise InputError(f"plan {sample_id!r} has {tokens} tokens, exceeding pack capacity {l_max}",
                             field="total_tokens")
        heapq.heappush(heap, (tokens - l_max, len(members)))
        members.append([sample_id])
        totals.append(tokens)
    return list(zip(members, totals))


def progressive_stages() -> list[StageConfig]:
    """The five-stage training schedule with progressively growing context length."""
    return [
        StageConfig("Stage-1", 4096, 1024, 2e-4, "connector", (1.0, 0.0)),
        StageConfig("Stage-1.5", 8192, 1024, 2e-5, "full", (1.0, 0.0)),
        StageConfig("Stage-2", 32768, 256, 2e-5, "full", (1.0, 1.0)),
        StageConfig("Stage-3", 65536, 128, 2e-5, "full", (1.0, 1.0)),
        StageConfig("Stage-4", 131072, 128, 2e-5, "full", (1.0, 1.0)),
    ]
