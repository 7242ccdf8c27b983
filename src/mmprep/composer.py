"""Sequence packing and the progressive training stage table.

Each stage carries its short/long data mix (mix_short_long) as data for the
trainer that reads the table; mmprep itself never interleaves datasets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .budget import SamplingPlan
from .jsonl import InputError


@dataclass(frozen=True)
class PackedSequence:
    pack_id: int
    member_ids: tuple[str, ...]
    total_tokens: int


@dataclass(frozen=True)
class StageConfig:
    name: str
    l_max: int
    batch_size: int
    learning_rate: float
    trainable_scope: str
    mix_short_long: tuple[float, float]


def pack(plans: list[SamplingPlan], l_max: int) -> list[PackedSequence]:
    """Worst-fit-decreasing packing of planned samples into capacity-l_max sequences.

    Items are placed largest-first into whichever open pack has the most
    remaining room; a new pack opens only when nothing fits. Filling the
    emptiest pack first keeps pack loads near-equal. Fully deterministic:
    ties in size break by sample id, ties in remaining room by pack id. A plan
    of more than l_max tokens raises InputError.

    Only each plan's sample_id, verdict and total_tokens are read, so a caller
    may hand it slim plans such as SamplingPlan(id, PLANNED, total_tokens=n);
    the pack command does, to drop each record's timestamps and grids as it reads.
    """
    for p in plans:
        if not p.planned or p.total_tokens is None:
            raise ValueError(f"plan {p.sample_id!r} is not a planned sample")
        if p.total_tokens > l_max:
            raise InputError(f"plan {p.sample_id!r} has {p.total_tokens} tokens, exceeding pack capacity {l_max}",
                             field="total_tokens")

    order = sorted(plans, key=lambda p: (-p.total_tokens, p.sample_id))
    members: list[list[str]] = []
    totals: list[int] = []
    heap: list[tuple[int, int]] = []  # (-remaining, pack_id)
    for p in order:
        if heap:
            neg_rem, pid = heap[0]
            if -neg_rem >= p.total_tokens:
                heapq.heapreplace(heap, (neg_rem + p.total_tokens, pid))
                members[pid].append(p.sample_id)
                totals[pid] += p.total_tokens
                continue
        pid = len(members)
        members.append([p.sample_id])
        totals.append(p.total_tokens)
        heapq.heappush(heap, (-(l_max - p.total_tokens), pid))

    return [
        PackedSequence(pack_id=i, member_ids=tuple(ids), total_tokens=t)
        for i, (ids, t) in enumerate(zip(members, totals))
    ]


@dataclass(frozen=True)
class BalanceReport:
    pack_count: int
    mean_utilization: float | None
    min_utilization: float | None
    max_utilization: float | None

    @property
    def defined(self) -> bool:
        return self.pack_count > 0


def balance_report(packs: list[PackedSequence], l_max: int) -> BalanceReport:
    """Exact utilization statistics (total_tokens / l_max) over the packs."""
    if not packs:
        return BalanceReport(0, None, None, None)
    utils = [p.total_tokens / l_max for p in packs]
    return BalanceReport(
        pack_count=len(packs),
        mean_utilization=sum(utils) / len(utils),
        min_utilization=min(utils),
        max_utilization=max(utils),
    )


def progressive_stages() -> list[StageConfig]:
    """The five-stage training schedule with progressively growing context length."""
    return [
        StageConfig("Stage-1", 4096, 1024, 2e-4, "connector", (1.0, 0.0)),
        StageConfig("Stage-1.5", 8192, 1024, 2e-5, "full", (1.0, 0.0)),
        StageConfig("Stage-2", 32768, 256, 2e-5, "full", (1.0, 1.0)),
        StageConfig("Stage-3", 65536, 128, 2e-5, "full", (1.0, 1.0)),
        StageConfig("Stage-4", 131072, 128, 2e-5, "full", (1.0, 1.0)),
    ]


def stage_to_obj(s: StageConfig) -> dict:
    return {
        "name": s.name,
        "l_max": s.l_max,
        "batch_size": s.batch_size,
        "learning_rate": s.learning_rate,
        "trainable_scope": s.trainable_scope,
        "mix_short_long": list(s.mix_short_long),
    }

