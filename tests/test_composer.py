import random

import pytest

from mmprep.budget import PLANNED, SamplingPlan
from mmprep.jsonl import InputError
from mmprep.composer import (
    balance_report,
    pack,
    progressive_stages,
    stage_to_obj,
)


def mkplan(sid, tokens):
    return SamplingPlan(sample_id=sid, verdict=PLANNED, total_tokens=tokens)


def optimal_bin_count(sizes, capacity):
    """Exact minimum bin count by subset DP (for small instances only)."""
    n = len(sizes)
    full = (1 << n) - 1
    subset_sum = [0] * (1 << n)
    for mask in range(1, 1 << n):
        lsb = mask & -mask
        subset_sum[mask] = subset_sum[mask ^ lsb] + sizes[lsb.bit_length() - 1]
    best = [n + 1] * (1 << n)
    best[0] = 0
    for mask in range(1, 1 << n):
        lsb = mask & -mask
        rest = mask ^ lsb
        sub = rest
        while True:
            s = sub | lsb
            if subset_sum[s] <= capacity:
                c = best[mask ^ s] + 1
                if c < best[mask]:
                    best[mask] = c
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return best[full]


def test_worked_example_two_balanced_packs():
    plans = [mkplan(f"p{i}", t) for i, t in enumerate([30000, 20000, 12000, 2000])]
    packs = pack(plans, 32768)
    assert sorted(p.total_tokens for p in packs) == [32000, 32000]
    by_member = {tuple(sorted(p.member_ids)) for p in packs}
    assert by_member == {("p0", "p3"), ("p1", "p2")}


def test_single_item_single_pack():
    packs = pack([mkplan("only", 100)], 32768)
    assert len(packs) == 1
    assert packs[0].member_ids == ("only",)
    assert packs[0].total_tokens == 100


def test_oversized_item_rejected_by_id():
    with pytest.raises(InputError) as exc:
        pack([mkplan("big", 40000)], 32768)
    assert "big" in str(exc.value)
    assert (exc.value.line, exc.value.field) == (None, "total_tokens")


def test_discarded_plan_rejected():
    bad = SamplingPlan(sample_id="d", verdict="discarded", reason="insufficient_budget")
    with pytest.raises(ValueError):
        pack([bad], 32768)


def test_empty_input():
    assert pack([], 1024) == []


def test_partition_and_capacity_randomized():
    rng = random.Random(8811)
    for _ in range(100):
        n = rng.randint(1, 200)
        cap = 32768
        plans = [mkplan(f"s{i}", rng.randint(1, cap)) for i in range(n)]
        packs = pack(plans, cap)
        seen = [m for p in packs for m in p.member_ids]
        assert sorted(seen) == sorted(p.sample_id for p in plans)  # exactly once each
        assert all(p.total_tokens <= cap for p in packs)
        by_id = {p.sample_id: p.total_tokens for p in plans}
        for pk in packs:
            assert pk.total_tokens == sum(by_id[m] for m in pk.member_ids)


def test_deterministic_output():
    rng = random.Random(5)
    plans = [mkplan(f"s{i}", rng.randint(1, 10000)) for i in range(50)]
    assert pack(plans, 16384) == pack(list(reversed(plans)), 16384)


def test_small_instances_near_optimal():
    rng = random.Random(99021)
    worst_gap = 0
    for _ in range(400):
        n = rng.randint(1, 10)
        cap = 32768
        sizes = [rng.randint(1, cap) for _ in range(n)]
        packs = pack([mkplan(f"s{i}", t) for i, t in enumerate(sizes)], cap)
        opt = optimal_bin_count(sizes, cap)
        gap = len(packs) - opt
        worst_gap = max(worst_gap, gap)
        assert gap <= 1, (sizes, len(packs), opt)
    assert worst_gap >= 0


# --- balance report -------------------------------------------------------------


def test_balance_report_worked_example():
    plans = [mkplan(f"p{i}", t) for i, t in enumerate([30000, 20000, 12000, 2000])]
    packs = pack(plans, 32768)
    rep = balance_report(packs, 32768)
    assert rep.pack_count == 2
    assert rep.mean_utilization == pytest.approx(32000 / 32768)
    assert rep.max_utilization - rep.min_utilization == 0  # exact balance here


def test_balance_report_empty_flagged():
    rep = balance_report([], 32768)
    assert rep.pack_count == 0
    assert not rep.defined
    assert rep.mean_utilization is None


def test_balance_report_full_pack():
    from mmprep.composer import PackedSequence

    rep = balance_report([PackedSequence(0, ("a",), 1024)], 1024)
    assert rep.mean_utilization == 1.0
    assert rep.min_utilization == rep.max_utilization == 1.0


# --- progressive stages ----------------------------------------------------------


def test_five_stages():
    stages = progressive_stages()
    assert len(stages) == 5


def test_stage_fields_match_schedule():
    by_name = {s.name: s for s in progressive_stages()}
    assert by_name["Stage-1"].l_max == 4096
    assert by_name["Stage-1"].batch_size == 1024
    assert by_name["Stage-1"].learning_rate == 2e-4
    assert by_name["Stage-1"].trainable_scope == "connector"
    assert by_name["Stage-1.5"].l_max == 8192
    assert by_name["Stage-2"].l_max == 32768
    assert by_name["Stage-2"].batch_size == 256
    assert by_name["Stage-3"].l_max == 65536
    assert by_name["Stage-3"].batch_size == 128
    assert by_name["Stage-4"].l_max == 131072
    assert all(s.learning_rate == 2e-5 for n, s in by_name.items() if n != "Stage-1")
    assert all(s.trainable_scope == "full" for n, s in by_name.items() if n != "Stage-1")


def test_stage_lmax_nondecreasing_and_mix():
    stages = progressive_stages()
    lmaxes = [s.l_max for s in stages]
    assert lmaxes == sorted(lmaxes)
    for s in stages[2:]:
        assert s.mix_short_long == (1.0, 1.0)


def test_stage_serialization_keys():
    obj = stage_to_obj(progressive_stages()[0])
    assert set(obj) == {"name", "l_max", "batch_size", "learning_rate", "trainable_scope", "mix_short_long"}
