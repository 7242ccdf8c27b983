import json
import random

import pytest

from mmprep import cli
from mmprep.composer import pack, progressive_stages
from mmprep.jsonl import InputError
from tests.conftest import plan_record


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
    packs = pack([(f"p{i}", t) for i, t in enumerate([30000, 20000, 12000, 2000])], 32768)
    assert packs == [(["p0", "p3"], 32000), (["p1", "p2"], 32000)]


def test_single_item_single_pack():
    assert pack([("only", 100)], 32768) == [(["only"], 100)]


def test_oversized_item_rejected_by_id():
    with pytest.raises(InputError) as exc:
        pack([("small", 10), ("big", 40000)], 32768)
    assert str(exc.value) == "plan 'big' has 40000 tokens, exceeding pack capacity 32768"
    assert (exc.value.line, exc.value.field) == (None, "total_tokens")


def test_item_of_exactly_l_max_fills_one_pack():
    assert pack([("a", 1), ("full", 1024), ("b", 1023)], 1024) == [(["full"], 1024), (["b", "a"], 1024)]


def test_empty_input():
    assert pack([], 1024) == []


def test_partition_and_capacity_randomized():
    rng = random.Random(8811)
    for _ in range(100):
        n = rng.randint(1, 200)
        cap = 32768
        sizes = [(f"s{i}", rng.randint(1, cap)) for i in range(n)]
        packs = pack(sizes, cap)
        seen = [m for ids, _ in packs for m in ids]
        assert sorted(seen) == sorted(sid for sid, _ in sizes)  # exactly once each
        by_id = dict(sizes)
        for ids, total in packs:
            assert total == sum(by_id[m] for m in ids) <= cap


def test_deterministic_output():
    rng = random.Random(5)
    sizes = [(f"s{i}", rng.randint(1, 10000)) for i in range(50)]
    assert pack(sizes, 16384) == pack(list(reversed(sizes)), 16384)


def test_small_instances_near_optimal():
    rng = random.Random(99021)
    worst_gap = 0
    for _ in range(400):
        n = rng.randint(1, 10)
        cap = 32768
        sizes = [rng.randint(1, cap) for _ in range(n)]
        packs = pack([(f"s{i}", t) for i, t in enumerate(sizes)], cap)
        opt = optimal_bin_count(sizes, cap)
        gap = len(packs) - opt
        worst_gap = max(worst_gap, gap)
        assert gap <= 1, (sizes, len(packs), opt)
    assert worst_gap >= 0


# --- pack's utilization line ----------------------------------------------------


def _pack_summary(capsys, tmp_path, records, l_max):
    """The stderr line pack ends with, for a plan file of these records."""
    plans = tmp_path / "plans.jsonl"
    plans.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    code = cli.main(["pack", "--l-max", str(l_max), "-i", str(plans), "-o", str(tmp_path / "packs.jsonl")])
    assert code == 0
    return capsys.readouterr().err.splitlines()[-1]


def _planned(sid, tokens):
    return plan_record(id=sid, total_tokens=tokens)


_DISCARD = plan_record(id="d", verdict="discarded", reason="text_overflow", tile_cap=None, l_text=40000,
                       total_tokens=None)


def test_pack_summary_worked_example(capsys, tmp_path):
    records = [_planned(f"p{i}", t) for i, t in enumerate([30000, 20000, 12000, 2000])] + [_DISCARD]
    assert _pack_summary(capsys, tmp_path, records, 32768) == (
        "2 packs from 4 plans (1 discarded skipped), utilization mean=0.9766 min=0.9766 max=0.9766")


def test_pack_summary_full_pack(capsys, tmp_path):
    assert _pack_summary(capsys, tmp_path, [_planned("a", 1024)], 1024) == (
        "1 packs from 1 plans (0 discarded skipped), utilization mean=1.0000 min=1.0000 max=1.0000")


def test_pack_summary_empty_plan_file(capsys, tmp_path):
    assert _pack_summary(capsys, tmp_path, [], 32768) == "no packs produced"
    assert (tmp_path / "packs.jsonl").read_text() == ""


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


def test_stage_serialization_keys(capsys):
    assert cli.main(["stages"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [list(obj) for obj in doc] == [
        ["name", "l_max", "batch_size", "learning_rate", "trainable_scope", "mix_short_long"]] * 5
    assert [obj["mix_short_long"] for obj in doc] == [[1.0, 0.0]] * 2 + [[1.0, 1.0]] * 3
