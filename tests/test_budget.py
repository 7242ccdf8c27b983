import json
import math
import pickle
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mmprep import cli
from mmprep.budget import (
    TILE_LADDER,
    BudgetConfig,
    SamplingPlan,
    _largest_remainder_split,
    dumps_plan,
    frame_timestamps,
    plan,
    read_plan,
    temporal_cap,
)
from mmprep.jsonl import InputError
from mmprep.manifest import Sample, parse_record
from mmprep.tiling import TileGrid, best_grids, grid_tokens, select_grid
from tests.conftest import (
    document_item, dumps_sample, image_item, make_sample, plan_record, random_sample, video_item,
)


def _is_text_overflow(p: SamplingPlan) -> bool:
    return (p.verdict, p.reason) == ("discarded", "text_overflow")


def test_budget_simple_subtraction():
    # 32768 - 768 = 32000 visual tokens: 125 pages of a 200-page document.
    p = plan(make_sample(docs=[200], text_tokens=768), BudgetConfig(l_max=32768))
    assert (p.l_text, p.temporal_counts, p.total_tokens) == (768, (125,), 32768)


def test_budget_zero_text():
    p = plan(make_sample(docs=[200], text_tokens=0), BudgetConfig(l_max=4096))
    assert (p.l_text, p.temporal_counts, p.total_tokens) == (0, (16,), 4096)


def test_budget_text_overflow():
    for text_tokens, l_max in ((40000, 32768), (4096, 4096)):
        p = plan(make_sample("t", docs=[3], text_tokens=text_tokens), BudgetConfig(l_max=l_max))
        assert p == SamplingPlan("t", "discarded", "text_overflow", None, (), (), (), text_tokens, None)
    assert plan(make_sample(text_tokens=4095), BudgetConfig(l_max=4096)).planned


@pytest.mark.parametrize("fps_target", [0.0, -1.0, float("nan"), float("inf")])
def test_budget_config_rejects_bad_fps_target(fps_target):
    with pytest.raises(ValueError):
        BudgetConfig(l_max=1024, fps_target=fps_target)


@pytest.mark.parametrize("kwargs, message", [
    (dict(l_max=0), "l_max must be positive"),
    (dict(l_max=-1, min_frames=0), "l_max must be positive"),
    (dict(l_max=1024, min_frames=0), "min_frames must be positive and fps_target positive and finite"),
    (dict(l_max=1024, min_frames=1, fps_target=0.0), "min_frames must be positive and fps_target positive and finite"),
])
def test_budget_config_messages(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BudgetConfig(**kwargs)


def test_budget_config_defaults_immutable_and_hashable():
    cfg = BudgetConfig(l_max=1024)
    assert (cfg.l_max, cfg.min_frames, cfg.fps_target) == (1024, 8, 2.0)
    assert cfg == BudgetConfig(1024, 8, 2.0) and hash(cfg) == hash(BudgetConfig(1024, min_frames=8))
    assert repr(cfg) == "BudgetConfig(l_max=1024, min_frames=8, fps_target=2.0)"
    with pytest.raises(AttributeError):
        cfg.l_max = 2048
    assert cfg._replace(min_frames=2) == BudgetConfig(1024, 2)
    with pytest.raises(ValueError, match="^l_max must be positive$"):
        cfg._replace(l_max=0)


def test_temporal_cap_video_2fps():
    cfg = BudgetConfig(l_max=1024)
    assert temporal_cap(video_item(100.0), cfg) == 200
    assert temporal_cap(video_item(0.4), cfg) == 1
    # 5e-324 * 0.5 underflows to 0 frames; a video still takes one.
    assert temporal_cap(video_item(0.5), BudgetConfig(l_max=768, fps_target=5e-324)) == 1


def test_temporal_cap_document_pages():
    assert temporal_cap(document_item(10), BudgetConfig(l_max=1024)) == 10


def test_temporal_cap_rejects_images():
    with pytest.raises(ValueError):
        temporal_cap(image_item(8, 8), BudgetConfig(l_max=1024))


# --- the four worked plans ----------------------------------------------------


def test_plan_video_fills_budget_exactly():
    p = plan(make_sample("v", videos=[100.0], text_tokens=768), BudgetConfig(l_max=32768))
    assert p.planned
    assert p.temporal_counts == (125,)
    assert p.total_tokens == 32768
    assert len(p.frame_timestamps[0]) == 125


def test_plan_document_caps_at_pages():
    p = plan(make_sample("d", docs=[10], text_tokens=1000), BudgetConfig(l_max=8192))
    assert p.planned
    assert p.temporal_counts == (10,)
    assert p.total_tokens == 1000 + 2560


def test_plan_three_images_full_ladder():
    p = plan(make_sample("i", images=[(896, 448)] * 3, text_tokens=1000), BudgetConfig(l_max=4096))
    assert p.planned
    assert p.tile_cap == 12
    assert p.total_tokens == 3304
    assert all(g is not None and (g.cols, g.rows) == (2, 1) for g in p.image_grids)


def test_plan_discards_when_video_below_min_frames():
    p = plan(make_sample("x", videos=[50.0], text_tokens=1500), BudgetConfig(l_max=2048))
    assert p.verdict == "discarded"
    assert p.reason == "insufficient_budget"


# --- additional plan behavior --------------------------------------------------


def test_plan_text_only_sample():
    p = plan(make_sample("t", text_tokens=123), BudgetConfig(l_max=1024))
    assert p.planned
    assert p.total_tokens == 123
    assert p.temporal_counts == ()


def test_plan_short_video_cannot_reach_min_frames():
    # 2 s video: temporal cap 4 < min_frames 8, infeasible regardless of budget
    p = plan(make_sample("sv", videos=[2.0], text_tokens=0), BudgetConfig(l_max=32768))
    assert p.verdict == "discarded"


def test_plan_images_marginal_budget_degrades_to_single_tile():
    # Two images, visual budget 512: only t=1 fits (2*256)
    p = plan(make_sample("m", images=[(896, 448)] * 2, text_tokens=512), BudgetConfig(l_max=1024))
    assert p.planned
    assert p.tile_cap == 1
    assert p.total_tokens == 512 + 512


def test_plan_image_and_video_mix_charges_images_first():
    # l_visual = 8192 - 192 = 8000; one image at t=1 costs 256,
    # frames allowance = (8000-256)//256 = 30; video cap = 2*600 = 1200 -> 30 frames.
    p = plan(make_sample("mix", images=[(4000, 3000)], videos=[600.0], text_tokens=192), BudgetConfig(l_max=8192))
    assert p.planned
    assert p.temporal_counts == (0, 30)
    # residual = 8000 - 30*256 = 320: a 4000x3000 image needs >= 768 tokens at
    # any cap above 1, so the tiling phase degrades it to a single tile.
    assert p.tile_cap == 1
    assert p.total_tokens == 192 + 256 + 30 * 256


def test_plan_two_videos_proportional_split():
    # caps: 2*300=600 and 2*100=200; allowance floor((4096-0)/256)=16
    # -> quotas 12 and 4, both above min_frames=4 with a lenient config
    cfg = BudgetConfig(l_max=4096, min_frames=4)
    p = plan(make_sample("vv", videos=[300.0, 100.0], text_tokens=0), cfg)
    assert p.planned
    assert p.temporal_counts == (12, 4)


def test_plan_two_videos_one_starved_discards():
    # Proportional split leaves the short video under min_frames -> discard.
    cfg = BudgetConfig(l_max=4096, min_frames=8)
    p = plan(make_sample("vv", videos=[300.0, 40.0], text_tokens=0), cfg)
    # caps 600 and 80 -> quotas 14.1 and 1.88 -> short video < 8
    assert p.verdict == "discarded"


def test_plan_insufficient_for_any_visual():
    p = plan(make_sample("i1", images=[(448, 448)], text_tokens=1000), BudgetConfig(l_max=1100))
    assert p.verdict == "discarded"
    assert p.reason == "insufficient_budget"


@pytest.mark.parametrize("images, text_tokens", [((), 0), ([(800, 600)] * 5, 0), ((), 2000)],
                         ids=["alone", "image_starved", "text_overflow"])
def test_plan_rejects_an_overflowing_video_before_any_discard(images, text_tokens):
    # At l_max 1024, five images cannot each get a tile and 2000 text tokens overflow;
    # a video whose frame count overflows is rejected all the same.
    sample = make_sample("huge", images=images, videos=[1e308], text_tokens=text_tokens)
    with pytest.raises(InputError, match="sample 'huge': video too long to plan at fps_target=2.0") as err:
        plan(sample, BudgetConfig(l_max=1024))
    assert err.value.field == "duration_s"


def _sort_all_split(total: int, caps: list[int]) -> list[int]:
    """_largest_remainder_split as it was before it sorted only leftover units: every index, every call."""
    cap_sum = sum(caps)
    if cap_sum == 0 or total == 0:
        return [0] * len(caps)
    base = [total * c // cap_sum for c in caps]
    remainders = sorted((-(total * c % cap_sum), i) for i, c in enumerate(caps))
    for _, i in remainders[:total - sum(base)]:
        base[i] += 1
    return base


@settings(max_examples=400, deadline=None)
@given(caps=st.lists(st.integers(0, 10**6) | st.integers(0, 3), min_size=1, max_size=8), data=st.data())
@example(caps=[0, 0], data=None)
@example(caps=[1, 1, 1], data=None)
def test_largest_remainder_split_matches_exact_shares(caps, data):
    cap_sum = sum(caps)
    total = cap_sum if data is None else data.draw(st.integers(0, cap_sum))
    parts = _largest_remainder_split(total, caps)
    assert parts == _sort_all_split(total, caps)
    assert sum(parts) == total
    assert all(0 <= n <= c for n, c in zip(parts, caps))
    if total == 0:
        return
    shares = [Fraction(total * c, cap_sum) for c in caps]
    assert all(n - math.floor(x) in (0, 1) for n, x in zip(parts, shares))
    # The units left over go to the largest fractional remainders, ties to the lower index.
    by_remainder = sorted(range(len(caps)), key=lambda i: (-(shares[i] - math.floor(shares[i])), i))
    raised = {i for i, (n, x) in enumerate(zip(parts, shares)) if n > math.floor(x)}
    assert raised == set(by_remainder[:len(raised)])


def test_plan_deterministic_serialization():
    cfg = BudgetConfig(l_max=32768)
    s = make_sample("v", videos=[100.0], text_tokens=768)
    assert dumps_plan(plan(s, cfg)) == dumps_plan(plan(s, cfg))


def test_plan_json_round_trip():
    cfg = BudgetConfig(l_max=32768)
    for sample in (
        make_sample("v", videos=[100.0], docs=[5], text_tokens=768),
        make_sample("i", images=[(4000, 3000), (896, 448)], videos=[30.0], text_tokens=300),
        make_sample("x", videos=[50.0], text_tokens=31000),  # discarded
    ):
        p = plan(sample, cfg)
        assert read_plan(dumps_plan(p), 1) == p


# --- records and the plan-record writer --------------------------------------------


def test_records_are_immutable_hashable_and_round_trip():
    cfg = BudgetConfig(l_max=32768)
    sample = make_sample("r", images=[(896, 448)], videos=[10.0], docs=[3], text_tokens=5)
    p = plan(sample, cfg)
    for record in (sample, *sample.items, p):
        with pytest.raises(AttributeError):
            setattr(record, type(record)._fields[0], "changed")
        with pytest.raises(AttributeError):
            record.extra = 1
        assert hash(record) == hash(type(record)(*record))
        assert pickle.loads(pickle.dumps(record)) == record
        assert type(record)(**record._asdict()) == record
    assert parse_record(dumps_sample(sample), 1) == sample
    assert read_plan(dumps_plan(p), 1) == p
    assert len({sample, parse_record(dumps_sample(sample), 1)}) == 1


def _plan_dict(p: SamplingPlan) -> dict:
    """The record dict dumps_plan writes, built independently of it."""
    d = {"id": p.sample_id, "verdict": p.verdict}
    if p.reason is not None:
        d["reason"] = p.reason
    d["tile_cap"] = p.tile_cap
    d["n_per_item"] = list(p.temporal_counts)
    d["grids"] = [None if g is None else [g.cols, g.rows] for g in p.image_grids]
    d["timestamps"] = [list(ts) for ts in p.frame_timestamps]
    d["l_text"] = p.l_text
    d["total_tokens"] = p.total_tokens
    return d


_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x85\u2028\u00e9\u6f22\U0001f600'),
                          st.characters()), max_size=12)
_ints = st.integers(-(2**70), 2**70)
_stamps = st.one_of(
    st.just(()),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6).map(tuple),
    st.lists(st.floats(0, 7200), min_size=200, max_size=400).map(tuple),
)
_plans = st.builds(
    SamplingPlan,
    sample_id=_text,
    verdict=st.one_of(st.sampled_from(["planned", "discarded"]), _text),
    reason=st.none() | _text,
    tile_cap=st.none() | _ints,
    image_grids=st.lists(st.none() | st.builds(TileGrid, st.integers(1, 12), st.integers(1, 12)),
                         max_size=5).map(tuple),
    temporal_counts=st.lists(_ints, max_size=5).map(tuple),
    frame_timestamps=st.lists(_stamps, max_size=4).map(tuple),
    l_text=_ints,
    total_tokens=st.none() | _ints,
)


def _rejected_field(p: SamplingPlan) -> str | None:
    """The field read_plan names for p's record, or None when it reads p back."""
    if p.sample_id == "":
        return "id"
    if p.verdict not in ("planned", "discarded"):
        return "verdict"
    if p.l_text < 0:
        return "l_text"
    if any(n < 0 for n in p.temporal_counts):
        return "n_per_item"
    if (p.total_tokens is None and p.planned) or (p.total_tokens is not None and p.total_tokens < 0):
        return "total_tokens"
    return None


@settings(max_examples=300, deadline=None)
@given(p=_plans)
def test_dumps_plan_writes_what_json_dumps_writes(p):
    line = dumps_plan(p)
    assert line == json.dumps(_plan_dict(p), ensure_ascii=False)
    field = _rejected_field(p)
    if field is None:
        assert read_plan(line, 1) == p
    else:
        with pytest.raises(InputError) as err:
            read_plan(line, 1)
        assert (err.value.line, err.value.field) == (1, field)


@pytest.mark.parametrize("stamps, ok", [
    ([[]], True),
    ([[1, 2.5]], True),
    ([[1e308, 1.7e308]], True),  # finite values whose sum leaves float range
    ([[1e308, 1.7e308, float("nan")]], False),
    ([[float("inf"), float("-inf")]], False),
    ([[10**400]], False),
    ([["1"]], False),
    ([[[1.0]]], False),
    ([[None]], False),
    ([[True]], False),
    ([5], False),
    ({}, False),
], ids=["empty", "numbers", "large_sum", "nan_after_large_sum", "infs", "huge_int", "string", "nested",
        "null", "bool", "not_lists", "not_a_list"])
def test_read_plan_timestamps_are_lists_of_finite_numbers(stamps, ok):
    line = json.dumps(plan_record(id="t", timestamps=stamps))
    if ok:
        assert read_plan(line, 1).frame_timestamps == tuple(map(tuple, stamps))
    else:
        with pytest.raises(InputError) as err:
            read_plan(line, 1)
        assert (err.value.line, err.value.field) == (1, "timestamps")


# --- timestamps ----------------------------------------------------------------


def test_timestamps_single_frame_midpoint():
    assert frame_timestamps(10, 1) == (5.0,)


def test_timestamps_2fps_spacing():
    ts = frame_timestamps(10, 20)
    assert ts[0] == pytest.approx(0.25)
    assert ts[-1] == pytest.approx(9.75)
    assert all(b - a == pytest.approx(0.5) for a, b in zip(ts, ts[1:]))


def test_timestamps_quarters():
    assert frame_timestamps(10, 4) == pytest.approx((1.25, 3.75, 6.25, 8.75))


def test_timestamps_strictly_increasing_within_range():
    rng = random.Random(5)
    for _ in range(200):
        dur = rng.uniform(0.01, 7200)
        n = rng.randint(1, 400)
        ts = frame_timestamps(dur, n)
        assert len(ts) == n
        assert all(0 <= t < dur for t in ts)
        assert all(b > a for a, b in zip(ts, ts[1:]))


# --- randomized property suite --------------------------------------------------


def _check_plan_properties(sample, cfg, p: SamplingPlan):
    if not p.planned:
        return
    assert p.total_tokens <= cfg.l_max  # budget safety
    assert p.l_text == sample.text_tokens  # text primacy

    l_visual = cfg.l_max - sample.text_tokens
    n_total = sum(p.temporal_counts)
    image_cost = sum(grid_tokens(g) for g in p.image_grids if g is not None)
    assert p.total_tokens == sample.text_tokens + 256 * n_total + image_cost

    # temporal caps respected
    for item, n in zip(sample.items, p.temporal_counts):
        if item.kind == "video":
            assert n <= temporal_cap(item, cfg)
            assert n >= cfg.min_frames
        elif item.kind == "document":
            assert n <= item.pages

    # n* maximality for single-temporal-item samples
    temporal_items = [it for it in sample.items if it.kind != "image"]
    m = sum(1 for it in sample.items if it.kind == "image")
    if len(temporal_items) == 1:
        cap = temporal_cap(temporal_items[0], cfg)
        if n_total < cap:
            assert 256 * (n_total + 1) + 256 * m > l_visual

    # t* maximality against the next ladder rung
    if p.image_grids and any(g is not None for g in p.image_grids):
        idx = TILE_LADDER.index(p.tile_cap)
        if idx > 0:
            bigger = TILE_LADDER[idx - 1]
            cost_bigger = sum(
                grid_tokens(select_grid(it.dims, bigger)) for it in sample.items if it.kind == "image"
            )
            assert cost_bigger > l_visual - 256 * n_total


def test_randomized_plan_properties():
    rng = random.Random(424242)
    cfg_pool = [BudgetConfig(l_max=m) for m in (2048, 4096, 8192, 32768)]
    for i in range(1500):
        cfg = rng.choice(cfg_pool)
        sample = random_sample(rng, f"r{i}", cfg.l_max)
        p = plan(sample, cfg)
        assert _is_text_overflow(p) == (sample.text_tokens >= cfg.l_max)
        _check_plan_properties(sample, cfg, p)


def test_monotone_in_l_max():
    rng = random.Random(31337)
    for i in range(300):
        sample = random_sample(rng, f"m{i}", 4096)
        prev_n = prev_t = -1
        for l_max in (8192, 16384, 32768, 65536):
            cfg = BudgetConfig(l_max=l_max)
            p = plan(sample, cfg)
            assert _is_text_overflow(p) == (sample.text_tokens >= l_max)
            if not p.planned:
                prev_n = prev_t = -1
                continue
            n = sum(p.temporal_counts)
            if prev_n >= 0:
                assert n >= prev_n
                assert p.tile_cap >= prev_t
            prev_n, prev_t = n, p.tile_cap


# --- hypothesis: any valid config, emitted records only ----------------------------


_configs = st.builds(
    BudgetConfig,
    l_max=st.integers(1, 70000),
    min_frames=st.integers(1, 64),
    fps_target=st.floats(min_value=0, max_value=1e300, exclude_min=True, allow_nan=False),
)
_items = st.lists(
    st.one_of(
        st.builds(image_item, st.integers(1, 8192), st.integers(1, 8192)),
        st.builds(video_item, st.floats(0.1, 7200.0)),
        st.builds(document_item, st.integers(1, 100)),
    ),
    max_size=5,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_configs, items=_items, text_share=st.floats(0.0, 1.2))
@example(cfg=BudgetConfig(l_max=768, min_frames=1, fps_target=5e-324),
         items=[video_item(0.5), document_item(4)], text_share=0.0)
def test_emitted_plan_records_recompute(cfg, items, text_share):
    sample = Sample(id="h", items=tuple(items), text_tokens=int(text_share * cfg.l_max))
    try:
        p = plan(sample, cfg)
    except InputError:
        assert any(it.kind == "video" and cfg.fps_target * it.duration_s == float("inf") for it in items)
        assert sample.text_tokens < cfg.l_max  # text overflow is decided first, as a verdict
        return
    assert _is_text_overflow(p) == (sample.text_tokens >= cfg.l_max)
    line = dumps_plan(p)
    assert read_plan(line, 1) == p
    rec = json.loads(line)
    if p.planned:
        grids = rec["grids"]
        assert len(grids) == len(rec["n_per_item"]) == len(items)
        image_cost = 0
        for item, g, n in zip(items, grids, rec["n_per_item"]):
            if item.kind != "image":
                assert g is None and n >= 1  # no temporal item is planned at 0 units
                continue
            assert n == 0 and g[0] * g[1] <= rec["tile_cap"]
            expected = best_grids(item.dims)[rec["tile_cap"] - 1]
            assert g == [expected.cols, expected.rows]
            image_cost += grid_tokens(expected)
        cost = rec["l_text"] + 256 * sum(rec["n_per_item"]) + image_cost
        assert rec["l_text"] == sample.text_tokens
        assert cost == rec["total_tokens"] <= cfg.l_max
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plans.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        code = cli.main(["validate", "--kind", "plans", "--l-max", str(cfg.l_max), "-i", str(path),
                         "-o", str(Path(tmp) / "errors.jsonl")])
        assert code == 0
        assert (Path(tmp) / "errors.jsonl").read_text() == ""


def test_readme_library_example_returns_text_overflow_as_a_verdict(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    samples = [make_sample("a", docs=[3], text_tokens=100), make_sample("b", text_tokens=40000)]
    (tmp_path / "manifest.jsonl").write_text("".join(dumps_sample(s) + "\n" for s in samples), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(example, scope)
    assert [(p.sample_id, p.verdict, p.reason) for p in scope["plans"]] == [
        ("a", "planned", None), ("b", "discarded", "text_overflow")]
    assert scope["packs"] == [(["a"], scope["plans"][0].total_tokens)]
