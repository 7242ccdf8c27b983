import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmprep import budget, cli, composer, curator, kernels, tiling
from mmprep.annotator import pipeline as annotator_pipeline
from mmprep.annotator.pipeline import LlmResponse
from mmprep.curator import write_feature_file
from mmprep.jsonl import InputError
from mmprep.manifest import ImageDims
from tests.conftest import MockLlm, StageReply, dumps_sample, make_sample, plan_record, split_into


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_manifest(path, samples):
    path.write_text("\n".join(dumps_sample(s) for s in samples) + "\n", encoding="utf-8")


@pytest.fixture
def small_manifest(tmp_path):
    path = tmp_path / "manifest.jsonl"
    samples = [
        make_sample("a", videos=[100.0], text_tokens=768),
        make_sample("b", images=[(896, 448)] * 3, text_tokens=1000),
        make_sample("c", docs=[10], text_tokens=1000),
        make_sample("overflow", text_tokens=99999),
    ]
    write_manifest(path, samples)
    return path


def test_stages_document(capsys):
    code, out, _ = run_cli(capsys, ["stages"])
    assert code == 0
    doc = json.loads(out)
    assert [s["l_max"] for s in doc] == [4096, 8192, 32768, 65536, 131072]
    assert [s["batch_size"] for s in doc] == [1024, 1024, 256, 128, 128]
    assert [s["learning_rate"] for s in doc] == [2e-4] + [2e-5] * 4


def test_plan_emits_one_line_per_sample(capsys, small_manifest):
    code, out, err = run_cli(capsys, ["plan", "--l-max", "32768", "-i", str(small_manifest)])
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert [l["id"] for l in lines] == ["a", "b", "c", "overflow"]
    assert lines[0]["total_tokens"] == 32768
    assert lines[3]["verdict"] == "discarded"
    assert lines[3]["reason"] == "text_overflow"
    assert "config" in err  # effective config echoed to stderr


def test_plan_gives_every_temporal_item_a_unit(capsys, tmp_path):
    # 10 units of budget for a 1000 s video and a 1-page document: a split in
    # proportion to the caps alone gave [10, 0], planning the document at 0 pages.
    path = tmp_path / "m.jsonl"
    write_manifest(path, [make_sample("vd", videos=[1000.0], docs=[1]),
                          make_sample("short", videos=[1000.0], docs=[1, 1], text_tokens=2561 - 2 * 256)])
    code, out, _ = run_cli(capsys, ["plan", "--l-max", "2561", "--min-frames", "1", "-i", str(path)])
    assert code == 0
    planned, short = map(json.loads, out.splitlines())
    assert planned["verdict"] == "planned" and planned["n_per_item"] == [9, 1]
    assert planned["total_tokens"] == 10 * 256
    assert (short["verdict"], short["reason"]) == ("discarded", "insufficient_budget")


def test_plan_underflowing_frame_count_exit_0(capsys, tmp_path):
    # 5e-324 fps of a 0.5 s video underflows to 0 frames; the video still gets one.
    path = tmp_path / "m.jsonl"
    write_manifest(path, [make_sample("u", videos=[0.5], docs=[4])])
    code, out, err = run_cli(capsys, ["plan", "--fps-target", "5e-324", "--min-frames", "1",
                                      "--l-max", "768", "-i", str(path)])
    assert code == 0, err
    rec = json.loads(out)
    assert (rec["verdict"], rec["n_per_item"], rec["total_tokens"]) == ("planned", [1, 2], 768)


def test_plan_split_over_cpus_preserves_order(capsys, monkeypatch, small_manifest):
    split_into(monkeypatch, 1)
    _, serial, _ = run_cli(capsys, ["plan", "-i", str(small_manifest)])
    split_into(monkeypatch, 3)
    code, parallel, _ = run_cli(capsys, ["plan", "-i", str(small_manifest)])
    assert code == 0
    assert parallel == serial
    # --jobs is accepted and ignored: the benchmark's plan_jobs2 run passes it.
    code, jobs2, _ = run_cli(capsys, ["plan", "-i", str(small_manifest), "--jobs", "2"])
    assert (code, jobs2) == (0, serial)


@pytest.mark.parametrize("option", ["--l-max", "--min-frames", "--fps-target"])
def test_plan_config_out_of_range_exit_1(capsys, small_manifest, option):
    for value in ("0", "nan", "inf", "-inf"):
        code, out, err = run_cli(capsys, ["plan", option, value, "-i", str(small_manifest)])
        assert code == 1, value
        assert option in err
        assert "Traceback" not in err
        assert out == ""


def test_plan_validation_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x", "items": [{"kind": "video", "duration_s": -3, "uri": ""}], '
                   '"text_tokens": 0, "tags": []}\n')
    code, out, err = run_cli(capsys, ["plan", "-i", str(bad)])
    assert code == 1
    assert "invalid duration at line 1" in err
    assert out == ""


NON_FINITE_DURATIONS = ["Infinity", "1" + "0" * 400]


def _video_record(duration: str) -> str:
    return ('{"id": "x", "items": [{"kind": "video", "duration_s": ' + duration + ', "uri": ""}], '
            '"text_tokens": 0, "tags": []}\n')


@pytest.mark.parametrize("duration", NON_FINITE_DURATIONS)
def test_plan_non_finite_duration_exit_1(capsys, tmp_path, duration):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_video_record(duration))
    code, out, err = run_cli(capsys, ["plan", "-i", str(bad)])
    assert code == 1
    assert "invalid duration at line 1" in err
    assert out == ""


_IMAGE = '{"kind": "image", "width": 800, "height": 600, "uri": ""}, '


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("images", [0, 5], ids=["alone", "image_starved"])
def test_plan_huge_finite_duration_exit_1(capsys, tmp_path, jobs, images):
    # 1e308 s is finite, but 2 fps of it is not. At l_max 1024 five images cannot
    # each get a tile, and the sample still exits 1 rather than being discarded.
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_video_record("1e308").replace('"x"', '"huge-video"').replace('[{', "[" + _IMAGE * images + "{"))
    code, out, err = run_cli(capsys, ["plan", "--jobs", jobs, "--l-max", "1024", "-i", str(bad)])
    assert code == 1
    assert "'huge-video'" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("duration", NON_FINITE_DURATIONS)
def test_validate_manifest_non_finite_duration(capsys, tmp_path, duration):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_video_record(duration))
    code, out, _ = run_cli(capsys, ["validate", "--kind", "manifest", "-i", str(bad)])
    assert code == 1
    errors = [json.loads(l) for l in out.splitlines()]
    assert [e["field"] for e in errors] == ["duration_s"]


@pytest.mark.parametrize("argv", [["plan"], ["tile"], ["validate", "--kind", "manifest"]],
                         ids=["plan", "tile", "validate-manifest"])
def test_manifest_line_without_items_exit_1(capsys, tmp_path, argv):
    # A line that lost its items key is an error, not a text-only sample.
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "items": [], "text_tokens": 5}\n{"id": "b", "text_tokens": 5, "tags": []}\n')
    code, out, err = run_cli(capsys, [*argv, "-i", str(bad)])
    assert code == 1
    if argv[0] == "validate":
        assert [json.loads(l) for l in out.splitlines()] == [
            {"line": 2, "field": "items", "error": "invalid items at line 2"}]
    else:
        assert "Error: invalid items at line 2" in err


def test_missing_input_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["plan", "-i", str(tmp_path / "nope.jsonl")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["plan"], ["pack"], ["tile"], ["validate", "--kind", "manifest"], ["validate", "--kind", "plans"],
    ["annotate", "--endpoint", "http://127.0.0.1:9/generate"],
], ids=["plan", "pack", "tile", "validate-manifest", "validate-plans", "annotate"])
def test_non_utf8_input_exit_1(capsys, tmp_path, argv):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'\xff\xfe{"id": "x"}\n')
    code, _, err = run_cli(capsys, [*argv, "-i", str(bad), "-o", str(tmp_path / "out.jsonl")])
    assert code == 1
    assert f"input {bad} is not UTF-8" in err
    assert "Traceback" not in err


_GOOD_SAMPLE = dumps_sample(make_sample("ok"))
_GOOD_PLAN = json.dumps(plan_record(id="ok"))
_GOOD_JOB = '{"video_id": "ok", "clips": [{"start": 0, "end": 10}]}'
# Every command that reads a JSON-lines file: (argv, the record kind it names, a good line of that kind).
_LINE_READERS = {
    "plan": (["plan"], "manifest", _GOOD_SAMPLE),
    "tile": (["tile"], "manifest", _GOOD_SAMPLE),
    "validate-manifest": (["validate", "--kind", "manifest"], "manifest", _GOOD_SAMPLE),
    "pack": (["pack"], "plan", _GOOD_PLAN),
    "validate-plans": (["validate", "--kind", "plans"], "plan", _GOOD_PLAN),
    "annotate": (["annotate", "--endpoint", "http://127.0.0.1:9/generate"], "job", _GOOD_JOB),
}
# Every kind of bad line: (file text, with {good} for a good line, the bad line's number, the reason).
# json.loads raises RecursionError, not JSONDecodeError, on a line nested this deep.
_BAD_LINES = {
    "not-json": ("not json\n", 1, "Expecting value"),
    "nested": ("[" * 100_000 + "\n", 1, "nested too deeply"),
    "not-object": ('["x"]\n', 1, "not an object"),
    "after-blank": ("{good}\n\n  \n5\n", 4, "not an object"),
    # json.loads raises a plain ValueError for an integer longer than int() converts.
    "long-int": ('{"n": ' + "9" * 5000 + "}\n", 1, f"integer of more than {sys.get_int_max_str_digits()} digits"),
    # plan and annotate write ids as UTF-8, which cannot hold a lone surrogate; every reader rejects one.
    "lone-surrogate": ('{"id": "a\\ud800b", "video_id": "v\\ud800"}\n', 1, "unpaired surrogate escape"),
    # Only JSON's blank space is stripped from a line's ends, so what json.loads refuses the readers refuse.
    "no-break-space": ("{good}\n{good}\u00a0\n", 2, "Extra data"),
    "line-separator": ("{good}\u2028\n", 1, "Extra data"),
    "form-feed": ("\f\n", 1, "Expecting value"),
}


@pytest.mark.parametrize("argv, text, expected", [
    *[([*argv, "-i", "{path}"], text.replace("{good}", good),
       [f"malformed {kind} record ({reason}) at line {n}"] + (
           [f'"line": {n}, "field": "record"'] if argv[0] == "validate" else []))
      for argv, kind, good in _LINE_READERS.values() for text, n, reason in _BAD_LINES.values()],
    # curate reads a feature file's header line, not a JSON-lines file, and names the file.
    (["curate", "--reference", "{dir}", "--candidates", "{dir}"], "[" * 100_000 + "\n",
     ["{path}: malformed feature header"]),
    (["curate", "--reference", "{dir}", "--candidates", "{dir}"],
     '{"video_id": "v", "dim": 4, "count": ' + "9" * 5000 + "}\n", ["{path}: malformed feature header"]),
], ids=[*[f"{r}-{b}" for r in _LINE_READERS for b in _BAD_LINES], "curate-nested", "curate-long-int"])
def test_deeply_nested_json_line_exit_1(capsys, tmp_path, argv, text, expected):
    (tmp_path / "in").mkdir()
    path = tmp_path / "in" / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    fill = {"path": str(path), "dir": str(path.parent)}
    argv = [a.format(**fill) for a in argv]
    out_path = tmp_path / "out.jsonl"
    code, _, err = run_cli(capsys, [*argv, "-o", str(out_path)])
    assert code == 1
    shown = err + (out_path.read_text(encoding="utf-8") if out_path.exists() else "")
    for words in expected:
        assert words.format(**fill) in shown
    assert "Traceback" not in err


def test_unknown_subcommand_usage_exit_1(capsys):
    code, _, err = run_cli(capsys, ["frobnicate"])
    assert code == 1
    assert "Usage" in err or "usage" in err


_IN, _OUT = ["--input", "-i"], ["--output", "-o"]


@pytest.mark.parametrize("argv, options", [
    ([], ["--config", "--help", "plan", "pack", "stages", "tile", "curate", "annotate", "validate"]),
    (["plan"], [*_IN, *_OUT, "--l-max", "--min-frames", "--fps-target", "--jobs", "--help"]),
    (["pack"], [*_IN, *_OUT, "--l-max", "--help"]),
    (["stages"], [*_OUT, "--help"]),
    (["tile"], [*_IN, *_OUT, "--tile-cap", "--help"]),
    (["curate"], [*_OUT, "--reference", "--candidates", "--tau", "--pool", "--jobs", "--help"]),
    (["annotate"], [*_IN, *_OUT, "--endpoint", "--model", "--temperature", "--max-in-flight",
                    "--retry-budget", "--rpm", "--seed", "--help"]),
    (["validate"], [*_IN, *_OUT, "--kind", "--l-max", "--help"]),
], ids=["top", "plan", "pack", "stages", "tile", "curate", "annotate", "validate"])
def test_help_lists_every_option(capsys, argv, options):
    code, out, _ = run_cli(capsys, [*argv, "--help"])
    assert code == 0
    for option in options:
        assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", out), option


@pytest.mark.parametrize("argv, named", [
    (["plan", "--bogus", "-i", "{file}"], "--bogus"),
    (["plan", "--l", "5", "-i", "{file}"], "--l"),
    (["curate", "--reference", "{file}", "--candidates", "{dir}"], "--reference"),
    (["curate", "--candidates", "{dir}"], "--reference"),
    (["annotate", "-i", "{file}"], "--endpoint"),
], ids=["unknown-option", "abbreviated-option", "reference-is-a-file", "missing-reference", "missing-endpoint"])
def test_usage_error_exit_1_with_usage_line(capsys, tmp_path, argv, named):
    path = tmp_path / "in.jsonl"
    path.write_text(_GOOD_SAMPLE + "\n", encoding="utf-8")
    argv = [a.format(file=path, dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert named in err
    assert "usage:" in err.lower()
    assert "Traceback" not in err
    assert out == ""


def test_plan_pack_round_trip(capsys, small_manifest, tmp_path):
    plans_path = tmp_path / "plans.jsonl"
    code, out, _ = run_cli(capsys, ["plan", "-i", str(small_manifest), "-o", str(plans_path)])
    assert code == 0
    code, out, err = run_cli(capsys, ["pack", "-i", str(plans_path), "--l-max", "32768"])
    assert code == 0
    packs = [json.loads(l) for l in out.splitlines()]
    packed_ids = sorted(m for p in packs for m in p["member_ids"])
    assert packed_ids == ["a", "b", "c"]  # overflow sample was discarded upstream
    assert all(p["total_tokens"] <= 32768 for p in packs)


def test_pack_and_validate_reject_non_positive_l_max(capsys, tmp_path):
    plans = tmp_path / "plans.jsonl"
    plans.write_text("")
    for command in (["pack"], ["validate", "--kind", "plans"]):
        code, out, err = run_cli(capsys, command + ["--l-max", "0", "-i", str(plans)])
        assert code == 1, command
        assert "--l-max" in err
        assert out == ""


def test_pack_rejects_oversized_plan(capsys, tmp_path):
    plans = tmp_path / "plans.jsonl"
    plans.write_text(json.dumps(plan_record(id="big", tile_cap=1, total_tokens=99999)) + "\n")
    code, _, err = run_cli(capsys, ["pack", "-i", str(plans), "--l-max", "32768"])
    assert code == 1
    assert "plan 'big' has 99999 tokens, exceeding pack capacity 32768 at line 1" in err


def test_pack_hands_composer_only_ids_and_token_counts(capsys, tmp_path, monkeypatch):
    cfg = budget.BudgetConfig(l_max=32768)
    samples = [make_sample(f"s{k}", images=[(4000, 3000), (896, 448)], videos=[40.0 * (k + 1)], text_tokens=100 * k)
               for k in range(8)] + [make_sample("overflow", text_tokens=99999)]
    text = "".join(budget.dumps_plan(budget.plan(s, cfg)) + "\n" for s in samples)
    full = [budget.read_plan(t, n) for n, t in enumerate(text.splitlines(), start=1)]
    assert all(p.image_grids[0] is not None and len(p.frame_timestamps[2]) >= 40 for p in full[:-1])
    plans, out = tmp_path / "plans.jsonl", tmp_path / "packs.jsonl"
    plans.write_text(text)
    handed = []
    real_pack = composer.pack

    def spy(given, l_max):
        handed.extend(given)
        return real_pack(given, l_max)

    monkeypatch.setattr(composer, "pack", spy)
    code, _, _ = run_cli(capsys, ["pack", "--l-max", "65536", "-i", str(plans), "-o", str(out)])
    assert code == 0
    sizes = [(p.sample_id, p.total_tokens) for p in full if p.planned]
    assert handed == sizes and len(sizes) == 8
    expected = real_pack(sizes, 65536)
    assert len(expected) > 1
    assert out.read_text() == "".join(
        json.dumps({"pack_id": i, "member_ids": ids, "total_tokens": total}) + "\n"
        for i, (ids, total) in enumerate(expected))


# Ids a pack line must escape: quotes, backslashes, control characters, line and
# paragraph separators, non-ASCII and astral characters.
_ODD_PLAN_IDS = ('q"uote', "back\\slash", "tab\there", "nl\nid\r", "\x00\x01\x1f\x7f", "ls\u2028ps\u2029",
                 "\u00e9\u4e2d", "\U0001F600x", "\U0010FFFF", "plain")


def test_pack_lines_are_what_json_dumps_writes(capsys, tmp_path):
    plans, out = tmp_path / "plans.jsonl", tmp_path / "packs.jsonl"
    records = [plan_record(id=f"{sid}{k}", l_text=1000 * (k + 1), total_tokens=1000 * (k + 1))
               for k in range(3) for sid in _ODD_PLAN_IDS]
    plans.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    code, _, _ = run_cli(capsys, ["pack", "--l-max", "4096", "-i", str(plans), "-o", str(out)])
    assert code == 0
    packs = composer.pack([(r["id"], r["total_tokens"]) for r in records], 4096)
    assert len(packs) > 1 and any(len(ids) > 1 for ids, _ in packs)
    assert out.read_bytes().decode("utf-8").split("\n") == [
        json.dumps({"pack_id": i, "member_ids": ids, "total_tokens": total}) for i, (ids, total) in enumerate(packs)
    ] + [""]


def test_pack_memory_does_not_grow_with_timestamps(capsys, monkeypatch, tmp_path):
    # 2 000 planned records of 300 timestamps each: held as floats, they alone would be about 19 MB.
    # The plan file (about 13 MB) is read in one range, as tracemalloc sees no child process.
    split_into(monkeypatch, 1)
    frames, stamps = 300, list(budget.frame_timestamps(1234.5, 300))

    def pack_peak(with_stamps):
        path = tmp_path / "plans.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(2000):
                rec = plan_record(id=f"s{k:05d}", n_per_item=[frames], grids=[None],
                                  timestamps=[stamps if with_stamps else []], l_text=k, total_tokens=k + 256 * frames)
                fh.write(json.dumps(rec) + "\n")
        tracemalloc.start()
        try:
            code = cli.main(["pack", "--l-max", "131072", "-i", str(path), "-o", str(tmp_path / "packs.jsonl")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    # The run with timestamps goes first, so whatever the first run alone allocates counts against it.
    assert pack_peak(True) < 2 * pack_peak(False)


def test_tile_subcommand_emits_geometry(capsys, tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(path, [make_sample("img", images=[(896, 448), (4000, 3000)])])
    code, out, _ = run_cli(capsys, ["tile", "-i", str(path)])
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert rows[0] == {"id": "img", "grid": [2, 1], "tokens": 768, "canvas": [896, 448]}
    assert rows[1]["grid"] == [4, 3]
    assert rows[1]["tokens"] == 3328


@pytest.mark.parametrize("cap", [1, 2, 12])
def test_tile_lines_are_json_dumps_bytes(tmp_path, cap):
    ids = ['q"uote', "back\\slash", "new\nline", "caf\u00e9", "smile \U0001F600", "plain"]
    sizes = [(896, 448), (4000, 3000), (123, 7), (1, 8192), (20000, 3)]
    samples = [make_sample(sid, images=sizes[i % 5:], videos=[3.0]) for i, sid in enumerate(ids)]
    samples.insert(2, make_sample("no-images", videos=[10.0], docs=[3]))
    path, out = tmp_path / "m.jsonl", tmp_path / "tiles.jsonl"
    write_manifest(path, samples)
    assert cli.main(["tile", "--tile-cap", str(cap), "-i", str(path), "-o", str(out)]) == 0
    expected = "".join(
        json.dumps({"id": s.id, "grid": [g.cols, g.rows], "tokens": tiling.grid_tokens(g),
                    "canvas": [g.cols * tiling.TILE_SIZE_PX, g.rows * tiling.TILE_SIZE_PX]}) + "\n"
        for s in samples for item in s.items if item.kind == "image"
        for g in [tiling.select_grid(item.dims, cap)]
    )
    assert out.read_bytes() == expected.encode("ascii")


def test_escaped_surrogate_pair_plans_as_the_character(capsys, tmp_path):
    escaped, literal = tmp_path / "escaped.jsonl", tmp_path / "literal.jsonl"
    escaped.write_text('{"id": "s\\ud83d\\ude00", "items": [], "text_tokens": 10}\n', encoding="utf-8")
    literal.write_text('{"id": "s\U0001F600", "items": [], "text_tokens": 10}\n', encoding="utf-8")
    outputs = []
    for path in (escaped, literal):
        code, out, err = run_cli(capsys, ["plan", "-i", str(path)])
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["id"] == "s\U0001F600"


def test_plan_and_tile_look_up_each_image_size_once_per_run(capsys, tmp_path, monkeypatch):
    sizes = [(896, 448), (4000, 3000), (123, 7)]
    samples = [make_sample(f"s{i}", images=[sizes[i % 3], sizes[(i + 1) % 3]], text_tokens=100 * i)
               for i in range(6)]
    path = tmp_path / "m.jsonl"
    write_manifest(path, samples)
    looked_up = []
    original = tiling.best_grids

    def counting(dims):
        looked_up.append((dims.width_px, dims.height_px))
        return original(dims)

    monkeypatch.setattr(tiling, "best_grids", counting)
    outputs = []
    for argv in (["plan"], ["plan"], ["tile"]):
        looked_up.clear()
        code, out, _ = run_cli(capsys, argv + ["-i", str(path)])
        assert code == 0
        assert sorted(looked_up) == sorted(sizes), argv
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cap", ["0", "13"])
def test_tile_cap_out_of_range_exit_1(capsys, tmp_path, cap):
    path = tmp_path / "m.jsonl"
    write_manifest(path, [make_sample("img", images=[(896, 448)])])
    code, out, err = run_cli(capsys, ["tile", "--tile-cap", cap, "-i", str(path)])
    assert code == 1
    assert "--tile-cap" in err
    assert out == ""


def test_validate_manifest_reports_errors(capsys, tmp_path):
    path = tmp_path / "m.jsonl"
    good = dumps_sample(make_sample("ok"))
    path.write_text(good + "\nnot json\n" + good.replace('"ok"', '"ok2"') + "\n")
    code, out, err = run_cli(capsys, ["validate", "-i", str(path)])
    assert code == 1
    errors = [json.loads(l) for l in out.splitlines()]
    assert errors[0]["line"] == 2
    assert "1 errors" in err


def test_validate_manifest_collects_all_errors_without_stopping(capsys, tmp_path):
    lines = [
        json.dumps({"id": "a", "items": [], "text_tokens": 0, "tags": []}),
        "not json",
        json.dumps({"id": "b", "items": [{"kind": "document", "pages": 0, "uri": "u"}], "text_tokens": 0, "tags": []}),
        json.dumps({"id": "c", "items": [], "text_tokens": 1, "tags": []}),
    ]
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join(lines))
    code, out, err = run_cli(capsys, ["validate", "-i", str(path)])
    assert code == 1
    errors = [json.loads(l) for l in out.splitlines()]
    assert [(e["line"], e["field"]) for e in errors] == [(2, "record"), (3, "pages")]
    assert "2 valid samples, 2 errors" in err


def test_validate_clean_manifest_exit_0(capsys, small_manifest):
    code, out, _ = run_cli(capsys, ["validate", "-i", str(small_manifest)])
    assert code == 0
    assert out == ""


def test_validate_emitted_plans_clean(capsys, small_manifest, tmp_path):
    plans = tmp_path / "p.jsonl"
    assert run_cli(capsys, ["plan", "-i", str(small_manifest), "-o", str(plans)])[0] == 0
    code, out, err = run_cli(capsys, ["validate", "--kind", "plans", "-i", str(plans)])
    assert code == 0
    assert out == ""
    assert "4 plans checked, 0 errors" in err


def test_validate_plans_recomputes_total_tokens(capsys, tmp_path):
    rec = {"id": "y", "verdict": "planned", "tile_cap": 12, "n_per_item": [0, 3], "grids": [[2, 1], None],
           "timestamps": [[], []], "l_text": 100, "total_tokens": 100 + 768 + 3 * 256}
    plans = tmp_path / "p.jsonl"
    lines = [rec, {**rec, "id": "y2", "total_tokens": rec["total_tokens"] - 1}, {**rec, "id": "y3", "grids": [[2, 1]]}]
    plans.write_text("".join(json.dumps(r) + "\n" for r in lines))
    code, out, _ = run_cli(capsys, ["validate", "--kind", "plans", "-i", str(plans)])
    assert code == 1
    errors = [json.loads(l) for l in out.splitlines()]
    assert [(e["line"], e["field"]) for e in errors] == [(2, "total_tokens"), (3, "grids")]
    assert "cost 1636" in errors[0]["error"]


def test_pack_rejects_malformed_grid(capsys, tmp_path):
    plans = tmp_path / "p.jsonl"
    plans.write_text(json.dumps(plan_record(id="z", grids=[[0, 1]], total_tokens=1)) + "\n")
    code, out, err = run_cli(capsys, ["pack", "-i", str(plans)])
    assert code == 1
    assert "grids must hold null or [cols, rows] of positive integers at line 1" in err


def _without(rec, key):
    return {k: v for k, v in rec.items() if k != key}


@pytest.mark.parametrize("bad", [plan_record(id="z", total_tokens="100"), _without(plan_record(id="z"), "total_tokens"),
                                 plan_record(id="z", total_tokens=-5), plan_record(id="z", total_tokens=True)],
                         ids=["string", "missing", "negative", "bool"])
def test_pack_rejects_malformed_total_tokens(capsys, tmp_path, bad):
    plans = tmp_path / "p.jsonl"
    good = plan_record(id="ok", total_tokens=10)
    plans.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    code, out, err = run_cli(capsys, ["pack", "-i", str(plans)])
    assert code == 1
    assert "plan 'z': total_tokens" in err and "at line 2" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("rec, field", [
    (plan_record(id="x", l_text=-5, total_tokens=-5), "l_text"),
    (plan_record(id="y", n_per_item=[-1], grids=[None], l_text=300, total_tokens=44), "n_per_item"),
    (plan_record(id="z", l_text=True, total_tokens=True), "l_text"),
], ids=["negative_l_text", "negative_units", "bool_fields"])
def test_validate_and_pack_reject_negative_or_bool_plan_fields(capsys, tmp_path, rec, field):
    # Each record's total_tokens equals the cost of its fields, so only the field checks catch it.
    plans = tmp_path / "p.jsonl"
    plans.write_text(json.dumps(rec) + "\n")
    code, out, _ = run_cli(capsys, ["validate", "--kind", "plans", "-i", str(plans)])
    assert code == 1
    assert [(e["line"], e["field"]) for e in map(json.loads, out.splitlines())] == [(1, field)]
    code, out, err = run_cli(capsys, ["pack", "-i", str(plans)])
    assert code == 1 and out == ""
    assert "at line 1" in err and field in err


def _planned(**fields):
    return plan_record(**{"n_per_item": [0], "grids": [[1, 1]], "timestamps": [[]], **fields})


# What a message about a bad record must not show: Python's own error text.
_INTERNALS = ("'int' object", "KeyError", "TileGrid", "__", "positional argument", "list indices")


# Each record's total_tokens equals the cost of its fields, so only the field checks catch it.
# pack reads each record's shape and rejects the same field; the rows that break
# only what validate checks across fields (shape=False) pack accepts.
@pytest.mark.parametrize("rec, field, shape", [
    (_planned(grids=[[True, 2]], total_tokens=768), "grids", True),
    (_planned(grids=[[1.5, 2]], total_tokens=1024), "grids", True),
    (_planned(grids=[[1, 2, 3]], total_tokens=5), "grids", True),
    (_planned(tile_cap=1, grids=[[4, 3]], total_tokens=3328), "grids", False),
    (_planned(tile_cap=13, grids=[[4, 3]], total_tokens=3328), "tile_cap", False),
    (_planned(n_per_item=[1], grids=[None], timestamps=[[5.0, 9.0, -1.0]], total_tokens=256), "timestamps", False),
    (_planned(n_per_item=[0], grids=[None], l_text=5, total_tokens=5), "grids", False),
    (_planned(verdict="Planned", n_per_item=[1], grids=[None], timestamps=[[1.0]], l_text=5, total_tokens=261),
     "verdict", True),
    (_planned(id=5, total_tokens=256), "id", True),
    (["x"], "record", True),
    (_without(_planned(total_tokens=256), "id"), "id", True),
    (_planned(n_per_item=[1], grids=[None], timestamps=[5], total_tokens=256), "timestamps", True),
    (_planned(n_per_item=5, grids=[None], timestamps=[[]], total_tokens=1280), "n_per_item", True),
    (_planned(n_per_item=[1], grids=[None], timestamps=[[float("nan")]], total_tokens=256), "timestamps", True),
    (plan_record(tile_cap=-7), "tile_cap", False),  # plan writes tile_cap 12 for a sample without images too
    (plan_record(tile_cap=None), "tile_cap", False),
], ids=["bool_cell", "float_cell", "triple", "grid_over_cap", "cap_out_of_range", "timestamps_count",
        "no_units_no_grid", "unknown_verdict", "int_id", "not_object", "no_id", "timestamps_not_lists",
        "n_per_item_not_list", "nan_timestamp", "no_images_negative_cap", "no_images_null_cap"])
def test_validate_plans_rejects_fields_plan_never_writes(capsys, tmp_path, rec, field, shape):
    plans = tmp_path / "p.jsonl"
    plans.write_text(json.dumps(rec) + "\n")
    code, out, err = run_cli(capsys, ["validate", "--kind", "plans", "-i", str(plans)])
    assert code == 1
    errors = [json.loads(l) for l in out.splitlines()]
    assert [(e["line"], e["field"]) for e in errors] == [(1, field)]
    assert not any(s in errors[0]["error"] for s in _INTERNALS), errors[0]["error"]
    assert "1 plans checked, 1 errors" in err
    code, out, err = run_cli(capsys, ["pack", "-i", str(plans)])
    if not shape:
        assert code == 0 and len(out.splitlines()) == 1
        return
    assert code == 1 and out == ""
    message = err[err.index("Error: "):]
    assert field in message and message.endswith(" at line 1\n")
    assert not any(s in message for s in _INTERNALS), message


def _discard(**fields):
    return plan_record(**{"id": "d", "verdict": "discarded", "reason": "text_overflow", "tile_cap": None, "l_text": 99,
                          "total_tokens": None, **fields})


_STARVED = dict(reason="insufficient_budget", l_text=5)


# A discard must be what plan's _discard writes at the --l-max the plans were made with (10 here).
# pack skips every discard and reads a planned record's reason unchecked, so it accepts all of these.
@pytest.mark.parametrize("rec, field", [
    (_discard(reason="bogus", total_tokens=99999999), "reason"),
    (_without(_discard(), "reason"), "reason"),
    (plan_record(reason="text_overflow", l_text=5, total_tokens=5), "reason"),
    (_discard(reason="insufficient_budget", total_tokens=5), "total_tokens"),
    (_discard(l_text=5), "l_text"),
    (_discard(**_STARVED, tile_cap=7, n_per_item=[3], grids=[[4, 3]], timestamps=[[1.0]]), "tile_cap"),
    (_discard(reason="insufficient_budget", l_text=20), "l_text"),
    (_discard(**_STARVED, n_per_item=[3]), "n_per_item"),
    (_discard(**_STARVED, grids=[None]), "grids"),
    (_discard(**_STARVED, timestamps=[[]]), "timestamps"),
], ids=["unknown_reason", "no_reason", "planned_with_reason", "discard_with_total", "overflow_below_l_max",
        "starved_with_units", "starved_at_l_max", "starved_with_n_per_item", "starved_with_grids",
        "starved_with_timestamps"])
def test_validate_plans_rejects_reasons_plan_never_writes(capsys, tmp_path, rec, field):
    plans = tmp_path / "p.jsonl"
    plans.write_text(json.dumps(rec) + "\n")
    code, out, err = run_cli(capsys, ["validate", "--kind", "plans", "--l-max", "10", "-i", str(plans)])
    assert code == 1
    assert [(e["line"], e["field"]) for e in map(json.loads, out.splitlines())] == [(1, field)]
    assert "1 plans checked, 1 errors" in err
    code, _, _ = run_cli(capsys, ["pack", "--l-max", "10", "-i", str(plans)])
    assert code == 0


@pytest.mark.parametrize("rec, field", [
    (_planned(verdict="Planned", n_per_item=[1], grids=[None], timestamps=[[1.0]], l_text=5, total_tokens=261),
     "verdict"),
    ({"id": 5, "verdict": "planned", "total_tokens": 0}, "id"),
], ids=["unknown_verdict", "int_id"])
def test_pack_rejects_unknown_verdict_and_non_string_id(capsys, tmp_path, rec, field):
    plans = tmp_path / "p.jsonl"
    plans.write_text(json.dumps(_planned(id="ok", total_tokens=256)) + "\n" + json.dumps(rec) + "\n")
    code, out, err = run_cli(capsys, ["pack", "-i", str(plans)])
    assert code == 1 and out == ""
    assert "at line 2" in err and field in err


def test_pack_and_validate_reject_duplicate_plan_id(capsys, tmp_path):
    # plan never writes one id twice: manifest ids are unique.
    plans = tmp_path / "p.jsonl"
    line = json.dumps(_planned(id="a", total_tokens=256))
    plans.write_text(f"{line}\n\n{line}\n")
    code, out, err = run_cli(capsys, ["validate", "--kind", "plans", "-i", str(plans)])
    assert code == 1
    assert [json.loads(l) for l in out.splitlines()] == [
        {"line": 3, "field": "id", "error": "duplicate plan id 'a' at line 3"}]
    assert "2 plans checked, 1 errors" in err
    code, out, err = run_cli(capsys, ["pack", "-i", str(plans)])
    assert (code, out) == (1, "")
    assert "Error: duplicate plan id 'a' at line 3" in err


def test_validate_plans_accepts_document_shaped_record(capsys, tmp_path):
    # Three units and no timestamps is exactly a 3-page document; only the manifest tells it from a video.
    plans = tmp_path / "p.jsonl"
    plans.write_text(json.dumps(_planned(n_per_item=[3], grids=[None], total_tokens=768)) + "\n")
    code, out, err = run_cli(capsys, ["validate", "--kind", "plans", "-i", str(plans)])
    assert (code, out) == (0, "")
    assert "1 plans checked, 0 errors" in err


def test_plan_record_is_what_plan_writes_for_an_empty_sample():
    p = budget.plan(make_sample("p"), budget.BudgetConfig(l_max=32768))
    assert json.loads(budget.dumps_plan(p)) == plan_record()


@pytest.mark.parametrize("argv", [["pack"], ["validate", "--kind", "plans"]], ids=["pack", "validate"])
@pytest.mark.parametrize("key", ["verdict", "tile_cap", "n_per_item", "grids", "timestamps", "l_text", "total_tokens"])
def test_pack_and_validate_reject_a_plan_record_missing_a_field(capsys, tmp_path, argv, key):
    plans = tmp_path / "p.jsonl"
    plans.write_text(json.dumps(plan_record(id="ok")) + "\n\n" + json.dumps(_without(plan_record(id="m"), key)) + "\n")
    code, out, err = run_cli(capsys, [*argv, "-i", str(plans)])
    assert code == 1
    message = f"plan 'm': {key} is missing at line 3"
    if argv[0] == "pack":
        assert out == "" and f"Error: {message}\n" in err
    else:
        assert [json.loads(l) for l in out.splitlines()] == [{"line": 3, "field": key, "error": message}]


def test_validate_plans_kind(capsys, tmp_path):
    plans = tmp_path / "p.jsonl"
    plans.write_text(
        json.dumps(plan_record(id="x", tile_cap=1, total_tokens=50000)) + "\n"
    )
    code, out, _ = run_cli(capsys, ["validate", "--kind", "plans", "-i", str(plans), "--l-max", "32768"])
    assert code == 1
    assert json.loads(out.splitlines()[0])["field"] == "total_tokens"


# --- curate ------------------------------------------------------------------------


def test_curate_orthogonal_fixture_selects_all(capsys, tmp_path):
    ref_dir = tmp_path / "ref"
    cand_dir = tmp_path / "cand"
    ref_dir.mkdir()
    cand_dir.mkdir()
    dim = 8
    # references live on axis 0/1, candidates on axis 2/3: S_max = 0 < 0.5
    ref = np.zeros((20, dim), dtype=np.float32)
    ref[:, 0] = 1.0
    write_feature_file(ref_dir / "r.feat", "refvid", ref)
    for i in range(2):
        cand = np.zeros((20, dim), dtype=np.float32)
        cand[:, 2 + i] = 1.0
        write_feature_file(cand_dir / f"c{i}.feat", f"cand{i}", cand)
    code, out, err = run_cli(
        capsys,
        ["curate", "--tau", "0.5", "--reference", str(ref_dir), "--candidates", str(cand_dir)],
    )
    assert code == 0
    reports = [json.loads(l) for l in out.splitlines()]
    assert [r["video_id"] for r in reports] == ["cand0", "cand1"]
    assert all(r["selected"] for r in reports)
    assert all(s == pytest.approx(0.0) for r in reports for s in r["per_clip_smax"])
    assert "2/2" in err


def test_curate_identical_candidate_not_selected(capsys, tmp_path):
    ref_dir = tmp_path / "ref"
    cand_dir = tmp_path / "cand"
    ref_dir.mkdir()
    cand_dir.mkdir()
    rng = np.random.default_rng(0)
    track = rng.normal(size=(30, 6)).astype(np.float32)
    write_feature_file(ref_dir / "r.feat", "refvid", track)
    write_feature_file(cand_dir / "c.feat", "candvid", track)  # exact duplicate
    code, out, _ = run_cli(
        capsys,
        ["curate", "--tau", "0.5", "--reference", str(ref_dir), "--candidates", str(cand_dir)],
    )
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["selected"] is False
    assert all(s == pytest.approx(1.0) for s in report["per_clip_smax"])


def test_curate_jobs_flag_same_output(capsys, tmp_path):
    ref_dir = tmp_path / "ref"
    cand_dir = tmp_path / "cand"
    ref_dir.mkdir()
    cand_dir.mkdir()
    rng = np.random.default_rng(1)
    write_feature_file(ref_dir / "r.feat", "refvid", rng.normal(size=(40, 5)).astype(np.float32))
    for i in range(4):
        write_feature_file(cand_dir / f"c{i}.feat", f"v{i}", rng.normal(size=(25, 5)).astype(np.float32))
    args = ["curate", "--reference", str(ref_dir), "--candidates", str(cand_dir)]
    _, serial, _ = run_cli(capsys, args)
    code, parallel, _ = run_cli(capsys, args + ["--jobs", "3"])
    assert code == 0
    assert parallel == serial


def test_curate_tau_out_of_range_rejected_before_reading(capsys, tmp_path):
    missing = str(tmp_path / "missing")
    for tau in ("2", "nan", "inf", "-inf"):
        code, out, err = run_cli(capsys, ["curate", "--tau", tau, "--reference", missing, "--candidates", missing])
        assert code == 1, tau
        assert "--tau" in err
        assert out == ""


def test_curate_nan_feature_exit_1(capsys, tmp_path):
    ref_dir = tmp_path / "ref"
    cand_dir = tmp_path / "cand"
    ref_dir.mkdir()
    cand_dir.mkdir()
    write_feature_file(ref_dir / "r.feat", "refvid", np.ones((20, 4), dtype=np.float32))
    cand = np.ones((20, 4), dtype=np.float32)
    cand[3, 1] = np.nan
    write_feature_file(cand_dir / "c.feat", "candvid", cand)
    code, out, err = run_cli(capsys, ["curate", "--reference", str(ref_dir), "--candidates", str(cand_dir)])
    assert code == 1
    assert out == ""
    assert "c.feat" in err


def test_curate_declared_encoding_mismatch_exit_1(capsys, tmp_path):
    ref_dir = tmp_path / "ref"
    cand_dir = tmp_path / "cand"
    ref_dir.mkdir()
    cand_dir.mkdir()
    write_feature_file(ref_dir / "r.feat", "refvid", np.ones((20, 4), dtype=np.float32))
    write_feature_file(cand_dir / "c.feat", "candvid", np.full((20, 4), 2.25, dtype=np.float32), binary=False)
    text = (cand_dir / "c.feat").read_bytes()
    (cand_dir / "c.feat").write_bytes(text.replace(b'"encoding": "text"', b'"encoding": "f32le"', 1))
    code, out, err = run_cli(capsys, ["curate", "--reference", str(ref_dir), "--candidates", str(cand_dir)])
    assert code == 1
    assert out == ""
    assert "c.feat" in err and "f32le" in err


def test_curate_duplicate_candidate_id_exit_1(capsys, tmp_path):
    ref_dir = tmp_path / "ref"
    cand_dir = tmp_path / "cand"
    ref_dir.mkdir()
    cand_dir.mkdir()
    rng = np.random.default_rng(2)
    # Duplicate ids are allowed among references, not among candidates.
    for name in ("r1.feat", "r2.feat"):
        write_feature_file(ref_dir / name, "refvid", rng.normal(size=(20, 4)).astype(np.float32))
    for name in ("c1.feat", "c2.feat"):
        write_feature_file(cand_dir / name, "same", rng.normal(size=(20, 4)).astype(np.float32))
    args = ["curate", "--reference", str(ref_dir), "--candidates", str(cand_dir)]
    code, out, err = run_cli(capsys, args)
    assert code == 1
    assert out == ""
    assert "'same'" in err and "c1.feat" in err and "c2.feat" in err

    (cand_dir / "c2.feat").unlink()
    code, out, _ = run_cli(capsys, args)
    assert code == 0
    assert [json.loads(l)["video_id"] for l in out.splitlines()] == ["same"]


def _curate_dirs(tmp_path, ref_tracks, cand_tracks):
    """ref/ and cand/ dirs of feature files r{k}.feat and c{k}.feat; returns the curate argv."""
    for sub, tracks in (("ref", ref_tracks), ("cand", cand_tracks)):
        (tmp_path / sub).mkdir()
        for k, track in enumerate(tracks):
            write_feature_file(tmp_path / sub / f"{sub[0]}{k}.feat", f"{sub}{k}", track)
    return ["curate", "--reference", str(tmp_path / "ref"), "--candidates", str(tmp_path / "cand")]


def test_curate_lines_are_json_dumps_bytes(capsys, tmp_path):
    # Every pooled clip is a multiple of a 3-4-5 vector or an axis, so each similarity is exactly 0.0, 0.6, 0.8 or 1.0.
    e = np.eye(4)
    a, b, c = [3.0, 0.0, 4.0, 0.0], [0.0, 4.0, 3.0, 0.0], [4.0, 3.0, 0.0, 0.0]
    (tmp_path / "ref").mkdir()
    (tmp_path / "cand").mkdir()
    write_feature_file(tmp_path / "ref" / "r.feat", "ref", np.repeat([e[0], e[1]], 10, axis=0))
    tracks = {"say \"hi\"": [e[0], b], "caf\u00e9": [a, e[2]], "tail": None, "mixed": [c, e[3]]}
    for k, (video_id, clips) in enumerate(tracks.items()):
        track = np.repeat(clips, 10, axis=0) if clips else np.repeat([a], 5, axis=0)  # "tail": one 5 s clip
        write_feature_file(tmp_path / "cand" / f"c{k}.feat", video_id, track)
    out = tmp_path / "out.jsonl"
    code, _, err = run_cli(capsys, ["curate", "--tau", "0.7", "--reference", str(tmp_path / "ref"),
                                    "--candidates", str(tmp_path / "cand"), "-o", str(out)])
    assert code == 0
    expected = [
        {"video_id": "caf\u00e9", "per_clip_smax": [0.6, 0.0], "novel_clips": [0, 1], "selected": True},
        {"video_id": "mixed", "per_clip_smax": [0.8, 0.0], "novel_clips": [1], "selected": True},
        {"video_id": "say \"hi\"", "per_clip_smax": [1.0, 0.8], "novel_clips": [], "selected": False},
        {"video_id": "tail", "per_clip_smax": [0.6], "novel_clips": [0], "selected": True},
    ]
    assert out.read_bytes() == "".join(json.dumps(rec) + "\n" for rec in expected).encode("ascii")
    assert err.endswith("\n3/4 candidate videos selected at tau=0.7\n")


def test_curate_duplicate_candidate_id_wins_over_a_bad_body(capsys, tmp_path, monkeypatch):
    bad = np.ones((20, 4))
    bad[3, 1] = np.nan
    argv = _curate_dirs(tmp_path, [np.ones((20, 4))], [bad, np.ones((20, 4))])
    write_feature_file(tmp_path / "cand" / "c1.feat", "cand0", np.ones((20, 4)))  # c0.feat's id
    read = curator.read_feature_file
    bodies = []
    monkeypatch.setattr(curator, "read_feature_file", lambda path: bodies.append(path.parent.name) or read(path))
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "duplicate candidate video_id 'cand0'" in err
    assert bodies == ["ref"]  # the candidate headers are checked before any candidate body is read


_BAD_HEADER_FIELDS = [
    ("count", "1e999", "feature header 'count' must be an integer >= 1, not inf"),
    ("dim", "null", "feature header 'dim' must be an integer >= 1, not None"),
    ("dim", "4.7", "feature header 'dim' must be an integer >= 1, not 4.7"),
    ("dim", '"4"', "feature header 'dim' must be an integer >= 1, not '4'"),
    ("video_id", '["x"]', "feature header 'video_id' must be a non-empty string, not ['x']"),
    ("video_id", '""', "feature header 'video_id' must be a non-empty string, not ''"),
    ("count", "1000000000000", "text body of 320 bytes cannot hold the 4000000000000 values"),
    ("fps", "true", "unsupported feature fps True (expected 1)"),
    ("fps", "1.0", "unsupported feature fps 1.0 (expected 1)"),
]


def _text_feature_file(field="", value=""):
    """A text feature file of 20 s at dim 4 whose header gives field the JSON text value."""
    header = {"video_id": "v", "dim": 4, "fps": 1, "count": 20, "encoding": "text"}
    line = ", ".join(f'"{k}": {value if k == field else json.dumps(v)}' for k, v in header.items())
    return ("{" + line + "}\n" + "1.0 2.0 3.0 4.0\n" * 20).encode()


@pytest.mark.parametrize("side", ["ref", "cand"])
@pytest.mark.parametrize("field, value, message", _BAD_HEADER_FIELDS)
def test_curate_bad_feature_header_exit_1(capsys, tmp_path, side, field, value, message):
    argv = _curate_dirs(tmp_path, [np.ones((20, 4))], [np.ones((20, 4))])
    path = tmp_path / side / f"{side[0]}0.feat"
    path.write_bytes(_text_feature_file(field, value))
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"{path}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("side", ["ref", "cand"])
@pytest.mark.parametrize("video_id", [r'"c\ud800"', r'"\udfff"'])
def test_curate_header_with_an_unpaired_surrogate_exit_1(capsys, tmp_path, side, video_id):
    # The header line is read by jsonl.load_object, as every record line is: no UTF-8 output can hold the id.
    argv = _curate_dirs(tmp_path, [np.ones((20, 4))], [np.ones((20, 4))])
    path = tmp_path / side / f"{side[0]}0.feat"
    path.write_bytes(_text_feature_file("video_id", video_id))
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.endswith(f"\nError: {path}: malformed feature header\n")


_DIM_MISMATCHES = {
    "within-reference": ((4, 5), (4,), "ref/r1.feat", "dim 5 does not match dim 4 of {ref}/r0.feat"),
    "within-candidates": ((4,), (4, 5), "cand/c1.feat", "dim 5 does not match dim 4 of {ref}/r0.feat"),
    "reference-vs-candidates": ((4,), (5, 5), "cand/c0.feat", "dim 5 does not match dim 4 of {ref}/r0.feat"),
}


@pytest.mark.parametrize("ref_dims, cand_dims, bad, message", _DIM_MISMATCHES.values(), ids=_DIM_MISMATCHES)
def test_curate_dim_mismatch_names_the_file_exit_1(capsys, tmp_path, ref_dims, cand_dims, bad, message):
    argv = _curate_dirs(tmp_path, [np.ones((20, d)) for d in ref_dims], [np.ones((20, d)) for d in cand_dims])
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"{tmp_path / bad}: " + message.format(ref=tmp_path / "ref") in err
    assert "Traceback" not in err


def _grow_c1_between_passes(monkeypatch):
    """Make cand/c1.feat grow between the header pre-pass and the read of its body."""
    read = curator.read_feature_file

    def read_after_rewrite(path):
        if path.name == "c1.feat":
            write_feature_file(path, "cand1", np.ones((35, 4)))
        return read(path)

    monkeypatch.setattr(curator, "read_feature_file", read_after_rewrite)


def test_curate_header_changed_between_passes_exit_1(capsys, tmp_path, monkeypatch):
    argv = _curate_dirs(tmp_path, [np.ones((20, 4))], [np.ones((20, 4)), np.ones((20, 4))])
    _grow_c1_between_passes(monkeypatch)
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"{tmp_path / 'cand' / 'c1.feat'}: header changed while reading" in err


def _with_zero_clip() -> np.ndarray:
    """A 30 s track of ones whose second clip (seconds 10-19) is all zeros."""
    track = np.ones((30, 4))
    track[10:20] = 0.0
    return track


@pytest.mark.parametrize("pool", ["mean", "max"])
@pytest.mark.parametrize("side", ["ref", "cand"])
def test_curate_zero_clip_names_its_file_exit_1(capsys, tmp_path, side, pool):
    tracks = {"ref": [np.ones((20, 4))], "cand": [np.ones((20, 4))]}
    tracks[side].append(_with_zero_clip())
    argv = _curate_dirs(tmp_path, tracks["ref"], tracks["cand"])
    code, out, err = run_cli(capsys, [*argv, "--pool", pool])
    assert code == 1
    assert out == ""
    assert err.endswith(f"\nError: {tmp_path / side / f'{side[0]}1.feat'}: clip 1 pools to a zero vector\n")


def test_curate_clip_of_cancelling_seconds_is_zero_under_mean_alone(capsys, tmp_path):
    track = np.ones((20, 4))
    track[10:20:2] = -1.0  # clip 1 alternates +1 and -1: its mean is zero, its max is not
    argv = _curate_dirs(tmp_path, [np.ones((20, 4))], [track])
    code, _, err = run_cli(capsys, [*argv, "--pool", "mean"])
    assert code == 1
    assert err.endswith(f"{tmp_path / 'cand' / 'c0.feat'}: clip 1 pools to a zero vector\n")
    assert run_cli(capsys, [*argv, "--pool", "max"])[0] == 0


def test_curate_text_value_beyond_float32_range_is_one_error_line(capsys, tmp_path):
    # numpy casts 1e40 to float32 inf with a RuntimeWarning; the user sees only the config line and the error.
    argv = _curate_dirs(tmp_path, [np.ones((20, 4))], [])
    path = tmp_path / "cand" / "c0.feat"
    path.write_bytes(_text_feature_file().replace(b"4.0\n", b"1e40\n", 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert [w.message for w in caught] == []
    config, error = err.splitlines()
    assert config.startswith("mmprep curate config: ")
    assert error == f"Error: {path}: non-finite feature value (NaN or Inf)"


def _rewritten_fault(data: bytes, message: str):
    """ref/r0.feat and cand/c0.feat, then cand/c0.feat rewritten to data."""
    def plant(tmp_path, monkeypatch):
        _curate_dirs(tmp_path, [np.ones((20, 4))], [np.ones((20, 4))])
        (tmp_path / "cand" / "c0.feat").write_bytes(data)
        return f"{tmp_path / 'cand' / 'c0.feat'}: {message}"
    return plant


def _tracks_fault(ref_tracks, cand_tracks, bad, message):
    def plant(tmp_path, monkeypatch):
        _curate_dirs(tmp_path, ref_tracks, cand_tracks)
        return f"{tmp_path / bad}: " + message.format(ref=tmp_path / "ref")
    return plant


def _duplicate_candidate_id(tmp_path, monkeypatch):
    _curate_dirs(tmp_path, [np.ones((20, 4))], [np.ones((20, 4))])
    cand = tmp_path / "cand"
    write_feature_file(cand / "c1.feat", "cand0", np.ones((20, 4)))  # c0.feat's id
    return f"duplicate candidate video_id 'cand0' in {cand / 'c0.feat'} and {cand / 'c1.feat'}"


def _empty_candidates(tmp_path, monkeypatch):
    _curate_dirs(tmp_path, [np.ones((20, 4))], [])
    return f"no feature files in {tmp_path / 'cand'}"


def _grown_between_passes(tmp_path, monkeypatch):
    _curate_dirs(tmp_path, [np.ones((20, 4))], [np.ones((20, 4)), np.ones((20, 4))])
    _grow_c1_between_passes(monkeypatch)
    return f"{tmp_path / 'cand' / 'c1.feat'}: header changed while reading"


_NAN_TRACK = np.ones((20, 4))
_NAN_TRACK[3, 1] = np.nan
# Every feature-file fault the curate tests above build: {id: plant(tmp_path, monkeypatch) -> the message}.
_FILE_FAULTS = {
    **{f"header-{field}-{value}": _rewritten_fault(_text_feature_file(field, value), message)
       for field, value, message in _BAD_HEADER_FIELDS},
    "header-nested": _rewritten_fault(b"[" * 100_000 + b"\n", "malformed feature header"),
    "header-long-int": _rewritten_fault(b'{"video_id": "v", "dim": 4, "count": ' + b"9" * 5000 + b"}\n",
                                        "malformed feature header"),
    "encoding-mismatch": _rewritten_fault(_text_feature_file("encoding", '"f32le"') + b"\n",
                                          "f32le body is 321 bytes, header promises 320"),
    "duplicate-id": _duplicate_candidate_id,
    "nan-body": _tracks_fault([np.ones((20, 4))], [_NAN_TRACK], "cand/c0.feat", "non-finite feature value"),
    "zero-clip-reference": _tracks_fault([_with_zero_clip()], [np.ones((20, 4))], "ref/r0.feat",
                                         "clip 1 pools to a zero vector"),
    "zero-clip-candidate": _tracks_fault([np.ones((20, 4))], [_with_zero_clip()], "cand/c0.feat",
                                         "clip 1 pools to a zero vector"),
    **{f"dim-{name}": _tracks_fault([np.ones((20, d)) for d in ref_dims], [np.ones((20, d)) for d in cand_dims],
                                    bad, message)
       for name, (ref_dims, cand_dims, bad, message) in _DIM_MISMATCHES.items()},
    "empty-candidates": _empty_candidates,
    "header-changed": _grown_between_passes,
}


@pytest.mark.parametrize("pool", ["mean", "max"])
@pytest.mark.parametrize("fault", _FILE_FAULTS)
def test_every_curate_file_fault_is_an_input_error(tmp_path, monkeypatch, fault, pool):
    message = _FILE_FAULTS[fault](tmp_path, monkeypatch)
    with pytest.raises(InputError) as caught:
        curator.curate(tmp_path / "ref", tmp_path / "cand", pool=pool)
    assert message in str(caught.value)


def test_curate_holds_each_clip_matrix_once(tmp_path):
    # 128 one-second tracks a side at dim 4096: one 32 KiB clip row a file, 4 MiB a side.
    rng = np.random.default_rng(16)
    argv = _curate_dirs(tmp_path, list(rng.normal(size=(128, 1, 4096))), list(rng.normal(size=(128, 1, 4096))))
    side_bytes = 128 * 4096 * 8
    tile_bytes = 128 * min(kernels.TILE_VALUES // 128, 128) * 8  # both sides fit one 128 x 128 block
    tracemalloc.start()
    try:
        code = cli.main(argv + ["-o", str(tmp_path / "out.jsonl")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # Slack: two normalization blocks of 512 KiB, one track and its clips, Python objects.
    assert peak < 2 * side_bytes + tile_bytes + 2 * 2**20


# --- annotate ---------------------------------------------------------------------


def test_annotate_with_mocked_client(capsys, tmp_path, monkeypatch):
    jobs_path = tmp_path / "jobs.jsonl"
    jobs_path.write_text(
        json.dumps({"video_id": "v1", "uri": "vid://v1",
                    "chapters": [{"title": "intro", "start": 0, "end": 10},
                                 {"title": "outro", "start": 10, "end": 20}]}) + "\n"
        + json.dumps({"video_id": "v2", "uri": "vid://v2",
                      "clips": [{"start": 0, "end": 10}]}) + "\n"
    )
    monkeypatch.setattr(cli, "_make_client", lambda endpoint, model, temperature, rpm: MockLlm())
    code, out, err = run_cli(
        capsys, ["annotate", "-i", str(jobs_path), "--endpoint", "http://example/generate"]
    )
    assert code == 0
    records = [json.loads(l) for l in out.splitlines()]
    assert {r["video_id"] for r in records} == {"v1", "v2"}
    assert all(r["status"] == "ok" for r in records)
    assert "2/2 jobs annotated" in err


def test_annotate_partial_failure_exit_3(capsys, tmp_path, monkeypatch):
    jobs_path = tmp_path / "jobs.jsonl"
    jobs_path.write_text(
        json.dumps({"video_id": "solo", "uri": "u",
                    "chapters": [{"title": "only", "start": 0, "end": 10}]}) + "\n"
        + json.dumps({"video_id": "fine", "uri": "u",
                      "clips": [{"start": 0, "end": 10}]}) + "\n"
    )
    monkeypatch.setattr(cli, "_make_client", lambda endpoint, model, temperature, rpm: MockLlm())
    code, out, err = run_cli(
        capsys, ["annotate", "-i", str(jobs_path), "--endpoint", "http://example/generate"]
    )
    assert code == 3
    records = [json.loads(l) for l in out.splitlines()]
    assert len(records) == 2
    failed = [r for r in records if r["status"] == "failed"]
    assert failed[0]["video_id"] == "solo"


class _ShortLlm:
    """Short fixed replies. The brief names a park, and the first QA entry's answer is "park", so it leaks.

    A request for a video whose uri contains "boom" raises, as a client library bug would.
    """

    def submit(self, request):
        if any("boom" in ref for ref in request.image_refs):
            raise RuntimeError("client library bug")
        if "Guidelines For Brief Caption" in request.prompt:
            return LlmResponse(text='{"Brief Caption": "a dog in a park", "Detailed Caption": "d"}')
        return LlmResponse(text='{"question_type_1": {"Q": "Where?", "A": "park"}, '
                                '"question_type_2": {"Q": "Who?", "A": "a walker"}, "question_type_3": null}')


def test_annotate_lines_are_json_dumps_bytes(capsys, tmp_path, monkeypatch):
    # Pins every key, its order and its value: a story job, a clip job that drops
    # its leaking question, a validate failure and an internal failure.
    jobs_path = tmp_path / "jobs.jsonl"
    jobs_path.write_text(
        '{"video_id": "s", "uri": "vid://s", "chapters": [{"title": "Café", "start": 0, "end": 10},'
        ' {"title": "b", "start": 10, "end": 20.5}]}\n'
        '{"video_id": "c", "uri": "vid://c", "clips": [{"start": 1.5, "end": 4}]}\n'
        '{"video_id": "v", "uri": "vid://v", "chapters": [{"title": "only", "start": 0, "end": 10}]}\n'
        '{"video_id": "i", "uri": "vid://boom", "clips": [{"start": 0, "end": 1}]}\n',
        encoding="utf-8",
    )
    monkeypatch.setattr(cli, "_make_client", lambda *args: _ShortLlm())
    code, out, _ = run_cli(capsys, ["annotate", "-i", str(jobs_path), "--endpoint", "http://example/generate"])
    assert code == 3
    assert out.splitlines() == [
        '{"video_id": "s", "kind": "story", "captions": ['
        '{"title": "Café", "start": 0.0, "end": 10.0, "brief": "a dog in a park", "detailed": "d"}, '
        '{"title": "b", "start": 10.0, "end": 20.5, "brief": "a dog in a park", "detailed": "d"}], '
        '"qa": [{"type": "navigation", "q": "Where?", "a": "park", "anchored_q": null}, '
        '{"type": "single_object_presence_change", "q": "Who?", "a": "a walker", "anchored_q": null}], '
        '"status": "ok", "retry_count": 0}',
        '{"video_id": "c", "kind": "clip", "captions": ['
        '{"start": 1.5, "end": 4.0, "brief": "a dog in a park", "detailed": "d"}], '
        '"qa": [{"type": "object_recognition", "q": "Who?", "a": "a walker", '
        '"anchored_q": "Between 1.5s and 4s, in the scene where a dog in a park: Who?"}], '
        '"status": "ok", "anchor_dropped": 1, "retry_count": 0}',
        '{"video_id": "v", "kind": "story", "captions": [], "qa": [], "status": "failed", '
        '"stage": "validate", "reason": "insufficient chapters: need at least two", "retry_count": 0}',
        '{"video_id": "i", "kind": "clip", "captions": [], "qa": [], "status": "failed", '
        '"stage": "internal", "reason": "RuntimeError: client library bug", "retry_count": 0}',
    ]


_LONG_INT = "9" * 5000
_BAD_REPLIES = {  # (stage, reply text, reason)
    "caption-surrogate": ("caption", '{"Brief Caption": "a dog \ud800 in a park", "Detailed Caption": "d"}',
                          "response holds an unpaired surrogate"),
    "caption-surrogate-escape": ("caption", '{"Brief Caption": "a dog \\ud800 in a park", "Detailed Caption": "d"}',
                                 "response holds an unpaired surrogate"),
    "caption-long-int": ("caption", '{"Brief Caption": "a dog", "Detailed Caption": "d", "n": ' + _LONG_INT + "}",
                         f"response holds an integer of more than {sys.get_int_max_str_digits()} digits"),
    "qa-surrogate": ("qa", '{"question_type_1": {"Q": "Who \udfff?", "A": "a walker"}}',
                     "response holds an unpaired surrogate"),
    "qa-long-int": ("qa", '{"question_type_1": ' + _LONG_INT + "}",
                    f"response holds an integer of more than {sys.get_int_max_str_digits()} digits"),
}


@pytest.mark.parametrize("stage, reply, reason", _BAD_REPLIES.values(), ids=_BAD_REPLIES)
def test_annotate_reply_of_a_lone_surrogate_or_a_long_integer_fails_its_stage(
        capsys, tmp_path, monkeypatch, stage, reply, reason):
    jobs_path = tmp_path / "jobs.jsonl"
    jobs_path.write_text("".join(json.dumps({"video_id": v, "uri": f"vid://{v}", "clips": [{"start": 0, "end": 10}]})
                                 + "\n" for v in ("ok1", "bad", "ok2")), encoding="utf-8")
    monkeypatch.setattr(cli, "_make_client", lambda *args: StageReply(stage, reply, "vid://bad"))
    retry_policy = annotator_pipeline.RetryPolicy
    monkeypatch.setattr(annotator_pipeline, "RetryPolicy", lambda **kw: retry_policy(**kw, sleep=lambda _: None))
    out_path = tmp_path / "out.jsonl"
    code, _, err = run_cli(capsys, ["annotate", "-i", str(jobs_path), "-o", str(out_path),
                                    "--endpoint", "http://example/generate"])
    assert code == 3
    assert "Traceback" not in err
    records = [json.loads(line) for line in out_path.read_bytes().decode("utf-8").splitlines()]
    assert [(r["video_id"], r["status"]) for r in records] == [("ok1", "ok"), ("bad", "failed"), ("ok2", "ok")]
    assert (records[1]["stage"], records[1]["reason"], records[1]["retry_count"]) == \
        (stage, f"retries exhausted: {reason}", 3)


def test_annotate_posts_temperature_and_model(capsys, tmp_path, monkeypatch):
    # No network: urlopen keeps each payload and answers with a fixed caption or QA reply.
    payloads = []

    def urlopen(req, timeout):
        payloads.append(json.loads(req.data))
        if "Guidelines For Brief Caption" in payloads[-1]["prompt"]:
            text = '{"Brief Caption": "b", "Detailed Caption": "d"}'
        else:
            text = '{"question_type_1": {"Q": "q", "A": "a"}}'
        return io.BytesIO(json.dumps({"text": text}).encode())

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    jobs_path = tmp_path / "jobs.jsonl"
    jobs_path.write_text('{"video_id": "c", "clips": [{"start": 0, "end": 1}]}\n', encoding="utf-8")
    code, _, _ = run_cli(capsys, ["annotate", "-i", str(jobs_path), "--endpoint", "http://endpoint.invalid/generate",
                                  "--temperature", "0.7", "--model", "m2"])
    assert code == 0
    assert len(payloads) == 2  # one caption request, one QA request
    for payload in payloads:
        assert list(payload) == ["model", "prompt", "image_refs", "temperature", "max_output_tokens"]
        assert (payload["model"], payload["temperature"], payload["max_output_tokens"]) == ("m2", 0.7, 2048)


_CHAPTER = '{"title": "a", "start": 0, "end": 10}'


@pytest.mark.parametrize("job", [
    '{"video_id": "v", "clips": [{"start": NaN, "end": 10}]}',
    '{"video_id": "v", "clips": [{"start": 10, "end": 5}]}',
    '{"video_id": "v", "clips": [{"start": 0, "end": 10}, {"start": 10, "end": 10}]}',
    '{"video_id": "v", "chapters": [%s, {"title": "b", "start": 10, "end": Infinity}]}' % _CHAPTER,
    '{"video_id": "v", "chapters": [%s, {"title": "b", "start": 10, "end": 1e400}]}' % _CHAPTER,
    '{"video_id": "v", "chapters": [%s, {"title": 5, "start": 10, "end": 20}]}' % _CHAPTER,
    '{"video_id": "v", "chapters": [%s, {"title": ["z"], "start": 10, "end": 20}]}' % _CHAPTER,
    '{"video_id": "v", "chapters": [%s, {"start": 10, "end": 20}]}' % _CHAPTER,
    '{"video_id": "v", "clips": [{"title": 5, "start": 0, "end": 10}]}',
    '{"video_id": "v", "clips": [{"title": ["z"], "start": 0, "end": 10}]}',
    '{"video_id": "v", "clips": [{"title": "", "start": 0, "end": 10}]}',
    '{"video_id": "v", "clips": [{"start": "3", "end": 10}]}',
    '{"video_id": "v", "clips": [{"start": true, "end": 10}]}',
    '{"video_id": "v", "chapters": [%s, {"title": "b", "start": 10, "end": "20"}]}' % _CHAPTER,
    '{"video_id": "v", "clips": [{"end": 10}]}',
    '{"video_id": "v", "clips": [5]}',
    '{"video_id": "v", "clips": {"start": 0, "end": 10}}',
    '{"video_id": "v", "uri": null, "clips": [{"start": 0, "end": 10}]}',
    '{"video_id": "v", "uri": 5, "clips": [{"start": 0, "end": 10}]}',
    '{"video_id": "", "clips": [{"start": 0, "end": 10}]}',
], ids=["clip-nan-start", "clip-end-before-start", "clip-empty-span", "chapter-infinite-end",
        "chapter-overflowing-end", "chapter-int-title", "chapter-list-title", "chapter-no-title",
        "clip-int-title", "clip-list-title", "clip-empty-title", "clip-string-start", "clip-bool-start",
        "chapter-string-end", "clip-no-start", "clip-not-an-object", "clips-not-a-list",
        "uri-null", "uri-int", "video-id-empty"])
def test_annotate_bad_job_exit_1_before_any_request(capsys, tmp_path, monkeypatch, job):
    jobs_path = tmp_path / "jobs.jsonl"
    good = '{"video_id": "ok", "clips": [{"start": 0, "end": 10}]}'
    jobs_path.write_text(f"{good}\n{job}\n", encoding="utf-8")
    client = MockLlm()
    monkeypatch.setattr(cli, "_make_client", lambda endpoint, model, temperature, rpm: client)
    code, out, err = run_cli(capsys, ["annotate", "-i", str(jobs_path), "--endpoint", "http://example/generate"])
    assert code == 1
    assert "at line 2" in err
    assert "Traceback" not in err
    assert out == ""
    assert client.calls == 0


@pytest.mark.parametrize("option,value", [
    ("--rpm", "-5"), ("--rpm", "0"), ("--rpm", "nan"), ("--rpm", "inf"),
    ("--temperature", "nan"), ("--temperature", "-0.5"),
    ("--max-in-flight", "0"), ("--max-in-flight", "-3"),
    ("--retry-budget", "-1"),
])
def test_annotate_option_out_of_range_exit_1(capsys, tmp_path, option, value):
    # The job file does not exist and port 9 on localhost serves nothing: only a
    # usage error, raised before either is touched, gives exit 1 here.
    out_path = tmp_path / "out.jsonl"
    code, out, err = run_cli(capsys, ["annotate", "-i", str(tmp_path / "missing.jsonl"), "-o", str(out_path),
                                      "--endpoint", "http://127.0.0.1:9/generate", option, value])
    assert code == 1
    assert option in err
    assert "Traceback" not in err
    assert out == ""
    assert not out_path.exists()


def _fresh_python(*args, stdin=subprocess.DEVNULL):
    """A fresh interpreter, with this checkout's src/ on its path, run on args with stdin read from a file."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, stdin=stdin,
                          capture_output=True, text=True, timeout=60)


def test_python_m_mmprep_runs_the_cli():
    def run(*args):
        return _fresh_python("-m", "mmprep", *args)

    stages = run("stages")
    assert stages.returncode == 0
    assert [s["name"] for s in json.loads(stages.stdout)][0] == "Stage-1"
    bad = run("pack", "--l-max", "0")
    assert bad.returncode == 1
    assert "--l-max" in bad.stderr


@pytest.mark.parametrize("output", [[], ["-o", "out.jsonl"]], ids=["stdout", "file"])
def test_non_utf8_stdin_exit_1(tmp_path, monkeypatch, output):
    # UTF-8 mode gives sys.stdin the surrogateescape handler, as the C and UTF-8 locales do.
    monkeypatch.setenv("PYTHONUTF8", "1")
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "in.jsonl"
    bad.write_bytes(b'{"id": "a\xff", "items": [], "text_tokens": 1, "tags": []}\n')
    with bad.open("rb") as fh:
        proc = _fresh_python("-m", "mmprep", "plan", *output, stdin=fh)
    assert proc.returncode == 1
    assert "input stdin is not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "out.jsonl").exists() or (tmp_path / "out.jsonl").read_bytes() == b""
    # a lone \r between JSON tokens is whitespace, not a line end, as sys.stdin reads it
    bad.write_bytes(b'{"id": "a\xc3\xa9",\r "items": [], "text_tokens": 1, "tags": []}\n')
    with bad.open("rb") as fh:
        proc = _fresh_python("-m", "mmprep", "plan", *output, stdin=fh)
    assert proc.returncode == 0, proc.stderr
    written = (tmp_path / "out.jsonl").read_text(encoding="utf-8") if output else proc.stdout
    assert json.loads(written)["id"] == "a\u00e9"


def test_bench_setup_code_runs_against_a_feature_dir(tmp_path, monkeypatch):
    # bench/worker.py times this code in a fresh interpreter as every workload's
    # setup_s; a rename of a curator name it calls must fail here, not in a benchmark run.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker prepends src/ and bench/
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_worker", root / "bench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    rng = np.random.default_rng(17)
    for k in range(3):
        write_feature_file(tmp_path / f"r{k}.feat", f"r{k}", rng.normal(size=(15 + 10 * k, 8)), binary=k != 1)
    proc = subprocess.run([sys.executable, "-c", worker.SETUP_CODE, str(root / "src"), str(tmp_path)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# Runs cli.main on argv, then fails naming any heavy module that importing the CLI
# and running the command loaded; one the interpreter's start-up (site) loaded
# before them does not count.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
from mmprep import cli
rc = cli.main(sys.argv[1:])
heavy = ("numpy", "mmprep.curator", "mmprep.annotator", "urllib.request", "http.client", "dataclasses", "fractions")
loaded = [m for m in heavy if m in sys.modules and m not in before]
sys.exit(f"loaded {loaded}" if loaded else rc)
"""


@pytest.mark.parametrize("argv", [
    ["plan", "-i", "{manifest}"], ["pack", "-i", "{plans}"], ["tile", "-i", "{manifest}"], ["stages"],
    ["validate", "--kind", "manifest", "-i", "{manifest}"], ["validate", "--kind", "plans", "-i", "{plans}"],
], ids=["plan", "pack", "tile", "stages", "validate-manifest", "validate-plans"])
def test_commands_other_than_curate_and_annotate_load_neither(small_manifest, tmp_path, argv):
    # numpy is curate's alone and the HTTP client annotate's alone; a fresh
    # interpreter that runs any other command must not pay to import them, nor
    # dataclasses and fractions, which no such command needs.
    plans = tmp_path / "plans.jsonl"
    assert cli.main(["plan", "-i", str(small_manifest), "-o", str(plans)]) == 0
    argv = [a.format(manifest=small_manifest, plans=plans) for a in argv]
    proc = _fresh_python("-c", _IMPORT_PROBE, *argv, "-o", str(tmp_path / "out.jsonl"))
    assert proc.returncode == 0, proc.stderr


# --- config layering -----------------------------------------------------------------


def test_config_file_provides_defaults(capsys, small_manifest, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plan": {"l-max": 8192}}))
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "plan", "-i", str(small_manifest)])
    assert code == 0
    first = json.loads(out.splitlines()[0])
    # 8192 budget: video gets (8192-768)//256 = 29 frames
    assert first["total_tokens"] == 768 + 29 * 256
    # MMPREP_CONFIG_PATH names the file when --config is not given
    monkeypatch.setenv("MMPREP_CONFIG_PATH", str(cfg))
    code, out_env, _ = run_cli(capsys, ["plan", "-i", str(small_manifest)])
    assert (code, out_env) == (0, out)


def test_flag_overrides_config_file(capsys, small_manifest, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plan": {"l_max": 8192}}))
    code, out, _ = run_cli(
        capsys, ["--config", str(cfg), "plan", "-i", str(small_manifest), "--l-max", "32768"]
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["total_tokens"] == 32768


def test_env_overrides_config_but_not_flag(capsys, small_manifest, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plan": {"l_max": 8192}}))
    monkeypatch.setenv("MMPREP_PLAN_L_MAX", "16384")
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "plan", "-i", str(small_manifest)])
    assert code == 0
    assert json.loads(out.splitlines()[0])["total_tokens"] == 768 + ((16384 - 768) // 256) * 256

    code, out, _ = run_cli(
        capsys, ["--config", str(cfg), "plan", "-i", str(small_manifest), "--l-max", "32768"]
    )
    assert json.loads(out.splitlines()[0])["total_tokens"] == 32768


def test_env_value_is_checked_like_a_flag(capsys, small_manifest, monkeypatch):
    monkeypatch.setenv("MMPREP_PLAN_L_MAX", "abc")
    code, out, err = run_cli(capsys, ["plan", "-i", str(small_manifest)])
    assert code == 1
    assert "--l-max" in err
    assert "Traceback" not in err
    assert out == ""


_NOT_A_STRING_OR_NUMBER = "config file {cfg}: 'plan' option 'l_max' must be a JSON string or number"
_NUL_OR_SURROGATE = "config file {cfg}: '%s' option '%s' holds a NUL or an unpaired surrogate"


# Every key of the file is checked whatever the command; only the invoked
# command's values are parsed, so the fraction is given to plan itself. Its
# input does not exist: a value let through would exit 2, not 1.
@pytest.mark.parametrize("content, argv, message", [
    ("{not json", ["stages"], "config file {cfg} is not UTF-8 JSON"),
    ('{"stages": 3}', ["stages"], "config file {cfg}: 'stages' must hold a JSON object"),
    ('{"plan": {"l_maxx": 5}}', ["stages"], "config file {cfg}: 'plan' has no option 'l_maxx'"),
    ('{"plann": {}}', ["stages"], "config file {cfg}: 'plann' names no subcommand"),
    ('{"plan": {"l_max": true}}', ["stages"], _NOT_A_STRING_OR_NUMBER),
    ('{"plan": {"l_max": null}}', ["stages"], _NOT_A_STRING_OR_NUMBER),
    ('{"plan": {"l_max": [1]}}', ["stages"], _NOT_A_STRING_OR_NUMBER),
    ('{"plan": {"l_max": 8192.7}}', ["plan", "-i", "{missing}"], "argument --l-max: '8192.7' is not an integer"),
    ('{"plan": {"l_max": 0}}', ["plan", "--l-max", "8192", "-i", "{missing}"],
     "argument --l-max: '0' is not an integer"),
    ('{"plan": {"output_path": "out\\ud800.jsonl"}}', ["plan", "-i", "{missing}"],
     _NUL_OR_SURROGATE % ("plan", "output_path")),
    ('{"plan": {"output-path": "a\\u0000b"}}', ["plan", "-i", "{missing}"],
     _NUL_OR_SURROGATE % ("plan", "output-path")),
    ('{"curate": {"reference_dir": "ref\\udc80"}}', ["curate", "--candidates", "{missing}"],
     _NUL_OR_SURROGATE % ("curate", "reference_dir")),
    ('{"curate": {"reference_dir": "a\\u0000b"}}', ["curate", "--candidates", "{missing}"],
     _NUL_OR_SURROGATE % ("curate", "reference_dir")),
], ids=["not-json", "command-not-object", "unknown-option", "unknown-command",
        "l_max-true", "l_max-null", "l_max-list", "plan-l_max-fraction", "plan-l_max-0-under-a-flag",
        "plan-output-surrogate", "plan-output-nul", "curate-reference-surrogate", "curate-reference-nul"])
def test_bad_config_file_exit_1(capsys, tmp_path, content, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content, encoding="utf-8")
    argv = [a.format(missing=tmp_path / "missing.jsonl") for a in argv]
    code, out, err = run_cli(capsys, ["--config", str(cfg), *argv])
    assert code == 1
    assert message.format(cfg=cfg) in err
    assert "Traceback" not in err
    assert out == ""


def test_cli_runs_without_click():
    probe = ("import os, sys; sys.modules['click'] = None; from mmprep import cli; "
             "sys.exit(cli.main(['stages', '-o', os.devnull]))")
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
