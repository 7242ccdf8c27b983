import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmprep import cli, tiling
from mmprep.curator import write_feature_file
from mmprep.manifest import ImageDims, dumps_sample
from tests.conftest import MockLlm, make_sample


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


def test_plan_parallel_jobs_preserve_order(capsys, small_manifest):
    _, serial, _ = run_cli(capsys, ["plan", "-i", str(small_manifest)])
    code, parallel, _ = run_cli(capsys, ["plan", "-i", str(small_manifest), "--jobs", "2"])
    assert code == 0
    assert parallel == serial


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_plan_huge_finite_duration_exit_1(capsys, tmp_path, jobs):
    # 1e308 s is finite, but 2 fps of it is not.
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_video_record("1e308").replace('"x"', '"huge-video"'))
    code, out, err = run_cli(capsys, ["plan", "--jobs", jobs, "-i", str(bad)])
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


def test_missing_input_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["plan", "-i", str(tmp_path / "nope.jsonl")])
    assert code == 2


def test_unknown_subcommand_usage_exit_1(capsys):
    code, _, err = run_cli(capsys, ["frobnicate"])
    assert code == 1
    assert "Usage" in err or "usage" in err


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
    plans.write_text(json.dumps({"id": "big", "verdict": "planned", "tile_cap": 1,
                                 "n_per_item": [], "timestamps": [], "total_tokens": 99999}) + "\n")
    code, _, err = run_cli(capsys, ["pack", "-i", str(plans), "--l-max", "32768"])
    assert code == 1
    assert "big" in err


def test_tile_subcommand_emits_geometry(capsys, tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(path, [make_sample("img", images=[(896, 448), (4000, 3000)])])
    code, out, _ = run_cli(capsys, ["tile", "-i", str(path)])
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert rows[0] == {"id": "img", "grid": [2, 1], "tokens": 768, "canvas": [896, 448]}
    assert rows[1]["grid"] == [4, 3]
    assert rows[1]["tokens"] == 3328


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
    lines = [rec, {**rec, "total_tokens": rec["total_tokens"] - 1}, {**rec, "grids": [[2, 1]]}]
    plans.write_text("".join(json.dumps(r) + "\n" for r in lines))
    code, out, _ = run_cli(capsys, ["validate", "--kind", "plans", "-i", str(plans)])
    assert code == 1
    errors = [json.loads(l) for l in out.splitlines()]
    assert [(e["line"], e["field"]) for e in errors] == [(2, "total_tokens"), (3, "grids")]
    assert "cost 1636" in errors[0]["error"]


def test_pack_rejects_malformed_grid(capsys, tmp_path):
    plans = tmp_path / "p.jsonl"
    plans.write_text(json.dumps({"id": "z", "verdict": "planned", "grids": [[0, 1]], "total_tokens": 1}) + "\n")
    code, out, err = run_cli(capsys, ["pack", "-i", str(plans)])
    assert code == 1
    assert "malformed plan at line 1" in err


@pytest.mark.parametrize("total", [{"total_tokens": "100"}, {}, {"total_tokens": -5}, {"total_tokens": True}],
                         ids=["string", "missing", "negative", "bool"])
def test_pack_rejects_malformed_total_tokens(capsys, tmp_path, total):
    plans = tmp_path / "p.jsonl"
    good = {"id": "ok", "verdict": "planned", "total_tokens": 10}
    plans.write_text(json.dumps(good) + "\n" + json.dumps({"id": "z", "verdict": "planned", **total}) + "\n")
    code, out, err = run_cli(capsys, ["pack", "-i", str(plans)])
    assert code == 1
    assert "malformed plan at line 2" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("rec, field", [
    ({"id": "x", "verdict": "planned", "l_text": -5, "total_tokens": -5}, "l_text"),
    ({"id": "y", "verdict": "planned", "n_per_item": [-1], "grids": [None], "l_text": 300, "total_tokens": 44},
     "n_per_item"),
    ({"id": "z", "verdict": "planned", "l_text": True, "total_tokens": True}, "l_text"),
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
    assert "malformed plan at line 1" in err and field in err


def test_validate_plans_kind(capsys, tmp_path):
    plans = tmp_path / "p.jsonl"
    plans.write_text(
        json.dumps({"id": "x", "verdict": "planned", "tile_cap": 1, "n_per_item": [],
                    "timestamps": [], "total_tokens": 50000}) + "\n"
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
    monkeypatch.setattr(cli, "_make_client", lambda endpoint, model, rpm: MockLlm())
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
    monkeypatch.setattr(cli, "_make_client", lambda endpoint, model, rpm: MockLlm())
    code, out, err = run_cli(
        capsys, ["annotate", "-i", str(jobs_path), "--endpoint", "http://example/generate"]
    )
    assert code == 3
    records = [json.loads(l) for l in out.splitlines()]
    assert len(records) == 2
    failed = [r for r in records if r["status"] == "failed"]
    assert failed[0]["video_id"] == "solo"


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


def test_python_m_mmprep_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "mmprep", *args], env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=60)

    stages = run("stages")
    assert stages.returncode == 0
    assert [s["name"] for s in json.loads(stages.stdout)][0] == "Stage-1"
    bad = run("pack", "--l-max", "0")
    assert bad.returncode == 1
    assert "--l-max" in bad.stderr


# --- config layering -----------------------------------------------------------------


def test_config_file_provides_defaults(capsys, small_manifest, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plan": {"l-max": 8192}}))
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "plan", "-i", str(small_manifest)])
    assert code == 0
    first = json.loads(out.splitlines()[0])
    # 8192 budget: video gets (8192-768)//256 = 29 frames
    assert first["total_tokens"] == 768 + 29 * 256


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
