"""Generative boundary tests: damaged manifests, plan files and feature directories through cli.main, in-process.

Each example starts from valid records, damages one of them (an odd value in
one place, a deleted key or a value nested one level deeper) and runs the
commands that read it. Whatever the damage, a command exits 0 or 1, prints no
traceback, and names the line of a rejected record; what it accepts, the next
command accepts too. A damaged feature file (cut short, a byte changed, a
header value changed, emptied, a clip zeroed) makes curate exit 0 or 1 with
every error line naming the file, the same whether the reference is read in
one process or split.
"""

import collections
import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmprep import budget, cli, curator, manifest
from tests.conftest import damaged, split_reference_into

L_MAX = 4096
_VALID_SAMPLES = (
    {"id": "img", "items": [{"kind": "image", "uri": "a.jpg", "width": 896, "height": 448},
                            {"kind": "image", "width": 300, "height": 2000}], "text_tokens": 100, "tags": ["t"]},
    {"id": "vid", "items": [{"kind": "video", "uri": "v.mp4", "duration_s": 30.5},
                            {"kind": "document", "pages": 4}], "text_tokens": 50},
    {"id": "txt", "items": [], "text_tokens": 10},
    {"id": "long", "items": [{"kind": "video", "duration_s": 600}], "text_tokens": 3000},
)
# Every record plan writes for the valid samples: planned ones and an insufficient_budget discard.
_VALID_PLANS = tuple(
    json.loads(budget.dumps_plan(budget.plan(manifest.parse_record(json.dumps(s), 1), budget.BudgetConfig(L_MAX))))
    for s in _VALID_SAMPLES
)
_ODD_VALUES = st.sampled_from([None, True, -1, 10**400, 1e308, 5e-324, "", [], {}, float("nan"), float("inf")])


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


def _write(path, records, bad, at):
    """records as JSON lines, with bad in place of record at."""
    lines = [json.dumps(bad if i == at else r) for i, r in enumerate(records)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run(*argv):
    """cli.main's exit code, once it is 0 or 1 and stderr holds no traceback and names the line of any error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    err = err.getvalue()
    assert code in (0, 1), err
    assert "Traceback" not in err
    for line in err.splitlines():
        if line.startswith("Error:"):
            assert re.search(r" at line \d+$", line), line
    return code


@settings(max_examples=300, derandomize=True, deadline=None)
@given(bad=damaged(_VALID_SAMPLES, _ODD_VALUES), at=st.integers(0, len(_VALID_SAMPLES) - 1))
@example(bad={**_VALID_SAMPLES[3], "items": [{"kind": "video", "duration_s": 1e308}]}, at=3)  # 2e308 frames
def test_a_damaged_manifest_is_planned_tiled_and_validated_or_rejected_by_line(work_dir, bad, at):
    src, plans, out = work_dir / "manifest.jsonl", work_dir / "plans.jsonl", work_dir / "out.jsonl"
    _write(src, _VALID_SAMPLES, bad, at)
    for argv in (["tile"], ["validate", "--kind", "manifest"]):
        _run(*argv, "-i", src, "-o", out)
        assert "Traceback" not in out.read_text(encoding="utf-8")
    if _run("plan", "--l-max", L_MAX, "-i", src, "-o", plans) == 0:
        assert _run("validate", "--kind", "plans", "--l-max", L_MAX, "-i", plans, "-o", out) == 0


@settings(max_examples=300, derandomize=True, deadline=None)
@given(bad=damaged(_VALID_PLANS, _ODD_VALUES), at=st.integers(0, len(_VALID_PLANS) - 1))
def test_a_damaged_plan_file_is_packed_and_validated_or_rejected_by_line(work_dir, bad, at):
    src, packs, out = work_dir / "plans.jsonl", work_dir / "packs.jsonl", work_dir / "out.jsonl"
    _write(src, _VALID_PLANS, bad, at)
    _run("validate", "--kind", "plans", "--l-max", L_MAX, "-i", src, "-o", out)
    assert "Traceback" not in out.read_text(encoding="utf-8")
    if _run("pack", "--l-max", L_MAX, "-i", src, "-o", packs) == 0:
        records = [bad if i == at else r for i, r in enumerate(_VALID_PLANS)]
        planned = [r["id"] for r in records if r["verdict"] == "planned"]
        members = [m for line in packs.read_text(encoding="utf-8").splitlines() for m in json.loads(line)["member_ids"]]
        assert collections.Counter(members) == collections.Counter(planned)


def _feature_file(video_id: str, track: np.ndarray, binary: bool) -> bytes:
    """A feature file's bytes, as curator.write_feature_file writes them."""
    header = {"video_id": video_id, "dim": track.shape[1], "fps": 1, "count": len(track),
              "encoding": "f32le" if binary else "text"}
    body = track.astype("<f4").tobytes() if binary else "".join(
        " ".join(repr(float(v)) for v in row) + "\n" for row in track).encode()
    return json.dumps(header).encode() + b"\n" + body


# Three files a side, binary and text, with tail clips: {side: {filename: (video_id, track, binary)}}.
_FEATURES = {side: {f"{side[0]}{k}.feat": (f"{side}{k}", np.random.default_rng(k).normal(size=(seconds, 4))
                                           .astype(np.float32), k != 1)
                    for k, seconds in enumerate((25, 12, 31))} for side in ("ref", "cand")}
_DELETE = object()
_HEADER_VALUES = st.sampled_from([_DELETE, None, True, 0, 1, 3, 5, 12, 1000, 10**400, 1.0, 4.0, "", "x", "f32le",
                                  "text", [], {}, "cand0", "ref2"])


@st.composite
def _damaged_feature_file(draw):
    """(side, filename, bytes) of one of the valid feature files, cut short, a byte changed, a header value
    changed or deleted, emptied, or one clip zeroed."""
    side = draw(st.sampled_from(sorted(_FEATURES)))
    name = draw(st.sampled_from(sorted(_FEATURES[side])))
    video_id, track, binary = _FEATURES[side][name]
    data = _feature_file(video_id, track, binary)
    damage = draw(st.sampled_from(["truncate", "corrupt", "header", "empty", "zero-clip"]))
    if damage == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif damage == "corrupt":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1 :]
    elif damage == "header":
        head, body = data.split(b"\n", 1)
        header = json.loads(head)
        key, value = draw(st.sampled_from(sorted(header))), draw(_HEADER_VALUES)
        if value is _DELETE:
            del header[key]
        else:
            header[key] = value
        data = json.dumps(header).encode() + b"\n" + body
    elif damage == "empty":
        data = b""
    else:
        clip = draw(st.integers(0, curator.clip_count(len(track)) - 1)) * curator.CLIP_SECONDS
        zeroed = track.copy()
        zeroed[clip : clip + curator.CLIP_SECONDS] = 0.0
        data = _feature_file(video_id, zeroed, binary)
    return side, name, data


@settings(max_examples=100, derandomize=True, deadline=None)
@given(damage=_damaged_feature_file(), pool=st.sampled_from(["mean", "max"]))
@example(damage=("cand", "c1.feat", _feature_file("cand0", *_FEATURES["cand"]["c1.feat"][1:])), pool="mean")
def test_a_damaged_feature_file_is_curated_or_named_alike_in_one_process_and_split(work_dir, damage, pool):
    side, name, data = damage
    for sub, files in _FEATURES.items():
        (work_dir / sub).mkdir(exist_ok=True)
        for filename, file in files.items():
            (work_dir / sub / filename).write_bytes(data if (sub, filename) == (side, name) else _feature_file(*file))
    out = work_dir / "curate.jsonl"
    runs = []
    for shares in (1, 2):
        out.unlink(missing_ok=True)
        with pytest.MonkeyPatch.context() as monkeypatch:
            split_reference_into(monkeypatch, shares)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["curate", "--reference", str(work_dir / "ref"), "--candidates",
                                 str(work_dir / "cand"), "--pool", pool, "-o", str(out)])
        runs.append((code, err.getvalue(), out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    code, err, written = runs[0]
    assert code in (0, 1), err
    assert "Traceback" not in err + (written or b"").decode("utf-8", "replace")
    errors = [line for line in err.splitlines() if line.startswith("Error:")]
    assert len(errors) == (code == 1)
    for line in errors:
        assert str(work_dir / side / name) in line, line
