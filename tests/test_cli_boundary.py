"""Generative boundary tests: damaged manifests and plan files through cli.main, in-process.

Each example starts from valid records, damages one of them (an odd value in
one place, a deleted key or a value nested one level deeper) and runs the
commands that read it. Whatever the damage, a command exits 0 or 1, prints no
traceback, and names the line of a rejected record; what it accepts, the next
command accepts too.
"""

import collections
import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmprep import budget, cli, manifest
from tests.conftest import damaged

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
