"""Golden digests of `plan`, `pack`, `tile`, `stages`, both kinds of `validate` and `annotate`, and `curate` records.

A change that makes a command faster or simpler must leave every output byte as
it was. The plan and pack manifest is built here from random.Random(25): videos
with awkward durations (0.1 s, 1/3 s, 7199.9 s and random ones), documents,
images, non-ASCII ids and text budgets that overflow at the smaller l_max. The
digests were taken from the code before the plan and pack paths were last
optimised. The tile manifest (random.Random(26)) adds slivers, exact tile
multiples and ids that need escaping; the validate manifest (random.Random(27))
holds one line of each manifest defect between valid lines. Their digests were
taken before the plan-record reader last changed. The plan file
(random.Random(28)) holds one line of each plan defect the README lists
between valid records with odd ids; its digest and summary were taken before
read_plan and dumps_plan read grids from tiling's per-grid tables. The job
file (random.Random(29)) holds story and clip jobs with non-ASCII titles and
escaped ids, run through a test-local endpoint whose replies depend on the
request alone, with a permanent failure and leaking brief captions; its digest
and summary were taken before plan, pack and tile split their input over the
CPUs. The plan, pack and tile digests hold whether the input is read in one
range or split into three. A mismatch means an output byte moved.

curate's scores come from a BLAS product, whose last bits depend on the CPU,
so its records are pinned in tests/data/curate_golden.json rather than by a
digest: ids, novel clips and verdicts exactly, every per_clip_smax within
1e-12, none within 1e-9 of tau. The feature dirs are built from
random.Random(30); the records were taken before kernels.smax took over the
scan's block rule, and hold whether the reference is read in one share or
three.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from mmprep import cli
from mmprep.annotator.pipeline import LlmError, LlmResponse
from mmprep.curator import write_feature_file
from tests.conftest import _CATEGORY_LINE, MockLlm, split_into, split_reference_into

DATA = Path(__file__).parent / "data"

DURATIONS = (0.1, 1 / 3, 7199.9, 2.5, 59.97, 600.0, 1e-3)


def _golden_manifest() -> str:
    rng = random.Random(25)
    records = []
    for k in range(500):
        items = []
        for j in range(rng.randint(0, 4)):
            kind = rng.choice(("image", "video", "video", "document"))
            if kind == "image":
                items.append({"kind": "image", "width": rng.randint(1, 4096), "height": rng.randint(1, 4096),
                              "uri": f"img://{k}/{j}"})
            elif kind == "video":
                d = rng.choice(DURATIONS) if rng.random() < 0.5 else round(rng.uniform(0.05, 7200.0), rng.randint(0, 6))
                items.append({"kind": "video", "duration_s": d, "uri": f"vid://{k}/{j}"})
            else:
                items.append({"kind": "document", "pages": rng.randint(1, 120), "uri": f"doc://{k}/{j}"})
        sid = f"g{k:03d}" if k % 7 else f"g{k:03d}-é中"
        records.append(json.dumps({"id": sid, "items": items, "text_tokens": rng.randint(0, 6000), "tags": ["golden"]},
                                  ensure_ascii=False))
    return "\n".join(records) + "\n"


GOLDEN = {
    4096: ("19498358a686fe04c651d47bfc9599e78228132edb30797dd9290016d67b610c",
           "48e41135d38d1236ae845ff7aba428d2ca5e4c6b3ca0036b1d27ee9eb4fbd3f4"),
    32768: ("caefabb39b37f6c527deebd744af685ebdebd8ec391f370ddf1f623ee3e2278b",
            "7b738f384394a7f031ae750fcc971e4a95abeb899d0a4ba88034781ba117f097"),
}


@pytest.mark.parametrize("ranges", [1, 3])
@pytest.mark.parametrize("l_max", sorted(GOLDEN))
def test_plan_and_pack_outputs_match_their_golden_digests(tmp_path, monkeypatch, l_max, ranges):
    split_into(monkeypatch, ranges)
    manifest, plans, packs = tmp_path / "m.jsonl", tmp_path / "plans.jsonl", tmp_path / "packs.jsonl"
    manifest.write_text(_golden_manifest(), encoding="utf-8")
    assert cli.main(["plan", "--l-max", str(l_max), "-i", str(manifest), "-o", str(plans)]) == 0
    assert cli.main(["pack", "--l-max", str(l_max), "-i", str(plans), "-o", str(packs)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (plans, packs))
    assert digests == GOLDEN[l_max]


# Ids a writer must escape: a quote, a backslash, control characters, line and
# paragraph separators and non-ASCII characters, one outside the BMP; tile
# writes them ASCII-escaped.
ODD_IDS = ('q"uote', "back\\slash", "tab\there", "nl\nid", "ls\u2028ps\u2029", "\u00e9\u4e2d", "\U0001F600x",
           "\x7f\x01")


def _golden_images_manifest() -> str:
    rng = random.Random(26)
    records = []
    for k in range(300):
        items = []
        for j in range(rng.randint(0, 5)):
            kind = rng.choice(("image", "image", "image", "video", "document"))
            if kind == "image":
                shape = rng.random()
                if shape < 0.1:  # a sliver, either way round
                    w, h = rng.randint(1, 8), rng.randint(1000, 20000)
                    w, h = (w, h) if rng.random() < 0.5 else (h, w)
                elif shape < 0.2:  # an exact tile multiple
                    w, h = 448 * rng.randint(1, 6), 448 * rng.randint(1, 6)
                else:
                    w, h = rng.randint(1, 6000), rng.randint(1, 6000)
                items.append({"kind": "image", "width": w, "height": h, "uri": f"img://{k}/{j}"})
            elif kind == "video":
                items.append({"kind": "video", "duration_s": rng.choice(DURATIONS), "uri": f"vid://{k}/{j}"})
            else:
                items.append({"kind": "document", "pages": rng.randint(1, 50), "uri": f"doc://{k}/{j}"})
        sid = f"t{k:03d}" if k % 5 else f"t{k:03d}-{ODD_IDS[k // 5 % len(ODD_IDS)]}"
        records.append(json.dumps({"id": sid, "items": items, "text_tokens": rng.randint(0, 9000), "tags": []},
                                  ensure_ascii=rng.random() < 0.5))
    return "\n".join(records) + "\n"


TILE_GOLDEN = {
    1: "14c1376d05f59e1e1ea9f9d55f9e6b8de31edabaf88a97dabf816dadae6a2209",
    4: "6fb77ec6380e141cdbd43d71b9ff2d0ff8022be27d5a69c70c114dda8fc7996a",
    12: "373d6af211d4b8ea3782c0a3002590bead6cc54e0d6dc9df93dbe7555e5980fd",
}


@pytest.mark.parametrize("ranges", [1, 3])
@pytest.mark.parametrize("tile_cap", sorted(TILE_GOLDEN))
def test_tile_output_matches_its_golden_digest(tmp_path, monkeypatch, tile_cap, ranges):
    split_into(monkeypatch, ranges)
    manifest, out = tmp_path / "m.jsonl", tmp_path / "tiles.jsonl"
    manifest.write_text(_golden_images_manifest(), encoding="utf-8")
    assert cli.main(["tile", "--tile-cap", str(tile_cap), "-i", str(manifest), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TILE_GOLDEN[tile_cap]


STAGES_GOLDEN = "a23432f487e6590cbd12e8b3d7c6e6d6f4be473002bbfe4eb7b287ca1894950b"


def test_stages_output_matches_its_golden_digest(tmp_path):
    out = tmp_path / "stages.json"
    assert cli.main(["stages", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STAGES_GOLDEN


def _defective_manifest() -> str:
    """Valid records interleaved with one line of each manifest defect, blank lines and escaped text."""
    rng = random.Random(27)
    ok = '{"id": %s, "items": [{"kind": "image", "width": 640, "height": 480}], "text_tokens": 5}'
    defects = [
        '{"id": "x", "items": [',  # not JSON
        '{"id": "deep", "items": ' + "[" * 100_000 + "]" * 100_000 + ', "text_tokens": 1}',
        '{"id": "big", "items": [], "text_tokens": 1' + "0" * 5000 + '}',
        r'{"id": "a\ud800b", "items": [], "text_tokens": 1}',  # unpaired surrogate escape
        '[{"id": "arr"}]',  # not an object
        '{"id": "", "items": [], "text_tokens": 1}',
        '{"id": 7, "items": [], "text_tokens": 1}',
        '{"id": "v0", "items": [], "text_tokens": 1}',  # duplicate of the first valid id
        '{"id": "tt-neg", "items": [], "text_tokens": -1}',
        '{"id": "tt-bool", "items": [], "text_tokens": true}',
        '{"id": "tt-missing", "items": []}',
        '{"id": "items-obj", "items": {}, "text_tokens": 1}',
        '{"id": "item-num", "items": [5], "text_tokens": 1}',
        '{"id": "uri-num", "items": [{"kind": "image", "width": 1, "height": 1, "uri": 5}], "text_tokens": 1}',
        '{"id": "kind", "items": [{"kind": "audio"}], "text_tokens": 1}',
        '{"id": "width", "items": [{"kind": "image", "width": 0, "height": 1}], "text_tokens": 1}',
        '{"id": "height", "items": [{"kind": "image", "width": 1, "height": true}], "text_tokens": 1}',
        '{"id": "dur-zero", "items": [{"kind": "video", "duration_s": 0}], "text_tokens": 1}',
        '{"id": "dur-nan", "items": [{"kind": "video", "duration_s": NaN}], "text_tokens": 1}',
        '{"id": "dur-inf", "items": [{"kind": "video", "duration_s": 1e400}], "text_tokens": 1}',
        '{"id": "dur-str", "items": [{"kind": "video", "duration_s": "5"}], "text_tokens": 1}',
        '{"id": "pages", "items": [{"kind": "document", "pages": 0}], "text_tokens": 1}',
        '{"id": "tags-num", "items": [], "text_tokens": 1, "tags": [1]}',
        '{"id": "tags-str", "items": [], "text_tokens": 1, "tags": "x"}',
    ]
    valid = [ok % json.dumps(f"v{k}-{ODD_IDS[k % len(ODD_IDS)]}" if k else "v0", ensure_ascii=k % 2 == 0)
             for k in range(2 * len(defects))]
    valid.append(r'{"id": "esc\/aped\"😀", "items": [], "text_tokens": 0, "tags": ["a\/b"]}')
    lines = valid[:1] + [line for pair in zip(defects, valid[1:]) for line in pair] + valid[1 + len(defects):]
    return "\n".join(line if rng.random() < 0.8 else "\n  " + line for line in lines) + "\n"


VALIDATE_MANIFEST_GOLDEN = "83c0379ec6c40078ca6f33c3a388303b9d2bd20cea6db46fc9d5043260377429"


def test_validate_manifest_output_matches_its_golden_digest(capsys, tmp_path):
    manifest, out = tmp_path / "m.jsonl", tmp_path / "errors.jsonl"
    manifest.write_text(_defective_manifest(), encoding="utf-8")
    assert cli.main(["validate", "--kind", "manifest", "-i", str(manifest), "-o", str(out)]) == 1
    assert capsys.readouterr().err.endswith("49 valid samples, 24 errors\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VALIDATE_MANIFEST_GOLDEN


# Grids of a valid record: every shape up to the cap, and the 12-tile ones.
_GRIDS = [(c, r) for c in range(1, 13) for r in range(1, 12 // c + 1)]


def _valid_plan(rng: random.Random, sid: str) -> dict:
    """A record plan could write at l_max 32768: planned with mixed items, or one of the two discards."""
    shape = rng.random()
    if shape < 0.15:
        return {"id": sid, "verdict": "discarded", "reason": "text_overflow", "tile_cap": None, "n_per_item": [],
                "grids": [], "timestamps": [], "l_text": rng.randint(32768, 40000), "total_tokens": None}
    if shape < 0.25:
        return {"id": sid, "verdict": "discarded", "reason": "insufficient_budget", "tile_cap": None,
                "n_per_item": [], "grids": [], "timestamps": [], "l_text": rng.randint(0, 32767),
                "total_tokens": None}
    cap = rng.choice((12, 8, 6, 4, 2, 1))
    counts, grids, stamps, cost = [], [], [], 0
    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(("image", "image", "video", "document"))
        if kind == "image":
            cols, rows = rng.choice([g for g in _GRIDS if g[0] * g[1] <= cap])
            counts.append(0), grids.append([cols, rows]), stamps.append([])
            cost += 256 if cols * rows == 1 else 256 * (cols * rows + 1)
        else:
            n = rng.randint(1, 9)
            counts.append(n), grids.append(None)
            stamps.append([(k + 0.5) * rng.choice((0.1, 1 / 3, 2.5)) for k in range(n)] if kind == "video" else [])
            cost += 256 * n
    l_text = rng.randint(0, 32768 - cost)
    return {"id": sid, "verdict": "planned", "tile_cap": cap, "n_per_item": counts, "grids": grids,
            "timestamps": stamps, "l_text": l_text, "total_tokens": l_text + cost}


def _defective_plans() -> str:
    """Valid records with odd ids interleaved with one line of each plan defect, and blank lines."""
    rng = random.Random(28)
    planned = ('{"id": "%s", "verdict": "planned", "tile_cap": 12, "n_per_item": [0, 3], "grids": [[2, 3], null], '
               '"timestamps": [[], [0.5, 1.5, 2.5]], "l_text": 100, "total_tokens": 2660}')
    discard = ('{"id": "%s", "verdict": "discarded", "reason": "text_overflow", "tile_cap": null, "n_per_item": [], '
               '"grids": [], "timestamps": [], "l_text": 40000, "total_tokens": null}')
    defects = [
        '{"id": "x", "verdict": [',  # not JSON
        '{"id": "deep", "grids": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"id": "big", "l_text": 1' + "0" * 5000 + "}",
        r'{"id": "a\ud800b", "verdict": "planned"}',  # unpaired surrogate escape
        '[{"id": "arr"}]',  # not an object
        planned.replace('"%s"', '""'),
        planned.replace('"%s"', "7"),
        planned % "v0",  # duplicate of the first valid id
        planned.replace(', "l_text": 100', "") % "no-l-text",
        planned.replace('"verdict": "planned", ', "") % "no-verdict",
        planned.replace(', "total_tokens": 2660', "") % "no-total",
        planned.replace('"planned"', '"maybe"') % "verdict",
        planned.replace('"l_text": 100', '"l_text": -1') % "l-text-neg",
        planned.replace('"l_text": 100', '"l_text": true') % "l-text-bool",
        planned.replace("[0, 3]", "[0, -3]") % "count-neg",
        planned.replace("[0, 3]", "[0, 3.0]") % "count-float",
        planned.replace("2660", '"2660"') % "total-str",
        planned.replace('"tile_cap": 12', '"tile_cap": "12"') % "cap-str",
        planned.replace("[[2, 3], null]", "[[0, 3], null]") % "grid-zero",
        planned.replace("[[2, 3], null]", "[[2], null]") % "grid-short",
        planned.replace("[[2, 3], null]", "[[true, 3], null]") % "grid-bool",
        planned.replace("[[2, 3], null]", '"2x3"') % "grids-str",
        planned.replace("[0.5, 1.5, 2.5]", "[0.5, NaN, 2.5]") % "stamp-nan",
        planned.replace("[0.5, 1.5, 2.5]", "[0.5, true, 2.5]") % "stamp-bool",
        planned.replace("[[], [0.5, 1.5, 2.5]]", "[[], 0.5]") % "stamps-flat",
        planned.replace('"verdict": "planned"', '"verdict": "planned", "reason": 5') % "reason-num",
        planned.replace('"tile_cap": 12', '"tile_cap": 13') % "cap-13",
        planned.replace('"tile_cap": 12', '"tile_cap": null') % "cap-null",
        planned.replace('"tile_cap": 12', '"tile_cap": 4') % "cap-below-grid",
        planned.replace("[[2, 3], null]", "[[12, 12], null]") % "grid-12x12",
        planned.replace("[[2, 3], null]", "[[2, 3]]") % "grids-short",
        planned.replace("[[2, 3], null]", "[[2, 3], [1, 1]]") % "grid-and-units",
        planned.replace("[0, 3]", "[1, 3]") % "neither",
        planned.replace("[0.5, 1.5, 2.5]", "[0.5, 1.5]") % "stamps-count",
        planned.replace("[[], [0.5, 1.5, 2.5]]", "[[0.5, 1.5, 2.5]]") % "stamps-align",
        planned.replace("2660", "2661") % "cost",
        planned.replace('"l_text": 100', '"l_text": 30300').replace("2660", "32860") % "over-l-max",
        planned.replace('"verdict": "planned"', '"verdict": "planned", "reason": "text_overflow"') % "planned-reason",
        discard.replace('"reason": "text_overflow", ', "") % "no-reason",
        discard.replace('"text_overflow"', '"too_long"') % "bad-reason",
        discard.replace('"total_tokens": null', '"total_tokens": 40000') % "discard-total",
        discard.replace('"tile_cap": null', '"tile_cap": 12') % "discard-cap",
        discard.replace('"n_per_item": []', '"n_per_item": [1]') % "discard-units",
        discard.replace('"grids": []', '"grids": [null]') % "discard-grids",
        discard.replace('"timestamps": []', '"timestamps": [[]]') % "discard-stamps",
        discard.replace('"l_text": 40000', '"l_text": 10') % "overflow-short",
        discard.replace('"text_overflow"', '"insufficient_budget"') % "insufficient-long",
    ]
    valid = [_valid_plan(rng, f"v{k}-{ODD_IDS[k % len(ODD_IDS)]}" if k else "v0") for k in range(2 * len(defects))]
    valid = [json.dumps(rec, ensure_ascii=k % 2 == 0) for k, rec in enumerate(valid)]
    lines = valid[:1] + [line for pair in zip(defects, valid[1:]) for line in pair] + valid[1 + len(defects):]
    return "\n".join(line if rng.random() < 0.8 else "\n  " + line for line in lines) + "\n"


VALIDATE_PLANS_GOLDEN = "fe74f14913466a6658fb25b41c3fc00e2f0853a4be0b2215d0bb09e08231307e"


def test_validate_plans_output_matches_its_golden_digest(capsys, tmp_path):
    plans, out = tmp_path / "plans.jsonl", tmp_path / "errors.jsonl"
    plans.write_text(_defective_plans(), encoding="utf-8")
    assert cli.main(["validate", "--kind", "plans", "--l-max", "32768", "-i", str(plans), "-o", str(out)]) == 1
    assert capsys.readouterr().err.endswith("141 plans checked, 47 errors\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VALIDATE_PLANS_GOLDEN


# Titles and words a job file and the fake endpoint draw from: non-ASCII titles,
# and QA answers that some brief captions name, so those captions leak.
_TITLES = ("Café opening", "中文 chapter", "naïve ending", "plain", "emoji 😀 scene", 'a "quoted" title')
_BRIEFS = ("a dog by the harbor", "two cyclists at dusk", "a red kite over the harbor", "a quiet market stall")
_ANSWERS = ("the harbor", "two cyclists", "a red kite", "the morning light")


def _golden_jobs() -> str:
    """Story and clip jobs: odd chapter counts and spans, optional clip titles, escaped ids, failing uris."""
    rng = random.Random(29)
    records = []
    for k in range(40):
        vid = f"j{k:02d}" if k % 4 else f"j{k:02d}-{ODD_IDS[k // 4 % len(ODD_IDS)]}"
        uri = f"vid://{k}" + ("/refused" if k % 11 == 5 else "")
        t, segments = 0.0, []
        story = rng.random() < 0.45
        for _ in range(rng.randint(1, 4) if story else rng.randint(1, 3)):  # a one-chapter story fails validate
            start = t + rng.choice((0, 0.5, 2.25))
            end = start + rng.choice((1, 2.5, 7.5, 30, 61.7))
            segment = {"start": start, "end": end}
            if story or rng.random() < 0.5:
                segment = {"title": rng.choice(_TITLES), **segment}
            segments.append(segment)
            t = end if story else rng.uniform(0, 100)
        records.append({"video_id": vid, "uri": uri, ("chapters" if story else "clips"): segments})
    return "".join(json.dumps(r, ensure_ascii=rng.random() < 0.5) + "\n" for r in records)


class _RequestLlm:
    """An endpoint whose reply depends on the request alone, so any thread order gives the same records.

    A request for a uri holding "/refused" fails for good. A brief caption is
    one of _BRIEFS, and a QA answer one of _ANSWERS; some name the same thing,
    so the brief leaks and is asked for again with the answer banned. Nothing
    here makes the pipeline wait out a backoff.
    """

    def submit(self, request):
        if any("/refused" in ref for ref in request.image_refs):
            raise LlmError("model refused the request")
        h = hashlib.sha256("\0".join((request.prompt, *request.image_refs)).encode()).digest()
        if "Guidelines For Brief Caption" in request.prompt:
            return LlmResponse(text=json.dumps({"Brief Caption": _BRIEFS[h[0] % 4], "Detailed Caption": h[:6].hex()}))
        names = _CATEGORY_LINE.findall(MockLlm._categories_section(request.prompt))
        return LlmResponse(text=json.dumps({
            name: None if h[i] % 5 == 0 else {"Q": f"What about the {name}?", "A": _ANSWERS[h[i + 8] % 4]}
            for i, name in enumerate(names)
        }))


ANNOTATE_GOLDEN = ("7d00c05565dfb240bb14f731ad92f3875138f44f2e34544218d2408cd2c01b20", "31/40 jobs annotated, 9 failed")


def test_annotate_output_matches_its_golden_digest(capsys, tmp_path, monkeypatch):
    jobs, out = tmp_path / "jobs.jsonl", tmp_path / "annotations.jsonl"
    jobs.write_text(_golden_jobs(), encoding="utf-8")
    monkeypatch.setattr(cli, "_make_client", lambda *args: _RequestLlm())
    code = cli.main(["annotate", "--endpoint", "http://127.0.0.1:9/generate", "-i", str(jobs), "-o", str(out)])
    summary = capsys.readouterr().err.splitlines()[-1]
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest(), summary) == (3, *ANNOTATE_GOLDEN)


# Ids a curate record must escape: a quote, a backslash and a non-ASCII character.
CURATE_IDS = ('q"uote', "back\\slash", "é中")
CURATE_TAU = {"mean": 0.5, "max": 0.9}  # max pooling of these tracks lifts every similarity
CURATE_GOLDEN = DATA / "curate_golden.json"


def _golden_curate_dirs(tmp_path) -> list[str]:
    """ref/ and cand/ feature dirs at dim 64, with tail clips and one text body a side; returns the curate argv.

    Every fourth candidate is a noisy copy of a reference track, at a noise level
    that puts its mean-pooled clips on either side of tau; the others are new
    tracks.
    """
    rng = random.Random(30)

    def track(seconds):
        return np.array([[rng.gauss(0.0, 1.0) for _ in range(64)] for _ in range(seconds)])

    refs = []
    for sub, n in (("ref", 10), ("cand", 14)):
        (tmp_path / sub).mkdir()
        for k in range(n):
            if sub == "cand" and k % 4 == 0:
                copied = rng.choice(refs)
                vectors = copied + track(len(copied)) * rng.choice((1.2, 1.7, 2.4))
            else:
                vectors = track(rng.randint(1, 45))
            if sub == "ref":
                refs.append(vectors)
            video_id = f"{sub}{k}" + (f"-{CURATE_IDS[k // 3 % 3]}" if k % 3 == 0 else "")
            write_feature_file(tmp_path / sub / f"{sub[0]}{k:02d}.feat", video_id, vectors, binary=k != 5)
    return ["curate", "--reference", str(tmp_path / "ref"), "--candidates", str(tmp_path / "cand")]


@pytest.mark.parametrize("shares", [1, 3])
@pytest.mark.parametrize("pool", ["mean", "max"])
def test_curate_output_matches_its_golden_records(tmp_path, monkeypatch, pool, shares):
    split_reference_into(monkeypatch, shares)
    out = tmp_path / "curate.jsonl"
    tau = CURATE_TAU[pool]
    assert cli.main([*_golden_curate_dirs(tmp_path), "--pool", pool, "--tau", str(tau), "-o", str(out)]) == 0
    got = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    golden = json.loads(CURATE_GOLDEN.read_text(encoding="utf-8"))[pool]
    assert [(r["video_id"], len(r["per_clip_smax"]), r["novel_clips"], r["selected"]) for r in got] == \
        [(r["video_id"], len(r["per_clip_smax"]), r["novel_clips"], r["selected"]) for r in golden]
    stored = [s for r in golden for s in r["per_clip_smax"]]
    assert all(abs(s - tau) > 1e-9 for s in stored)  # no verdict hangs on the last bits
    assert np.allclose([s for r in got for s in r["per_clip_smax"]], stored, rtol=0, atol=1e-12)
    assert {r["selected"] for r in golden} == {True, False}
