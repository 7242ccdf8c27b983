"""Golden digests of `plan` and `pack` on a seeded mixed manifest.

A change that makes planning or packing faster must leave every output byte as
it was. The manifest is built here from random.Random(25): videos with awkward
durations (0.1 s, 1/3 s, 7199.9 s and random ones), documents, images, non-ASCII
ids and text budgets that overflow at the smaller l_max. The digests were taken
from the code before the plan and pack paths were last optimised; a mismatch
means an output byte moved.
"""

import hashlib
import json
import random

import pytest

from mmprep import cli

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


@pytest.mark.parametrize("l_max", sorted(GOLDEN))
def test_plan_and_pack_outputs_match_their_golden_digests(tmp_path, l_max):
    manifest, plans, packs = tmp_path / "m.jsonl", tmp_path / "plans.jsonl", tmp_path / "packs.jsonl"
    manifest.write_text(_golden_manifest(), encoding="utf-8")
    assert cli.main(["plan", "--l-max", str(l_max), "-i", str(manifest), "-o", str(plans)]) == 0
    assert cli.main(["pack", "--l-max", str(l_max), "-i", str(plans), "-o", str(packs)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (plans, packs))
    assert digests == GOLDEN[l_max]
