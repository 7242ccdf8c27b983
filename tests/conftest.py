"""Shared test fixtures: sample builders, a manifest writer, a record-damaging strategy and a mock LLM endpoint."""

from __future__ import annotations

import copy
import functools
import json
import operator
import random
import re
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from mmprep import curator, jsonl
from mmprep.annotator.pipeline import LlmRequest, LlmResponse, TransientLlmError
from mmprep.manifest import ImageDims, Sample, VisualItem

# Every property test draws the same examples on every run: a failure repeats, and no example database is kept.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def image_item(width: int, height: int, uri: str = "") -> VisualItem:
    return VisualItem(kind="image", uri=uri, dims=ImageDims(width, height))


def video_item(duration_s: float, uri: str = "") -> VisualItem:
    return VisualItem(kind="video", uri=uri, duration_s=float(duration_s))


def document_item(pages: int, uri: str = "") -> VisualItem:
    return VisualItem(kind="document", uri=uri, pages=pages)


def item_to_obj(item: VisualItem) -> dict:
    if item.kind == "image":
        return {"kind": "image", "width": item.dims.width_px, "height": item.dims.height_px, "uri": item.uri}
    if item.kind == "video":
        return {"kind": "video", "duration_s": item.duration_s, "uri": item.uri}
    return {"kind": "document", "pages": item.pages, "uri": item.uri}


def sample_to_obj(sample: Sample) -> dict:
    """A sample as its manifest line's JSON object (json.dumps would write a NamedTuple as an array)."""
    return {
        "id": sample.id,
        "items": [item_to_obj(it) for it in sample.items],
        "text_tokens": sample.text_tokens,
        "tags": list(sample.tags),
    }


def dumps_sample(sample: Sample) -> str:
    return json.dumps(sample_to_obj(sample), ensure_ascii=False)


def plan_record(**fields) -> dict:
    """A plan record as plan writes it for an empty sample without text, with the given fields replaced.

    Every field plan writes is there, so a record that replaces one field reaches the check of that field.
    """
    return {"id": "p", "verdict": "planned", "tile_cap": 12, "n_per_item": [], "grids": [], "timestamps": [],
            "l_text": 0, "total_tokens": 0, **fields}


def split_into(monkeypatch, ranges: int) -> None:
    """Make plan, pack and tile cut every input file of two bytes or more into up to `ranges` ranges."""
    monkeypatch.setattr(jsonl, "MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(jsonl, "usable_cpus", lambda: ranges)


def split_reference_into(monkeypatch, shares: int) -> None:
    """Make curate read every reference directory in `shares` shares, or one share a file when it holds fewer."""
    monkeypatch.setattr(curator, "MIN_SHARE_BYTES", 1)
    monkeypatch.setattr(curator, "usable_cpus", lambda: shares)


def make_sample(sid="s0", images=(), videos=(), docs=(), text_tokens=0):
    """Sample from shorthand tuples: images=[(w,h)...], videos=[dur...], docs=[pages...]."""
    items = [image_item(w, h, uri=f"img://{sid}/{i}") for i, (w, h) in enumerate(images)]
    items += [video_item(d, uri=f"vid://{sid}/{i}") for i, d in enumerate(videos)]
    items += [document_item(p, uri=f"doc://{sid}/{i}") for i, p in enumerate(docs)]
    return Sample(id=sid, items=tuple(items), text_tokens=text_tokens)


def random_sample(rng: random.Random, sid: str, l_max: int) -> Sample:
    """Random mixed-content sample for property suites."""
    images = [(rng.randint(1, 8192), rng.randint(1, 8192)) for _ in range(rng.randint(0, 3))]
    videos = [round(rng.uniform(0.2, 3600.0), 3) for _ in range(rng.randint(0, 2))]
    docs = [rng.randint(1, 80) for _ in range(rng.randint(0, 2))]
    text = rng.randint(0, max(1, l_max // 2))
    return make_sample(sid, images=images, videos=videos, docs=docs, text_tokens=text)


def _paths(obj, path=()):
    """The path of every value inside obj, as the keys and indices that lead to it."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def damaged(draw, valid, odd_values):
    """One of the valid records with one value swapped for an odd one, deleted, or nested one level deeper."""
    record = copy.deepcopy(draw(st.sampled_from(valid)))
    *head, last = draw(st.sampled_from(list(_paths(record))))
    parent = functools.reduce(operator.getitem, head, record)
    damage = draw(st.sampled_from(["swap", "delete", "nest"]))
    if damage == "delete":
        del parent[last]
    elif damage == "nest":
        parent[last] = draw(st.sampled_from([[parent[last]], {"x": parent[last]}]))
    else:
        parent[last] = draw(odd_values)
    return record


_CATEGORY_LINE = re.compile(r"^([a-z0-9_]+): ", re.MULTILINE)


class MockLlm:
    """Deterministic endpoint double.

    Answers caption prompts with a canned caption pair and QA prompts with
    one QA entry per requested category (parsed back out of the prompt).
    Optional failure injection: `fail_calls` marks 1-based call indices that
    raise a transient error once, `bad_payload` returns garbage forever.
    """

    def __init__(
        self,
        brief="A person walks a dog through a quiet park",
        detailed="The clip begins with a person entering a park with a dog, "
        "progresses by them walking along a tree-lined path, and concludes "
        "with both resting on a bench.",
        fail_calls: set[int] | None = None,
        fail_every: int | None = None,
        bad_payload: bool = False,
        null_types: set[str] = frozenset(),
        answer_by_type: dict[str, str] | None = None,
    ):
        self.brief = brief
        self.detailed = detailed
        self.fail_calls = fail_calls or set()
        self.fail_every = fail_every
        self.bad_payload = bad_payload
        self.null_types = null_types
        self.answer_by_type = answer_by_type or {}
        self.calls = 0
        self.requests: list[LlmRequest] = []
        self._failed_once: set[int] = set()
        self._lock = threading.Lock()

    def submit(self, request: LlmRequest) -> LlmResponse:
        with self._lock:
            self.calls += 1
            call_no = self.calls
            self.requests.append(request)
        if call_no in self.fail_calls and call_no not in self._failed_once:
            self._failed_once.add(call_no)
            raise TransientLlmError(f"injected transient failure on call {call_no}")
        if self.fail_every and call_no % self.fail_every == 0 and call_no not in self._failed_once:
            self._failed_once.add(call_no)
            raise TransientLlmError(f"injected transient failure on call {call_no}")
        if self.bad_payload:
            return LlmResponse(text="sorry, I cannot respond in JSON today")
        if "Guidelines For Brief Caption" in request.prompt:
            body = json.dumps({"Brief Caption": self.brief, "Detailed Caption": self.detailed})
            return LlmResponse(text=f"```json\n{body}\n```")
        names = _CATEGORY_LINE.findall(self._categories_section(request.prompt))
        payload = {}
        for name in names:
            if name in self.null_types:
                payload[name] = None
            else:
                payload[name] = {
                    "Q": f"What does the {name.replace('_', ' ')} question ask about here?",
                    "A": self.answer_by_type.get(name, f"the {name.replace('_', ' ')} answer"),
                }
        return LlmResponse(text=json.dumps(payload))

    @staticmethod
    def _categories_section(prompt: str) -> str:
        start = prompt.index("#### Question Categories:")
        end = prompt.index("#### Important Criteria:")
        return prompt[start:end]


@pytest.fixture
def mock_llm():
    return MockLlm()


class StageReply(MockLlm):
    """Answers every caption request, or every QA request, with one reply text: of every job, or of the job of uri."""

    def __init__(self, stage: str, reply: str, uri: str | None = None):
        super().__init__()
        self.stage, self.reply, self.uri = stage, reply, uri

    def submit(self, request):
        reply = super().submit(request)
        if ((self.uri is None or any(ref.startswith(self.uri + "#") for ref in request.image_refs))
                and ("Guidelines For Brief Caption" in request.prompt) == (self.stage == "caption")):
            return LlmResponse(text=self.reply)
        return reply
