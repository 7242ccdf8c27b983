"""In-process fake generation endpoint for the annotate workload.

It answers caption and QA prompts the way a cooperative model would, after a
fixed service time, and injects faults from the seeded settings in
endpoint.json: transient errors, malformed replies, brief captions that leak a
QA answer (which makes the pipeline regenerate the caption), and permanent
failures for a few planted jobs. Every decision is a function of the request
content and of how often that same request was seen before, never of arrival
order, so a run with two requests in flight is as reproducible as a serial one.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from collections import Counter

from gen import stable_unit

_VIDEO_ID = re.compile(r"\b(?:story|clip)-\d{4}\b")
_CAPTION_TITLE = re.compile(r'titled "([^"]*)"')
_SEGMENT_TITLE = re.compile(r"\b(?:story|clip)-\d{4} (?:chapter|scene) \d+")
_QA_TYPES_PER_REQUEST = 5
# Injected faults stop after this many attempts of one request, which stays
# below the pipeline's retry budget: only planted jobs can fail.
_MAX_INJECTED_PER_REQUEST = 2


def answer_token(title: str) -> str:
    """The answer a clip's first QA entry gives; a leaking brief caption contains it."""
    return "object " + hashlib.blake2b(title.encode("utf-8"), digest_size=3).hexdigest()


class FakeEndpoint:
    def __init__(self, settings: dict, annotator):
        self._annot = annotator
        self._seed = settings["seed"]
        self._service_s = settings["service_s"]
        self._transient = settings["transient_rate"]
        self._malformed = settings["malformed_rate"]
        self._leak = settings["leak_rate"]
        self._planted = settings["planted"]
        self._attempts: Counter = Counter()
        self._lock = threading.Lock()
        self.counts: Counter = Counter()

    def submit(self, request):
        key = hashlib.blake2b(
            "\x00".join((request.prompt, *request.image_refs)).encode("utf-8"), digest_size=16
        ).hexdigest()
        with self._lock:
            attempt = self._attempts[key]
            self._attempts[key] += 1
            self.counts["requests"] += 1
        time.sleep(self._service_s)
        found = _VIDEO_ID.search(" ".join(request.image_refs) or request.prompt)
        planted = self._planted.get(found.group(0) if found else "")
        is_caption = "Guidelines For Brief Caption" in request.prompt
        if planted == "internal":
            self._count("internal_errors")
            raise RuntimeError("client library bug")
        if planted == "caption" and is_caption:
            self._count("permanent_errors")
            raise self._annot.LlmError("request rejected by content policy")
        if planted == "qa" and not is_caption:
            self._count("malformed")
            return self._annot.LlmResponse(text="I am unable to produce questions for this video.")
        if attempt < _MAX_INJECTED_PER_REQUEST:
            u = stable_unit(self._seed, key, attempt)
            if u < self._transient:
                self._count("transient_errors")
                raise self._annot.TransientLlmError("HTTP 503 from fake endpoint")
            if u < self._transient + self._malformed:
                self._count("malformed")
                return self._annot.LlmResponse(text='{"Brief Caption": "truncat')
        self._count("ok_replies")
        if is_caption:
            return self._caption(request.prompt)
        return self._qa(request.prompt)

    def _count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def _caption(self, prompt: str):
        title = _CAPTION_TITLE.search(prompt).group(1)
        regenerated = "must not mention" in prompt
        brief = f"A scene from {title}"
        if regenerated:
            self._count("regenerations")
        elif " scene " in title and stable_unit(self._seed, "leak", title) < self._leak:
            self._count("leaks")
            brief += f" showing {answer_token(title)}"
        detailed = (
            f"The clip begins with the opening of {title}, progresses by following the main "
            f"action across the frame, and concludes with a steady closing shot."
        )
        body = json.dumps({"Brief Caption": brief, "Detailed Caption": detailed})
        return self._annot.LlmResponse(text=f"```json\n{body}\n```", prompt_tokens=len(prompt) // 4,
                                       completion_tokens=len(body) // 4)

    def _qa(self, prompt: str):
        # A clip prompt names one segment; a story digest names several, so its
        # answers key on the video instead.
        titles = set(_SEGMENT_TITLE.findall(prompt))
        anchor = titles.pop() if len(titles) == 1 else _VIDEO_ID.search(prompt).group(0)
        payload = {}
        for n in range(1, _QA_TYPES_PER_REQUEST + 1):
            if n > 3:
                payload[f"question_type_{n}"] = None
                continue
            answer = answer_token(anchor) if n == 1 else f"detail {n} {answer_token(anchor + str(n))[7:]}"
            payload[f"question_type_{n}"] = {"Q": f"What is shown in part {n} of this footage?", "A": answer}
        body = json.dumps(payload)
        return self._annot.LlmResponse(text=body, prompt_tokens=len(prompt) // 4, completion_tokens=len(body) // 4)
