"""Orchestration of the two-level annotation flow against a pluggable endpoint.

Story jobs caption every human-annotated chapter, aggregate the captions into
a timestamped digest, and request long-form QA over the digest. Clip jobs
caption each clip, request QA with a sampled set of question types, and
anchor every question with its clip's time interval and a non-revealing scene
context. Jobs are independent: transient endpoint errors and malformed
responses are retried with exponential backoff, and one job's permanent
failure never affects the others. Every job yields exactly one output record,
which run_job builds: video_id, kind, captions, qa, status, then
anchor_dropped (a clip job that dropped questions) or stage and reason (a
failed job), then retry_count.

parse_jobs reads a job file through jsonl.lines and jsonl.load_object, checks
each start and end by jsonl.finite, and rejects a bad line with
jsonl.InputError naming it, before any request.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Protocol

from ..jsonl import InputError, finite, lines, load_object
from .captions import (
    CaptionPair,
    Chapter,
    ResponseParseError,
    aggregate_chapter_captions,
    caption_frames_plan,
    check_chapters,
    parse_caption_response,
)
from .prompts import render_caption_prompt, render_clip_qa_prompt, render_video_qa_prompt
from .qa import ClipQA, anchor, parse_qa_response
from .question_types import sample_question_types

MAX_OUTPUT_TOKENS = 2048  # sent with every request
HTTP_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class LlmRequest:
    prompt: str
    image_refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class LlmResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


class LlmClient(Protocol):
    def submit(self, request: LlmRequest) -> LlmResponse: ...


class LlmError(RuntimeError):
    """Permanent endpoint failure; not retried."""


class TransientLlmError(LlmError):
    """Retryable endpoint failure (timeouts, throttling, 5xx)."""


@dataclass(frozen=True)
class RetryPolicy:
    max_retries: int = 3
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    max_in_flight: int = 4
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep

    def backoff(self, attempt: int) -> float:
        return min(self.backoff_cap_s, self.backoff_base_s * 2**attempt)


class RateLimiter:
    """Token bucket capping request rate; thread-safe, clock injectable.

    The bucket holds one second of requests, and at least one.
    """

    def __init__(
        self,
        requests_per_minute: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if requests_per_minute <= 0:
            raise ValueError("requests_per_minute must be positive")
        self._rate = requests_per_minute / 60.0
        self._capacity = max(1.0, self._rate)
        self._tokens = self._capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self._capacity, self._tokens + (now - self._last) * self._rate)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self._rate
            self._sleep(wait)


class HttpClient:
    """Minimal JSON-over-HTTP adapter for a generation endpoint.

    POSTs {model, prompt, image_refs, temperature, max_output_tokens} and
    expects {"text": ..., "usage": {...}} back; model and temperature are the
    client's, the same for every request. HTTP 429/5xx and connection errors
    surface as transient; anything else is permanent, a body nested too deeply
    to decode included.
    """

    def __init__(self, endpoint: str, model: str, temperature: float, rate_limiter: RateLimiter | None = None):
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.rate_limiter = rate_limiter

    def submit(self, request: LlmRequest) -> LlmResponse:
        if self.rate_limiter is not None:
            self.rate_limiter.acquire()
        payload = json.dumps(
            {
                "model": self.model,
                "prompt": request.prompt,
                "image_refs": list(request.image_refs),
                "temperature": self.temperature,
                "max_output_tokens": MAX_OUTPUT_TOKENS,
            }
        ).encode("utf-8")
        req = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT_S) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 429 or exc.code >= 500:
                raise TransientLlmError(f"endpoint returned HTTP {exc.code}") from exc
            raise LlmError(f"endpoint returned HTTP {exc.code}") from exc
        except (urllib.error.URLError, TimeoutError) as exc:
            raise TransientLlmError(f"endpoint unreachable: {exc}") from exc
        try:
            obj = json.loads(body.decode("utf-8"))
            usage = obj.get("usage", {})
            text = obj["text"]
            if not isinstance(text, str):
                raise TypeError(f"'text' is {type(text).__name__}, not a string")
            return LlmResponse(
                text=text,
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            )
        # Also a body or "usage" that is not an object (AttributeError), a count that is null (TypeError) or
        # inf, and a body nested too deeply to decode.
        except (KeyError, ValueError, UnicodeDecodeError, AttributeError, TypeError, OverflowError,
                RecursionError) as exc:
            raise LlmError(f"endpoint returned malformed payload: {exc}") from exc


# --- jobs --------------------------------------------------------------------

STORY = "story"
CLIP = "clip"


@dataclass(frozen=True)
class AnnotationJob:
    """One job of a job file: a story job's chapters or a clip job's clips, in file order."""

    index: int
    video_id: str
    uri: str
    kind: str  # STORY or CLIP
    segments: tuple[Chapter, ...]


def _segment(raw, name: str, line_no: int, title_optional: bool) -> Chapter:
    """One chapter or clip of a job record, checked; name ("clip 3") is its default title."""
    if type(raw) is not dict:
        raise InputError(f"{name} is not a JSON object", line_no)
    title = raw.get("title")
    if title is None and title_optional:
        title = name
    if type(title) is not str or not title:
        raise InputError(f"{name} title {title!r} is not a non-empty string", line_no)
    start, end = finite(raw.get("start")), finite(raw.get("end"))
    if start is None or end is None:
        raise InputError(f"{name} start and end must be finite numbers, not "
                         f"{raw.get('start')!r} and {raw.get('end')!r}", line_no)
    if end <= start:
        raise InputError(f"{name} must have end > start, not {start!r} to {end!r}", line_no)
    return Chapter(title, (start, end))


def parse_jobs(stream: IO[bytes] | IO[str] | Iterable[str], name: str = "stream") -> list[AnnotationJob]:
    """Read newline-delimited job records: chapters for story jobs, clips otherwise.

    A job's uri, when present, must be a string (a missing one reads as "").
    Every chapter and clip needs a non-empty string title (a clip without one
    is titled "clip i") and finite numeric start and end with end > start.
    A bad line raises InputError naming it, before any request is made; a
    line of bytes that is not UTF-8 names the input as name.
    Whether a story's chapters are enough, sorted and non-overlapping is
    checked when the job runs, as its validate stage.
    """
    jobs: list[AnnotationJob] = []
    for line_no, text in lines(stream, name):
        obj = load_object(text, line_no, "job")
        video_id, uri = obj.get("video_id"), obj.get("uri", "")
        if type(video_id) is not str or not video_id:
            raise InputError(f"job video_id {video_id!r} is not a non-empty string", line_no)
        if type(uri) is not str:
            raise InputError(f"job uri {uri!r} is not a string", line_no)
        chapters_raw = obj.get("chapters")
        if bool(chapters_raw) == bool(obj.get("clips")):
            raise InputError("job record needs chapters or clips (not both)", line_no)
        key, kind = ("chapters", STORY) if chapters_raw else ("clips", CLIP)
        if type(obj[key]) is not list:
            raise InputError(f"job record's {key} must be a list", line_no)
        segments = tuple(_segment(c, f"{key[:-1]} {i}", line_no, kind == CLIP) for i, c in enumerate(obj[key]))
        jobs.append(AnnotationJob(len(jobs), video_id, uri, kind, segments))
    return jobs


# --- execution ----------------------------------------------------------------


class _StageFailure(Exception):
    def __init__(self, stage: str, reason: str):
        super().__init__(f"{stage}: {reason}")
        self.stage = stage
        self.reason = reason


class _JobRun:
    """One job's requests against the endpoint, counting the retries they take."""

    def __init__(self, client: LlmClient, job: AnnotationJob, policy: RetryPolicy):
        self.client = client
        self.job = job
        self.policy = policy
        self.retries = 0

    def call(self, stage: str, prompt: str, frames: tuple[float, ...], parser: Callable[[str], object]):
        # Frames are sent as media-fragment locators, in temporal order.
        request = LlmRequest(prompt, tuple(f"{self.job.uri}#t={ts:.3f}" for ts in frames))
        last_reason = ""
        for attempt in range(self.policy.max_retries + 1):
            if attempt > 0:
                self.policy.sleep(self.policy.backoff(attempt - 1))
                self.retries += 1
            try:
                response = self.client.submit(request)
            except TransientLlmError as exc:
                last_reason = str(exc)
                continue
            except LlmError as exc:
                raise _StageFailure(stage, str(exc)) from exc
            try:
                return parser(response.text)
            except ResponseParseError as exc:
                last_reason = str(exc)
        raise _StageFailure(stage, f"retries exhausted: {last_reason}")

    def caption(self, title: str, frames: tuple[float, ...], banned_terms: tuple[str, ...] = ()) -> CaptionPair:
        prompt = render_caption_prompt(title, banned_terms)
        return self.call("caption", prompt, frames, parse_caption_response)

    def story(self) -> tuple[list[dict], list[dict], dict]:
        job = self.job
        try:
            check_chapters(job.segments)
        except ValueError as exc:
            raise _StageFailure("validate", str(exc)) from exc
        captioned = [(ch, self.caption(ch.title, caption_frames_plan(ch))) for ch in job.segments]
        types = sample_question_types(self.policy.seed + job.index)
        qa: list[ClipQA] = self.call(
            "qa", render_video_qa_prompt(aggregate_chapter_captions(captioned), types), (),
            lambda t: parse_qa_response(t, types),
        )
        captions = [
            {"title": ch.title, "start": ch.span[0], "end": ch.span[1], "brief": p.brief, "detailed": p.detailed}
            for ch, p in captioned
        ]
        return captions, [{"type": q.qtype, "q": q.question, "a": q.answer, "anchored_q": None} for q in qa], {}

    def clip(self) -> tuple[list[dict], list[dict], dict]:
        job = self.job
        captions, qa_out, dropped = [], [], 0
        for i, segment in enumerate(job.segments):
            title, span = segment.title, segment.span
            frames = caption_frames_plan(segment)
            pair = self.caption(title, frames)
            types = sample_question_types(self.policy.seed + job.index * 1009 + i)
            qa_items: list[ClipQA] = self.call(
                "qa", render_clip_qa_prompt(pair.detailed, pair.brief, types), frames,
                lambda t: parse_qa_response(t, types),
            )
            # Regenerate the brief caption while answers leak into it, unless
            # the endpoint stops changing it; questions still leaking are dropped.
            for _ in range(self.policy.max_retries + 1):
                leaked = tuple(q.answer for q in qa_items if anchor(q, pair.brief, span) is None)
                if not leaked:
                    break
                new_pair = self.caption(title, frames, banned_terms=leaked)
                if new_pair == pair:
                    break
                pair = new_pair
            anchored = [(q, anchor(q, pair.brief, span)) for q in qa_items]
            dropped += sum(aq is None for _, aq in anchored)
            captions.append({"start": span[0], "end": span[1], "brief": pair.brief, "detailed": pair.detailed})
            qa_out.extend(
                {"type": q.qtype, "q": q.question, "a": q.answer, "anchored_q": aq}
                for q, aq in anchored if aq is not None
            )
        return captions, qa_out, {"anchor_dropped": dropped} if dropped else {}


def run_job(client: LlmClient, job: AnnotationJob, policy: RetryPolicy) -> dict:
    """Run one job to completion; always returns a record, never raises."""
    run = _JobRun(client, job, policy)
    status = "ok"
    try:
        captions, qa, extra = run.story() if job.kind == STORY else run.clip()
    except Exception as exc:  # defensive: a bad job must not sink the batch
        failure = exc if isinstance(exc, _StageFailure) else _StageFailure(
            "internal", f"{type(exc).__name__}: {exc}"
        )
        captions, qa, extra, status = [], [], {"stage": failure.stage, "reason": failure.reason}, "failed"
    return {"video_id": job.video_id, "kind": job.kind, "captions": captions, "qa": qa, "status": status,
            **extra, "retry_count": run.retries}


def run_pipeline(
    jobs: list[AnnotationJob],
    client: LlmClient,
    policy: RetryPolicy = RetryPolicy(),
    on_record: Callable[[dict], None] | None = None,
) -> list[dict]:
    """Run all jobs with bounded concurrency; returns one record per job, in job order.

    Up to policy.max_in_flight jobs run at once on worker threads. Records are
    collected, and on_record is called, on the calling thread in job order, so
    a finished job's record waits for every earlier job to finish.
    """
    records = []
    with ThreadPoolExecutor(max_workers=max(1, policy.max_in_flight)) as pool:
        for record in pool.map(lambda job: run_job(client, job, policy), jobs):
            records.append(record)
            if on_record is not None:
                on_record(record)
    return records
