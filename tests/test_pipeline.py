import copy
import functools
import http.server
import io
import json
import math
import operator
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmprep.annotator.pipeline import (
    AnnotationJob,
    HttpClient,
    LlmError,
    LlmRequest,
    LlmResponse,
    RateLimiter,
    RetryPolicy,
    TransientLlmError,
    parse_jobs,
    run_job,
    run_pipeline,
)
from mmprep.annotator.captions import Chapter
from mmprep.annotator.question_types import QUESTION_TYPES
from mmprep.jsonl import InputError
from tests.conftest import MockLlm

NO_SLEEP = RetryPolicy(max_retries=3, sleep=lambda _: None, max_in_flight=1)


def story_job(index=0, vid="v1", n_chapters=2):
    chapters = tuple(
        Chapter(title=f"ch{i}", span=(i * 10.0, (i + 1) * 10.0)) for i in range(n_chapters)
    )
    return AnnotationJob(index=index, video_id=vid, uri=f"vid://{vid}", kind="story", segments=chapters)


def clip_job(index=0, vid="c1", n_clips=1):
    clips = tuple(Chapter(title=f"clip {i}", span=(i * 10.0, (i + 1) * 10.0)) for i in range(n_clips))
    return AnnotationJob(index=index, video_id=vid, uri=f"vid://{vid}", kind="clip", segments=clips)


# --- job file parsing -----------------------------------------------------------


def test_parse_story_and_clip_jobs():
    lines = [
        json.dumps({"video_id": "a", "uri": "u1",
                    "chapters": [{"title": "x", "start": 0, "end": 5},
                                 {"title": "y", "start": 5, "end": 9}]}),
        json.dumps({"video_id": "b", "uri": "u2", "clips": [{"start": 0, "end": 10}]}),
    ]
    jobs = parse_jobs(io.StringIO("\n".join(lines)))
    assert jobs[0].kind == "story"
    assert jobs[1].kind == "clip"
    assert jobs[1].segments == (Chapter("clip 0", (0.0, 10.0)),)


def test_parse_jobs_rejects_both_or_neither():
    neither = json.dumps({"video_id": "a", "uri": "u"})
    with pytest.raises(InputError):
        parse_jobs(io.StringIO(neither))
    both = json.dumps({"video_id": "a", "uri": "u",
                       "chapters": [{"title": "t", "start": 0, "end": 1}],
                       "clips": [{"start": 0, "end": 1}]})
    with pytest.raises(InputError):
        parse_jobs(io.StringIO(both))


def test_parse_jobs_reports_line():
    with pytest.raises(InputError) as exc:
        parse_jobs(io.StringIO("{}\n"))
    assert exc.value.line == 1


_VALID_JOBS = (
    {"video_id": "s", "uri": "vid://s", "chapters": [{"title": "a", "start": 0, "end": 5},
                                                     {"title": "b", "start": 5.5, "end": 9}]},
    {"video_id": "c", "uri": "vid://c", "clips": [{"start": 0, "end": 10}, {"title": "t", "start": 2, "end": 3.5}]},
)
_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(max_size=3),
    st.sampled_from([[], {}, [1], {"title": "x"}, "1e400"]),
)


def _paths(obj, path=()):
    """The path of every value inside obj, as the keys and indices that lead to it."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def _damaged_jobs(draw):
    """A valid job record with one value swapped for an odd one, deleted, or nested one level deeper."""
    record = copy.deepcopy(draw(st.sampled_from(_VALID_JOBS)))
    *head, last = draw(st.sampled_from(list(_paths(record))))
    parent = functools.reduce(operator.getitem, head, record)
    damage = draw(st.sampled_from(["swap", "delete", "nest"]))
    if damage == "delete":
        del parent[last]
    elif damage == "nest":
        parent[last] = draw(st.sampled_from([[parent[last]], {"x": parent[last]}]))
    else:
        parent[last] = draw(_ODD_VALUES)
    return record


@settings(max_examples=200, derandomize=True, deadline=None)
@given(record=_damaged_jobs())
def test_parse_jobs_gives_checked_jobs_or_names_the_line(record):
    text = '{"video_id": "ok", "clips": [{"start": 0, "end": 1}]}\n' + json.dumps(record) + "\n"
    try:
        jobs = parse_jobs(io.StringIO(text))
    except InputError as exc:
        assert str(exc).endswith(" at line 2")
        return
    job = jobs[1]
    assert (job.video_id, job.uri) == (record["video_id"], record.get("uri", ""))
    assert job.video_id and type(job.uri) is str and job.segments
    for segment in job.segments:
        start, end = segment.span
        assert type(segment.title) is str and segment.title
        assert math.isfinite(start) and math.isfinite(end) and start < end


# --- story jobs ------------------------------------------------------------------


def test_story_job_produces_captions_and_qa(mock_llm):
    record = run_job(mock_llm, story_job(), NO_SLEEP)
    assert record["status"] == "ok"
    assert record["kind"] == "story"
    assert len(record["captions"]) == 2
    assert record["captions"][0]["brief"] == mock_llm.brief
    assert len(record["qa"]) == 5
    assert all(q["anchored_q"] is None for q in record["qa"])
    assert record["retry_count"] == 0
    # 2 caption calls + 1 QA call
    assert mock_llm.calls == 3


def test_story_job_qa_prompt_uses_aggregated_digest(mock_llm):
    run_job(mock_llm, story_job(), NO_SLEEP)
    qa_prompt = mock_llm.requests[-1].prompt
    assert f"0 ~ 10: {mock_llm.detailed}" in qa_prompt
    assert f"10 ~ 20: {mock_llm.detailed}" in qa_prompt


def test_story_job_single_chapter_fails_validation(mock_llm):
    record = run_job(mock_llm, story_job(n_chapters=1), NO_SLEEP)
    assert record["status"] == "failed"
    assert record["stage"] == "validate"
    assert "insufficient chapters" in record["reason"]
    assert mock_llm.calls == 0


def test_story_job_overlapping_chapters_fail_validation(mock_llm):
    chapters = (Chapter(title="a", span=(0.0, 10.0)), Chapter(title="b", span=(5.0, 15.0)))
    job = AnnotationJob(index=0, video_id="v", uri="vid://v", kind="story", segments=chapters)
    record = run_job(mock_llm, job, NO_SLEEP)
    assert (record["status"], record["stage"]) == ("failed", "validate")
    assert record["reason"] == "chapters must be sorted and non-overlapping"
    assert mock_llm.calls == 0


def test_story_frame_refs_in_temporal_order(mock_llm):
    run_job(mock_llm, story_job(), NO_SLEEP)
    refs = mock_llm.requests[0].image_refs
    times = [float(r.split("#t=")[1]) for r in refs]
    assert times == sorted(times)
    assert len(times) == 20  # 10 s chapter at 2 fps


# --- clip jobs --------------------------------------------------------------------


def test_clip_job_anchors_questions(mock_llm):
    record = run_job(mock_llm, clip_job(), NO_SLEEP)
    assert record["status"] == "ok"
    assert record["kind"] == "clip"
    assert len(record["qa"]) == 5
    for entry in record["qa"]:
        assert entry["anchored_q"].startswith("Between 0s and 10s, in the scene where")
        assert entry["q"] in entry["anchored_q"]


def test_clip_job_null_categories_dropped():
    client = MockLlm(null_types={"object_recognition", "human_emotion"})
    record = run_job(client, clip_job(), NO_SLEEP)
    assert record["status"] == "ok"
    assert 0 <= len(record["qa"]) <= 5
    # nulls only reduce the list when those types were sampled; never crash
    names = {q["type"] for q in record["qa"]}
    assert "object_recognition" not in names
    assert "human_emotion" not in names


def test_clip_job_leak_drops_after_regen_stalls():
    # Every answer is a substring of the brief caption -> every anchor leaks,
    # and the mock returns the same caption forever, so the QA pairs drop.
    leaky = MockLlm()
    leaky.answer_by_type = {t.name: "quiet park" for t in QUESTION_TYPES}
    record = run_job(leaky, clip_job(), NO_SLEEP)
    assert record["status"] == "ok"
    assert record["qa"] == []
    assert record.get("anchor_dropped") == 5


def test_clip_job_multiple_clips(mock_llm):
    record = run_job(mock_llm, clip_job(n_clips=3), NO_SLEEP)
    assert len(record["captions"]) == 3
    assert len(record["qa"]) == 15


# --- retries and failure isolation ---------------------------------------------------


def test_transient_failures_retried_and_counted():
    client = MockLlm(fail_calls={1, 2})
    record = run_job(client, story_job(), NO_SLEEP)
    assert record["status"] == "ok"
    assert record["retry_count"] == 2


def test_backoff_sleeps_between_retries():
    naps = []
    policy = RetryPolicy(max_retries=3, sleep=naps.append, max_in_flight=1,
                         backoff_base_s=0.5, backoff_cap_s=30.0)
    client = MockLlm(fail_calls={1, 2})
    run_job(client, story_job(), policy)
    assert naps == [0.5, 1.0]  # consecutive failures back off exponentially


def test_malformed_payload_forever_fails_job_only():
    bad = MockLlm(bad_payload=True)
    jobs = [story_job(0, "bad")]
    records = run_pipeline(jobs, bad, NO_SLEEP)
    assert len(records) == 1
    assert records[0]["status"] == "failed"
    assert records[0]["stage"] == "caption"
    assert "retries exhausted" in records[0]["reason"]


class BlankBriefFirst(MockLlm):
    """Answers the first `blank` caption requests with a brief of only whitespace and a period."""

    def __init__(self, blank: int):
        super().__init__()
        self.blank = blank

    def submit(self, request):
        if self.blank and "Guidelines For Brief Caption" in request.prompt:
            self.blank -= 1
            return LlmResponse(text=json.dumps({"Brief Caption": " . ", "Detailed Caption": self.detailed}))
        return super().submit(request)


class DeepReply(MockLlm):
    """Answers every caption request, or every QA request, with a reply text nested 200 000 levels deep."""

    def __init__(self, stage: str):
        super().__init__()
        self.stage = stage

    def submit(self, request):
        reply = super().submit(request)
        if ("Guidelines For Brief Caption" in request.prompt) == (self.stage == "caption"):
            return LlmResponse(text='{"a": ' + "[" * 200_000)
        return reply


@pytest.mark.parametrize("stage, calls", [("caption", 4), ("qa", 1 + 4)])
def test_reply_nested_too_deeply_is_retried_then_fails_its_stage(stage, calls):
    # A reply too deep for the JSON decoder is a reply that does not parse, not an internal error.
    client = DeepReply(stage)
    record = run_job(client, clip_job(), NO_SLEEP)
    assert (record["status"], record["stage"], record["retry_count"]) == ("failed", stage, 3)
    assert record["reason"] == "retries exhausted: response nests too deeply to parse"
    assert client.calls == calls


def test_blank_brief_caption_is_retried():
    record = run_job(BlankBriefFirst(blank=1), clip_job(), NO_SLEEP)
    assert (record["status"], record["retry_count"]) == ("ok", 1)
    assert record["captions"][0]["brief"] == MockLlm().brief


def test_blank_brief_caption_forever_fails_at_caption():
    record = run_job(MockLlm(brief=" . "), clip_job(), NO_SLEEP)
    assert (record["status"], record["stage"], record["retry_count"]) == ("failed", "caption", 3)
    assert "Brief Caption" in record["reason"]


def test_blank_answers_fail_at_qa():
    # Blank answers are a malformed reply to retry, not a leak that costs a caption and drops the question.
    llm = MockLlm(answer_by_type={t.name: "  " for t in QUESTION_TYPES})
    record = run_job(llm, clip_job(), NO_SLEEP)
    assert (record["status"], record["stage"], record["retry_count"]) == ("failed", "qa", 3)
    assert "empty Q or A" in record["reason"]
    assert llm.calls == 1 + 4  # one caption, then the first QA request and its 3 retries


def test_pipeline_failure_isolation(mock_llm):
    # one invalid job among valid ones; every job yields exactly one record
    jobs = [story_job(0, "good1"), story_job(1, "lonely", n_chapters=1), clip_job(2, "good2")]
    records = run_pipeline(jobs, mock_llm, NO_SLEEP)
    assert len(records) == 3
    assert [r["video_id"] for r in records if r["status"] != "ok"] == ["lonely"]
    ok_ids = {r["video_id"] for r in records if r["status"] == "ok"}
    assert ok_ids == {"good1", "good2"}


def test_pipeline_parallel_matches_serial(mock_llm):
    jobs = [story_job(i, f"v{i}") for i in range(6)]
    serial = run_pipeline(jobs, MockLlm(), RetryPolicy(max_in_flight=1, sleep=lambda _: None))
    parallel = run_pipeline(jobs, MockLlm(), RetryPolicy(max_in_flight=4, sleep=lambda _: None))
    key = lambda r: r["video_id"]
    assert sorted(serial, key=key) == sorted(parallel, key=key)


def test_on_record_sink_sees_every_job(mock_llm):
    sunk = []
    jobs = [clip_job(i, f"c{i}") for i in range(4)]
    run_pipeline(jobs, mock_llm, NO_SLEEP, on_record=sunk.append)
    assert len(sunk) == 4


class SlowFirstJob(MockLlm):
    """Holds every request of job c0 back, so later jobs finish before it."""

    def submit(self, request):
        if request.image_refs and request.image_refs[0].startswith("vid://c0#"):
            time.sleep(0.05)
        return super().submit(request)


@pytest.mark.parametrize("in_flight", [1, 4])
def test_on_record_sees_records_in_job_order(in_flight):
    client = SlowFirstJob()
    jobs = [clip_job(i, f"c{i}") for i in range(4)]
    sunk = []
    records = run_pipeline(jobs, client, RetryPolicy(max_in_flight=in_flight, sleep=lambda _: None),
                           on_record=sunk.append)
    assert [r["video_id"] for r in sunk] == ["c0", "c1", "c2", "c3"]
    assert records == sunk
    if in_flight > 1:  # c0 was the last job to finish, yet its record came first
        assert client.requests[-1].image_refs[0].startswith("vid://c0#")


def test_question_type_selection_deterministic_per_job():
    a = run_job(MockLlm(), story_job(index=3, vid="x"), NO_SLEEP)
    b = run_job(MockLlm(), story_job(index=3, vid="x"), NO_SLEEP)
    assert [q["type"] for q in a["qa"]] == [q["type"] for q in b["qa"]]
    c = run_job(MockLlm(), story_job(index=4, vid="x"), NO_SLEEP)
    assert [q["type"] for q in a["qa"]] != [q["type"] for q in c["qa"]]


# --- rate limiter ----------------------------------------------------------------------


def test_rate_limiter_spaces_requests():
    now = [0.0]
    naps = []

    def clock():
        return now[0]

    def sleep(dt):
        naps.append(dt)
        now[0] += dt

    rl = RateLimiter(requests_per_minute=60, clock=clock, sleep=sleep)  # holds one request at 60 rpm
    rl.acquire()  # token available immediately
    rl.acquire()  # must wait ~1 s
    rl.acquire()
    assert len(naps) == 2
    assert all(abs(n - 1.0) < 1e-6 for n in naps)


def test_rate_limiter_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        RateLimiter(0)


# --- HTTP client ------------------------------------------------------------------------


class _Endpoint(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the server's next (status, body) reply and keeps the payload."""

    def do_POST(self):
        self.server.payloads.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
        status, body = self.server.replies.pop(0)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")  # the request must reach the loopback server directly
    server = http.server.HTTPServer(("127.0.0.1", 0), _Endpoint)
    server.replies, server.payloads = [], []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def _client(server):
    return HttpClient(f"http://127.0.0.1:{server.server_port}/generate", "m1", 0.5)


def test_http_client_posts_the_payload_and_reads_usage(endpoint):
    reply = {"text": "hi", "usage": {"prompt_tokens": 12, "completion_tokens": 3}}
    endpoint.replies.append((200, json.dumps(reply).encode()))
    response = _client(endpoint).submit(LlmRequest("say hi", ("vid://v#t=0.250",)))
    assert endpoint.payloads == [{"model": "m1", "prompt": "say hi", "image_refs": ["vid://v#t=0.250"],
                                  "temperature": 0.5, "max_output_tokens": 2048}]
    assert (response.text, response.prompt_tokens, response.completion_tokens) == ("hi", 12, 3)


@pytest.mark.parametrize("status, body, error", [
    (429, b"{}", TransientLlmError),
    (503, b"{}", TransientLlmError),
    (400, b"{}", LlmError),
    (200, b'{"usage": {}}', LlmError),  # no "text"
], ids=["429", "503", "400", "no-text"])
def test_http_client_errors(endpoint, status, body, error):
    endpoint.replies.append((status, body))
    with pytest.raises(error) as exc:
        _client(endpoint).submit(LlmRequest("p"))
    assert (type(exc.value) is TransientLlmError) == (error is TransientLlmError)
    assert len(endpoint.payloads) == 1


@pytest.mark.parametrize("body", [
    b"[1, 2]",
    b'{"text": 5}',
    b'{"text": "x", "usage": 5}',
    b'{"text": "x", "usage": {"prompt_tokens": null}}',
    b'{"text": "x", "usage": {"prompt_tokens": 1e400}}',
    b'{"text": "x", "usage": ' + b"[" * 200_000,
], ids=["list", "text-not-str", "usage-not-object", "tokens-null", "tokens-inf", "usage-too-deep"])
def test_http_client_malformed_reply_fails_the_caption_stage(monkeypatch, body):
    # No network: urlopen hands back the body as the endpoint's 200 reply.
    monkeypatch.setattr("urllib.request.urlopen", lambda req, timeout: io.BytesIO(body))
    client = HttpClient("http://endpoint.invalid/generate", "m1", 0.2)
    with pytest.raises(LlmError, match="^endpoint returned malformed payload: "):
        client.submit(LlmRequest("p"))
    record = run_job(client, clip_job(), NO_SLEEP)
    assert (record["status"], record["stage"]) == ("failed", "caption")
    assert record["reason"].startswith("endpoint returned malformed payload: ")
