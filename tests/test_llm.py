import contextlib
import email.utils
import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from phenokg.errors import BackendUnavailableError, ConfigError, DomainError, ReplayMissError
from phenokg.llm import (
    BackendConfig,
    CassetteBackend,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    Usage,
    RetryPolicy,
    ScriptedBackend,
    backoff_schedule,
    check_config,
    complete_batch,
    load_cassette,
    make_backend,
    request_hash,
)
from phenokg.corpus import Document
from phenokg.extraction import AuditLog, GleanConfig, HpoTask, extract_corpus
from phenokg.jsonl import write_jsonl
import phenokg.cli


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Serves a per-server queue of (status, text) or (status, text, headers) responses; a dict text is sent
    as the whole payload."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        with self.server.lock:
            status, text, *headers = self.server.script.pop(0) if self.server.script else (200, "fallback")
            self.server.requests_seen.append(body)
        payload = {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 3},
        }
        if status != 200:
            payload = {"error": {"message": "scripted failure"}}
        elif isinstance(text, dict):
            payload = text
        encoded = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.requests_seen = []
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _http_config(server, max_attempts=3, max_in_flight=4, base_backoff=0.0):
    return BackendConfig(
        kind="http",
        model_name="stub-model",
        endpoint_url=f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions",
        retry=RetryPolicy(max_attempts=max_attempts, base_backoff=base_backoff),
        max_in_flight=max_in_flight,
    )


REQ = ChatRequest(system="sys", user="hello")


def test_chat_request_invariants():
    with pytest.raises(DomainError):
        ChatRequest(system="s", user="")
    with pytest.raises(DomainError):
        ChatRequest(system="s", user="u", temperature=float("nan"))
    with pytest.raises(DomainError):
        ChatRequest(system="s", user="u", temperature=-1.0)


def test_http_success_reads_openai_shape(http_stub):
    http_stub.script[:] = [(200, "hi there")]
    response = make_backend(_http_config(http_stub)).complete(REQ)
    assert response.text == "hi there"
    assert response.attempts == 1
    assert response.usage.prompt_tokens == 7
    sent = http_stub.requests_seen[0]
    assert sent["model"] == "stub-model"
    assert [m["role"] for m in sent["messages"]] == ["system", "user"]


def test_http_retries_then_succeeds(http_stub):
    http_stub.script[:] = [(500, ""), (500, ""), (200, "ok")]
    backend = HttpBackend(_http_config(http_stub, max_attempts=3), sleep=lambda _: None)
    response = backend.complete(REQ)
    assert response.text == "ok"
    assert response.attempts == 3


def test_http_exhausts_attempts(http_stub):
    http_stub.script[:] = [(500, ""), (500, "")]
    backend = HttpBackend(_http_config(http_stub, max_attempts=2), sleep=lambda _: None)
    with pytest.raises(BackendUnavailableError) as err:
        backend.complete(REQ)
    assert err.value.attempts == 2
    assert err.value.last_status == 500


def test_http_non_retryable_fails_fast(http_stub):
    http_stub.script[:] = [(400, "")]
    backend = HttpBackend(_http_config(http_stub, max_attempts=3), sleep=lambda _: None)
    with pytest.raises(BackendUnavailableError) as err:
        backend.complete(REQ)
    assert err.value.attempts == 1
    assert err.value.last_status == 400
    assert not http_stub.script  # no further requests made


def test_http_429_is_retryable(http_stub):
    http_stub.script[:] = [(429, ""), (200, "after limit")]
    backend = HttpBackend(_http_config(http_stub, max_attempts=2), sleep=lambda _: None)
    assert backend.complete(REQ).text == "after limit"


def _backend_sleeping_into(http_stub, slept, **config):
    return HttpBackend(_http_config(http_stub, **config), sleep=slept.append)


def test_http_retry_after_seconds_lengthen_the_wait(http_stub):
    http_stub.script[:] = [
        (503, "", {"Retry-After": "7"}),
        (429, "", {"Retry-After": "0"}),
        (500, "", {"Retry-After": "9"}),  # only a 429 or 503 reply is read for it
        (200, "ok"),
    ]
    slept = []
    backend = _backend_sleeping_into(http_stub, slept, max_attempts=4, base_backoff=0.5)
    assert backend.complete(REQ).attempts == 4
    assert slept == [7.0, 1.0, 2.0]  # max(scheduled delay, Retry-After)


def test_http_retry_after_date_is_counted_from_now(http_stub):
    http_stub.script[:] = [(429, "", {"Retry-After": email.utils.formatdate(time.time() + 12, usegmt=True)}), (200, "ok")]
    slept = []
    assert _backend_sleeping_into(http_stub, slept).complete(REQ).text == "ok"
    assert len(slept) == 1 and 9.0 < slept[0] <= 12.0


def test_http_unparseable_retry_after_keeps_the_schedule(http_stub):
    http_stub.script[:] = [(503, "", {"Retry-After": "soon"}), (503, "", {"Retry-After": "3"}), (200, "ok")]
    slept = []
    assert _backend_sleeping_into(http_stub, slept, base_backoff=0.5).complete(REQ).text == "ok"
    assert slept == [0.5, 3.0]


def test_http_retry_after_beyond_the_timeout_stops_retrying(http_stub):
    http_stub.script[:] = [(503, "", {"Retry-After": "120"}), (200, "never sent")]
    slept = []
    with pytest.raises(BackendUnavailableError, match=r"Retry-After '120' \(120 s\), beyond the 30 s timeout") as err:
        _backend_sleeping_into(http_stub, slept).complete(REQ)
    assert (err.value.last_status, err.value.attempts, slept) == (503, 1, [])
    assert len(http_stub.script) == 1


def test_backoff_non_decreasing():
    delays = backoff_schedule(RetryPolicy(max_attempts=5, base_backoff=0.25))
    assert delays == sorted(delays)
    assert len(delays) == 4
    assert delays[0] == 0.25 and delays[-1] == 2.0


def _record(path, pairs):
    """Save a cassette answering each (request, text) pair."""
    CassetteBackend({request_hash(r.system, r.user): text for r, text in pairs}).save(path)


def _replay(path):
    return CassetteBackend(load_cassette(path))


def _record_batch(monkeypatch, inner, requests_, path):
    """Run ``cassette record`` over ``requests_`` with ``inner`` as its live backend; return the lines it saved."""
    requests_path = path.with_name(f"{path.name}.requests")
    write_jsonl(requests_path, (json.dumps({"system": r.system, "user": r.user}) for r in requests_))
    monkeypatch.setattr(phenokg.cli, "make_backend", lambda config: inner)
    args = phenokg.cli.build_parser().parse_args(
        ["cassette", "record", "--requests", str(requests_path), "--endpoint", "http://127.0.0.1:9/", "--out", str(path)]
    )
    args.handler(args)
    return len(path.read_text().splitlines())


def test_replay_round_trip(tmp_path):
    path = tmp_path / "cassette.jsonl"
    _record(path, [(REQ, "ok")])
    backend = _replay(path)
    assert backend.complete(REQ).text == "ok"
    # bit-deterministic across backends
    assert _replay(path).complete(REQ).text == "ok"


def test_replay_batches_start_no_worker_thread(tmp_path, monkeypatch):
    """A replay answer never waits, so a batch runs on the calling thread whatever the configured bound."""
    path = tmp_path / "cassette.jsonl"
    requests_ = [ChatRequest(system="sys", user=f"u{i}") for i in range(8)]
    _record(path, [(r, r.user) for r in requests_])
    backend = make_backend(BackendConfig(kind="replay", cassette_path=str(path), max_in_flight=4))
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a worker thread was started"))
    assert [r.text for r in complete_batch(backend, requests_)] == [r.user for r in requests_]


def test_replay_miss_names_hash(tmp_path):
    path = tmp_path / "cassette.jsonl"
    _record(path, [])
    with pytest.raises(ReplayMissError) as err:
        _replay(path).complete(REQ)
    assert err.value.request_hash == request_hash(REQ.system, REQ.user)


def test_record_then_replay_identical(tmp_path, http_stub, monkeypatch):
    http_stub.script[:] = [(200, "first"), (200, "second")]
    requests_ = [REQ, ChatRequest(system="sys", user="other prompt")]
    path = tmp_path / "recorded.jsonl"
    # the stub answers in arrival order, so only serial dispatch pins which request gets which text
    count = _record_batch(monkeypatch, make_backend(_http_config(http_stub, max_in_flight=1)), requests_, path)
    assert count == 2
    replay = _replay(path)
    assert [replay.complete(r).text for r in requests_] == ["first", "second"]
    altered = ChatRequest(system="sys", user="other prompt!")
    with pytest.raises(ReplayMissError):
        replay.complete(altered)


def test_record_empty_is_valid_cassette(tmp_path, http_stub, monkeypatch):
    path = tmp_path / "empty.jsonl"
    assert _record_batch(monkeypatch, make_backend(_http_config(http_stub)), [], path) == 0
    assert load_cassette(path) == {}


def _peak_tracker():
    """Responder that sleeps 10 ms and records the peak number of concurrent calls."""
    lock = threading.Lock()
    active = {"now": 0, "peak": 0}

    def responder(request):
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        time.sleep(0.01)
        with lock:
            active["now"] -= 1
        return "done"

    return responder, active


@pytest.mark.threads
def test_record_cassette_runs_as_one_bounded_batch(tmp_path, monkeypatch):
    responder, active = _peak_tracker()
    backend = ScriptedBackend(responder=lambda req: responder(req) + req.user, max_in_flight=3)
    requests_ = [ChatRequest(system="s", user=f"prompt {i}") for i in range(8)]
    path = tmp_path / "recorded.jsonl"
    assert _record_batch(monkeypatch, backend, requests_, path) == 8
    assert 2 <= active["peak"] <= 3
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    by_hash = sorted((request_hash(r.system, r.user), f"done{r.user}") for r in requests_)
    assert [line["hash"] for line in lines] == [key for key, _ in by_hash]
    assert [line["response"] for line in lines] == [text for _, text in by_hash]


def test_record_cassette_failure_writes_nothing(tmp_path, monkeypatch):
    def responder(request):
        if request.user == "boom":
            raise BackendUnavailableError("scripted failure", attempts=1)
        return "fine"

    requests_ = [ChatRequest(system="s", user=u) for u in ("one", "boom", "three")]
    path = tmp_path / "recorded.jsonl"
    with pytest.raises(BackendUnavailableError):
        _record_batch(monkeypatch, ScriptedBackend(responder=responder), requests_, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "reply, match",
    [((400, ""), "non-retryable status 400"), ((200, {"data": "a 200 reply without choices"}), "malformed")],
)
def test_http_fails_fast_without_retry(http_stub, reply, match):
    http_stub.script[:] = [reply, (200, "never reached")]
    backend = HttpBackend(_http_config(http_stub, max_attempts=3))
    with pytest.raises(BackendUnavailableError, match=match):
        backend.complete(REQ)
    assert len(http_stub.requests_seen) == 1


def _backend_replying(payload, attempts):
    """An HttpBackend whose retry loop is stubbed to return ``payload`` after ``attempts`` attempts."""
    backend = HttpBackend(BackendConfig(kind="http", endpoint_url="http://127.0.0.1:9/v1/chat/completions"))
    backend._post_with_retry = lambda data: (payload, attempts)
    return backend


def _reply(content="ok", **extra):
    return {"choices": [{"message": {"role": "assistant", "content": content}}], **extra}


MALFORMED_PAYLOADS = [
    ("null content", _reply(None)),
    ("number content", _reply(5)),
    ("usage an array", _reply(usage=[1])),
    ("usage a string", _reply(usage="n/a")),
    ("token count a string", _reply(usage={"prompt_tokens": "n/a"})),
    ("token count a numeric string", _reply(usage={"completion_tokens": "12"})),
    ("token count a bool", _reply(usage={"prompt_tokens": True, "completion_tokens": 3})),
    ("token count null", _reply(usage={"prompt_tokens": None})),
]


@pytest.mark.parametrize("label,payload", MALFORMED_PAYLOADS, ids=[case[0] for case in MALFORMED_PAYLOADS])
def test_http_malformed_payload_is_backend_unavailable(label, payload):
    with pytest.raises(BackendUnavailableError, match="malformed completion payload") as err:
        _backend_replying(payload, attempts=2).complete(REQ)
    assert err.value.attempts == 2


@pytest.mark.parametrize(
    "usage,expected",
    [(None, Usage(0, 0)), ({}, Usage(0, 0)), ({"prompt_tokens": 7, "completion_tokens": 3.0}, Usage(7, 3))],
)
def test_http_usage_may_be_absent_or_numeric(usage, expected):
    response = _backend_replying(_reply("hi", usage=usage), attempts=1).complete(REQ)
    assert response == ChatResponse(text="hi", usage=expected, attempts=1)


def test_http_null_content_is_audited_as_a_failed_document(dravet_ontology):
    payload = _reply(None)
    audit = AuditLog()
    backend = _backend_replying(payload, attempts=1)
    results = extract_corpus(HpoTask(dravet_ontology), [Document("p1", "text")], backend, glean=GleanConfig(0), audit=audit)
    assert results == {}
    error = f"malformed completion payload: {json.dumps(payload, sort_keys=True)}"
    assert audit.entries == [{"event": "document_round_failed", "key": "p1", "round": 0, "error": error}]


def test_single_request_batch_equals_complete():
    backend = ScriptedBackend(responder=lambda req: req.user.upper())
    batch = complete_batch(backend, [REQ])
    assert batch[0].text == ScriptedBackend(responder=lambda req: req.user.upper()).complete(REQ).text


@pytest.mark.threads
def test_batch_preserves_input_order_under_reverse_completion():
    # earlier requests sleep longer, so completion order is reversed
    def responder(request):
        idx = int(request.user)
        time.sleep((5 - idx) * 0.01)
        return f"answer-{idx}"

    backend = ScriptedBackend(responder=responder, max_in_flight=5)
    requests_ = [ChatRequest(system="s", user=str(i)) for i in range(5)]
    results = complete_batch(backend, requests_)
    assert [r.text for r in results] == [f"answer-{i}" for i in range(5)]


@pytest.mark.threads
def test_batch_failure_is_positional():
    def responder(request):
        if request.user == "boom":
            raise BackendUnavailableError("scripted failure", attempts=1)
        return "fine"

    backend = ScriptedBackend(responder=responder)
    requests_ = [
        ChatRequest(system="s", user="one"),
        ChatRequest(system="s", user="boom"),
        ChatRequest(system="s", user="three"),
    ]
    results = complete_batch(backend, requests_)
    assert results[0].text == "fine"
    assert isinstance(results[1], BackendUnavailableError)
    assert results[2].text == "fine"


@pytest.mark.threads
def test_batch_respects_max_in_flight_bound():
    responder, active = _peak_tracker()
    backend = ScriptedBackend(responder=responder)
    requests_ = [ChatRequest(system="s", user=str(i)) for i in range(10)]
    complete_batch(backend, requests_, max_in_flight=3)
    assert active["peak"] <= 3
    assert active["peak"] >= 2  # parallelism actually happened


@pytest.mark.threads
def test_batch_program_bug_propagates_and_cancels_unsent():
    def responder(request):
        time.sleep(0.01)
        raise TypeError("a bug, not a backend failure")

    backend = ScriptedBackend(responder=responder)
    requests_ = [ChatRequest(system="s", user=str(i)) for i in range(20)]
    with pytest.raises(TypeError):
        complete_batch(backend, requests_, max_in_flight=1)
    assert len(backend.calls) < len(requests_)


class _RecordedReads:
    """A request sequence that records which thread reads each index."""

    def __init__(self, n):
        self.n = n
        self.reads = []

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        self.reads.append((i, threading.get_ident()))
        return ChatRequest(system="s", user=str(i))


@pytest.mark.threads
@pytest.mark.parametrize("bound", [1, 4])
def test_batch_runs_on_the_calling_thread_and_joins_its_workers(bound):
    senders = {}

    def responder(request):
        senders[int(request.user)] = threading.get_ident()
        time.sleep(0.005)
        return "ok"

    before = set(threading.enumerate())
    requests_ = _RecordedReads(8)
    results = complete_batch(ScriptedBackend(responder=responder), requests_, max_in_flight=bound)
    assert [r.text for r in results] == ["ok"] * 8
    if bound == 1:
        assert set(senders.values()) == {threading.get_ident()}
    else:
        assert 2 <= len(set(senders.values())) <= bound
    # each item is read once, by the worker that sends it
    assert sorted(i for i, _ in requests_.reads) == list(range(8))
    assert dict(requests_.reads) == senders
    assert set(threading.enumerate()) <= before


@pytest.mark.threads
def test_batch_program_bug_stops_every_worker():
    def responder(request):
        if request.user == "0":
            raise TypeError("a bug, not a backend failure")
        time.sleep(0.01)
        return "ok"

    backend = ScriptedBackend(responder=responder)
    requests_ = _RecordedReads(20)
    before = set(threading.enumerate())
    with pytest.raises(TypeError):
        complete_batch(backend, requests_, max_in_flight=3)
    assert len(backend.calls) < len(requests_)
    # an item is read only by the worker that claims it, so one left unclaimed is never read
    assert sorted(i for i, _ in requests_.reads) == sorted(int(request.user) for request in backend.calls)
    assert set(threading.enumerate()) <= before  # every worker joined before the bug propagates


@pytest.mark.threads
def test_batch_interrupt_in_a_request_propagates():
    def responder(request):
        if request.user == "3":
            raise KeyboardInterrupt
        return "ok"

    backend = ScriptedBackend(responder=responder)
    requests_ = [ChatRequest(system="s", user=str(i)) for i in range(8)]
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        complete_batch(backend, requests_, max_in_flight=2)
    assert set(threading.enumerate()) <= before


def test_conflicting_duplicate_cassette_hash_is_rejected(tmp_path):
    path = tmp_path / "cassette.jsonl"
    other = ChatRequest(system="sys", user="other prompt")
    lines = [(REQ, "first"), (other, "x"), (REQ, "second")]
    write_jsonl(path, (json.dumps({"hash": request_hash(r.system, r.user), "response": t}) for r, t in lines))
    with pytest.raises(DomainError, match="lines 1 and 3"):
        load_cassette(path)
    lines = [(REQ, "same"), (other, "x"), (REQ, "same")]
    write_jsonl(path, (json.dumps({"hash": request_hash(r.system, r.user), "response": t}) for r, t in lines))
    assert load_cassette(path) == {
        request_hash(REQ.system, REQ.user): "same",
        request_hash(other.system, other.user): "x",
    }


def _reference_request_hash(system, user):
    sys_b, usr_b = system.encode("utf-8"), user.encode("utf-8")
    return hashlib.sha256(b"%d:%b|%d:%b" % (len(sys_b), sys_b, len(usr_b), usr_b)).hexdigest()


@given(st.text(), st.text(min_size=1))
def test_request_hash_matches_the_uncached_formula(system, user):
    # an equal system string built anew must hit the same cached system part
    for system_copy in (system, "".join(list(system)), system.encode("utf-8").decode("utf-8")):
        assert request_hash(system_copy, user) == _reference_request_hash(system, user)


def test_offline_replies_report_no_tokens_in_one_attempt(tmp_path):
    path = tmp_path / "cassette.jsonl"
    _record(path, [(REQ, "a reply of five words")])
    for backend in (_replay(path), ScriptedBackend(responder=lambda request: "a reply of five words")):
        assert backend.complete(REQ) == ChatResponse("a reply of five words", Usage(0, 0), attempts=1)


def test_a_recorder_passes_its_inner_backends_usage_and_attempts_through(http_stub):
    http_stub.script[:] = [(500, ""), (200, "recorded")]
    recorder = CassetteBackend(inner=HttpBackend(_http_config(http_stub, max_attempts=2), sleep=lambda _: None))
    assert recorder.complete(REQ) == ChatResponse("recorded", Usage(7, 3), attempts=2)
    assert recorder.complete(REQ) == ChatResponse("recorded", Usage(0, 0), attempts=1)  # now a replay
    assert len(http_stub.requests_seen) == 2


@pytest.mark.threads
def test_recording_is_the_same_file_at_any_concurrency(tmp_path):
    def responder(request):
        time.sleep((8 - int(request.user[1:])) * 0.002)  # later requests finish first
        return f"reply-{request.user}"

    requests_ = [ChatRequest(system="s", user=f"x{i}") for i in range(8)] * 2  # each request sent twice
    recorded = []
    for bound in (1, 4):
        recorder = CassetteBackend(inner=ScriptedBackend(responder=responder, max_in_flight=bound))
        complete_batch(recorder, requests_)
        recorder.save(tmp_path / f"bound{bound}.jsonl")
        recorded.append((tmp_path / f"bound{bound}.jsonl").read_bytes())
    assert recorded[0] == recorded[1]
    assert len(recorded[0].splitlines()) == 8


def test_a_recorded_request_reaches_the_inner_backend_once():
    inner = ScriptedBackend(responder=lambda request: f"reply-{request.user}")
    recorder = CassetteBackend(inner=inner)
    other = ChatRequest(system="sys", user="other prompt")
    assert [recorder.complete(r).text for r in (REQ, other, REQ, other)] == ["reply-hello", "reply-other prompt"] * 2
    assert inner.calls == [REQ, other]
    assert recorder.complete(REQ) == ChatResponse("reply-hello")


@pytest.mark.threads
def test_two_simultaneous_misses_on_one_request_get_the_saved_text(tmp_path):
    both_sent = threading.Barrier(2, timeout=5)
    answers = iter(["first answer", "second answer"])
    lock = threading.Lock()

    def responder(request):
        both_sent.wait()  # both callers have missed before either answer is stored
        with lock:
            return next(answers)

    recorder = CassetteBackend(inner=ScriptedBackend(responder=responder, max_in_flight=2))
    responses = complete_batch(recorder, [REQ, REQ])
    saved = recorder.responses[request_hash(REQ.system, REQ.user)]
    assert saved in ("first answer", "second answer")
    assert [r.text for r in responses] == [saved, saved]
    recorder.save(tmp_path / "recorded.jsonl")
    assert (tmp_path / "recorded.jsonl").read_text().splitlines() == [
        json.dumps({"hash": request_hash(REQ.system, REQ.user), "response": saved})
    ]


def test_empty_batch_is_an_empty_result():
    backend = ScriptedBackend(responder=lambda request: "never asked")
    assert complete_batch(backend, []) == []
    assert backend.calls == []


BAD_BOUNDS = ["max_in_flight must be >= 1, got 0", "timeout must be positive, got -1"]


@pytest.mark.parametrize(
    "build, kind, problem",
    [
        (check_config, "nope", "backend kind must be 'http' or 'replay', got 'nope'"),
        (make_backend, "nope", "backend kind must be 'http' or 'replay', got 'nope'"),
        (make_backend, "http", "http backend requires endpoint_url (or $PHENOKG_ENDPOINT_URL)"),
        (HttpBackend, "http", "http backend requires endpoint_url (or $PHENOKG_ENDPOINT_URL)"),
    ],
    ids=["check_config", "make_backend", "make_backend http", "HttpBackend"],
)
def test_a_bad_config_is_one_config_error_listing_every_problem(build, kind, problem, monkeypatch):
    monkeypatch.delenv("PHENOKG_ENDPOINT_URL", raising=False)
    monkeypatch.delenv("PHENOKG_API_KEY", raising=False)
    with pytest.raises(ConfigError) as err:
        build(BackendConfig(kind=kind, max_in_flight=0, timeout=-1))
    assert err.value.problems == [problem, *BAD_BOUNDS]


def test_make_backend_replay_requires_cassette():
    with pytest.raises(ConfigError) as err:
        make_backend(BackendConfig(kind="replay"))
    assert err.value.problems == ["replay backend requires cassette_path"]


def test_env_vars_override_endpoint_and_key(http_stub, monkeypatch):
    monkeypatch.setenv(
        "PHENOKG_ENDPOINT_URL",
        f"http://127.0.0.1:{http_stub.server_address[1]}/v1/chat/completions",
    )
    monkeypatch.setenv("PHENOKG_API_KEY", "sekrit-token")
    http_stub.script[:] = [(200, "from env")]
    # config has no endpoint at all: the env var supplies it
    config = BackendConfig(kind="http", model_name="m", retry=RetryPolicy(max_attempts=1))
    check_config(config)
    assert make_backend(config).complete(REQ).text == "from env"


def test_http_backs_off_through_the_injected_sleep(http_stub, monkeypatch):
    real_sleeps, injected = [], []
    monkeypatch.setattr(time, "sleep", real_sleeps.append)
    http_stub.script[:] = [(500, ""), (500, ""), (200, "third time")]
    retry = RetryPolicy(max_attempts=3, base_backoff=0.25)
    config = BackendConfig(kind="http", endpoint_url=_http_config(http_stub).endpoint_url, retry=retry)
    assert HttpBackend(config, sleep=injected.append).complete(REQ).text == "third time"
    assert injected == backoff_schedule(retry)
    assert real_sleeps == []


@pytest.mark.parametrize("url", ["localhost:8000/v1", "http:///v1", "ftp://host/v1", "http://host:port/v1"])
def test_malformed_endpoint_is_rejected_at_construction(url, monkeypatch):
    monkeypatch.delenv("PHENOKG_ENDPOINT_URL", raising=False)
    config = BackendConfig(kind="http", endpoint_url=url)
    with pytest.raises(ConfigError, match="endpoint URL") as err:
        make_backend(config)
    assert len(err.value.problems) == 1
    # the environment variable is the effective endpoint when set
    monkeypatch.setenv("PHENOKG_ENDPOINT_URL", url)
    config = BackendConfig(kind="http", endpoint_url="http://127.0.0.1:8000/v1")
    with pytest.raises(ConfigError, match="endpoint URL") as err:
        make_backend(config)
    assert len(err.value.problems) == 1


@pytest.mark.parametrize("key", ["sekrit\n", "sek\r\nX-Injected: 1", "ключ"])
def test_malformed_api_key_is_rejected_at_construction(key, monkeypatch):
    monkeypatch.setenv("PHENOKG_API_KEY", key)
    config = BackendConfig(kind="http", endpoint_url="http://127.0.0.1:8000/v1")
    for build in (check_config, make_backend, HttpBackend):
        with pytest.raises(ConfigError) as err:
            build(config)
        assert len(err.value.problems) == 1 and "PHENOKG_API_KEY" in err.value.problems[0]
        assert key not in str(err.value)
    # a replay backend sends no key, so the key does not matter to it
    check_config(BackendConfig(kind="replay", cassette_path="c.jsonl"))


# -- transport failures against real sockets ------------------------------------


def _read_request(conn: socket.socket) -> bytes:
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    fields = dict(line.lower().split(b":", 1) for line in head.split(b"\r\n")[1:])
    length = int(fields.get(b"content-length", 0))
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


@contextlib.contextmanager
def _raw_server(reply):
    """TCP server, a thread per connection: reads the request whole, then ``reply(conn, stop)``, then closes.

    Yields (port, requests read); ``stop`` is set when the block exits.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()
    seen: list[bytes] = []
    handlers: list[threading.Thread] = []

    def handle(conn):
        with conn:
            conn.settimeout(5)
            seen.append(_read_request(conn))
            reply(conn, stop)

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            handlers.append(threading.Thread(target=handle, args=(conn,), daemon=True))
            handlers[-1].start()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], seen
    finally:
        stop.set()
        thread.join(timeout=5)  # no handler is added once the accept loop has ended
        for worker in (thread, *handlers):
            worker.join(timeout=5)
            assert not worker.is_alive()
        listener.close()


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


_REPLIES = {
    "closes without replying": lambda conn, stop: None,
    "stalls past the timeout": lambda conn, stop: stop.wait(5),
    "truncates its body": lambda conn, stop: conn.sendall(
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"choices"
    ),
    "answers 503 in plain text": lambda conn, stop: conn.sendall(
        b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: 27\r\n"
        b"Connection: close\r\n\r\nupstream overloaded, retry."
    ),
}


def _unavailable_through_batch(port: int):
    retry = RetryPolicy(max_attempts=3, base_backoff=0.25)
    config = BackendConfig(
        kind="http", endpoint_url=f"http://127.0.0.1:{port}/v1/chat/completions", retry=retry, timeout=0.2
    )
    sleeps = []
    results = complete_batch(HttpBackend(config, sleep=sleeps.append), [REQ])
    assert sleeps == backoff_schedule(retry)
    assert isinstance(results[0], BackendUnavailableError)
    assert results[0].attempts == 3
    return results[0]


def test_connection_refused_is_retried_then_unavailable():
    err = _unavailable_through_batch(_closed_port())
    assert err.last_status is None


@pytest.mark.parametrize("behaviour", sorted(_REPLIES))
def test_transport_failure_is_retried_then_unavailable(behaviour):
    with _raw_server(_REPLIES[behaviour]) as (port, seen):
        err = _unavailable_through_batch(port)
    assert len(seen) == 3
    assert all(b'"content": "hello"' in request for request in seen)
    if behaviour == "answers 503 in plain text":
        assert err.last_status == 503
        assert "upstream overloaded, retry." in str(err)
    else:
        assert err.last_status is None


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirect_fails_fast_and_is_not_followed(status, monkeypatch):
    monkeypatch.setenv("PHENOKG_API_KEY", "sekrit-token")
    with _raw_server(lambda conn, stop: None) as (elsewhere, seen_elsewhere):
        redirect = (
            f"HTTP/1.1 {status} Moved\r\nLocation: http://127.0.0.1:{elsewhere}/v1/chat/completions\r\n"
            "Content-Length: 0\r\nConnection: close\r\n\r\n"
        ).encode("ascii")
        with _raw_server(lambda conn, stop: conn.sendall(redirect)) as (port, seen):
            config = BackendConfig(
                kind="http",
                endpoint_url=f"http://127.0.0.1:{port}/v1/chat/completions",
                retry=RetryPolicy(max_attempts=3, base_backoff=0),
                timeout=1.0,
            )
            results = complete_batch(HttpBackend(config), [REQ])
    assert isinstance(results[0], BackendUnavailableError)
    assert (results[0].last_status, results[0].attempts) == (status, 1)
    assert len(seen) == 1 and b"Bearer sekrit-token" in seen[0]
    assert seen_elsewhere == []


LAZY_IMPORT_CHECK = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
before = sorted(m for m in sys.modules if m.split(".")[0] in ("requests", "numpy"))
from phenokg.retrieval import HashedEmbedder, build_index, top_k
embedder = HashedEmbedder()
texts = json.loads(sys.argv[2])
ranking = top_k(build_index(embedder, texts), embedder.embed_one(texts["q"]), k=3, exclude={"q"})
print(json.dumps({"before": before, "numpy_after": "numpy" in sys.modules, "ranking": ranking}))
"""


@pytest.mark.parametrize("module", ["phenokg.cli", "phenokg.kg", "phenokg.discovery", "phenokg.llm"])
def test_importing_a_command_module_leaves_requests_and_numpy_unimported(module):
    """Neither ``requests`` nor numpy loads with the module; the first index built loads numpy and ranks as usual."""
    import phenokg
    from phenokg.retrieval import HashedEmbedder, build_index, top_k

    texts = {"q": "febrile seizure", "a": "febrile seizure episode", "b": "status epilepticus", "c": "seizure"}
    src = str(Path(phenokg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_CHECK, module, json.dumps(texts)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    embedder = HashedEmbedder()
    expected = top_k(build_index(embedder, texts), embedder.embed_one(texts["q"]), k=3, exclude={"q"})
    assert json.loads(out.stdout) == {"before": [], "numpy_after": True, "ranking": [list(pair) for pair in expected]}


HTTP_STACK_CHECK = """
import sys
import phenokg.cli
stack = ("http.client", "urllib.request", "ssl")
before = [m for m in stack if m in sys.modules]
from phenokg.llm import BackendConfig, ChatRequest, make_backend
backend = make_backend(BackendConfig(kind="http", endpoint_url=sys.argv[1]))
print(before, backend.complete(ChatRequest(system="sys", user="hello")).text)
"""


def test_the_http_stack_loads_with_the_first_http_backend(http_stub):
    """``import phenokg.cli`` loads no HTTP client module; an HTTP backend built after it still posts."""
    import phenokg

    http_stub.script[:] = [(200, "hi there")]
    src = str(Path(phenokg.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PHENOKG_ENDPOINT_URL"}
    url = f"http://127.0.0.1:{http_stub.server_address[1]}/v1/chat/completions"
    out = subprocess.run(
        [sys.executable, "-c", HTTP_STACK_CHECK, url],
        env={**env, "PYTHONPATH": src}, capture_output=True, encoding="utf-8", check=True, timeout=60,
    )
    assert out.stdout == "[] hi there\n"
    assert http_stub.requests_seen[0]["messages"][1] == {"role": "user", "content": "hello"}
