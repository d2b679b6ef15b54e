import contextlib
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

from phenokg.errors import BackendUnavailableError, DomainError, ReplayMissError
from phenokg.llm import (
    BackendConfig,
    ChatRequest,
    HttpBackend,
    ReplayBackend,
    RetryPolicy,
    ScriptedBackend,
    backoff_schedule,
    cassette_entry,
    complete,
    complete_batch,
    load_cassette,
    make_backend,
    record_cassette,
    request_hash,
    validate_config,
    write_cassette,
)
from phenokg.retrieval import RemoteEmbedder


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Serves a per-server queue of (status, text) responses; a dict text is sent as the whole payload."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        with self.server.lock:
            status, text = self.server.script.pop(0) if self.server.script else (200, "fallback")
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


def _http_config(server, max_attempts=3, max_in_flight=4):
    return BackendConfig(
        kind="http",
        model_name="stub-model",
        endpoint_url=f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions",
        retry=RetryPolicy(max_attempts=max_attempts, base_backoff=0.0),
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
    response = complete(_http_config(http_stub), REQ)
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


def test_backoff_non_decreasing():
    delays = backoff_schedule(RetryPolicy(max_attempts=5, base_backoff=0.25))
    assert delays == sorted(delays)
    assert len(delays) == 4
    assert delays[0] == 0.25 and delays[-1] == 2.0


def test_replay_round_trip(tmp_path):
    path = tmp_path / "cassette.jsonl"
    write_cassette(path, [cassette_entry(REQ, "ok")])
    backend = ReplayBackend(path)
    assert backend.complete(REQ).text == "ok"
    # bit-deterministic across backends
    assert ReplayBackend(path).complete(REQ).text == "ok"


def test_replay_miss_names_hash(tmp_path):
    path = tmp_path / "cassette.jsonl"
    write_cassette(path, [])
    with pytest.raises(ReplayMissError) as err:
        ReplayBackend(path).complete(REQ)
    assert err.value.request_hash == request_hash(REQ.system, REQ.user)


def test_record_then_replay_identical(tmp_path, http_stub):
    http_stub.script[:] = [(200, "first"), (200, "second")]
    requests_ = [REQ, ChatRequest(system="sys", user="other prompt")]
    path = tmp_path / "recorded.jsonl"
    # the stub answers in arrival order, so only serial dispatch pins which request gets which text
    count = record_cassette(_http_config(http_stub, max_in_flight=1), requests_, path)
    assert count == 2
    replay = ReplayBackend(path)
    assert [replay.complete(r).text for r in requests_] == ["first", "second"]
    altered = ChatRequest(system="sys", user="other prompt!")
    with pytest.raises(ReplayMissError):
        replay.complete(altered)


def test_record_empty_is_valid_cassette(tmp_path, http_stub):
    path = tmp_path / "empty.jsonl"
    assert record_cassette(_http_config(http_stub), [], path) == 0
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


def test_record_cassette_runs_as_one_bounded_batch(tmp_path):
    responder, active = _peak_tracker()
    backend = ScriptedBackend(responder=lambda req: responder(req) + req.user, max_in_flight=3)
    requests_ = [ChatRequest(system="s", user=f"prompt {i}") for i in range(8)]
    path = tmp_path / "recorded.jsonl"
    assert record_cassette(backend, requests_, path) == 8
    assert 2 <= active["peak"] <= 3
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["hash"] for line in lines] == [request_hash(r.system, r.user) for r in requests_]
    assert [line["response"] for line in lines] == [f"done{r.user}" for r in requests_]


def test_record_cassette_failure_writes_nothing(tmp_path):
    def responder(request):
        if request.user == "boom":
            raise BackendUnavailableError("scripted failure", attempts=1)
        return "fine"

    requests_ = [ChatRequest(system="s", user=u) for u in ("one", "boom", "three")]
    path = tmp_path / "recorded.jsonl"
    with pytest.raises(BackendUnavailableError):
        record_cassette(ScriptedBackend(responder=responder), requests_, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "reply, match",
    [((400, ""), "non-retryable status 400"), ((200, "a chat reply has no data field"), "malformed")],
)
def test_embedder_fails_fast_without_retry(http_stub, reply, match):
    http_stub.script[:] = [reply, (200, "never reached")]
    embedder = RemoteEmbedder(
        endpoint_url=f"http://127.0.0.1:{http_stub.server_address[1]}/v1/embeddings",
        model_name="stub-embedder",
        retry=RetryPolicy(max_attempts=3, base_backoff=0),
    )
    with pytest.raises(BackendUnavailableError, match=match):
        embedder.embed_many(["text"])
    assert len(http_stub.requests_seen) == 1


def test_scripted_queue_and_exhaustion():
    backend = ScriptedBackend(queue=["a", "b"])
    assert backend.complete(REQ).text == "a"
    assert backend.complete(REQ).text == "b"
    with pytest.raises(BackendUnavailableError):
        backend.complete(REQ)


def test_single_request_batch_equals_complete():
    backend = ScriptedBackend(responder=lambda req: req.user.upper())
    batch = complete_batch(backend, [REQ])
    assert batch[0].text == complete(ScriptedBackend(responder=lambda req: req.user.upper()), REQ).text


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


def test_batch_respects_max_in_flight_bound():
    responder, active = _peak_tracker()
    backend = ScriptedBackend(responder=responder)
    requests_ = [ChatRequest(system="s", user=str(i)) for i in range(10)]
    complete_batch(backend, requests_, max_in_flight=3)
    assert active["peak"] <= 3
    assert active["peak"] >= 2  # parallelism actually happened


def test_batch_program_bug_propagates_and_cancels_unsent():
    def responder(request):
        time.sleep(0.01)
        raise TypeError("a bug, not a backend failure")

    backend = ScriptedBackend(responder=responder)
    requests_ = [ChatRequest(system="s", user=str(i)) for i in range(20)]
    with pytest.raises(TypeError):
        complete_batch(backend, requests_, max_in_flight=1)
    assert len(backend.calls) < len(requests_)


@pytest.mark.parametrize("bound", [1, 4])
def test_batch_runs_on_the_calling_thread_and_joins_its_workers(bound):
    threads = []

    def responder(request):
        threads.append(threading.get_ident())
        time.sleep(0.005)
        return "ok"

    before = set(threading.enumerate())
    requests_ = [ChatRequest(system="s", user=str(i)) for i in range(8)]
    results = complete_batch(ScriptedBackend(responder=responder), requests_, max_in_flight=bound)
    assert [r.text for r in results] == ["ok"] * 8
    if bound == 1:
        assert set(threads) == {threading.get_ident()}
    else:
        assert 2 <= len(set(threads)) <= bound
    assert set(threading.enumerate()) <= before


def test_batch_program_bug_stops_every_worker():
    def responder(request):
        if request.user == "0":
            raise TypeError("a bug, not a backend failure")
        time.sleep(0.01)
        return "ok"

    backend = ScriptedBackend(responder=responder)
    requests_ = [ChatRequest(system="s", user=str(i)) for i in range(20)]
    before = set(threading.enumerate())
    with pytest.raises(TypeError):
        complete_batch(backend, requests_, max_in_flight=3)
    assert len(backend.calls) < len(requests_)
    assert set(threading.enumerate()) <= before  # every worker joined before the bug propagates


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
    write_cassette(path, [cassette_entry(REQ, "first"), cassette_entry(other, "x"), cassette_entry(REQ, "second")])
    with pytest.raises(DomainError, match="lines 1 and 3"):
        load_cassette(path)
    write_cassette(path, [cassette_entry(REQ, "same"), cassette_entry(other, "x"), cassette_entry(REQ, "same")])
    assert load_cassette(path) == {
        request_hash(REQ.system, REQ.user): "same",
        request_hash(other.system, other.user): "x",
    }


def test_batch_rejects_empty():
    with pytest.raises(DomainError):
        complete_batch(ScriptedBackend(queue=[]), [])


def test_validate_config_lists_every_problem():
    config = BackendConfig(kind="nope", max_in_flight=0, timeout=-1)
    problems = validate_config(config)
    assert len(problems) == 3
    with pytest.raises(DomainError):
        make_backend(config)


def test_make_backend_replay_requires_cassette():
    problems = validate_config(BackendConfig(kind="replay"))
    assert any("cassette" in p for p in problems)


def test_env_vars_override_endpoint_and_key(http_stub, monkeypatch):
    monkeypatch.setenv(
        "PHENOKG_ENDPOINT_URL",
        f"http://127.0.0.1:{http_stub.server_address[1]}/v1/chat/completions",
    )
    monkeypatch.setenv("PHENOKG_API_KEY", "sekrit-token")
    http_stub.script[:] = [(200, "from env")]
    # config has no endpoint at all: the env var supplies it
    config = BackendConfig(kind="http", model_name="m", retry=RetryPolicy(max_attempts=1))
    assert not validate_config(config)
    assert complete(config, REQ).text == "from env"


def test_embedder_backs_off_through_the_injected_sleep(http_stub, monkeypatch):
    real_sleeps, injected = [], []
    monkeypatch.setattr(time, "sleep", real_sleeps.append)
    http_stub.script[:] = [(500, ""), (500, ""), (200, {"data": [{"index": 0, "embedding": [1.0, 2.0]}]})]
    retry = RetryPolicy(max_attempts=3, base_backoff=0.25)
    embedder = RemoteEmbedder(
        endpoint_url=f"http://127.0.0.1:{http_stub.server_address[1]}/v1/embeddings",
        model_name="stub-embedder",
        retry=retry,
        sleep=injected.append,
    )
    assert embedder.embed_many(["text"]) == [[1.0, 2.0]]
    assert injected == backoff_schedule(retry)
    assert real_sleeps == []


@pytest.mark.parametrize("url", ["localhost:8000/v1", "http:///v1", "ftp://host/v1", "http://host:port/v1"])
def test_malformed_endpoint_is_rejected_at_construction(url, monkeypatch):
    monkeypatch.delenv("PHENOKG_ENDPOINT_URL", raising=False)
    config = BackendConfig(kind="http", endpoint_url=url)
    assert len(validate_config(config)) == 1
    with pytest.raises(DomainError, match="endpoint URL"):
        make_backend(config)
    with pytest.raises(DomainError, match="endpoint URL"):
        RemoteEmbedder(endpoint_url=url, model_name="m")
    # the environment variable is the effective endpoint when set
    monkeypatch.setenv("PHENOKG_ENDPOINT_URL", url)
    assert len(validate_config(BackendConfig(kind="http", endpoint_url="http://127.0.0.1:8000/v1"))) == 1
    with pytest.raises(DomainError, match="endpoint URL"):
        RemoteEmbedder(endpoint_url="http://127.0.0.1:8000/v1", model_name="m")


@pytest.mark.parametrize("key", ["sekrit\n", "sek\r\nX-Injected: 1", "ключ"])
def test_malformed_api_key_is_rejected_at_construction(key, monkeypatch):
    monkeypatch.setenv("PHENOKG_API_KEY", key)
    config = BackendConfig(kind="http", endpoint_url="http://127.0.0.1:8000/v1")
    problems = validate_config(config)
    assert len(problems) == 1 and "PHENOKG_API_KEY" in problems[0]
    assert key not in problems[0]
    with pytest.raises(DomainError, match="PHENOKG_API_KEY"):
        make_backend(config)
    with pytest.raises(DomainError, match="PHENOKG_API_KEY"):
        RemoteEmbedder(endpoint_url="http://127.0.0.1:8000/v1", model_name="m")
    # a replay backend sends no key, so the key does not matter to it
    assert validate_config(BackendConfig(kind="replay", cassette_path="c.jsonl")) == []


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


def test_importing_the_cli_leaves_requests_unimported():
    import phenokg

    src = str(Path(phenokg.__file__).resolve().parent.parent)
    code = "import sys, phenokg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"
