"""Chat-completion backends: OpenAI-compatible HTTP, replay cassettes, scripted.

``complete`` and ``complete_batch`` accept either a BackendConfig or a
backend object. The HTTP backend posts through one stdlib ``urllib``
opener (a fresh connection per request) and retries transport errors,
5xx and 429 with exponential backoff; the replay backend answers from a
recorded cassette keyed by a stable hash of (system, user); the scripted
backend answers from an in-process responder and exists for oracle runs
and tests.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import math
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .errors import BackendUnavailableError, DomainError, PhenoKGError, ReplayMissError

ENDPOINT_ENV_VAR = "PHENOKG_ENDPOINT_URL"
API_KEY_ENV_VAR = "PHENOKG_API_KEY"

_RETRYABLE_STATUSES = frozenset({429}) | frozenset(range(500, 600))


@dataclass(frozen=True)
class ChatRequest:
    system: str
    user: str
    temperature: float = 0.0
    max_tokens: int = 2048
    request_tag: str = ""

    def __post_init__(self):
        if not self.user:
            raise DomainError("ChatRequest.user must be nonempty")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise DomainError(f"temperature must be finite and >= 0, got {self.temperature}")


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    base_backoff: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise DomainError("max_attempts must be >= 1")
        if self.base_backoff < 0:
            raise DomainError("base_backoff must be >= 0")


@dataclass(frozen=True)
class BackendConfig:
    kind: str  # "http" or "replay"
    model_name: str = ""
    endpoint_url: str = ""
    cassette_path: str = ""
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout: float = 30.0
    max_in_flight: int = 4


def _effective_endpoint(endpoint_url: str) -> str:
    """The endpoint a client posts to: $PHENOKG_ENDPOINT_URL wins over the configured one."""
    return os.environ.get(ENDPOINT_ENV_VAR) or endpoint_url


def _endpoint_problems(url: str) -> list[str]:
    """Why ``url`` cannot be posted to (empty list means usable)."""
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # noqa: B018 - parsing the port is the check
    except ValueError as exc:
        return [f"endpoint URL {url!r} is malformed: {exc}"]
    if parts.scheme not in ("http", "https") or not parts.hostname:
        return [f"endpoint URL {url!r} needs an http:// or https:// scheme and a host"]
    return []


def _api_key_problems(api_key: str) -> list[str]:
    """Why ``api_key`` cannot go into an Authorization header; never echoes the key."""
    if "\r" in api_key or "\n" in api_key:
        return [f"${API_KEY_ENV_VAR} contains a CR or LF (a trailing newline from a secret file?)"]
    try:
        api_key.encode("latin-1")
    except UnicodeEncodeError:
        return [f"${API_KEY_ENV_VAR} contains a character outside latin-1"]
    return []


def validate_config(config: BackendConfig) -> list[str]:
    """Return every problem with the config (empty list means valid)."""
    problems = []
    if config.kind not in ("http", "replay"):
        problems.append(f"backend kind must be 'http' or 'replay', got {config.kind!r}")
    if config.kind == "http":
        endpoint = _effective_endpoint(config.endpoint_url)
        if not endpoint:
            problems.append(f"http backend requires endpoint_url (or ${ENDPOINT_ENV_VAR})")
        else:
            problems += _endpoint_problems(endpoint)
        problems += _api_key_problems(os.environ.get(API_KEY_ENV_VAR, ""))
    if config.kind == "replay" and not config.cassette_path:
        problems.append("replay backend requires cassette_path")
    if config.max_in_flight < 1:
        problems.append(f"max_in_flight must be >= 1, got {config.max_in_flight}")
    if config.timeout <= 0:
        problems.append(f"timeout must be positive, got {config.timeout}")
    return problems


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class ChatResponse:
    text: str
    usage: Usage
    attempts: int


def request_hash(system: str, user: str) -> str:
    """Stable content hash keying cassette entries; length-prefixed to avoid collisions."""
    sys_b = system.encode("utf-8")
    usr_b = user.encode("utf-8")
    h = hashlib.sha256()
    h.update(str(len(sys_b)).encode("ascii"))
    h.update(b":")
    h.update(sys_b)
    h.update(b"|")
    h.update(str(len(usr_b)).encode("ascii"))
    h.update(b":")
    h.update(usr_b)
    return h.hexdigest()


def _approx_usage(request: ChatRequest, text: str) -> Usage:
    # deterministic whitespace-token counts for offline backends
    return Usage(
        prompt_tokens=len(request.system.split()) + len(request.user.split()),
        completion_tokens=len(text.split()),
    )


class _RefuseRedirects(urllib.request.HTTPRedirectHandler):
    """Every 3xx reply ends as an HTTPError instead of being followed.

    Following one would re-send the POST as a bodiless GET, with the bearer
    token, to whatever host and scheme the Location names.
    """

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


def _build_opener() -> urllib.request.OpenerDirector:
    """The opener a backend posts through: proxies from the environment, no redirects."""
    return urllib.request.build_opener(_RefuseRedirects)


def backoff_schedule(retry: RetryPolicy) -> list[float]:
    """Delays slept between attempts; non-decreasing by construction."""
    return [retry.base_backoff * (2**i) for i in range(retry.max_attempts - 1)]


class HttpBackend:
    """OpenAI-compatible chat-completions client with retry and backoff.

    Endpoint URL and bearer token can be overridden/supplied via the
    PHENOKG_ENDPOINT_URL and PHENOKG_API_KEY environment variables. Those,
    and any proxy settings in the environment, are read once, here.
    """

    def __init__(self, config: BackendConfig, sleep: Callable[[float], None] = time.sleep):
        problems = validate_config(config)
        if problems:
            raise DomainError("; ".join(problems))
        self.config = config
        self.endpoint_url = _effective_endpoint(config.endpoint_url)
        self.api_key = os.environ.get(API_KEY_ENV_VAR, "")
        self.max_in_flight = config.max_in_flight
        self._sleep = sleep
        self._opener = _build_opener()

    def complete(self, request: ChatRequest) -> ChatResponse:
        body = {
            "model": self.config.model_name,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        config = self.config
        payload, attempts = _post_with_retry(
            self._opener, self.endpoint_url, body, self.api_key, config.timeout, config.retry, self._sleep
        )
        return self._parse_payload(payload, request, attempts)

    @staticmethod
    def _parse_payload(payload: dict, request: ChatRequest, attempts: int) -> ChatResponse:
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise BackendUnavailableError(
                f"malformed completion payload: {_error_snippet(payload)}", attempts=attempts
            ) from None
        usage = payload.get("usage") or {}
        return ChatResponse(
            text=text,
            usage=Usage(
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            ),
            attempts=attempts,
        )


def _error_snippet(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)[:200]


def _post_with_retry(
    opener: urllib.request.OpenerDirector,
    url: str,
    body: dict,
    api_key: str,
    timeout: float,
    retry: RetryPolicy,
    sleep: Callable[[float], None],
) -> tuple[dict, int]:
    """POST a JSON body through ``opener``; return (payload, attempts) of the first 200 reply.

    The one retry loop for chat and embeddings: transport errors (refused,
    reset, timed out, truncated), 5xx and 429 are retried on the backoff
    schedule, any other status fails at once (both as
    BackendUnavailableError). Each attempt opens a fresh connection. The
    caller validates the payload; a malformed one is not retried.
    """
    data = json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    delays = backoff_schedule(retry)
    last_status: int | None = None
    last_error = ""
    for attempt in range(1, retry.max_attempts + 1):
        try:
            status, raw = _post_once(opener, urllib.request.Request(url, data, headers), timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_status, last_error = None, str(exc)
        else:
            try:
                payload = json.loads(raw)
            except ValueError:
                payload = {"error": raw.decode("utf-8", errors="replace")[:500]}
            if status == 200:
                return payload, attempt
            last_status, last_error = status, _error_snippet(payload)
            if last_status not in _RETRYABLE_STATUSES:
                raise BackendUnavailableError(
                    f"backend returned non-retryable status {last_status}: {last_error}",
                    last_status=last_status,
                    attempts=attempt,
                )
        if attempt < retry.max_attempts:
            sleep(delays[attempt - 1])
    raise BackendUnavailableError(
        f"backend unavailable after {retry.max_attempts} attempts "
        f"(last status: {last_status}, last error: {last_error})",
        last_status=last_status,
        attempts=retry.max_attempts,
    )


def _post_once(opener: urllib.request.OpenerDirector, request: urllib.request.Request, timeout: float):
    """(status, body bytes) of one POST; an HTTP error status is a reply, not an exception."""
    try:
        response = opener.open(request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        response = exc
    with response:
        return response.status, response.read()


class ReplayBackend:
    """Bit-deterministic backend answering from a recorded cassette."""

    # a re-sent request gets the same answer, so callers need not retry it
    deterministic = True

    def __init__(self, cassette_path: str | Path, max_in_flight: int = 4):
        self.cassette_path = str(cassette_path)
        self.max_in_flight = max_in_flight
        self._responses = load_cassette(cassette_path)

    def complete(self, request: ChatRequest) -> ChatResponse:
        key = request_hash(request.system, request.user)
        try:
            text = self._responses[key]
        except KeyError:
            raise ReplayMissError(key) from None
        return ChatResponse(text=text, usage=_approx_usage(request, text), attempts=1)


class ScriptedBackend:
    """In-process deterministic backend for oracle runs and tests.

    Answers either from a responder callable (request -> text) or from a
    queue of texts consumed in call order. Thread-safe.
    """

    def __init__(
        self,
        responder: Callable[[ChatRequest], str] | None = None,
        queue: Sequence[str] | None = None,
        max_in_flight: int = 4,
    ):
        if (responder is None) == (queue is None):
            raise DomainError("provide exactly one of responder or queue")
        self._responder = responder
        self._queue = list(queue) if queue is not None else None
        self._lock = threading.Lock()
        self.max_in_flight = max_in_flight
        self.calls: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self.calls.append(request)
            if self._queue is not None:
                if not self._queue:
                    raise BackendUnavailableError("scripted queue exhausted", attempts=1)
                text = self._queue.pop(0)
            else:
                text = None
        if text is None:
            text = self._responder(request)
        return ChatResponse(text=text, usage=_approx_usage(request, text), attempts=1)


def make_backend(config: BackendConfig):
    problems = validate_config(config)
    if problems:
        raise DomainError("; ".join(problems))
    if config.kind == "http":
        return HttpBackend(config)
    return ReplayBackend(config.cassette_path, max_in_flight=config.max_in_flight)


def _as_backend(backend_or_config):
    if isinstance(backend_or_config, BackendConfig):
        return make_backend(backend_or_config)
    return backend_or_config


def complete(backend_or_config, request: ChatRequest) -> ChatResponse:
    """Single chat completion; see the backend classes for error semantics."""
    return _as_backend(backend_or_config).complete(request)


def complete_batch(
    backend_or_config,
    requests_: Sequence[ChatRequest],
    max_in_flight: int | None = None,
) -> list[ChatResponse | PhenoKGError]:
    """Complete many requests with bounded concurrency.

    ``min(max_in_flight, len(requests_))`` workers, the calling thread one
    of them, each take the next unsent request until none is left. Results
    come back in input order regardless of completion order. An expected
    failure (a PhenoKGError: backend unavailable, replay miss) is returned
    positionally as its exception instead of aborting the rest (the
    asyncio.gather(return_exceptions=True) idiom). Any other exception,
    including an interrupt, is a program bug: it stops the workers taking
    new requests (unsent requests are never sent) and, once every worker
    has returned, the first one is re-raised.
    """
    if not requests_:
        raise DomainError("complete_batch requires a nonempty request list")
    backend = _as_backend(backend_or_config)
    bound = max_in_flight or getattr(backend, "max_in_flight", 4)
    if bound < 1:
        raise DomainError(f"max_in_flight must be >= 1, got {bound}")
    n = len(requests_)
    results: list[ChatResponse | PhenoKGError] = [None] * n  # type: ignore[list-item]
    bugs: list[BaseException] = []
    claim = itertools.count().__next__  # atomic under the GIL: each index goes to one worker

    def work() -> None:
        try:
            while not bugs:
                i = claim()
                if i >= n:
                    return
                try:
                    results[i] = backend.complete(requests_[i])
                except PhenoKGError as exc:
                    results[i] = exc
        except BaseException as exc:  # re-raised on the calling thread once every worker is joined
            bugs.append(exc)

    workers = [threading.Thread(target=work) for _ in range(min(bound, n) - 1)]
    for worker in workers:
        worker.start()
    work()
    for worker in workers:
        worker.join()
    if bugs:
        raise bugs[0]
    return results


def cassette_entry(request: ChatRequest, response_text: str) -> dict:
    return {"hash": request_hash(request.system, request.user), "response": response_text}


def write_cassette(path: str | Path, entries: Sequence[dict]) -> None:
    """Write cassette entries ({hash, response} dicts) as JSON Lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps({"hash": entry["hash"], "response": entry["response"]}) + "\n")


def load_cassette(path: str | Path) -> dict[str, str]:
    """Map request hash -> response; a hash recorded twice must carry the same response."""
    responses: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        if "hash" not in record or "response" not in record:
            raise DomainError(f"cassette line {line_no}: expected keys 'hash' and 'response'")
        key = record["hash"]
        if responses.setdefault(key, record["response"]) != record["response"]:
            raise DomainError(
                f"cassette lines {first_line[key]} and {line_no}: different responses for hash {key}"
            )
        first_line.setdefault(key, line_no)
    return responses


def record_cassette(backend_or_config, requests_: Sequence[ChatRequest], output_path: str | Path) -> int:
    """Run requests against a live backend and persist (hash, response) pairs.

    Requests go out as one batch under the backend's ``max_in_flight``;
    entries are written in request order. The first failure is raised and
    no file is written. An empty request list writes an empty, valid
    cassette. Returns the number of recorded entries.
    """
    responses = complete_batch(backend_or_config, requests_) if requests_ else []
    for response in responses:
        if isinstance(response, PhenoKGError):
            raise response
    entries = [cassette_entry(request, response.text) for request, response in zip(requests_, responses)]
    write_cassette(output_path, entries)
    return len(entries)
