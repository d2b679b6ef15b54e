"""Chat-completion backends: OpenAI-compatible HTTP, cassettes, scripted.

Every backend has ``complete(request)``, ``max_in_flight``, the bound on
its concurrent calls, and ``deterministic``, whether a re-sent request can
only get the same answer; ``make_backend`` is the one place a BackendConfig
becomes a backend (a bad config is one ConfigError listing every problem),
and everything else (``complete_batch``, extraction, the funnel, ``cassette
record``) takes the built backend, so a cassette is read once per run. One
claim-an-index dispatcher, ``_run_bounded``, keeps at most ``max_in_flight``
calls running and reads each item once, on the worker that claims it: for
``complete_batch`` an item is one request (extraction passes a sequence that
renders each prompt as it is read), for the funnel one candidate's whole
score chain. The HTTP backend posts through one stdlib
``urllib`` opener (a fresh connection per request; the HTTP stack is
imported with the first HTTP backend) and retries transport errors, 5xx and
429 with exponential backoff, waiting longer when a 429 or 503 reply's
``Retry-After`` asks for it; the cassette backend answers
from a recorded cassette keyed by a stable hash of (system, user), with the
hash state of each distinct system text kept once, on one thread (a lookup
never waits, so its ``max_in_flight`` is 1), and, wrapped around another
backend, records that backend's answers and saves them sorted by hash; the
scripted backend answers from an in-process responder and exists for oracle
runs and tests. Only HTTP replies carry token usage and attempt counts.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .errors import BackendUnavailableError, ConfigError, DomainError, PhenoKGError, ReplayMissError
from .jsonl import expect_number, expect_type, iter_jsonl, write_jsonl

ENDPOINT_ENV_VAR = "PHENOKG_ENDPOINT_URL"
API_KEY_ENV_VAR = "PHENOKG_API_KEY"

_RETRYABLE_STATUSES = frozenset({429}) | frozenset(range(500, 600))


@dataclass(frozen=True, slots=True)
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


def check_config(config: BackendConfig) -> None:
    """Raise one ConfigError listing every problem with the config."""
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
    if problems:
        raise ConfigError(problems)


@dataclass(frozen=True, slots=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True, slots=True)
class ChatResponse:
    """A reply; a replayed or scripted one spent no tokens, in one attempt."""

    text: str
    usage: Usage = Usage()
    attempts: int = 1


@functools.lru_cache(maxsize=64)
def _system_part(system: str):
    """The sha256 state after the length-prefixed system part; copy it before updating it."""
    sys_b = system.encode("utf-8")
    return hashlib.sha256(b"%d:%b|" % (len(sys_b), sys_b))


def request_hash(system: str, user: str) -> str:
    """Stable content hash keying cassette entries; length-prefixed to avoid collisions."""
    usr_b = user.encode("utf-8")
    h = _system_part(system).copy()
    h.update(b"%d:%b" % (len(usr_b), usr_b))
    return h.hexdigest()


def backoff_schedule(retry: RetryPolicy) -> list[float]:
    """Delays slept between attempts; non-decreasing by construction."""
    return [retry.base_backoff * (2**i) for i in range(retry.max_attempts - 1)]


class HttpBackend:
    """OpenAI-compatible chat-completions client with retry and backoff.

    Endpoint URL and bearer token can be overridden/supplied via the
    PHENOKG_ENDPOINT_URL and PHENOKG_API_KEY environment variables. Those,
    and any proxy settings in the environment, are read once, here. The
    HTTP stack (``urllib.request``, ``http.client``, ``ssl``) is imported
    here too, so a process that builds no HTTP backend never loads it.
    """

    # a re-sent request may get another answer
    deterministic = False

    def __init__(self, config: BackendConfig, sleep: Callable[[float], None] = time.sleep):
        check_config(config)
        self.config = config
        self.endpoint_url = _effective_endpoint(config.endpoint_url)
        self.max_in_flight = config.max_in_flight
        self._sleep = sleep
        self._headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV_VAR, "")
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        import urllib.request

        class RefuseRedirects(urllib.request.HTTPRedirectHandler):
            """Every 3xx reply ends as an HTTPError instead of being followed: following one would re-send the
            POST as a bodiless GET, with the bearer token, to whatever host and scheme the Location names."""

            def redirect_request(self, req, fp, code, msg, headers, newurl):
                return None

        # proxies come from the environment; redirects are refused
        self._opener = urllib.request.build_opener(RefuseRedirects)

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
        payload, attempts = self._post_with_retry(json.dumps(body).encode("utf-8"))
        try:
            text = expect_type(payload["choices"][0]["message"]["content"], str, "content")
            usage = payload.get("usage")
            usage = {} if usage is None else expect_type(usage, dict, "usage")
            counts = [int(expect_number(usage.get(name, 0), name)) for name in ("prompt_tokens", "completion_tokens")]
        except (KeyError, IndexError, TypeError, ValueError, OverflowError):
            raise BackendUnavailableError(
                f"malformed completion payload: {_error_snippet(payload)}", attempts=attempts
            ) from None
        return ChatResponse(text=text, usage=Usage(*counts), attempts=attempts)

    def _post_with_retry(self, data: bytes) -> tuple[dict, int]:
        """POST a JSON body; return (payload, attempts) of the first 200 reply.

        The one retry loop: transport errors (refused, reset, timed out,
        truncated), 5xx and 429 are retried on the backoff schedule, any
        other status fails at once (both as BackendUnavailableError). A 429
        or 503 reply's ``Retry-After`` (delta-seconds or an HTTP-date) makes
        the wait ``max(scheduled delay, Retry-After)``; a value the client
        cannot parse leaves the schedule alone, and one above
        ``config.timeout`` stops retrying at once. Each attempt opens a
        fresh connection. The caller validates the payload; a malformed one
        is not retried.
        """
        import http.client

        retry = self.config.retry
        delays = backoff_schedule(retry)
        last_status: int | None = None
        last_error = ""
        for attempt in range(1, retry.max_attempts + 1):
            server_wait = 0.0
            try:
                status, retry_after, raw = self._post_once(data)
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
                if status in (429, 503) and (asked := _retry_after_seconds(retry_after)) is not None:
                    if asked > self.config.timeout:
                        raise BackendUnavailableError(
                            f"backend returned status {status} with Retry-After {retry_after!r} "
                            f"({asked:g} s), beyond the {self.config.timeout:g} s timeout: {last_error}",
                            last_status=status,
                            attempts=attempt,
                        )
                    server_wait = asked
            if attempt < retry.max_attempts:
                self._sleep(max(delays[attempt - 1], server_wait))
        raise BackendUnavailableError(
            f"backend unavailable after {retry.max_attempts} attempts "
            f"(last status: {last_status}, last error: {last_error})",
            last_status=last_status,
            attempts=retry.max_attempts,
        )

    def _post_once(self, data: bytes) -> tuple[int, str | None, bytes]:
        """(status, Retry-After header, body bytes) of one POST; an HTTP error status is a reply, not an exception."""
        import urllib.error
        import urllib.request

        request = urllib.request.Request(self.endpoint_url, data, self._headers)
        try:
            response = self._opener.open(request, timeout=self.config.timeout)
        except urllib.error.HTTPError as exc:
            response = exc
        with response:
            return response.status, response.headers.get("Retry-After"), response.read()


def _retry_after_seconds(value: str | None) -> float | None:
    """Seconds a ``Retry-After`` value asks the client to wait (RFC 9110 section 10.2.3): delta-seconds, or
    an HTTP-date, counted from now and 0 once past; None when absent or unparseable."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    import datetime
    import email.utils

    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError, OverflowError):
        return None
    if when.tzinfo is None:  # an asctime date or "-0000": HTTP dates are in GMT
        when = when.replace(tzinfo=datetime.timezone.utc)
    return max(0.0, when.timestamp() - time.time())


def _error_snippet(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)[:200]


class CassetteBackend:
    """Answers from a cassette (request hash -> response); with an ``inner`` backend it also records.

    With no ``inner`` a miss raises ReplayMissError. With one, a miss is sent
    to ``inner`` and the first answer stored for its hash is the one returned,
    so the run and ``save`` agree even when two threads miss on one request at
    once; a request already in the cassette is never sent again.
    """

    # a re-sent request is answered from the cassette, so callers need not retry it
    deterministic = True

    def __init__(self, responses: dict[str, str] | None = None, inner=None):
        self.responses = {} if responses is None else responses
        self.inner = inner
        # a replay answer is a dict lookup that never waits, so a second worker
        # thread overlaps nothing and only adds interpreter-lock handoffs
        self.max_in_flight = 1 if inner is None else inner.max_in_flight
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        key = request_hash(request.system, request.user)
        text = self.responses.get(key)
        if text is not None:
            return ChatResponse(text)
        if self.inner is None:
            raise ReplayMissError(key)
        response = self.inner.complete(request)
        with self._lock:
            text = self.responses.setdefault(key, response.text)
        return ChatResponse(text=text, usage=response.usage, attempts=response.attempts)

    def save(self, path: str | Path) -> None:
        """Write the cassette as ``{hash, response}`` JSON Lines sorted by hash, replaced atomically."""
        with self._lock:
            entries = sorted(self.responses.items())
        write_jsonl(path, (json.dumps({"hash": key, "response": text}) for key, text in entries))


class ScriptedBackend:
    """In-process backend for oracle runs and tests: answers from a responder (request -> text)."""

    # a responder may answer a re-sent request differently
    deterministic = False

    def __init__(self, responder: Callable[[ChatRequest], str], max_in_flight: int = 4):
        self._responder = responder
        self.max_in_flight = max_in_flight
        self.calls: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.calls.append(request)  # atomic, so it is safe from worker threads
        return ChatResponse(self._responder(request))


def make_backend(config: BackendConfig):
    """The backend ``config`` names; a bad config is one ConfigError listing every problem."""
    if config.kind == "http":
        return HttpBackend(config)  # which checks the config
    check_config(config)
    return CassetteBackend(load_cassette(config.cassette_path))


def complete_batch(
    backend,
    requests_: Sequence[ChatRequest],
    max_in_flight: int | None = None,
) -> list[ChatResponse | PhenoKGError]:
    """``backend.complete`` each request through ``_run_bounded`` (bound: ``max_in_flight`` or the backend's).

    ``requests_[i]`` is read exactly once, by the worker that claims ``i``, so a sequence may build each
    request as it is read and hold no more than the requests in flight.
    """
    return _run_bounded(requests_, backend.complete, max_in_flight or backend.max_in_flight)


def _run_bounded(items: Sequence, fn: Callable, bound: int) -> list:
    """``[fn(item) for item in items]`` on at most ``bound`` threads, results in input order.

    ``min(bound, len(items))`` workers, the calling thread one of them, each
    claim the next unclaimed index until none is left, so at most ``bound``
    calls run at once and each item is started once. ``items[i]`` is read
    exactly once, by the worker that claims ``i``, just before ``fn`` is
    called on it; an index left unclaimed is never read. An expected failure (a
    PhenoKGError: backend unavailable, replay miss, unparseable reply) is
    returned in place as its exception instead of aborting the rest (the
    asyncio.gather(return_exceptions=True) idiom). Any other exception,
    including an interrupt, is a program bug: it stops the workers claiming
    new items (unclaimed items are never started) and, once every worker has
    returned, the first one is re-raised.
    """
    if bound < 1:
        raise DomainError(f"max_in_flight must be >= 1, got {bound}")
    n = len(items)
    results: list = [None] * n
    bugs: list[BaseException] = []
    claim = itertools.count().__next__  # atomic under the GIL: each index goes to one worker

    def work() -> None:
        try:
            while not bugs:
                i = claim()
                if i >= n:
                    return
                try:
                    results[i] = fn(items[i])
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


def load_cassette(path: str | Path) -> dict[str, str]:
    """Map request hash -> response (a string); a hash recorded twice must carry the same response."""
    responses: dict[str, str] = {}
    first_line: dict[str, int] = {}
    entries = iter_jsonl(path, DomainError, lambda r: (r["hash"], expect_type(r["response"], str, "response")))
    for line_no, (key, response) in entries:
        if responses.setdefault(key, response) != response:
            raise DomainError(f"{path} lines {first_line[key]} and {line_no}: different responses for hash {key}")
        first_line.setdefault(key, line_no)
    return responses
