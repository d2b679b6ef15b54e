"""Localhost OpenAI-compatible chat endpoint answering from an extraction plan.

Run as ``python3 perfbench/stub.py PLAN.json``; it binds an ephemeral port
on 127.0.0.1 and prints ``PORT <n>`` once it accepts connections. It runs in
its own process so that its CPU time is not charged to the client.

For ``POST`` it reads the document key from the user message's
``PATIENT_KEY:`` line and answers with the next two gold ids not already in
the user message (an empty list once all are there), in the reply style the
plan gives for that round. Before answering it sleeps a lognormal delay
seeded by (seed, key, number of gold ids already present), so the sum of
delays, and the latency lower bound built from it, is the same on every run
and every commit. ``GET /stats`` returns the counters; ``GET
/stats?reset=1`` also zeroes them. It speaks HTTP/1.1 with Content-Length,
so a keep-alive client is not penalised, and never answers 429 or 503.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import STUB_MEDIAN_S, STUB_SIGMA, read_json  # noqa: E402

_KEY_RE = re.compile(r"^PATIENT_KEY: (\S+)", re.MULTILINE)


def stub_delay(seed: int, key: str, n_present: int) -> float:
    rng = random.Random(f"{seed}|{key}|{n_present}")
    return rng.lognormvariate(math.log(STUB_MEDIAN_S), STUB_SIGMA)


def reply_text(key: str, doc: dict, n_present: int) -> str:
    """The model reply for a document once ``n_present`` gold ids are known."""
    round_key = str(n_present // 2)
    style = doc["styles"].get(round_key, "bare")
    if style == "garbage":
        return "I could not identify any phenotypes in this note."
    new = doc["gold"][n_present : n_present + 2] + doc["extra"].get(round_key, [])
    rows = [
        {"category": t, "confidence": doc["confidence"].get(t, 0.9), "reasoning": "documented in the note"}
        for t in new
    ]
    body = json.dumps({key: rows})
    if style == "fenced":
        return f"```json\n{body}\n```"
    if style == "prose":
        return f"Here is the extraction result.\n{body}\nNo other phenotypes were found."
    return body


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.connections = 0
        self.requests = 0
        self.service_s = 0.0
        self.delay_s = 0.0
        self.chain_s: dict[str, float] = {}

    def snapshot(self, reset: bool) -> dict:
        with self.lock:
            out = {
                "connections": self.connections,
                "requests": self.requests,
                "service_s": self.service_s,
                "delay_s": self.delay_s,
                "chain_max_s": max(self.chain_s.values(), default=0.0),
            }
            if reset:
                self.reset()
        return out


def make_handler(plan: dict, stats: Stats):
    seed = plan["seed"]
    docs = plan["docs"]

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.counted = False

        def log_message(self, format, *args):  # noqa: A002 - signature fixed by the base class
            pass

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            self.wfile.flush()

        def do_GET(self):
            if not self.path.startswith("/stats"):
                self._send(404, {"error": "not found"})
                return
            self._send(200, stats.snapshot(reset="reset=1" in self.path))

        def do_POST(self):
            started = time.perf_counter()
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            user = next(m["content"] for m in body["messages"] if m["role"] == "user")
            match = _KEY_RE.search(user)
            doc = docs.get(match.group(1)) if match else None
            if doc is None:
                self._send(400, {"error": "no known PATIENT_KEY line in the user message"})
                return
            key = match.group(1)
            n_present = sum(1 for term in doc["gold"] if term in user)
            text = reply_text(key, doc, n_present)
            delay = stub_delay(seed, key, n_present)
            time.sleep(delay)
            # counted before the reply goes out, so a client that reads /stats
            # right after its last reply sees every request
            with stats.lock:
                if not self.counted:
                    self.counted = True
                    stats.connections += 1
                stats.requests += 1
                stats.service_s += time.perf_counter() - started
                stats.delay_s += delay
                stats.chain_s[key] = stats.chain_s.get(key, 0.0) + delay
            self._send(
                200,
                {
                    "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
                    "usage": {"prompt_tokens": len(user.split()), "completion_tokens": len(text.split())},
                },
            )

    return Handler


def main(argv: list[str]) -> int:
    plan = read_json(Path(argv[0]))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(plan, Stats()))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
