"""Traced passes: spans around each layer's public functions, and the per-layer
metrics derived from them.

A name is patched where its caller looks it up (``phenokg.extraction.top_k``,
``phenokg.discovery.keyword_search``, or this benchmark's ``workloads``
module for calls the benchmark makes itself). Bound methods (``embed_one``,
``complete``) are patched in place on the instance the program already
holds. A name that no longer exists is skipped, and the metrics built on it
are reported as absent (value ``null``) instead of failing the run.

A span records (id, name, start, end, parent, thread, request_tag, failed).
A span opened on a worker thread with no open span of its own takes the
innermost open span of the thread that installed the tracer as its parent,
which is how ``complete_batch`` becomes the parent of the requests its pool
runs. Self time is a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from pathlib import Path

from phenokg.llm import request_hash

from common import MAX_IN_FLIGHT

# (module, attribute, span name)
MODULE_POINTS = (
    ("phenokg.extraction", "build_prompt", "extraction.build_prompt"),
    ("phenokg.extraction", "top_k", "retrieval.top_k"),
    ("phenokg.extraction", "render_template", "extraction.render_template"),
    ("phenokg.extraction", "parse_model_output", "extraction.parse"),
    ("phenokg.extraction", "merge_gleaned", "extraction.merge"),
    ("phenokg.extraction", "complete_batch", "llm.complete_batch"),
    ("phenokg.discovery", "candidate_cohort", "discovery.candidates"),
    ("phenokg.discovery", "keyword_search", "kg.keyword_search"),
    ("phenokg.discovery", "cohort_by_icd", "kg.cohort_by_icd"),
    ("phenokg.discovery", "patient_record", "kg.patient_record"),
    ("phenokg.discovery", "build_score_prompt", "discovery.score_prompt"),
    ("phenokg.discovery", "render_template", "extraction.render_template"),
    ("phenokg.discovery", "parse_model_output", "extraction.parse"),
    ("phenokg.discovery", "complete_batch", "llm.complete_batch"),
    ("phenokg.discovery", "extract_corpus", "extraction.extract_corpus"),
    ("workloads", "extract_corpus", "extraction.extract_corpus"),
    ("workloads", "run_funnel", "discovery.run_funnel"),
    ("workloads", "upsert_assertion", "kg.upsert"),
    ("workloads", "save_graph", "kg.save_graph"),
    ("workloads", "load_graph", "kg.load_graph"),
    ("workloads", "cohort_by_icd", "kg.cohort_by_icd"),
    ("workloads", "phenotype_frequency", "cohortstats.phenotype_frequency"),
    ("workloads", "compare_to_ontology", "cohortstats.compare"),
    ("workloads", "heatmap_csv", "cohortstats.heatmap"),
)
# (attribute of the workload's set-up state, method, span name)
INSTANCE_POINTS = (
    ("embedder", "embed_one", "retrieval.embed"),
    ("backend", "complete", "llm.request"),
)

SETUP_STEPS = ("ontology.load_s", "corpus.load_s", "retrieval.build_index_s", "llm.replay.load_s", "kg.load_graph_s")
AUDIT_EVENTS = ("document_round_failed", "dropped_unknown_term", "dropped_disallowed_term", "scoring_failed")
STAGES = ("candidates", "scored", "filtered", "extracted", "finalists")

# (metric, unit, better, span it is built on or None)
PER_LAYER = (
    *((step, "s", "lower", None) for step in SETUP_STEPS),
    ("retrieval.embed.calls", "count", "lower", "retrieval.embed"),
    ("retrieval.embed.s", "s", "lower", "retrieval.embed"),
    ("retrieval.top_k.calls", "count", "lower", "retrieval.top_k"),
    ("retrieval.top_k.s", "s", "lower", "retrieval.top_k"),
    ("retrieval.top_k.p50_us", "us", "lower", "retrieval.top_k"),
    ("retrieval.top_k.tail_us", "us", "lower", "retrieval.top_k"),
    ("retrieval.top_k.tail_pct", "pct", "higher", "retrieval.top_k"),
    ("retrieval.top_k.n", "count", "higher", "retrieval.top_k"),
    ("extraction.extract_corpus.s", "s", "lower", "extraction.extract_corpus"),
    ("extraction.build_prompt.calls", "count", "lower", "extraction.build_prompt"),
    ("extraction.build_prompt.s", "s", "lower", "extraction.build_prompt"),
    ("extraction.build_prompt.self_s", "s", "lower", "extraction.build_prompt"),
    ("extraction.render_template.calls", "count", "lower", "extraction.render_template"),
    ("extraction.render_template.s", "s", "lower", "extraction.render_template"),
    ("extraction.parse.calls", "count", "lower", "extraction.parse"),
    ("extraction.parse.s", "s", "lower", "extraction.parse"),
    ("extraction.parse.failed", "count", "lower", "extraction.parse"),
    ("extraction.merge.calls", "count", "lower", "extraction.merge"),
    ("extraction.merge.s", "s", "lower", "extraction.merge"),
    *((f"extraction.audit.{event}", "count", "lower", None) for event in AUDIT_EVENTS),
    ("llm.first_request_s", "s", "lower", "llm.request"),
    ("llm.idle_s", "s", "lower", "llm.request"),
    ("llm.in_flight_util", "ratio", "higher", "llm.request"),
    ("llm.requests", "count", "lower", "llm.request"),
    ("llm.duplicate_requests", "count", "lower", "llm.request"),
    ("llm.complete_batch.calls", "count", "lower", "llm.complete_batch"),
    ("llm.complete_batch.self_s", "s", "lower", "llm.complete_batch"),
    ("llm.request.p50_ms", "ms", "lower", "llm.request"),
    ("llm.request.tail_ms", "ms", "lower", "llm.request"),
    ("llm.request.tail_pct", "pct", "higher", "llm.request"),
    ("llm.request.n", "count", "higher", "llm.request"),
    ("llm.http.connections", "count", "lower", None),
    ("llm.http.client_overhead_ms", "ms", "lower", "llm.request"),
    ("kg.keyword_search_s", "s", "lower", "kg.keyword_search"),
    ("kg.cohort_by_icd_s", "s", "lower", "kg.cohort_by_icd"),
    ("kg.patient_record.calls", "count", "lower", "kg.patient_record"),
    ("kg.patient_record.s", "s", "lower", "kg.patient_record"),
    ("discovery.candidates_s", "s", "lower", "discovery.candidates"),
    ("discovery.score_prompt.calls", "count", "lower", "discovery.score_prompt"),
    ("discovery.score_prompt.s", "s", "lower", "discovery.score_prompt"),
    ("discovery.run_funnel_s", "s", "lower", "discovery.run_funnel"),
    *((f"discovery.stage.{stage}", "count", "higher", None) for stage in STAGES),
    ("kg.upsert.calls", "count", "lower", "kg.upsert"),
    ("kg.upsert.s", "s", "lower", "kg.upsert"),
    ("kg.upsert.failed", "count", "lower", "kg.upsert"),
    ("kg.save_graph_s", "s", "lower", "kg.save_graph"),
    ("kg.reload_graph_s", "s", "lower", "kg.load_graph"),
    ("cohortstats.phenotype_frequency_s", "s", "lower", "cohortstats.phenotype_frequency"),
    ("cohortstats.compare_s", "s", "lower", "cohortstats.compare"),
    ("cohortstats.heatmap_s", "s", "lower", "cohortstats.heatmap"),
    ("trace.spans", "count", "lower", None),
    ("trace.overhead_s", "s", "lower", None),
)


class Tracer:
    """Records spans in memory while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.requests: list[tuple[str, str]] = []
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[int] = []
        self._restore: list[tuple] = []

    def _parent_and_stack(self):
        if threading.get_ident() == self._root_thread:
            stack = self._root_stack
            return (stack[-1] if stack else None), stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack[-1], stack
        try:
            return self._root_stack[-1], stack
        except IndexError:
            return None, stack

    def wrap(self, name: str, fn, is_request: bool = False):
        def traced(*args, **kwargs):
            parent, stack = self._parent_and_stack()
            span_id = next(self._ids)
            stack.append(span_id)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tag = ""
                if is_request:
                    request = args[0]
                    tag = request.request_tag
                    self.requests.append((tag, request_hash(request.system, request.user)))
                self.spans.append((span_id, name, start, end, parent, threading.get_ident(), tag, failed))

        return traced

    def install(self, state) -> None:
        tried, patched = set(), set()
        for module_name, attr, span in MODULE_POINTS:
            tried.add(span)
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self.wrap(span, original))
            self._restore.append((module, attr, original))
            patched.add(span)
        for owner_name, attr, span in INSTANCE_POINTS:
            owner = getattr(state, owner_name, None)
            if owner is None:
                continue  # this workload has no such object: the metric is zero, not absent
            tried.add(span)
            method = getattr(owner, attr, None)
            if method is None:
                continue
            try:
                setattr(owner, attr, self.wrap(span, method, is_request=span == "llm.request"))
            except AttributeError:
                continue
            self._restore.append((owner, attr, None))
            patched.add(span)
        self.missing = tried - patched

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "thread", "request_tag", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def percentiles(values: list[float]) -> tuple[float, float, float, int]:
    """(p50, tail, tail percentile, n); the tail is the highest percentile with
    at least ten samples beyond it (p50 when there are too few samples)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    ordered = sorted(values)

    def at(pct: float) -> float:
        return ordered[max(0, math.ceil(pct / 100 * n) - 1)]

    tail_pct = next((p for p in (99.9, 99.0, 95.0, 90.0, 75.0) if n - math.ceil(p / 100 * n) >= 10), 50.0)
    return at(50.0), at(tail_pct), tail_pct, n


def layer_metrics(tracer: Tracer, pass_start: float, pass_end: float, extras: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (setup steps and overhead are added by the caller).

    ``extras`` holds ``audit`` (event -> count), ``stages`` (stage -> count)
    and ``stub`` (the endpoint's counters for the pass), each possibly empty.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span[1]].append(span)
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def self_time(name):
        out = 0.0
        for span_id, _, start, end, *_ in by_name[name]:
            inside = [(max(a, start), min(b, end)) for a, b in children[span_id] if b > start and a < end]
            out += (end - start) - _union_length(inside)
        return out

    wall = pass_end - pass_start
    requests = by_name["llm.request"]
    request_s = [s[3] - s[2] for s in requests]
    top_k = percentiles([(s[3] - s[2]) * 1e6 for s in by_name["retrieval.top_k"]])
    req = percentiles([d * 1e3 for d in request_s])
    stub = extras.get("stub") or {}
    values = {
        "retrieval.embed.calls": calls("retrieval.embed"),
        "retrieval.embed.s": total("retrieval.embed"),
        "retrieval.top_k.calls": calls("retrieval.top_k"),
        "retrieval.top_k.s": total("retrieval.top_k"),
        "retrieval.top_k.p50_us": top_k[0],
        "retrieval.top_k.tail_us": top_k[1],
        "retrieval.top_k.tail_pct": top_k[2],
        "retrieval.top_k.n": top_k[3],
        "extraction.extract_corpus.s": total("extraction.extract_corpus"),
        "extraction.build_prompt.calls": calls("extraction.build_prompt"),
        "extraction.build_prompt.s": total("extraction.build_prompt"),
        "extraction.build_prompt.self_s": self_time("extraction.build_prompt"),
        "extraction.render_template.calls": calls("extraction.render_template"),
        "extraction.render_template.s": total("extraction.render_template"),
        "extraction.parse.calls": calls("extraction.parse"),
        "extraction.parse.s": total("extraction.parse"),
        "extraction.parse.failed": sum(1 for s in by_name["extraction.parse"] if s[7]),
        "extraction.merge.calls": calls("extraction.merge"),
        "extraction.merge.s": total("extraction.merge"),
        "llm.first_request_s": min(s[2] for s in requests) - pass_start if requests else 0.0,
        "llm.idle_s": wall - _union_length([(s[2], s[3]) for s in requests]) if requests else 0.0,
        "llm.in_flight_util": sum(request_s) / (wall * MAX_IN_FLIGHT) if requests else 0.0,
        "llm.requests": len(requests),
        "llm.duplicate_requests": len(tracer.requests) - len({h for _, h in tracer.requests}),
        "llm.complete_batch.calls": calls("llm.complete_batch"),
        "llm.complete_batch.self_s": self_time("llm.complete_batch"),
        "llm.request.p50_ms": req[0],
        "llm.request.tail_ms": req[1],
        "llm.request.tail_pct": req[2],
        "llm.request.n": req[3],
        "llm.http.connections": stub.get("connections", 0),
        "llm.http.client_overhead_ms": (
            (sum(request_s) - stub["service_s"]) * 1e3 / len(requests) if requests and stub else 0.0
        ),
        "kg.keyword_search_s": total("kg.keyword_search"),
        "kg.cohort_by_icd_s": total("kg.cohort_by_icd"),
        "kg.patient_record.calls": calls("kg.patient_record"),
        "kg.patient_record.s": total("kg.patient_record"),
        "discovery.candidates_s": total("discovery.candidates"),
        "discovery.score_prompt.calls": calls("discovery.score_prompt"),
        "discovery.score_prompt.s": total("discovery.score_prompt"),
        "discovery.run_funnel_s": total("discovery.run_funnel"),
        "kg.upsert.calls": calls("kg.upsert"),
        "kg.upsert.s": total("kg.upsert"),
        "kg.upsert.failed": sum(1 for s in by_name["kg.upsert"] if s[7]),
        "kg.save_graph_s": total("kg.save_graph"),
        "kg.reload_graph_s": total("kg.load_graph"),
        "cohortstats.phenotype_frequency_s": total("cohortstats.phenotype_frequency"),
        "cohortstats.compare_s": total("cohortstats.compare"),
        "cohortstats.heatmap_s": total("cohortstats.heatmap"),
        "trace.spans": len(tracer.spans),
    }
    audit = extras.get("audit") or {}
    stages = extras.get("stages") or {}
    values.update({f"extraction.audit.{e}": audit.get(e, 0) for e in AUDIT_EVENTS})
    values.update({f"discovery.stage.{s}": stages.get(s, 0) for s in STAGES})
    return values


def request_digest(pairs) -> str:
    """sha256 over the sorted, distinct (request_tag, request_hash) pairs."""
    h = hashlib.sha256()
    for tag, digest in sorted(set(pairs)):
        h.update(f"{tag}\t{digest}\n".encode("utf-8"))
    return h.hexdigest()
