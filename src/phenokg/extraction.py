"""Prompt building, strict-JSON output parsing, and the gleaning loop.

Three task families share one pipeline: named entity mentions, ontology
term extraction, and multilabel classification. A task's system prompt is
its plain-text template with the examples and task context substituted in;
its user message, built here, is the document's input block plus, on a
gleaning round, the previous result. Prompts are byte-deterministic for
equal inputs. Model output must be a single JSON object; exactly two
deviations are recovered (a fenced code block wrapping the object, and
prose around exactly one object). Each gleaning round feeds the cumulative
result back and asks for new entities only; merged results therefore grow
monotonically. ``extract_corpus`` is the one gleaning loop, for one document
or many: a failed round is audited, never raised.
"""

from __future__ import annotations

import enum
import functools
import json
import logging
import re
import threading
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .corpus import Document, EntityType, normalize_surface
from .errors import DomainError, OutputParseError, OutputSchemaError, PhenoKGError
from .jsonl import expect_number, expect_type, write_jsonl
from .llm import ChatRequest, complete_batch
from .ontology import Ontology, TermId
from .retrieval import EmbeddingIndex, top_k

logger = logging.getLogger(__name__)


class PolicyMode(enum.Enum):
    ZERO_SHOT = "zero-shot"
    STATIC_FEW_SHOT = "static-fewshot"
    DYNAMIC_FEW_SHOT = "dynamic-fewshot"


@dataclass(frozen=True)
class FewShotPolicy:
    """How in-context examples are chosen for a prompt.

    ``example_pool`` holds (Document, gold) pairs, gold as the corpus
    loaders yield it: a span list for NER, a plain set of term ids or
    labels for the other tasks. Dynamic mode additionally needs an
    embedding index over the pool's doc ids and the embedder that built it.
    """

    mode: PolicyMode = PolicyMode.ZERO_SHOT
    k: int = 5
    example_pool: Sequence[tuple[Document, object]] = ()
    index: EmbeddingIndex | None = None
    embedder: object = None

    def __post_init__(self):
        if self.mode is not PolicyMode.ZERO_SHOT and self.k < 1:
            raise DomainError("few-shot modes require k >= 1")


ZERO_SHOT = FewShotPolicy()


@dataclass(frozen=True)
class GleanConfig:
    iterations: int = 1

    def __post_init__(self):
        if not 0 <= self.iterations <= 8:
            raise DomainError(f"glean iterations must be in [0, 8], got {self.iterations}")


def _mention_rows(mentions) -> list[dict]:
    """(surface, type) mentions as JSON rows, sorted by (surface, type name)."""
    return [{"surface": s, "type": t.value} for s, t in sorted(mentions, key=lambda m: (m[0], m[1].value))]


@dataclass(frozen=True)
class NerResult:
    key: str
    mentions: frozenset[tuple[str, EntityType]]

    def __post_init__(self):
        for surface, _ in self.mentions:
            if not surface or surface != normalize_surface(surface):
                raise DomainError(f"mention surface {surface!r} is empty or not normalized")

    def to_record(self) -> dict:
        return {"doc_id": self.key, "mentions": _mention_rows(self.mentions)}

    @classmethod
    def from_record(cls, record: dict) -> NerResult:
        mentions = (expect_type(m, dict, "mention") for m in expect_type(record["mentions"], list, "mentions"))
        pairs = ((expect_type(m["surface"], str, "surface"), expect_type(m["type"], str, "type")) for m in mentions)
        key = expect_type(record["doc_id"], str, "doc_id")
        return cls(key, frozenset((normalize_surface(s), EntityType.from_label(t)) for s, t in pairs))


@dataclass(frozen=True)
class HpoAssertion:
    term: TermId
    confidence: float
    reasoning: str = ""

    def __post_init__(self):
        if not 0 <= self.confidence <= 1:
            raise DomainError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class HpoExtraction:
    key: str
    assertions: tuple[HpoAssertion, ...]

    def term_set(self) -> set[TermId]:
        return {a.term for a in self.assertions}

    def to_record(self) -> dict:
        rows = [{"term": a.term, "confidence": a.confidence, "reasoning": a.reasoning} for a in self.assertions]
        return {"key": self.key, "assertions": rows}

    @classmethod
    def from_record(cls, record: dict) -> HpoExtraction:
        rows = expect_type(record["assertions"], list, "assertions")
        assertions = (
            HpoAssertion(
                TermId(a["term"]), expect_number(a["confidence"], "confidence"),
                expect_type(a.get("reasoning", ""), str, "reasoning"),
            )
            for a in (expect_type(row, dict, "assertion") for row in rows)
        )
        return cls(expect_type(record["key"], str, "key"), tuple(assertions))


@dataclass(frozen=True)
class MultiLabelResult:
    key: str
    labels: frozenset[str]

    def to_record(self) -> dict:
        return {"doc_id": self.key, "labels": sorted(self.labels)}

    @classmethod
    def from_record(cls, record: dict) -> MultiLabelResult:
        labels = frozenset(expect_type(label, str, "label") for label in expect_type(record["labels"], list, "labels"))
        return cls(expect_type(record["doc_id"], str, "doc_id"), labels)


class AuditLog:
    """Append-only record of dropped/failed items; never silent, thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self.entries: list[dict] = []

    def record(self, event: str, **fields) -> None:
        with self._lock:
            self.entries.append({"event": event, **fields})
        logger.info("audit: %s %s", event, fields)

    def count(self, event: str) -> int:
        return sum(1 for e in self.entries if e["event"] == event)

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path) -> None:
        write_jsonl(path, (json.dumps(entry, sort_keys=True) for entry in self.entries))


@functools.lru_cache(maxsize=None)
def load_template(name: str) -> str:
    return resources.files("phenokg").joinpath("templates", f"{name}.txt").read_text(encoding="utf-8")


@functools.lru_cache(maxsize=64)
def _placeholder_pattern(names: tuple[str, ...]) -> re.Pattern:
    return re.compile("|".join(re.escape("{" + name + "}") for name in names))


def substitute(template: str, **placeholders: str) -> str:
    """Replace literal {name} tokens in a single pass over the template.

    JSON braces in template bodies survive, and placeholder-like tokens
    inside substituted values are never re-substituted.
    """
    pattern = _placeholder_pattern(tuple(placeholders))
    return pattern.sub(lambda match: placeholders[match.group(0)[1:-1]], template)


def render_template(name: str, **placeholders: str) -> str:
    """The system prompt: the bundled template ``name`` with its placeholders ``substitute``d."""
    return substitute(load_template(name), **placeholders).strip() + "\n"


class NerTask:
    """Chemical/disease mention extraction."""

    name = "ner"
    result_type = NerResult

    def render_input(self, document: Document) -> str:
        return f"DOC_ID: {document.doc_id}\n\nTEXT:\n{document.text}"

    def context_placeholders(self) -> dict[str, str]:
        return {}

    def gold_to_json(self, key: str, gold) -> str:
        mentions = gold.mentions if isinstance(gold, NerResult) else {span.mention for span in gold}
        return json.dumps({key: _mention_rows(mentions)}, separators=(", ", ": "))

    def parse_output(self, raw: str, key: str) -> NerResult:
        body = parse_model_output(raw, KeyedListSchema(key))
        mentions = []
        for i, item in enumerate(body):
            _require_object(item, f"{key}[{i}]")
            _reject_extra_fields(item, {"surface", "type"}, f"{key}[{i}]")
            surface = normalize_surface(_require_str(item, "surface", f"{key}[{i}]"))
            if not surface:
                raise OutputSchemaError("surface must be nonempty", field=f"{key}[{i}].surface")
            type_label = _require_str(item, "type", f"{key}[{i}]")
            try:
                ent_type = EntityType.from_label(type_label)
            except DomainError:
                raise OutputSchemaError(f"unknown entity type {type_label!r}", field=f"{key}[{i}].type") from None
            mentions.append((surface, ent_type))
        return NerResult(key, frozenset(mentions))

    def sanitize(self, result: NerResult, audit: AuditLog) -> NerResult:
        return result  # type/shape violations are schema errors; nothing semantic to drop


class HpoTask:
    """Ontology term extraction with optional allowed-term restriction."""

    name = "hpo"
    result_type = HpoExtraction

    def __init__(
        self,
        ontology: Ontology,
        allowed_terms: set[TermId] | frozenset[TermId] | None = None,
        disease_context: str = "",
    ):
        if allowed_terms is not None:
            if not allowed_terms:
                raise DomainError("allowed_terms must be nonempty when given")
            unknown = sorted(t for t in allowed_terms if t not in ontology)
            if unknown:
                raise DomainError(f"allowed terms not in ontology: {', '.join(unknown)}")
        self.ontology = ontology
        self.allowed_terms = frozenset(allowed_terms) if allowed_terms is not None else None
        self.disease_context = disease_context
        # every prompt of the task shares these; `discover` allows the whole ontology by default
        if self.allowed_terms is None:
            allowed = "Any valid HPO term in the ontology may be used."
        else:
            rows = sorted(
                ((ontology.name_of(t), t) for t in self.allowed_terms),
                key=lambda pair: (pair[0].casefold(), pair[1]),
            )
            allowed = "\n".join(f"{term_id} \t {name}" for name, term_id in rows)
        self._context = {"allowed_terms": allowed, "disease_context": disease_context.strip()}

    def render_input(self, document: Document) -> str:
        return f"PATIENT_KEY: {document.doc_id}\n\nDETAILS:\n{document.text}"

    def context_placeholders(self) -> dict[str, str]:
        return dict(self._context)

    def gold_to_json(self, key: str, gold) -> str:
        if isinstance(gold, HpoExtraction):
            rows = [
                {"category": a.term, "confidence": a.confidence, "reasoning": a.reasoning}
                for a in sorted(gold.assertions, key=lambda a: a.term)
            ]
        else:  # a set of TermId
            rows = [
                {"category": t, "confidence": 1.0, "reasoning": self.ontology.name_of(t)}
                for t in sorted(gold)
            ]
        return json.dumps({key: rows}, separators=(", ", ": "))

    def parse_output(self, raw: str, key: str) -> HpoExtraction:
        body = parse_model_output(raw, KeyedListSchema(key))
        assertions = []
        for i, item in enumerate(body):
            where = f"{key}[{i}]"
            _require_object(item, where)
            _reject_extra_fields(item, {"category", "confidence", "reasoning"}, where)
            category = _require_str(item, "category", where)
            try:
                term = TermId(category)
            except DomainError:
                raise OutputSchemaError(f"malformed HPO id {category!r}", field=f"{where}.category") from None
            confidence = _coerce_confidence(item.get("confidence"), f"{where}.confidence")
            reasoning = item.get("reasoning", "")
            if not isinstance(reasoning, str):
                raise OutputSchemaError("reasoning must be a string", field=f"{where}.reasoning")
            assertions.append(HpoAssertion(term, confidence, reasoning))
        return HpoExtraction(key, tuple(assertions))

    def sanitize(self, result: HpoExtraction, audit: AuditLog) -> HpoExtraction:
        """Drop assertions whose term is unknown or outside the allowed set."""
        kept = []
        for assertion in result.assertions:
            if assertion.term not in self.ontology:
                audit.record("dropped_unknown_term", key=result.key, term=str(assertion.term))
                continue
            if self.allowed_terms is not None and assertion.term not in self.allowed_terms:
                audit.record("dropped_disallowed_term", key=result.key, term=str(assertion.term))
                continue
            kept.append(assertion)
        return HpoExtraction(result.key, tuple(kept))


class MultiLabelTask:
    """Closed-universe multilabel classification."""

    name = "multilabel"
    result_type = MultiLabelResult

    def __init__(self, universe: frozenset[str] | set[str]):
        if len(universe) != 15:
            raise DomainError(f"label universe must have exactly 15 names, got {len(universe)}")
        self.universe = frozenset(universe)

    def render_input(self, document: Document) -> str:
        return f"DOC_ID: {document.doc_id}\n\nTEXT:\n{document.text}"

    def context_placeholders(self) -> dict[str, str]:
        return {"allowed_terms": "\n".join(sorted(self.universe))}

    def gold_to_json(self, key: str, gold) -> str:
        labels = sorted(gold.labels if isinstance(gold, MultiLabelResult) else gold)
        return json.dumps({key: labels}, separators=(", ", ": "))

    def parse_output(self, raw: str, key: str) -> MultiLabelResult:
        body = parse_model_output(raw, KeyedListSchema(key))
        labels = []
        for i, item in enumerate(body):
            if not isinstance(item, str):
                raise OutputSchemaError("label entries must be strings", field=f"{key}[{i}]")
            labels.append(item)
        return MultiLabelResult(key, frozenset(labels))

    def sanitize(self, result: MultiLabelResult, audit: AuditLog) -> MultiLabelResult:
        kept = set()
        for label in result.labels:
            if label not in self.universe:
                audit.record("dropped_unknown_label", key=result.key, label=label)
            else:
                kept.add(label)
        return MultiLabelResult(result.key, frozenset(kept))


# ---------------------------------------------------------------------------
# strict-JSON output handling


@dataclass(frozen=True)
class KeyedListSchema:
    """Single-key object whose value is a list: {"<key>": [...]}."""

    expected_key: str

    def validate(self, obj: dict) -> list:
        if not isinstance(obj, dict):
            raise OutputSchemaError("top level must be a JSON object", field="$")
        if list(obj.keys()) != [self.expected_key]:
            keys = ", ".join(map(repr, obj.keys())) or "none"
            raise OutputSchemaError(
                f"expected exactly one top-level key {self.expected_key!r}, got {keys}", field="$"
            )
        body = obj[self.expected_key]
        if not isinstance(body, list):
            raise OutputSchemaError("value must be a list", field=self.expected_key)
        return body


@dataclass(frozen=True)
class ScoreSchema:
    """{"score": int in [0, 9], "rationale": str}."""

    def validate(self, obj: dict) -> tuple[int, str]:
        if not isinstance(obj, dict):
            raise OutputSchemaError("top level must be a JSON object", field="$")
        _reject_extra_fields(obj, {"score", "rationale"}, "$")
        if "score" not in obj:
            raise OutputSchemaError("missing score", field="score")
        score = obj["score"]
        if isinstance(score, bool) or not isinstance(score, int):
            raise OutputSchemaError(f"score must be an integer, got {score!r}", field="score")
        if not 0 <= score <= 9:
            raise OutputSchemaError(f"score {score} outside [0, 9]", field="score")
        rationale = obj.get("rationale", "")
        if not isinstance(rationale, str):
            raise OutputSchemaError("rationale must be a string", field="rationale")
        return score, rationale


def _require_object(item, where: str) -> None:
    if not isinstance(item, dict):
        raise OutputSchemaError("entry must be a JSON object", field=where)


def _require_str(item: dict, name: str, where: str) -> str:
    if name not in item:
        raise OutputSchemaError(f"missing {name}", field=f"{where}.{name}")
    value = item[name]
    if not isinstance(value, str):
        raise OutputSchemaError(f"{name} must be a string", field=f"{where}.{name}")
    return value


def _reject_extra_fields(item: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(item) - allowed)
    if extra:
        raise OutputSchemaError(f"unexpected fields: {', '.join(extra)}", field=f"{where}.{extra[0]}")


def _coerce_confidence(value, where: str) -> float:
    if isinstance(value, bool) or value is None:
        raise OutputSchemaError("missing or non-numeric confidence", field=where)
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise OutputSchemaError(f"non-numeric confidence {value!r}", field=where) from None
    if not isinstance(value, (int, float)):
        raise OutputSchemaError(f"non-numeric confidence {value!r}", field=where)
    value = float(value)
    if not 0 <= value <= 1:
        raise OutputSchemaError(f"confidence {value} outside [0, 1]", field=where)
    return value


_FENCE_RE = re.compile(r"^\s*```[a-zA-Z0-9_-]*\s*\n(.*?)\n?\s*```\s*$", re.DOTALL)


def parse_model_output(raw: str, expected_schema):
    """Parse a strict single-JSON-object model response.

    Accepts a bare JSON object, and tolerates exactly two deviations: a
    fenced code block wrapping the object, and leading/trailing prose
    around exactly one object (found by outermost-brace balancing with
    string awareness). Anything else, including two top-level objects, is
    rejected with OutputParseError (raw preserved); schema violations
    raise OutputSchemaError naming the field.
    """
    candidate = raw.strip()
    fence = _FENCE_RE.match(raw)
    if fence:
        candidate = fence.group(1).strip()
    obj = _try_load_object(candidate, raw)
    if obj is None:
        obj = _extract_single_object(raw)
    return expected_schema.validate(obj)


def _try_load_object(text: str, raw: str):
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(loaded, dict):
        # a syntactically valid document of the wrong top-level type is a
        # contract violation, not prose to scan through
        raise OutputParseError(f"top-level JSON is {type(loaded).__name__}, expected object", raw=raw)
    return loaded


def _extract_single_object(raw: str) -> dict:
    segments = _balanced_segments(raw)
    if len(segments) == 0:
        raise OutputParseError("no JSON object found in model output", raw=raw)
    if len(segments) > 1:
        raise OutputParseError(f"found {len(segments)} top-level JSON objects, expected exactly one", raw=raw)
    try:
        obj = json.loads(segments[0])
    except json.JSONDecodeError:
        raise OutputParseError("brace-balanced segment is not a valid JSON object", raw=raw) from None
    if not isinstance(obj, dict):
        raise OutputParseError("brace-balanced segment is not a JSON object", raw=raw)
    return obj


def _balanced_segments(raw: str) -> list[str]:
    """Top-level {...} segments, tracking JSON string/escape state."""
    segments = []
    depth = 0
    start = -1
    in_string = False
    escaped = False
    for i, ch in enumerate(raw):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"' and depth > 0:
            in_string = True
        elif ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}":
            if depth == 0:
                continue  # stray closer in prose
            depth -= 1
            if depth == 0:
                segments.append(raw[start : i + 1])
    return segments


# ---------------------------------------------------------------------------
# prompt building and the gleaning loop

_GLEAN_INSTRUCTION = (
    "Review the input again and find NEW entities that are NOT already in the "
    "previous result. Respond in the same JSON format, listing only newly found "
    "entries. If nothing new is found, return an empty list for the key."
)


def _glean_block(previous_json: str) -> str:
    return f"PREVIOUS RESULT (cumulative):\n{previous_json}\n\n{_GLEAN_INSTRUCTION}"


def _example_renderer(task, policy: FewShotPolicy):
    """Return a function mapping a document to its rendered examples block.

    The pool's id and text maps are built here, once, so a caller that
    renders many documents or many rounds pays for them once.
    """
    if policy.mode is PolicyMode.ZERO_SHOT:
        return lambda document: ""
    pool = list(policy.example_pool)
    if not pool:
        raise DomainError(f"{policy.mode.value} requires a nonempty example pool")
    if policy.mode is PolicyMode.STATIC_FEW_SHOT:
        static = _render_examples(task, pool[: policy.k])
        return lambda document: static
    if policy.index is None or policy.embedder is None:
        raise DomainError("dynamic-fewshot requires an embedding index and its embedder")
    by_id = {}
    ids_by_text: dict[str, set[str]] = {}
    for doc, gold in pool:
        if doc.doc_id not in policy.index:
            raise DomainError(f"index does not cover example pool doc {doc.doc_id}")
        by_id[doc.doc_id] = (doc, gold)
        ids_by_text.setdefault(doc.text, set()).add(doc.doc_id)

    def render(document: Document) -> str:
        # the query document itself (same id, or an exact-text duplicate)
        # never appears among its own examples
        exclude = set(ids_by_text.get(document.text, ()))
        if document.doc_id in by_id:
            exclude.add(document.doc_id)
        query_vec = policy.embedder.embed_one(document.text)
        ranked = top_k(policy.index, query_vec, k=policy.k, exclude=exclude)
        return _render_examples(task, [by_id[item_id] for item_id, _ in ranked])

    return render


def _render_examples(task, examples: list[tuple[Document, object]]) -> str:
    if not examples:
        return ""
    blocks = ["EXAMPLES:"]
    for doc, gold in examples:
        blocks.append(f"INPUT:\n{task.render_input(doc)}\nOUTPUT:\n{task.gold_to_json(doc.doc_id, gold)}")
    return "\n\n".join(blocks)


def _render_prompt(task, document: Document, examples: str, previous, round_no: int) -> ChatRequest:
    user = task.render_input(document)
    if previous is not None:
        user += "\n\n" + _glean_block(task.gold_to_json(previous.key, previous))
    return ChatRequest(
        system=render_template(task.name, examples=examples, **task.context_placeholders()),
        user=user.strip() + "\n",
        request_tag=f"{task.name}:{document.doc_id}:r{round_no}",
    )


def build_prompt(
    task,
    document: Document,
    policy: FewShotPolicy = ZERO_SHOT,
    previous=None,
    round_no: int = 0,
) -> ChatRequest:
    """Render the task prompt; byte-deterministic for equal inputs."""
    examples = _example_renderer(task, policy)(document)
    return _render_prompt(task, document, examples, previous, round_no)


@dataclass(frozen=True, slots=True)
class _RoundPrompts:
    """One round's requests, item ``i`` rendered for document ``i`` when it is read.

    ``complete_batch`` reads each index once, on the worker that claims it, so
    only the prompts in flight exist at once. ``results`` is only read here:
    the round's replies are merged after the batch returns.
    """

    task: object
    active: list[tuple[Document, str]]
    results: dict[str, object]
    round_no: int

    def __len__(self) -> int:
        return len(self.active)

    def __getitem__(self, i: int) -> ChatRequest:
        doc, examples = self.active[i]
        return _render_prompt(self.task, doc, examples, self.results.get(doc.doc_id), self.round_no)


def merge_gleaned(prev, new):
    """Set-union merge of two rounds' results for the same document key.

    NER merges on (surface, type), multilabel on label, term extraction on
    term id with the higher confidence (and its reasoning) winning a
    duplicate.
    """
    if type(prev) is not type(new):
        raise DomainError(f"cannot merge {type(prev).__name__} with {type(new).__name__}")
    if not isinstance(prev, (NerResult, MultiLabelResult, HpoExtraction)):
        raise DomainError(f"unmergeable result type {type(prev).__name__}")
    if prev.key != new.key:
        raise DomainError(f"cannot merge results for different keys {prev.key!r} and {new.key!r}")
    if isinstance(prev, NerResult):
        return NerResult(prev.key, prev.mentions | new.mentions)
    if isinstance(prev, MultiLabelResult):
        return MultiLabelResult(prev.key, prev.labels | new.labels)
    merged: dict[TermId, HpoAssertion] = {a.term: a for a in prev.assertions}
    for assertion in new.assertions:
        existing = merged.get(assertion.term)
        if existing is None or assertion.confidence > existing.confidence:
            merged[assertion.term] = assertion
    return HpoExtraction(prev.key, tuple(merged[t] for t in sorted(merged)))


def extract_corpus(
    task,
    documents: Sequence[Document],
    backend,
    policy: FewShotPolicy = ZERO_SHOT,
    glean: GleanConfig = GleanConfig(1),
    audit: AuditLog | None = None,
    max_in_flight: int | None = None,
) -> dict[str, object]:
    """Extract a whole corpus: parallel across documents, sequential across rounds.

    This is the gleaning loop: round 0 plus ``glean.iterations`` gleaning
    rounds, one batch per round and a barrier between rounds. Invalid
    assertions (unknown terms, disallowed terms, out-of-universe labels) are
    dropped and audited, never silently discarded. A document whose round
    fails (backend failure or unparseable output) is audited as
    ``document_round_failed`` with its key, round and error, keeps its
    cumulative result and sends no further rounds; a document that fails
    round 0 is therefore omitted. One bad response never aborts the run; a
    program bug (any exception but a PhenoKGError) does, and so does a task
    template that cannot be read. Duplicate document keys are a DomainError,
    raised before any request is sent.

    Each document's examples are selected once, up front, on the calling
    thread; its prompt is rendered only when a dispatcher worker claims it,
    so a round holds at most ``max_in_flight`` rendered prompts, not one per
    active document.
    """
    duplicates = sorted(key for key, n in Counter(doc.doc_id for doc in documents).items() if n > 1)
    if duplicates:
        raise DomainError(f"duplicate document keys: {', '.join(duplicates)}")
    audit = audit if audit is not None else AuditLog()
    results: dict[str, object] = {}
    # examples are selected once per document and reused in every round
    examples_for = _example_renderer(task, policy)
    active = [(doc, examples_for(doc)) for doc in documents]
    for round_no in range(glean.iterations + 1):
        if not active:
            break
        prompts = _RoundPrompts(task, active, results, round_no)
        responses = complete_batch(backend, prompts, max_in_flight=max_in_flight)
        still_active = []
        for (doc, examples), response in zip(active, responses):
            key = doc.doc_id
            try:
                if isinstance(response, PhenoKGError):
                    raise response
                parsed = task.parse_output(response.text, key)
            except PhenoKGError as exc:
                audit.record("document_round_failed", key=key, round=round_no, error=str(exc))
                continue
            cleaned = task.sanitize(parsed, audit)
            results[key] = cleaned if key not in results else merge_gleaned(results[key], cleaned)
            still_active.append((doc, examples))
        active = still_active
    return results
