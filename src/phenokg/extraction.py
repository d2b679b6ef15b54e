"""Prompt building, strict-JSON output parsing, and the gleaning loop.

Three task families share one pipeline: named entity mentions, ontology
term extraction, and multilabel classification. Prompts are rendered from
plain-text templates (system and user sections split by a marker line)
and are byte-deterministic for equal inputs. Model output must be a
single JSON object; exactly two deviations are recovered (a fenced code
block wrapping the object, and prose around exactly one object). Each
gleaning round feeds the cumulative result back and asks for new entities
only; merged results therefore grow monotonically.
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

from .corpus import Document, EntityType
from .errors import DomainError, OutputParseError, OutputSchemaError, PhenoKGError
from .llm import ChatRequest, _as_backend, complete_batch
from .ontology import Ontology, TermId
from .retrieval import EmbeddingIndex, HashedEmbedder, top_k

logger = logging.getLogger(__name__)

USER_SECTION_MARKER = "---USER---"

_WS_RE = re.compile(r"\s+")


def normalize_surface(text: str) -> str:
    """Case-fold and collapse whitespace; canonical form for NER mentions."""
    return _WS_RE.sub(" ", text).strip().casefold()


class PolicyMode(enum.Enum):
    ZERO_SHOT = "zero-shot"
    STATIC_FEW_SHOT = "static-fewshot"
    DYNAMIC_FEW_SHOT = "dynamic-fewshot"


@dataclass(frozen=True)
class FewShotPolicy:
    """How in-context examples are chosen for a prompt.

    ``example_pool`` holds (Document, gold) pairs; gold is whatever the
    task's example renderer expects. Dynamic mode additionally needs an
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


@dataclass(frozen=True)
class NerResult:
    doc_id: str
    mentions: frozenset[tuple[str, EntityType]]

    def __post_init__(self):
        for surface, _ in self.mentions:
            if not surface or surface != normalize_surface(surface):
                raise DomainError(f"mention surface {surface!r} is empty or not normalized")


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

    def confidence_of(self, term: TermId) -> float:
        for a in self.assertions:
            if a.term == term:
                return a.confidence
        raise KeyError(term)


@dataclass(frozen=True)
class MultiLabelResult:
    doc_id: str
    labels: frozenset[str]


class AuditLog:
    """Append-only record of dropped/failed items; never silent, thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self.entries: list[dict] = []

    def record(self, event: str, **fields) -> None:
        with self._lock:
            self.entries.append({"event": event, **fields})
        logger.info("audit: %s %s", event, fields)

    def count(self, event: str | None = None) -> int:
        if event is None:
            return len(self.entries)
        return sum(1 for e in self.entries if e["event"] == event)

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")


@functools.lru_cache(maxsize=None)
def load_template(name: str) -> str:
    return resources.files("phenokg").joinpath("templates", f"{name}.txt").read_text(encoding="utf-8")


@functools.lru_cache(maxsize=64)
def _placeholder_pattern(names: tuple[str, ...]) -> re.Pattern:
    return re.compile("|".join(re.escape("{" + name + "}") for name in names))


def render_template(template: str, **placeholders: str) -> tuple[str, str]:
    """Substitute literal {name} tokens and split into (system, user) sections.

    Substitution is a single pass over the template, so JSON braces in
    template bodies survive and placeholder-like tokens inside substituted
    values are never re-substituted.
    """
    pattern = _placeholder_pattern(tuple(placeholders))
    rendered = pattern.sub(lambda match: placeholders[match.group(0)[1:-1]], template)
    if USER_SECTION_MARKER not in rendered:
        raise DomainError(f"template missing {USER_SECTION_MARKER} section marker")
    system, user = rendered.split(USER_SECTION_MARKER, 1)
    return system.strip() + "\n", user.strip() + "\n"


class NerTask:
    """Chemical/disease mention extraction."""

    name = "ner"
    template_name = "ner"

    def key_for(self, document: Document) -> str:
        return document.doc_id

    def render_input(self, document: Document) -> str:
        return f"DOC_ID: {document.doc_id}\n\nTEXT:\n{document.text}"

    def context_placeholders(self) -> dict[str, str]:
        return {}

    def gold_to_json(self, key: str, gold) -> str:
        if isinstance(gold, NerResult):
            mentions = sorted(gold.mentions)
        else:  # iterable of SpanAnnotation
            mentions = sorted({(normalize_surface(a.surface), a.entity_type) for a in gold})
        return json.dumps(
            {key: [{"surface": s, "type": t.value} for s, t in mentions]},
            separators=(", ", ": "),
        )

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

    def result_to_json(self, result: NerResult) -> str:
        return self.gold_to_json(result.doc_id, result)


class HpoTask:
    """Ontology term extraction with optional allowed-term restriction."""

    name = "hpo"
    template_name = "hpo"

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

    def key_for(self, document: Document) -> str:
        return document.doc_id

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
        else:  # HpoGoldLabel or an iterable of TermId
            terms = gold.terms if hasattr(gold, "terms") else gold
            rows = [
                {"category": t, "confidence": 1.0, "reasoning": self.ontology.name_of(t)}
                for t in sorted(terms)
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

    def result_to_json(self, result: HpoExtraction) -> str:
        return self.gold_to_json(result.key, result)


class MultiLabelTask:
    """Closed-universe multilabel classification."""

    name = "multilabel"
    template_name = "multilabel"

    def __init__(self, universe: frozenset[str] | set[str]):
        if len(universe) != 15:
            raise DomainError(f"label universe must have exactly 15 names, got {len(universe)}")
        self.universe = frozenset(universe)

    def key_for(self, document: Document) -> str:
        return document.doc_id

    def render_input(self, document: Document) -> str:
        return f"DOC_ID: {document.doc_id}\n\nTEXT:\n{document.text}"

    def context_placeholders(self) -> dict[str, str]:
        return {"allowed_terms": "\n".join(sorted(self.universe))}

    def gold_to_json(self, key: str, gold) -> str:
        labels = sorted(gold.labels if hasattr(gold, "labels") else gold)
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
                audit.record("dropped_unknown_label", key=result.doc_id, label=label)
            else:
                kept.add(label)
        return MultiLabelResult(result.doc_id, frozenset(kept))

    def result_to_json(self, result: MultiLabelResult) -> str:
        return self.gold_to_json(result.doc_id, result)


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
        blocks.append(f"INPUT:\n{task.render_input(doc)}\nOUTPUT:\n{task.gold_to_json(task.key_for(doc), gold)}")
    return "\n\n".join(blocks)


def _render_prompt(task, document: Document, examples: str, previous, round_no: int) -> ChatRequest:
    template = load_template(task.template_name)
    placeholders = {
        "examples": examples,
        "document": task.render_input(document),
        "previous_result": "" if previous is None else _glean_block(task.result_to_json(previous)),
        "allowed_terms": "",
        "disease_context": "",
    }
    placeholders.update(task.context_placeholders())
    system, user = render_template(template, **placeholders)
    return ChatRequest(
        system=system,
        user=user,
        request_tag=f"{task.name}:{task.key_for(document)}:r{round_no}",
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


class RoundError(PhenoKGError):
    """A backend or parse failure during one extraction round."""

    def __init__(self, round_no: int, cause: Exception):
        self.round_no = round_no
        self.cause = cause
        super().__init__(f"extraction round {round_no} failed: {cause}")


def merge_gleaned(prev, new):
    """Set-union merge of two rounds' results for the same document key.

    NER merges on (surface, type), multilabel on label, term extraction on
    term id with the higher confidence (and its reasoning) winning a
    duplicate.
    """
    if type(prev) is not type(new):
        raise DomainError(f"cannot merge {type(prev).__name__} with {type(new).__name__}")
    prev_key = getattr(prev, "doc_id", None) or getattr(prev, "key", None)
    new_key = getattr(new, "doc_id", None) or getattr(new, "key", None)
    if prev_key != new_key:
        raise DomainError(f"cannot merge results for different keys {prev_key!r} and {new_key!r}")
    if isinstance(prev, NerResult):
        return NerResult(prev.doc_id, prev.mentions | new.mentions)
    if isinstance(prev, MultiLabelResult):
        return MultiLabelResult(prev.doc_id, prev.labels | new.labels)
    if isinstance(prev, HpoExtraction):
        merged: dict[TermId, HpoAssertion] = {a.term: a for a in prev.assertions}
        for assertion in new.assertions:
            existing = merged.get(assertion.term)
            if existing is None or assertion.confidence > existing.confidence:
                merged[assertion.term] = assertion
        return HpoExtraction(prev.key, tuple(merged[t] for t in sorted(merged)))
    raise DomainError(f"unmergeable result type {type(prev).__name__}")


def extract(
    task,
    document: Document,
    backend,
    policy: FewShotPolicy = ZERO_SHOT,
    glean: GleanConfig = GleanConfig(1),
    audit: AuditLog | None = None,
):
    """Run round 0 plus ``glean.iterations`` gleaning rounds for one document.

    Invalid assertions (unknown terms, disallowed terms, out-of-universe
    labels) are dropped and audited, never silently discarded. Backend and
    parse failures propagate wrapped in RoundError carrying the round number.
    """

    def fail(key: str, round_no: int, exc: PhenoKGError):
        raise RoundError(round_no, exc) from exc

    audit = audit if audit is not None else AuditLog()
    results = _extract_rounds(task, [document], backend, policy, glean, audit, None, fail)
    return results[task.key_for(document)]


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

    A document that fails round 0 is audited and omitted; a document that
    fails a later gleaning round keeps its cumulative result (still audited)
    and skips remaining rounds. One bad response never aborts the run; a
    program bug (any exception but a PhenoKGError) does. Duplicate document
    keys are a DomainError, raised before any request is sent.
    """
    duplicates = sorted(key for key, n in Counter(task.key_for(doc) for doc in documents).items() if n > 1)
    if duplicates:
        raise DomainError(f"duplicate document keys: {', '.join(duplicates)}")
    audit = audit if audit is not None else AuditLog()

    def fail(key: str, round_no: int, exc: PhenoKGError):
        audit.record("document_round_failed", key=key, round=round_no, error=str(exc))

    return _extract_rounds(task, documents, backend, policy, glean, audit, max_in_flight, fail)


def _extract_rounds(task, documents, backend, policy, glean, audit, max_in_flight, on_failure) -> dict:
    """The gleaning loop: one batch per round, a barrier between rounds.

    A document whose round fails (backend failure or unparseable output) goes
    to ``on_failure(key, round_no, exc)``, keeps its cumulative result and
    sends no further rounds.
    """
    results: dict[str, object] = {}
    backend = _as_backend(backend)  # a config is resolved (a cassette read) once, not once per round
    # examples are selected once per document and reused in every round
    examples_for = _example_renderer(task, policy)
    active = [(doc, examples_for(doc)) for doc in documents]
    for round_no in range(glean.iterations + 1):
        if not active:
            break
        requests = [
            _render_prompt(task, doc, examples, results.get(task.key_for(doc)), round_no)
            for doc, examples in active
        ]
        responses = complete_batch(backend, requests, max_in_flight=max_in_flight)
        still_active = []
        for (doc, examples), response in zip(active, responses):
            key = task.key_for(doc)
            try:
                if isinstance(response, PhenoKGError):
                    raise response
                parsed = task.parse_output(response.text, key)
            except PhenoKGError as exc:
                on_failure(key, round_no, exc)
                continue
            cleaned = task.sanitize(parsed, audit)
            results[key] = cleaned if key not in results else merge_gleaned(results[key], cleaned)
            still_active.append((doc, examples))
        active = still_active
    return results


def extract_hpo_for_patient(
    patient_record,
    disease_context: str,
    allowed_terms: set[TermId] | frozenset[TermId],
    backend,
    glean: GleanConfig = GleanConfig(1),
    ontology: Ontology | None = None,
    audit: AuditLog | None = None,
) -> HpoExtraction:
    """Extract allowed ontology terms from one patient's full record.

    The prompt embeds the expert-curated disease context and the allowed
    term list (id and name); output is constrained to the allowed set and
    keyed by the patient key. ``patient_record`` needs ``key`` and
    ``render()`` (see kg.PatientRecord).
    """
    if not allowed_terms:
        raise DomainError("allowed_terms must be nonempty")
    if not disease_context.strip():
        raise DomainError("disease_context must be supplied")
    if ontology is None:
        raise DomainError("ontology is required to validate and name allowed terms")
    task = HpoTask(ontology, allowed_terms=allowed_terms, disease_context=disease_context)
    document = Document(patient_record.key, patient_record.render())
    return extract(task, document, backend, policy=ZERO_SHOT, glean=glean, audit=audit)
