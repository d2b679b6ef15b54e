"""Patient knowledge graphs: structured codes plus unstructured notes.

A property-graph shape persisted as typed JSON Lines (one record per
node/edge with a ``kind`` field). Referential integrity (notes and
assertions resolve to patients, assertion terms resolve in the ontology)
is enforced at mutation time and re-verified at load. Loading builds every
record through the same validating constructors as ingest; each distinct
code set and term id is validated once and then shared by every record
that repeats it. Single writer, concurrent readers.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DomainError, GraphIntegrityError
from .jsonl import expect_type, iter_jsonl, write_jsonl
from .ontology import Ontology, TermId

_WS_RE = re.compile(r"\s")


def _normalize_code(code: str) -> str:
    cleaned = expect_type(code, str, "code").strip().upper()
    if not cleaned:
        raise DomainError("code strings must be nonempty")
    if _WS_RE.search(cleaned):
        raise DomainError(f"code {code!r} contains internal whitespace")
    return cleaned


def _normalize_codes(codes: Iterable[str]) -> frozenset[str]:
    return frozenset(_normalize_code(c) for c in codes)


# One shared, normalized set per distinct raw set; an invalid code is not cached, so it raises every time.
# Kept small: an entry holds its raw set alive, and on diverse code sets a large cache slowed loading.
_normalized_code_set = functools.lru_cache(maxsize=64)(_normalize_codes)
# One shared, validated id per distinct raw string.
_term_id = functools.lru_cache(maxsize=256)(TermId)


@dataclass(frozen=True)
class Demographics:
    age_years: int | None = None
    race: str | None = None
    state: str | None = None
    zip: str | None = None


@dataclass(frozen=True)
class PatientNode:
    key: str
    demographics: Demographics = field(default_factory=Demographics)
    icd10: frozenset[str] = frozenset()
    cpt: frozenset[str] = frozenset()
    rxnorm: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.key:
            raise DomainError("patient key must be nonempty")
        object.__setattr__(self, "icd10", _normalized_code_set(frozenset(self.icd10)))
        object.__setattr__(self, "cpt", _normalized_code_set(frozenset(self.cpt)))
        object.__setattr__(self, "rxnorm", _normalized_code_set(frozenset(self.rxnorm)))


class NoteKind(enum.Enum):
    CLINICAL_NOTE = "clinical_note"
    HISTORY = "history"
    VISIT_PURPOSE = "visit_purpose"
    GENETICS_REPORT = "genetics_report"
    OTHER = "other"


@dataclass(frozen=True)
class NoteNode:
    note_id: str
    patient: str
    text: str
    kind: NoteKind = NoteKind.CLINICAL_NOTE

    def __post_init__(self):
        if not self.note_id:
            raise DomainError("note_id must be nonempty")


@dataclass(frozen=True)
class PhenotypeAssertion:
    patient: str
    term: TermId
    confidence: float
    reasoning: str = ""
    source_note: str | None = None
    extractor_version: str = ""

    def __post_init__(self):
        if not 0 <= self.confidence <= 1:
            raise DomainError(f"confidence {self.confidence} outside [0, 1]")


class Graph:
    """Patient/note/assertion store with referential integrity."""

    def __init__(self):
        self._patients: dict[str, PatientNode] = {}
        self._notes: dict[str, NoteNode] = {}
        self._notes_by_patient: dict[str, list[str]] = {}
        self._assertions: dict[PhenotypeAssertion, None] = {}

    # -- mutation -----------------------------------------------------------

    def add_patient(self, node: PatientNode) -> None:
        if node.key in self._patients:
            raise GraphIntegrityError(f"duplicate patient key {node.key}")
        self._patients[node.key] = node

    def add_note(self, note: NoteNode) -> None:
        if note.patient not in self._patients:
            raise GraphIntegrityError(f"note {note.note_id} references unknown patient {note.patient}")
        if note.note_id in self._notes:
            raise GraphIntegrityError(f"duplicate note id {note.note_id}")
        self._notes[note.note_id] = note
        self._notes_by_patient.setdefault(note.patient, []).append(note.note_id)

    # -- access -------------------------------------------------------------

    @property
    def patient_count(self) -> int:
        return len(self._patients)

    @property
    def note_count(self) -> int:
        return len(self._notes)

    @property
    def assertion_count(self) -> int:
        return len(self._assertions)

    def patient_keys(self) -> list[str]:
        return sorted(self._patients)

    def patient(self, key: str) -> PatientNode:
        try:
            return self._patients[key]
        except KeyError:
            raise KeyError(f"unknown patient {key}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._patients

    def notes_for(self, key: str) -> list[NoteNode]:
        return [self._notes[n] for n in sorted(self._notes_by_patient.get(key, []))]

    def iter_notes(self) -> Iterator[NoteNode]:
        for note_id in sorted(self._notes):
            yield self._notes[note_id]

    def assertions(self) -> list[PhenotypeAssertion]:
        return list(self._assertions)

    def counts(self) -> dict[str, int]:
        return {
            "patients": self.patient_count,
            "notes": self.note_count,
            "assertions": self.assertion_count,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._patients == other._patients
            and self._notes == other._notes
            and set(self._assertions) == set(other._assertions)
        )


def build_graph(records: Iterable[PatientNode | NoteNode | PhenotypeAssertion], ontology: Ontology | None = None) -> Graph:
    """Assemble a graph from a stream of typed records.

    Patients may arrive in any order relative to their notes/assertions:
    patients are ingested first, then notes, then assertions, each pass
    validating referential integrity.
    """
    graph = Graph()
    buffered = list(records)
    for record in buffered:
        if isinstance(record, PatientNode):
            graph.add_patient(record)
    for record in buffered:
        if isinstance(record, NoteNode):
            graph.add_note(record)
    for record in buffered:
        if isinstance(record, PhenotypeAssertion):
            upsert_assertion(graph, record, ontology)
    return graph


def upsert_assertion(graph: Graph, assertion: PhenotypeAssertion, ontology: Ontology | None = None) -> bool:
    """Attach a phenotype edge; idempotent on an identical assertion.

    Returns True if the edge was new. Identity is the full field tuple, so
    re-extraction with a different confidence or source note adds a second
    edge (frequency counting deduplicates per patient).
    """
    if assertion.patient not in graph:
        raise GraphIntegrityError(f"assertion references unknown patient {assertion.patient}")
    if ontology is not None and assertion.term not in ontology:
        raise GraphIntegrityError(f"assertion term {assertion.term} not in ontology")
    if assertion.source_note is not None and assertion.source_note not in graph._notes:
        raise GraphIntegrityError(f"assertion references unknown note {assertion.source_note}")
    before = len(graph._assertions)
    graph._assertions.setdefault(assertion, None)
    return len(graph._assertions) > before


def cohort_by_icd(graph: Graph, codes: Iterable[str], mode: str = "any") -> set[str]:
    """Patients whose ICD-10 set intersects (any) or contains (all) ``codes``.

    Matching is exact on normalized codes; no prefix expansion happens
    implicitly (see expand_icd_prefix).
    """
    normalized = _normalize_codes(codes)
    if not normalized:
        raise DomainError("codes must be nonempty")
    if mode not in ("any", "all"):
        raise DomainError(f"mode must be 'any' or 'all', got {mode!r}")
    out = set()
    for key in graph.patient_keys():
        icd = graph.patient(key).icd10
        if (mode == "any" and icd & normalized) or (mode == "all" and normalized <= icd):
            out.add(key)
    return out


def expand_icd_prefix(graph: Graph, prefix: str) -> set[str]:
    """Every normalized ICD-10 code present in the graph starting with ``prefix``.

    Explicit helper only: callers expand, inspect, then pass the codes to
    cohort_by_icd themselves.
    """
    normalized = _normalize_code(prefix)
    found = set()
    for key in graph.patient_keys():
        found.update(c for c in graph.patient(key).icd10 if c.startswith(normalized))
    return found


def keyword_search(graph: Graph, pattern: str) -> list[tuple[str, str]]:
    """Case-insensitive substring search over note text.

    Returns (patient, note_id) pairs sorted by (patient, note_id) for
    deterministic downstream use.
    """
    if not pattern:
        raise DomainError("pattern must be nonempty")
    needle = pattern.casefold()
    hits = {(note.patient, note.note_id) for note in graph.iter_notes() if needle in note.text.casefold()}
    return sorted(hits)


@dataclass(frozen=True)
class PatientRecord:
    """One patient's node plus notes, rendered deterministically for prompts."""

    key: str
    node: PatientNode
    notes: tuple[NoteNode, ...]

    def render(self) -> str:
        demo = self.node.demographics
        demo_parts = []
        if demo.age_years is not None:
            demo_parts.append(f"age {demo.age_years}")
        if demo.race:
            demo_parts.append(f"race {demo.race}")
        if demo.state:
            demo_parts.append(f"state {demo.state}")
        if demo.zip:
            demo_parts.append(f"zip {demo.zip}")
        lines = [f"Patient key: {self.key}"]
        lines.append("Demographics: " + (", ".join(demo_parts) if demo_parts else "not recorded"))
        lines.append("ICD-10 codes: " + (", ".join(sorted(self.node.icd10)) or "none"))
        lines.append("CPT codes: " + (", ".join(sorted(self.node.cpt)) or "none"))
        lines.append("RxNorm codes: " + (", ".join(sorted(self.node.rxnorm)) or "none"))
        for note in self.notes:
            lines.append(f"[{note.kind.value}] ({note.note_id}) {note.text}")
        return "\n".join(lines)


def patient_record(graph: Graph, key: str) -> PatientRecord:
    return PatientRecord(key=key, node=graph.patient(key), notes=tuple(graph.notes_for(key)))


# -- persistence (typed JSON Lines) -----------------------------------------


def _patient_to_record(node: PatientNode) -> dict:
    demo = node.demographics
    return {
        "kind": "patient",
        "key": node.key,
        "demographics": {
            "age_years": demo.age_years,
            "race": demo.race,
            "state": demo.state,
            "zip": demo.zip,
        },
        "icd10": sorted(node.icd10),
        "cpt": sorted(node.cpt),
        "rxnorm": sorted(node.rxnorm),
    }


def _note_to_record(note: NoteNode) -> dict:
    return {
        "kind": "note",
        "note_id": note.note_id,
        "patient": note.patient,
        "text": note.text,
        "note_kind": note.kind.value,
    }


def _assertion_to_record(assertion: PhenotypeAssertion) -> dict:
    return {
        "kind": "assertion",
        "patient": assertion.patient,
        "term": assertion.term,
        "confidence": assertion.confidence,
        "reasoning": assertion.reasoning,
        "source_note": assertion.source_note,
        "extractor_version": assertion.extractor_version,
    }


def record_to_node(record: dict) -> PatientNode | NoteNode | PhenotypeAssertion:
    """Parse one typed JSONL record into its node/edge object."""
    kind = record.get("kind")
    if kind == "patient":
        demo = expect_type(record.get("demographics") or {}, dict, "demographics")
        return PatientNode(
            key=expect_type(record["key"], str, "key"),
            demographics=Demographics(
                age_years=demo.get("age_years"),
                race=demo.get("race"),
                state=demo.get("state"),
                zip=demo.get("zip"),
            ),
            icd10=frozenset(expect_type(record.get("icd10", []), list, "icd10")),
            cpt=frozenset(expect_type(record.get("cpt", []), list, "cpt")),
            rxnorm=frozenset(expect_type(record.get("rxnorm", []), list, "rxnorm")),
        )
    if kind == "note":
        return NoteNode(
            note_id=expect_type(record["note_id"], str, "note_id"),
            patient=expect_type(record["patient"], str, "patient"),
            text=expect_type(record["text"], str, "text"),
            kind=NoteKind(record.get("note_kind", "clinical_note")),
        )
    if kind == "assertion":
        source_note = record.get("source_note")
        return PhenotypeAssertion(
            patient=expect_type(record["patient"], str, "patient"),
            term=_term_id(expect_type(record["term"], str, "term")),
            confidence=float(record["confidence"]),
            reasoning=expect_type(record.get("reasoning", ""), str, "reasoning"),
            source_note=None if source_note is None else expect_type(source_note, str, "source_note"),
            extractor_version=expect_type(record.get("extractor_version", ""), str, "extractor_version"),
        )
    raise GraphIntegrityError(f"unknown record kind {kind!r}")


def save_graph(graph: Graph, path: str | Path) -> None:
    """Persist as JSON Lines, replaced atomically: patients, then notes, then assertions, sorted."""
    assertions = sorted(graph._assertions, key=lambda a: (a.patient, a.term, a.confidence, a.source_note or ""))
    records = itertools.chain(
        (_patient_to_record(graph.patient(key)) for key in graph.patient_keys()),
        (_note_to_record(note) for note in graph.iter_notes()),
        (_assertion_to_record(a) for a in assertions),
    )
    write_jsonl(path, map(json.JSONEncoder(sort_keys=True).encode, records))


def load_graph(path: str | Path, ontology: Ontology | None = None) -> Graph:
    """Load a typed-JSONL graph, re-verifying every referential invariant."""
    return build_graph(ingest_patients(path), ontology)


def ingest_patients(path: str | Path) -> list[PatientNode | NoteNode | PhenotypeAssertion]:
    """Read typed JSONL records (patients, notes, assertions); a bad line is a GraphIntegrityError naming it."""
    return [node for _, node in iter_jsonl(path, GraphIntegrityError, record_to_node)]
