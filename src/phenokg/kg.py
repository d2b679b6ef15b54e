"""Patient knowledge graphs: structured codes plus unstructured notes.

Nodes are frozen, slotted dataclasses. A graph is persisted as typed JSON Lines (one record per
node/edge with a ``kind`` field), each line exactly as ``json.dumps(record, sort_keys=True)`` writes
it. Referential integrity (notes and assertions resolve to patients, assertion terms resolve in the
ontology) is enforced at mutation time and re-verified at load. Single writer, concurrent readers.

Loading builds every record through the same validating constructors as ingest. ``load_graph`` passes
the record stream to ``build_graph``, which groups the records by kind. While it reads one file, it keeps
two tables, so that equal identifiers in that file share one object:

- a value table for the identifier fields: the patient ``key`` and demographic ``race``, ``state``
  and ``zip``, the note ``note_id`` and ``patient``, and the assertion ``patient``, ``source_note``
  and ``extractor_version``; a note's ``patient`` is then its patient's ``key``, and an assertion's
  ``source_note`` its note's ``note_id``. The same table shares each distinct ``Demographics`` and
  each distinct non-zero ``confidence`` (a zero keeps its own float, so ``0.0`` and ``-0.0`` save back
  as they were read);
- a term table, in which each distinct term id is validated once into one ``TermId``.

Free text (a note's ``text``, an assertion's ``reasoning``) is not shared. The tables live for one
load: two loads share no object, and ``record_to_node`` shares nothing. Code sets go through a small
bounded cache (``_normalized_code_set``), so a code set that repeats is normally normalized once and
shared. ``sys.intern`` is not used, because interned strings are immortal on CPython 3.12: they would
never be freed. The notes-by-patient index is built by the first ``Graph.notes_for``, so a graph that is
only loaded, saved or searched never holds it.
"""

from __future__ import annotations

import bisect
import enum
import functools
import re
from dataclasses import dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DomainError, GraphIntegrityError
from .jsonl import expect_number, expect_type, iter_jsonl, write_atomic
from .ontology import Ontology, TermId, TermIds

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


@dataclass(frozen=True, slots=True)
class Demographics:
    age_years: int | None = None
    race: str | None = None
    state: str | None = None
    zip: str | None = None


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class NoteNode:
    note_id: str
    patient: str
    text: str
    kind: NoteKind = NoteKind.CLINICAL_NOTE

    def __post_init__(self):
        if not self.note_id:
            raise DomainError("note_id must be nonempty")


@dataclass(frozen=True, slots=True)
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
        self._notes_by_patient: dict[str, list[str]] | None = None  # built by the first ``notes_for``
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
        if self._notes_by_patient is not None:
            bisect.insort(self._notes_by_patient.setdefault(note.patient, []), note.note_id)

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
        """The patient's notes by note id. The first call builds the notes index (patient -> sorted note ids;
        a patient's first id starts an exact-size list) and publishes it whole, without a lock: concurrent
        first callers may each build one."""
        index = self._notes_by_patient
        if index is None:
            index = {}
            for note_id, note in self._notes.items():
                if (ids := index.get(note.patient)) is None:
                    index[note.patient] = [note_id]
                else:
                    ids.append(note_id)
            for ids in index.values():
                ids.sort()
            self._notes_by_patient = index
        return [self._notes[n] for n in index.get(key, ())]

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
            and self._assertions.keys() == other._assertions.keys()
        )


def build_graph(records: Iterable[PatientNode | NoteNode | PhenotypeAssertion], ontology: Ontology | None = None) -> Graph:
    """Assemble a graph from a stream of typed records.

    Records may arrive in any order: one pass sorts them by kind, then the
    patients are added, then the notes, then the assertions, each in stream
    order and each validating referential integrity.
    """
    graph = Graph()
    patients, notes, assertions = [], [], []
    append = {PatientNode: patients.append, NoteNode: notes.append, PhenotypeAssertion: assertions.append}
    for record in records:
        try:
            append[type(record)](record)
        except KeyError:
            raise TypeError(f"not a graph record: {record!r:.80}") from None
    for node in patients:
        graph.add_patient(node)
    for note in notes:
        graph.add_note(note)
    for assertion in assertions:
        upsert_assertion(graph, assertion, ontology)
    return graph


def upsert_assertion(graph: Graph, assertion: PhenotypeAssertion, ontology: Ontology | None = None) -> bool:
    """Attach a phenotype edge; idempotent on an identical assertion.

    Returns True if the edge was new. Identity is the full field tuple, so
    re-extraction with a different confidence or source note adds a second
    edge (frequency counting deduplicates per patient).
    """
    if assertion.patient not in graph._patients:
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
    if mode == "any":
        return {key for key, node in graph._patients.items() if not normalized.isdisjoint(node.icd10)}
    return {key for key, node in graph._patients.items() if normalized <= node.icd10}


def expand_icd_prefix(graph: Graph, prefix: str) -> set[str]:
    """Every normalized ICD-10 code present in the graph starting with ``prefix``.

    Explicit helper only: callers expand, inspect, then pass the codes to
    cohort_by_icd themselves.
    """
    normalized = _normalize_code(prefix)
    return {code for node in graph._patients.values() for code in node.icd10 if code.startswith(normalized)}


def keyword_search(graph: Graph, pattern: str) -> list[tuple[str, str]]:
    """Case-insensitive substring search over note text.

    Returns (patient, note_id) pairs sorted by (patient, note_id) for
    deterministic downstream use.
    """
    if not pattern:
        raise DomainError("pattern must be nonempty")
    needle = pattern.casefold()
    return sorted((note.patient, note.note_id) for note in graph._notes.values() if needle in note.text.casefold())


@dataclass(frozen=True, slots=True)
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

_NOTE_KINDS = {kind.value: kind for kind in NoteKind}


def _optional(value) -> str:
    """An optional string field: ``null``, or the string as ``encode_basestring_ascii`` writes it."""
    return "null" if value is None else encode_basestring_ascii(value)


def _age(value) -> str:
    if value is None or type(value) is int:
        return "null" if value is None else repr(value)
    raise TypeError(f"age_years must be an int or null, got {value!r}")


def _confidence(value) -> str:
    if type(value) is float or type(value) is int:
        return repr(value)
    raise TypeError(f"confidence must be an int or a float, got {value!r}")


@functools.lru_cache(maxsize=64)
def _codes(codes: frozenset[str]) -> str:
    """A code set as a JSON array; every code is a ``str``, as ``PatientNode`` normalizes it."""
    return "[" + ", ".join(map(encode_basestring_ascii, sorted(codes))) + "]"


# One line writer per kind: the keys in sorted order, as ``json.dumps(record, sort_keys=True)`` writes
# them. Each field is written only as a type its reader reads back; another type raises TypeError or AttributeError.
def _patient_line(node: PatientNode) -> str:
    demo = node.demographics
    return (
        f'{{"cpt": {_codes(node.cpt)}, "demographics": {{"age_years": {_age(demo.age_years)}, '
        f'"race": {_optional(demo.race)}, "state": {_optional(demo.state)}, "zip": {_optional(demo.zip)}}}, '
        f'"icd10": {_codes(node.icd10)}, "key": {encode_basestring_ascii(node.key)}, "kind": "patient", '
        f'"rxnorm": {_codes(node.rxnorm)}}}\n'
    )


def _note_line(note: NoteNode) -> str:
    return (
        f'{{"kind": "note", "note_id": {encode_basestring_ascii(note.note_id)}, '
        f'"note_kind": {encode_basestring_ascii(note.kind.value)}, "patient": {encode_basestring_ascii(note.patient)}, '
        f'"text": {encode_basestring_ascii(note.text)}}}\n'
    )


def _assertion_line(a: PhenotypeAssertion) -> str:
    return (
        f'{{"confidence": {_confidence(a.confidence)}, '
        f'"extractor_version": {encode_basestring_ascii(a.extractor_version)}, "kind": "assertion", '
        f'"patient": {encode_basestring_ascii(a.patient)}, "reasoning": {encode_basestring_ascii(a.reasoning)}, '
        f'"source_note": {_optional(a.source_note)}, "term": {encode_basestring_ascii(a.term)}}}\n'
    )


_SURROGATE_PAIR = re.compile(r"[\ud800-\udbff][\udc00-\udfff]")


def _holds_surrogate_pair(value) -> bool:
    """Whether a string in ``value`` (a node, its demographics, a code set) holds a high surrogate directly
    followed by a low one: both are written as ``\\u`` escapes, which JSON reads back as one character."""
    if isinstance(value, str):
        return _SURROGATE_PAIR.search(value) is not None
    if is_dataclass(value):
        return any(_holds_surrogate_pair(getattr(value, f.name)) for f in fields(value))
    return isinstance(value, (frozenset, tuple, list)) and any(map(_holds_surrogate_pair, value))


def _lines(*writers: tuple) -> Iterator[str]:
    """The lines of each ``(line writer, nodes)`` pair in turn; a node that would not load back is a DomainError.

    Only a line holding a ``\\ud`` escape can hold a surrogate pair, so only such a line is checked (the
    one-character search for a backslash runs first: it is several times faster than the search for ``\\ud``).
    """
    for line, nodes in writers:
        for node in nodes:
            try:
                text = line(node)
            except (TypeError, AttributeError) as exc:
                raise DomainError(f"cannot save {node!r:.120}: {exc}") from None
            if "\\" in text and "\\ud" in text and _holds_surrogate_pair(node):
                raise DomainError(
                    f"cannot save {node!r:.120}: a string holds a high surrogate directly followed by a low one, "
                    "which would load back as one character"
                )
            yield text


# One reader per kind. Each field is ``v if <v has the right type> else expect_type(v, ...)``: the check
# runs inline, and expect_type/expect_number are called only to raise, on the first bad field in order.
# ``share`` is the bound ``setdefault`` of one load's value table, so an identifier field is ``share(v, v)``,
# one C call; ``term_id`` is the bound ``__getitem__`` of its term table (``TermIds``), or ``TermId``.
def _read_patient(record: dict, share, term_id) -> PatientNode:
    demo = v if isinstance(v := record.get("demographics", {}), dict) else expect_type(v, dict, "demographics")
    key = share(v, v) if isinstance(v := record["key"], str) else expect_type(v, str, "key")
    age = v if (v := demo.get("age_years")) is None or type(v) is int else expect_number(v, "age_years", integer=True)
    race = v if (v := demo.get("race")) is None else share(v, v) if isinstance(v, str) else expect_type(v, str, "race")
    state = v if (v := demo.get("state")) is None else share(v, v) if isinstance(v, str) else expect_type(v, str, "state")
    zip_ = v if (v := demo.get("zip")) is None else share(v, v) if isinstance(v, str) else expect_type(v, str, "zip")
    icd10 = v if isinstance(v := record.get("icd10", []), list) else expect_type(v, list, "icd10")
    cpt = v if isinstance(v := record.get("cpt", []), list) else expect_type(v, list, "cpt")
    rxnorm = v if isinstance(v := record.get("rxnorm", []), list) else expect_type(v, list, "rxnorm")
    # keyed by the field tuple: its hash and compare run in C, a dataclass's own run as Python calls
    return PatientNode(key, share((age, race, state, zip_), Demographics(age, race, state, zip_)), icd10, cpt, rxnorm)


def _read_note(record: dict, share, term_id) -> NoteNode:
    note_id = share(v, v) if isinstance(v := record["note_id"], str) else expect_type(v, str, "note_id")
    patient = share(v, v) if isinstance(v := record["patient"], str) else expect_type(v, str, "patient")
    text = v if isinstance(v := record["text"], str) else expect_type(v, str, "text")
    kind = _NOTE_KINDS.get(v) if isinstance(v := record.get("note_kind", "clinical_note"), str) else None
    return NoteNode(note_id, patient, text, NoteKind(v) if kind is None else kind)


def _read_assertion(record: dict, share, term_id) -> PhenotypeAssertion:
    patient = share(v, v) if isinstance(v := record["patient"], str) else expect_type(v, str, "patient")
    term = term_id(v if isinstance(v := record["term"], str) else expect_type(v, str, "term"))
    confidence = v if type(v := record["confidence"]) is float else expect_number(v, "confidence")
    confidence = share(confidence, confidence) if confidence else confidence  # 0.0 == -0.0, but each saves as read
    reasoning = v if isinstance(v := record.get("reasoning", ""), str) else expect_type(v, str, "reasoning")
    v = record.get("source_note")
    source = v if v is None else share(v, v) if isinstance(v, str) else expect_type(v, str, "source_note")
    v = record.get("extractor_version", "")
    version = share(v, v) if isinstance(v, str) else expect_type(v, str, "extractor_version")
    return PhenotypeAssertion(patient, term, confidence, reasoning, source, version)


_READERS = {"patient": _read_patient, "note": _read_note, "assertion": _read_assertion}


def _node_reader(share, term_id):
    """``record_to_node`` over one load's tables: ``share``, a value table's bound ``setdefault``, and ``term_id``."""

    def read(record: dict) -> PatientNode | NoteNode | PhenotypeAssertion:
        if isinstance(kind := record.get("kind"), str) and (reader := _READERS.get(kind)):
            return reader(record, share, term_id)
        raise GraphIntegrityError(f"unknown record kind {kind!r}")

    return read


def record_to_node(record: dict) -> PatientNode | NoteNode | PhenotypeAssertion:
    """Parse one typed JSONL record into its node/edge object; it shares no object with other records."""
    return _node_reader({}.setdefault, TermId)(record)


def save_graph(graph: Graph, path: str | Path) -> None:
    """Persist as JSON Lines, replaced atomically: patients, then notes, then assertions, sorted."""
    assertions = sorted(graph._assertions, key=lambda a: (a.patient, a.term, a.confidence, a.source_note or ""))
    patients = (graph._patients[key] for key in graph.patient_keys())
    write_atomic(path, _lines((_patient_line, patients), (_note_line, graph.iter_notes()), (_assertion_line, assertions)))


def load_graph(path: str | Path, ontology: Ontology | None = None) -> Graph:
    """Load a typed-JSONL graph, re-verifying every referential invariant; records go straight to ``build_graph``."""
    return build_graph(_read_records(path), ontology)


def _read_records(path: str | Path) -> Iterator[PatientNode | NoteNode | PhenotypeAssertion]:
    read = _node_reader({}.setdefault, TermIds().__getitem__)
    return (node for _, node in iter_jsonl(path, GraphIntegrityError, read))
