"""Corpus loaders and deterministic synthetic-fixture generation.

Three gold shapes are supported: span-annotated abstracts (PubTator-style
text), ontology-labeled notes (JSON Lines ``{doc_id, text, hpo_ids}``), and
multilabel note annotations (JSON Lines ``{doc_id, text, labels}``). A
span document's gold is its list of ``SpanAnnotation``; an HPO or multilabel
document's gold is a plain ``frozenset`` of its term ids or labels, paired
with the ``Document`` that holds its id. All offsets are Unicode code-point
offsets; loaders reject any record that contradicts its document rather than
repairing it.
"""

from __future__ import annotations

import enum
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Sequence

from .errors import CorpusIntegrityError, DomainError
from .jsonl import expect_type, iter_jsonl, write_atomic, write_jsonl
from .ontology import Ontology, TermId, TermIds, normalize_label

_WS_RE = re.compile(r"\s+")


def normalize_surface(text: str) -> str:
    """Case-fold and collapse whitespace; canonical form for NER mentions."""
    return _WS_RE.sub(" ", text).strip().casefold()


class EntityType(enum.Enum):
    CHEMICAL = "Chemical"
    DISEASE = "Disease"

    @classmethod
    def from_label(cls, text: str) -> "EntityType":
        for member in cls:
            if member.value.casefold() == text.strip().casefold():
                return member
        raise DomainError(f"unknown entity type {text!r}")


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str

    def __post_init__(self):
        if not self.doc_id:
            raise DomainError("doc_id must be nonempty")
        if not self.text:
            raise DomainError(f"document {self.doc_id} has empty text")


@dataclass(frozen=True)
class SpanAnnotation:
    start: int
    end: int
    surface: str
    entity_type: EntityType
    concept_id: str | None = None

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise DomainError(f"invalid span offsets [{self.start}, {self.end})")

    @property
    def mention(self) -> tuple[str, EntityType]:
        """The (normalized surface, type) mention this span is prompted and scored as; chat output has no offsets."""
        return normalize_surface(self.surface), self.entity_type


# Neutral 15-name default: 13 phenotype categories plus None/Unsure.
# Real label sets are passed explicitly to the loaders and scorers.
DEFAULT_LABEL_UNIVERSE: frozenset[str] = frozenset(
    {
        "ADVANCED_CANCER",
        "HEART_FAILURE",
        "LUNG_DISEASE",
        "ALCOHOL_ABUSE",
        "SUBSTANCE_ABUSE",
        "CHRONIC_PAIN",
        "DEMENTIA",
        "DEPRESSION",
        "DEVELOPMENTAL_DELAY",
        "OBESITY",
        "PSYCHIATRIC_DISORDER",
        "SEIZURE_DISORDER",
        "MALNUTRITION",
        "NONE",
        "UNSURE",
    }
)


def _check_span(doc: Document, ann: SpanAnnotation) -> None:
    if ann.end > len(doc.text):
        raise CorpusIntegrityError(
            f"doc {doc.doc_id}: span [{ann.start}, {ann.end}) exceeds text length {len(doc.text)}"
        )
    actual = doc.text[ann.start : ann.end]
    if actual != ann.surface:
        raise CorpusIntegrityError(
            f"doc {doc.doc_id}: surface {ann.surface!r} does not match text slice {actual!r} "
            f"at [{ann.start}, {ann.end})"
        )


def load_span_corpus(path: str | Path) -> list[tuple[Document, list[SpanAnnotation]]]:
    """Load a PubTator-style span corpus.

    Blocks are separated by blank lines: ``docid|t|title``, an optional
    ``docid|a|abstract`` (document text is title + single space + abstract),
    then tab-separated annotation lines
    ``docid TAB start TAB end TAB surface TAB type [TAB concept]``.
    """
    text = Path(path).read_text(encoding="utf-8")
    corpus: list[tuple[Document, list[SpanAnnotation]]] = []
    seen_ids: set[str] = set()
    for block in text.split("\n\n"):
        lines = [ln for ln in block.splitlines() if ln.strip()]
        if not lines:
            continue
        title_id, title = _parse_piped(lines[0], "t")
        body = title
        rest = lines[1:]
        if rest and "|a|" in rest[0]:
            abstract_id, abstract = _parse_piped(rest[0], "a")
            if abstract_id != title_id:
                raise CorpusIntegrityError(f"abstract id {abstract_id} does not match title id {title_id}")
            body = f"{title} {abstract}"
            rest = rest[1:]
        if title_id in seen_ids:
            raise CorpusIntegrityError(f"duplicate doc_id {title_id}")
        seen_ids.add(title_id)
        doc = Document(title_id, body)
        annotations = []
        for line in rest:
            parts = line.split("\t")
            if len(parts) not in (5, 6):
                raise CorpusIntegrityError(f"doc {title_id}: bad annotation line {line!r}")
            ann_id, start, end, surface, ent_type = parts[:5]
            if ann_id != title_id:
                raise CorpusIntegrityError(f"annotation doc id {ann_id} inside block for {title_id}")
            try:
                ann = SpanAnnotation(
                    start=int(start),
                    end=int(end),
                    surface=surface,
                    entity_type=EntityType.from_label(ent_type),
                    concept_id=parts[5] if len(parts) == 6 and parts[5] else None,
                )
            except ValueError:
                raise CorpusIntegrityError(f"doc {title_id}: non-integer offsets in {line!r}") from None
            _check_span(doc, ann)
            annotations.append(ann)
        corpus.append((doc, annotations))
    return corpus


def _parse_piped(line: str, kind: str) -> tuple[str, str]:
    parts = line.split(f"|{kind}|", 1)
    if len(parts) != 2 or not parts[0]:
        raise CorpusIntegrityError(f"expected 'docid|{kind}|text', got {line!r}")
    return parts[0], parts[1]


def save_span_corpus(corpus: Sequence[tuple[Document, Sequence[SpanAnnotation]]], path: str | Path) -> None:
    """Write a span corpus in the PubTator-style format load_span_corpus reads.

    Document text must have been assembled as title-only (no abstract line
    is written; the whole text goes on the ``|t|`` line).
    """
    blocks = []
    for doc, annotations in corpus:
        lines = [f"{doc.doc_id}|t|{doc.text}"]
        for ann in annotations:
            cells = [doc.doc_id, str(ann.start), str(ann.end), ann.surface, ann.entity_type.value]
            if ann.concept_id:
                cells.append(ann.concept_id)
            lines.append("\t".join(cells))
        blocks.append("\n".join(lines))
    write_atomic(path, ["\n\n".join(blocks) + "\n"])


def _load_labeled_docs(
    path: str | Path, labels_key: str, make_set, known: Container | None, unknown_what: str
) -> list[tuple[Document, frozenset]]:
    """(Document, ``make_set(record[labels_key])``) per line; ``make_set`` refuses an item that is not a string.

    A bad line, a ``labels_key`` that is not an array, a duplicate doc_id, or an item not in ``known`` (when
    given) is refused, naming its line.
    """
    seen: set[str] = set()

    def convert(record: dict) -> tuple[Document, frozenset]:
        doc_id = v if isinstance(v := record["doc_id"], str) else expect_type(v, str, "doc_id")
        doc = Document(doc_id, v if isinstance(v := record["text"], str) else expect_type(v, str, "text"))
        if doc_id in seen:
            raise CorpusIntegrityError(f"duplicate doc_id {doc_id}")
        seen.add(doc_id)
        gold = make_set(v if isinstance(v := record[labels_key], list) else expect_type(v, list, labels_key))
        if known is not None and (unknown := sorted(item for item in gold if item not in known)):
            raise CorpusIntegrityError(f"doc {doc_id}: {unknown_what}: {', '.join(unknown)}")
        return doc, gold

    return [pair for _, pair in iter_jsonl(path, CorpusIntegrityError, convert)]


def load_hpo_gold(path: str | Path, ontology: Ontology | None = None) -> list[tuple[Document, frozenset[TermId]]]:
    """Load ontology-labeled notes (JSON Lines of {doc_id, text, hpo_ids}); each distinct id is validated once,
    into one ``TermId`` shared by every document that holds it."""
    return _load_labeled_docs(path, "hpo_ids", TermIds().set_of, ontology, "gold terms not in ontology")


def save_hpo_gold(corpus: Sequence[tuple[Document, frozenset[TermId]]], path: str | Path) -> None:
    lines = (json.dumps({"doc_id": doc.doc_id, "text": doc.text, "hpo_ids": sorted(terms)}) for doc, terms in corpus)
    write_jsonl(path, lines)


def load_multilabel_gold(
    path: str | Path, universe: frozenset[str] | set[str] = DEFAULT_LABEL_UNIVERSE
) -> list[tuple[Document, frozenset[str]]]:
    """Load multilabel note annotations (JSON Lines of {doc_id, text, labels})."""
    if len(universe) != 15:
        raise DomainError(f"label universe must have exactly 15 names, got {len(universe)}")
    return _load_labeled_docs(path, "labels", _label_set, universe, "labels outside universe")


def _label_set(labels: list) -> frozenset[str]:
    return frozenset(label if isinstance(label, str) else expect_type(label, str, "label") for label in labels)


def save_multilabel_gold(corpus: Sequence[tuple[Document, frozenset[str]]], path: str | Path) -> None:
    lines = (json.dumps({"doc_id": doc.doc_id, "text": doc.text, "labels": sorted(labels)}) for doc, labels in corpus)
    write_jsonl(path, lines)


# Plausible drug names embedded as Chemical mentions in synthetic documents.
CHEMICAL_LEXICON: tuple[str, ...] = (
    "aspirin",
    "cannabidiol",
    "clobazam",
    "fenfluramine",
    "ibuprofen",
    "stiripentol",
    "topiramate",
    "valproate",
)
CHEMICALS_PER_DOC = 1

_FILLERS = (
    "Follow-up visit recorded today.",
    "Family reports no new concerns since the last encounter.",
    "Vitals were within normal limits.",
    "Care plan reviewed with the guardians.",
    "Referral to the specialty clinic remains open.",
)


@dataclass(frozen=True)
class SyntheticDoc:
    """One generated document with its gold in every shape the tasks need."""

    document: Document
    terms: frozenset[TermId]
    spans: tuple[SpanAnnotation, ...]


def synthesize_fixture(
    seed: int,
    ontology: Ontology,
    n_docs: int,
    labels_per_doc: int,
    term_pool: Sequence[TermId] | None = None,
) -> list[SyntheticDoc]:
    """Generate a deterministic gold corpus embedding ontology term names verbatim.

    Each document embeds exactly ``labels_per_doc`` term names sampled from
    ``term_pool`` (default: every ontology term); gold is exactly that set,
    recoverable by case-insensitive dictionary scan. ``CHEMICALS_PER_DOC``
    names from CHEMICAL_LEXICON are embedded too, with span gold recorded at
    embed time (terms typed Disease, lexicon entries Chemical).
    """
    if n_docs <= 0:
        raise DomainError("n_docs must be positive")
    if labels_per_doc <= 0:
        raise DomainError("labels_per_doc must be positive")
    if term_pool is None:
        all_terms = ontology.term_ids()
    else:
        all_terms = sorted(TermId(t) for t in term_pool)
        missing = [t for t in all_terms if t not in ontology]
        if missing:
            raise DomainError(f"term_pool entries not in ontology: {', '.join(missing)}")
    if labels_per_doc > len(all_terms):
        raise DomainError(f"labels_per_doc {labels_per_doc} exceeds term pool size {len(all_terms)}")
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        doc_id = f"synth-{i:04d}"
        for _ in range(200):
            chosen = sorted(rng.sample(all_terms, labels_per_doc))
            chemicals = sorted(rng.sample(CHEMICAL_LEXICON, CHEMICALS_PER_DOC))
            synth = _render_doc(rng, doc_id, ontology, chosen, chemicals)
            if _scan_terms(ontology, synth.document.text) == set(chosen):
                docs.append(synth)
                break
        else:
            raise DomainError(
                f"could not build a collision-free document for {doc_id}; "
                "term names overlap too heavily for exact-scan gold"
            )
    return docs


def _render_doc(
    rng: random.Random,
    doc_id: str,
    ontology: Ontology,
    terms: list[TermId],
    chemicals: list[str],
) -> SyntheticDoc:
    pieces: list[str] = [f"Patient record {doc_id}."]
    spans: list[SpanAnnotation] = []
    offset = len(pieces[0])

    def append(sentence_prefix: str, surface: str, sentence_suffix: str, ent_type: EntityType | None):
        nonlocal offset
        lead = " " + sentence_prefix
        start = offset + len(lead)
        piece = lead + surface + sentence_suffix
        pieces.append(piece)
        offset += len(piece)
        if ent_type is not None:
            spans.append(SpanAnnotation(start, start + len(surface), surface, ent_type))

    events = [("term", t) for t in terms] + [("chem", c) for c in chemicals]
    rng.shuffle(events)
    for kind, value in events:
        if kind == "term":
            name = ontology.name_of(value)
            prefix = rng.choice(("Examination documents ", "The note describes ", "Assessment is notable for "))
            append(prefix, name, ".", EntityType.DISEASE)
        else:
            prefix, suffix = rng.choice(
                (
                    ("Treatment with ", " was reviewed."),
                    ("The regimen includes ", "."),
                    ("Tolerating ", " without side effects."),
                )
            )
            append(prefix, value, suffix, EntityType.CHEMICAL)
        if rng.random() < 0.4:
            filler = " " + rng.choice(_FILLERS)
            pieces.append(filler)
            offset += len(filler)
    text = "".join(pieces)
    doc = Document(doc_id, text)
    for ann in spans:
        _check_span(doc, ann)
    return SyntheticDoc(doc, frozenset(terms), tuple(spans))


def _scan_terms(ontology: Ontology, text: str) -> set[TermId]:
    """Exact-dictionary oracle: every term whose name occurs in the text."""
    hay = normalize_label(text)
    found = set()
    for term in ontology:
        if normalize_label(term.name) in hay:
            found.add(term.id)
    return found


def synthesize_multilabel_fixture(
    seed: int,
    n_docs: int,
    labels_per_doc: int,
    universe: frozenset[str] | set[str] = DEFAULT_LABEL_UNIVERSE,
) -> list[tuple[Document, frozenset[str]]]:
    """Deterministic multilabel gold corpus; each doc embeds cue sentences for its labels."""
    if n_docs <= 0:
        raise DomainError("n_docs must be positive")
    if labels_per_doc <= 0 or labels_per_doc > len(universe):
        raise DomainError(f"labels_per_doc {labels_per_doc} outside [1, {len(universe)}]")
    rng = random.Random(seed)
    ordered = sorted(universe)
    out = []
    for i in range(n_docs):
        doc_id = f"mlsynth-{i:04d}"
        labels = sorted(rng.sample(ordered, labels_per_doc))
        sentences = [f"Patient record {doc_id}."]
        for label in labels:
            sentences.append(f"Assessment indicates {label.replace('_', ' ').lower()}.")
        sentences.append(rng.choice(_FILLERS))
        out.append((Document(doc_id, " ".join(sentences)), frozenset(labels)))
    return out
