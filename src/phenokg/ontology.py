"""Phenotype ontology loading, label resolution, and frequency binning.

The ontology input is a minimal OBO subset: ``[Term]`` stanzas with ``id``,
``name``, ``def``, ``synonym`` and ``is_a`` lines. Disease-phenotype
annotations arrive as a 3-column TSV (disease_id, hpo_id, frequency label).
Everything is immutable after load and safe for concurrent reads.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

from .errors import DomainError, OboParseError, OntologyValidationError
from .jsonl import write_atomic

T = TypeVar("T")
_TERM_ID_RE = re.compile(r"^HP:\d{7}$")
_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


class TermId(str):
    """A validated ontology term identifier of the form ``HP:#######``.

    Subclasses ``str`` so ids stay hashable, JSON-friendly and usable as
    dict keys; a lowercase ``hp:`` prefix is canonicalized to uppercase.
    """

    def __new__(cls, value: str) -> "TermId":
        if not isinstance(value, str):
            raise DomainError(f"term id must be a string, got {type(value).__name__}")
        candidate = value.strip()
        if candidate[:3].lower() == "hp:":
            candidate = "HP:" + candidate[3:]
        if not _TERM_ID_RE.match(candidate):
            raise DomainError(f"invalid term id {value!r}: expected HP: followed by 7 digits")
        return super().__new__(cls, candidate)


class TermIds(dict):
    """One load's term table: raw id -> its ``TermId``, validated on the first lookup of each raw id;
    raw ids that canonicalize alike (``hp:`` and ``HP:``) share one ``TermId``."""

    __slots__ = ()

    def __missing__(self, raw: str) -> TermId:
        term = TermId(raw)
        term = self[raw] = self.setdefault(term, term)
        return term

    def set_of(self, raw_ids) -> frozenset[TermId]:
        """The ``TermId`` of each raw id; any raw id ``TermId`` refuses raises its error, in order."""
        try:
            return frozenset(map(self.__getitem__, raw_ids))
        except TypeError:  # an unhashable raw id: ``TermId`` names its type
            return frozenset(map(TermId, raw_ids))


@dataclass(frozen=True)
class OntologyTerm:
    id: TermId
    name: str
    synonyms: tuple[str, ...] = ()
    definition: str = ""
    parents: tuple[TermId, ...] = ()

    def __post_init__(self):
        if not self.name.strip():
            raise DomainError(f"term {self.id} has an empty name")


class FrequencyCategory(enum.IntEnum):
    """Ordinal phenotype-frequency bins; integer values are the ordinal scale."""

    ABSENT = 0
    VERY_RARE = 1
    OCCASIONAL = 2
    FREQUENT = 3
    VERY_FREQUENT = 4
    OBLIGATE = 5

    @property
    def label(self) -> str:
        return _CATEGORY_LABELS[self]

    @classmethod
    def from_label(cls, text: str) -> "FrequencyCategory":
        key = re.sub(r"[\s_\-]+", "", text).lower()
        try:
            return _LABEL_LOOKUP[key]
        except KeyError:
            raise DomainError(f"unknown frequency category label {text!r}") from None


_CATEGORY_LABELS = {
    FrequencyCategory.ABSENT: "Absent",
    FrequencyCategory.VERY_RARE: "Very rare",
    FrequencyCategory.OCCASIONAL: "Occasional",
    FrequencyCategory.FREQUENT: "Frequent",
    FrequencyCategory.VERY_FREQUENT: "Very frequent",
    FrequencyCategory.OBLIGATE: "Obligate",
}
_LABEL_LOOKUP = {re.sub(r"[\s_\-]+", "", v).lower(): k for k, v in _CATEGORY_LABELS.items()}
# enum-style names ("VeryFrequent", "VERY_FREQUENT") resolve too
_LABEL_LOOKUP.update({re.sub(r"[\s_\-]+", "", k.name).lower(): k for k in FrequencyCategory})


def frequency_bin(fraction) -> FrequencyCategory:
    """Map an observed cohort fraction in [0, 1] to its frequency category.

    Bin layout: 0 is Absent, (0, 0.05) Very rare (sub-1% fractions are
    clamped into Very rare rather than left unmappable), [0.05, 0.30)
    Occasional, [0.30, 0.80) Frequent, [0.80, 1.0) Very frequent, and
    exactly 1.0 Obligate.
    """
    if not 0 <= fraction <= 1:
        raise DomainError(f"fraction {fraction!r} outside [0, 1]")
    if fraction == 0:
        return FrequencyCategory.ABSENT
    if fraction == 1:
        return FrequencyCategory.OBLIGATE
    if fraction < 0.05:
        return FrequencyCategory.VERY_RARE
    if fraction < 0.30:
        return FrequencyCategory.OCCASIONAL
    if fraction < 0.80:
        return FrequencyCategory.FREQUENT
    return FrequencyCategory.VERY_FREQUENT


@dataclass(frozen=True)
class DiseaseAnnotation:
    """Expected frequency of one phenotype in one disease."""

    disease_id: str
    phenotype: TermId
    expected: FrequencyCategory


def normalize_label(text: str) -> str:
    """Case-fold and collapse whitespace; the exact-match key for labels."""
    return " ".join(text.split()).casefold()


class Ontology:
    """Immutable term index: by id, by exact name, by case-folded synonym."""

    def __init__(self, terms: list[OntologyTerm]):
        self._terms: dict[TermId, OntologyTerm] = {}
        self._by_name: dict[str, list[TermId]] = {}
        self._by_synonym: dict[str, list[TermId]] = {}
        for term in terms:
            if term.id in self._terms:
                raise OntologyValidationError(f"duplicate term id {term.id}")
            self._terms[term.id] = term
        orphans: dict[str, list[str]] = {}
        for term in self._terms.values():
            for parent in term.parents:
                if parent not in self._terms:
                    orphans.setdefault(parent, []).append(term.id)
        if orphans:
            listed = ", ".join(f"{p} (referenced by {', '.join(kids)})" for p, kids in sorted(orphans.items()))
            raise OntologyValidationError(f"dangling parent ids: {listed}", orphans=orphans)
        for term in self._terms.values():
            self._by_name.setdefault(normalize_label(term.name), []).append(term.id)
            for synonym in term.synonyms:
                self._by_synonym.setdefault(normalize_label(synonym), []).append(term.id)
        for ids in self._by_name.values():
            ids.sort()
        for ids in self._by_synonym.values():
            ids.sort()

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def __contains__(self, term_id: str) -> bool:
        return term_id in self._terms

    def __iter__(self):
        return iter(self._terms.values())

    def get(self, term_id: str) -> OntologyTerm | None:
        return self._terms.get(term_id)

    def __getitem__(self, term_id: str) -> OntologyTerm:
        try:
            return self._terms[term_id]
        except KeyError:
            raise KeyError(f"term {term_id} not in ontology") from None

    def name_of(self, term_id: str) -> str:
        return self[term_id].name

    def term_ids(self) -> list[TermId]:
        return sorted(self._terms)

    def ancestors(self, term_id: str) -> set[TermId]:
        """Transitive is_a closure of ``term_id`` (excluding itself)."""
        seen: set[TermId] = set()
        stack = list(self[term_id].parents)
        while stack:
            parent = stack.pop()
            if parent in seen:
                continue
            seen.add(parent)
            stack.extend(self._terms[parent].parents)
        return seen

    def lookup_name(self, text: str) -> list[TermId]:
        return list(self._by_name.get(normalize_label(text), []))

    def lookup_synonym(self, text: str) -> list[TermId]:
        return list(self._by_synonym.get(normalize_label(text), []))


def resolve_label(ontology: Ontology, text: str) -> list[TermId]:
    """Exact (case-folded, whitespace-normalized) label match; names, then synonyms.

    Returns every matching term id, names before synonym-only matches,
    ascending id within each tier. No fuzzy matching: empty result means
    no exact match and is not an error.
    """
    matches = ontology.lookup_name(text)
    for term_id in ontology.lookup_synonym(text):
        if term_id not in matches:
            matches.append(term_id)
    return matches


def _parse_quoted(value: str, line_no: int, tag: str) -> str:
    match = _QUOTED_RE.search(value)
    if not match:
        raise OboParseError(f"{tag} value is not a quoted string: {value!r}", line_no)
    return match.group(1).replace('\\"', '"')


def parse_obo(text: str) -> Ontology:
    """Parse OBO-subset text into an Ontology. See load_ontology."""
    terms: list[OntologyTerm] = []
    current: dict | None = None  # the [Term] stanza being read; None elsewhere
    current_line = 0

    def finish():
        nonlocal current
        if current is None:
            return
        if "id" not in current:
            raise OboParseError("[Term] stanza missing id", current["_line"])
        if "name" not in current:
            raise OboParseError(f"term {current['id']} missing name", current["_line"])
        terms.append(
            OntologyTerm(
                id=current["id"],
                name=current["name"],
                synonyms=tuple(current.get("synonyms", ())),
                definition=current.get("def", ""),
                parents=tuple(current.get("parents", ())),
            )
        )
        current = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        current_line = line_no
        if not line:
            continue
        if line.startswith("["):
            finish()
            # other stanza kinds ([Typedef], ...) are outside the subset
            current = {"_line": line_no} if line == "[Term]" else None
            continue
        if current is None:
            continue  # header lines, or stanza kinds outside the subset
        tag, sep, value = line.partition(":")
        if not sep:
            raise OboParseError(f"expected 'tag: value', got {line!r}", line_no)
        tag = tag.strip()
        value = value.strip()
        if tag == "id":
            try:
                current["id"] = TermId(value)
            except DomainError as exc:
                raise OboParseError(str(exc), line_no) from None
        elif tag == "name":
            if not value:
                raise OboParseError("empty name", line_no)
            current["name"] = value
        elif tag == "def":
            current["def"] = _parse_quoted(value, line_no, "def")
        elif tag == "synonym":
            current.setdefault("synonyms", []).append(_parse_quoted(value, line_no, "synonym"))
        elif tag == "is_a":
            target = value.split("!", 1)[0].strip()
            try:
                current.setdefault("parents", []).append(TermId(target))
            except DomainError as exc:
                raise OboParseError(str(exc), line_no) from None
        # unknown tags (comment, xref, ...) are ignored: minimal subset
    finish()
    if not terms:
        raise OboParseError("no [Term] stanzas found", current_line or None)
    return Ontology(terms)


def load_ontology(path: str | Path) -> Ontology:
    """Load an OBO-subset file and index every term by id, name, and synonym."""
    return parse_obo(Path(path).read_text(encoding="utf-8"))


def dump_ontology(ontology: Ontology) -> str:
    """Serialize back to OBO-subset text; reloading yields an identical index."""
    blocks = []
    for term_id in ontology.term_ids():
        term = ontology[term_id]
        lines = ["[Term]", f"id: {term.id}", f"name: {term.name}"]
        if term.definition:
            lines.append('def: "%s"' % term.definition.replace('"', '\\"'))
        for synonym in term.synonyms:
            lines.append('synonym: "%s"' % synonym.replace('"', '\\"'))
        for parent in term.parents:
            lines.append(f"is_a: {parent} ! {ontology.name_of(parent)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def save_ontology(ontology: Ontology, path: str | Path) -> None:
    write_atomic(path, [dump_ontology(ontology)])


def read_tsv(path: str | Path, columns: int, convert: Callable[..., T]) -> list[T]:
    """``convert(*cells)`` for each row of a tab-separated file of ``columns`` columns, each cell stripped.

    Blank lines and lines starting with ``#`` are skipped. A row of another width is a DomainError, and a
    DomainError or OntologyValidationError from ``convert`` is raised again as its class; each message
    starts ``"<path> line N: "``.
    """
    rows = []
    for line_no, raw_line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        cells = [cell.strip() for cell in line.split("\t")]
        if len(cells) != columns:
            raise DomainError(f"{path} line {line_no}: expected {columns} tab-separated columns, got {len(cells)}")
        try:
            rows.append(convert(*cells))
        except (DomainError, OntologyValidationError) as exc:
            raise type(exc)(f"{path} line {line_no}: {exc}") from None
    return rows


def load_annotations(path: str | Path, ontology: Ontology) -> list[DiseaseAnnotation]:
    """Load disease-phenotype annotations (TSV: disease_id, hpo_id, frequency label) through ``read_tsv``.

    Every phenotype must resolve in the supplied ontology.
    """

    def annotation(disease_id: str, hpo_id: str, label: str) -> DiseaseAnnotation:
        term = TermId(hpo_id)
        if term not in ontology:
            raise OntologyValidationError(f"phenotype {term} not in ontology")
        return DiseaseAnnotation(disease_id, term, FrequencyCategory.from_label(label))

    return read_tsv(path, 3, annotation)
