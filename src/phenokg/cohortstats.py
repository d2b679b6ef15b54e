"""Observed phenotype frequencies in a cohort vs ontology-expected categories.

A patient counts at most once per term regardless of how many assertions
carry it; only assertions at or above the confidence threshold count
(default 0: every assertion). The headline comparison is the ordinal bin
delta (observed minus expected on the Absent=0 .. Obligate=5 scale), not
a fraction difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import DomainError
from .jsonl import csv_table
from .kg import Graph
from .ontology import DiseaseAnnotation, FrequencyCategory, Ontology, TermId, frequency_bin, read_tsv


@dataclass(frozen=True)
class CohortFrequencies:
    """Per-term distinct-patient counts over a fixed cohort."""

    cohort_size: int
    counts: dict[TermId, int]

    def count(self, term: TermId) -> int:
        return self.counts[term]

    def fraction(self, term: TermId) -> float:
        return self.counts[term] / self.cohort_size

    def items(self) -> list[tuple[TermId, tuple[int, float]]]:
        return [(term, (count, count / self.cohort_size)) for term, count in sorted(self.counts.items())]

    def __contains__(self, term: TermId) -> bool:
        return term in self.counts


def phenotype_frequency(
    graph: Graph,
    cohort: Iterable[str],
    terms: Iterable[TermId],
    min_confidence: float = 0.0,
    ontology: Ontology | None = None,
) -> CohortFrequencies:
    """Count, per term, the distinct cohort patients asserting it.

    Terms nobody asserts are included with count 0. Raising min_confidence
    is monotone non-increasing in every count.
    """
    cohort_keys = set(cohort)
    if not cohort_keys:
        raise DomainError("cohort must be nonempty")
    unknown = sorted(k for k in cohort_keys if k not in graph)
    if unknown:
        raise DomainError(f"cohort keys not in graph: {', '.join(unknown)}")
    term_set = {TermId(t) for t in terms}
    if ontology is not None:
        missing = sorted(t for t in term_set if t not in ontology)
        if missing:
            raise DomainError(f"terms not in ontology: {', '.join(missing)}")
    patients_per_term: dict[TermId, set[str]] = {t: set() for t in term_set}
    for assertion in graph.assertions():
        if assertion.patient not in cohort_keys or assertion.confidence < min_confidence:
            continue
        if assertion.term in patients_per_term:
            patients_per_term[assertion.term].add(assertion.patient)
    return CohortFrequencies(
        cohort_size=len(cohort_keys),
        counts={t: len(p) for t, p in patients_per_term.items()},
    )


@dataclass(frozen=True)
class FrequencyComparison:
    term: TermId
    observed_fraction: float
    observed_bin: FrequencyCategory
    expected_bin: FrequencyCategory
    bin_delta: int  # observed - expected on the ordinal scale; negative = under-represented


def compare_to_ontology(
    frequencies: CohortFrequencies, annotations: Iterable[DiseaseAnnotation]
) -> list[FrequencyComparison]:
    """One comparison row per annotated term, in annotation order."""
    rows = []
    for annotation in annotations:
        term = annotation.phenotype
        if term not in frequencies:
            raise DomainError(
                f"annotation term {term} missing from computed frequencies; "
                "include it in phenotype_frequency's term set (count 0 if unobserved)"
            )
        fraction = frequencies.fraction(term)
        observed = frequency_bin(fraction)
        rows.append(
            FrequencyComparison(
                term=term,
                observed_fraction=fraction,
                observed_bin=observed,
                expected_bin=annotation.expected,
                bin_delta=int(observed) - int(annotation.expected),
            )
        )
    return rows


def heatmap_csv(
    comparisons: Iterable[FrequencyComparison],
    grouping: Mapping[str, str],
    ontology: Ontology,
) -> str:
    """Deterministic CSV feeding the frequency heat map.

    Rows sorted by (group, term id); terms without a group fall into
    "ungrouped". Fractions render with 3 decimals.
    """
    comparisons = list(comparisons)
    if not comparisons:
        raise DomainError("heatmap_csv requires at least one comparison")
    rows = [
        (
            cmp_row.term,
            ontology.name_of(cmp_row.term),
            grouping.get(cmp_row.term, "ungrouped"),
            f"{cmp_row.observed_fraction:.3f}",
            cmp_row.observed_bin.label,
            cmp_row.expected_bin.label,
            str(cmp_row.bin_delta),
        )
        for cmp_row in comparisons
    ]
    rows.sort(key=lambda r: (r[2], r[0]))
    header = ("term", "name", "group", "observed_fraction", "observed_bin", "expected_bin", "bin_delta")
    return csv_table(header, rows)


def load_groups(path: str | Path) -> dict[TermId, str]:
    """Load an organ-system grouping file (TSV: term_id TAB group); errors name the file and line."""
    return dict(read_tsv(path, 2, lambda term, group: (TermId(term), group)))


def derive_groups(ontology: Ontology, subtree_roots: Mapping[str, str]) -> dict[TermId, str]:
    """Derive term groups from is_a ancestry to configured subtree roots.

    ``subtree_roots`` maps root term id -> group label and is evaluated in
    mapping order: the first root that is the term itself or one of its
    ancestors wins. Terms under no root are omitted.
    """
    roots = [(TermId(root), label) for root, label in subtree_roots.items()]
    for root, _ in roots:
        if root not in ontology:
            raise DomainError(f"subtree root {root} not in ontology")
    groups: dict[TermId, str] = {}
    for term in ontology:
        lineage = {term.id} | ontology.ancestors(term.id)
        for root, label in roots:
            if root in lineage:
                groups[term.id] = label
                break
    return groups
