"""Rare-disease discovery funnel over a patient knowledge graph.

Stages: candidate assembly (keyword hits union generic-ICD hits), rubric
0-9 likelihood scoring, threshold filtering, per-patient phenotype
extraction, and deterministic finalist ranking. Each candidate is scored by
one chain (patient record, prompt, request, parse, at most one retry) on the
backend's bounded worker pool, and only its score is kept: the record of
each candidate that clears the threshold is rebuilt for extraction. A score
prompt's system part is the rubric's, rendered once per rubric from the
score template; its user message is the patient record. Per-patient
failures are audited in key order and skipped; a sweep over tens of
thousands of candidates must never abort on one bad response.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .corpus import Document
from .errors import DomainError, PhenoKGError
from .extraction import (
    AuditLog,
    GleanConfig,
    HpoExtraction,
    HpoTask,
    ScoreSchema,
    extract_corpus,
    parse_model_output,
    render_template,
)
from .jsonl import expect_number, expect_type, markdown_table
from .kg import Graph, PatientRecord, cohort_by_icd, keyword_search, patient_record
from .llm import ChatRequest, _run_bounded
from .ontology import Ontology, TermId

# finalists rank by their count of assertions at or above this confidence
HIGH_CONFIDENCE = 0.5


@dataclass(frozen=True)
class RubricCriterion:
    description: str
    weight: float

    def __post_init__(self):
        if not 0 < self.weight < math.inf:
            raise DomainError(f"criterion weight must be positive and finite, got {self.weight}")


@dataclass(frozen=True)
class ScoringRubric:
    """Documented, auditable replacement for a proprietary patient scorer."""

    disease_name: str
    disease_context: str
    criteria: tuple[RubricCriterion, ...]
    scale_note: str = ""

    def __post_init__(self):
        if not self.criteria:
            raise DomainError("rubric needs at least one criterion")

    @functools.cached_property
    def system_prompt(self) -> str:
        """The score template rendered for this rubric, once."""
        return render_template(
            "score",
            disease_name=self.disease_name,
            disease_context=self.disease_context,
            criteria="\n".join(f"- (weight {c.weight:g}) {c.description}" for c in self.criteria),
            scale_note=self.scale_note,
        )


def load_rubric(path: str | Path) -> ScoringRubric:
    """Read a rubric file; invalid JSON, a missing key or a bad field is a DomainError naming the file."""
    try:
        data = expect_type(json.loads(Path(path).read_text(encoding="utf-8")), dict, "rubric")
        criteria = [expect_type(c, dict, "criterion") for c in expect_type(data["criteria"], list, "criteria")]
        return ScoringRubric(
            disease_name=expect_type(data["disease_name"], str, "disease_name"),
            disease_context=expect_type(data["disease_context"], str, "disease_context"),
            criteria=tuple(
                RubricCriterion(expect_type(c["description"], str, "description"), expect_number(c["weight"], "weight"))
                for c in criteria
            ),
            scale_note=expect_type(data.get("scale_note", ""), str, "scale_note"),
        )
    except KeyError as exc:
        raise DomainError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, DomainError) as exc:
        raise DomainError(f"{path}: {exc}") from None


@dataclass(frozen=True, slots=True)
class LikelihoodScore:
    patient: str
    score: int
    rationale: str = ""

    def __post_init__(self):
        if not 0 <= self.score <= 9:
            raise DomainError(f"score {self.score} outside [0, 9]")


def build_score_prompt(record: PatientRecord, rubric: ScoringRubric) -> ChatRequest:
    """The rubric's system prompt, and ``record`` rendered as the user message."""
    user = record.render().strip() + "\n"
    return ChatRequest(system=rubric.system_prompt, user=user, request_tag=f"score:{record.key}")


def _score_chain(record: PatientRecord, rubric: ScoringRubric, backend) -> LikelihoodScore:
    """Rubric-conditioned 0-9 likelihood score with strict JSON output: the one scorer.

    An out-of-range, non-integer or unparseable response is re-sent once,
    identically, and its error raised if it fails again. A ``deterministic``
    backend (replay) would only repeat its answer, so it gets no retry.
    """
    request = build_score_prompt(record, rubric)
    attempts = 1 if backend.deterministic else 2
    for attempt in range(1, attempts + 1):
        try:
            return LikelihoodScore(record.key, *parse_model_output(backend.complete(request).text, ScoreSchema()))
        except PhenoKGError:
            if attempt == attempts:
                raise


def candidate_cohort(graph: Graph, keywords: Iterable[str], generic_icd: Iterable[str]) -> set[str]:
    """Union of keyword-note hits and any-mode generic-ICD hits."""
    keywords = [k for k in keywords if k]
    codes = [c for c in generic_icd if c]
    if not keywords and not codes:
        raise DomainError("candidate_cohort needs at least one keyword or ICD code")
    candidates: set[str] = set()
    for keyword in keywords:
        candidates.update(patient for patient, _ in keyword_search(graph, keyword))
    if codes:
        candidates |= cohort_by_icd(graph, codes, mode="any")
    return candidates


@dataclass(frozen=True)
class FunnelFinalist:
    patient: str
    score: int
    top_assertions: tuple[tuple[TermId, float], ...]


@dataclass(frozen=True)
class FunnelReport:
    stage_counts: tuple[tuple[str, int], ...]
    finalists: tuple[FunnelFinalist, ...]

    def __post_init__(self):
        counts = [count for _, count in self.stage_counts]
        if any(a < b for a, b in zip(counts, counts[1:])):
            raise DomainError(f"stage counts must be non-increasing, got {counts}")

    def as_dict(self) -> dict:
        return {
            "stage_counts": [{"stage": s, "count": c} for s, c in self.stage_counts],
            "finalists": [
                {
                    "patient": f.patient,
                    "score": f.score,
                    "top_assertions": [{"term": t, "confidence": c} for t, c in f.top_assertions],
                }
                for f in self.finalists
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def to_markdown(self) -> str:
        finalists = [
            (f.patient, f.score, ", ".join(f"{t} ({c:.2f})" for t, c in f.top_assertions) or "-")
            for f in self.finalists
        ]
        return (
            "# Discovery funnel\n\n"
            + markdown_table(("stage", "count"), self.stage_counts)
            + "\n"
            + markdown_table(("patient", "score", "top assertions"), finalists)
        )


def run_funnel(
    graph: Graph,
    rubric: ScoringRubric,
    keywords: Iterable[str],
    generic_icd: Iterable[str],
    threshold: int = 7,
    *,
    allowed_terms: set[TermId] | frozenset[TermId],
    backend,
    ontology: Ontology,
    glean: GleanConfig = GleanConfig(1),
    min_assertions: int | None = None,
    audit: AuditLog | None = None,
) -> FunnelReport:
    """Run the full funnel and rank finalists.

    Stages record (name, count): candidates -> scored -> filtered (score >=
    threshold) -> extracted -> finalists. Finalists rank by (score desc,
    count of assertions with confidence >= ``HIGH_CONFIDENCE`` desc, patient
    key asc). A candidate whose score fails is audited as ``scoring_failed``
    and skipped. Only scores are kept; each survivor's record is rebuilt with
    ``patient_record`` for extraction. ``min_assertions`` optionally demands
    that many high-confidence assertions as a hard filter (off by default:
    phenotype extraction is a ranking input, not a second gate).
    """
    if not 0 <= threshold <= 9:
        raise DomainError(f"threshold {threshold} outside [0, 9]")
    if not allowed_terms:
        raise DomainError("allowed_terms must be nonempty")
    audit = audit if audit is not None else AuditLog()

    candidates = sorted(candidate_cohort(graph, keywords, generic_icd))
    stage_counts = [("candidates", len(candidates))]

    def score(key: str) -> LikelihoodScore:
        return _score_chain(patient_record(graph, key), rubric, backend)

    scores = {}
    for key, outcome in zip(candidates, _run_bounded(candidates, score, backend.max_in_flight)):
        if isinstance(outcome, PhenoKGError):
            audit.record("scoring_failed", patient=key, error=str(outcome))
        else:
            scores[key] = outcome
    survivors = [key for key, result in scores.items() if result.score >= threshold]
    stage_counts.append(("scored", len(scores)))
    stage_counts.append(("filtered", len(survivors)))

    task = HpoTask(ontology, allowed_terms=allowed_terms, disease_context=rubric.disease_context)
    documents = [Document(key, patient_record(graph, key).render()) for key in survivors]
    extractions: dict[str, HpoExtraction] = (
        extract_corpus(task, documents, backend, glean=glean, audit=audit) if documents else {}
    )
    stage_counts.append(("extracted", len(extractions)))

    ranked = []
    for key, extraction in extractions.items():
        strong = sorted(
            ((a.term, a.confidence) for a in extraction.assertions if a.confidence >= HIGH_CONFIDENCE),
            key=lambda pair: (-pair[1], pair[0]),
        )
        if min_assertions is not None and len(strong) < min_assertions:
            audit.record("below_min_assertions", patient=key, strong=len(strong))
            continue
        ranked.append((scores[key].score, len(strong), key, strong))
    ranked.sort(key=lambda row: (-row[0], -row[1], row[2]))
    finalists = tuple(
        FunnelFinalist(key, score, tuple(strong[:5])) for score, _, key, strong in ranked
    )
    stage_counts.append(("finalists", len(finalists)))

    return FunnelReport(tuple(stage_counts), finalists)
