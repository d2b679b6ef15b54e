"""Scoring of predictions against gold for all three task families.

All scorers are set-based with micro-aggregation over documents.
Degenerate-count conventions: precision, recall and F1 are all 0 when
there are no predictions against nonempty gold, and all 1 when gold and
predictions are both empty.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import EntityType, SpanAnnotation
from .errors import DomainError
from .extraction import HpoExtraction, MultiLabelResult, NerResult, normalize_surface
from .ontology import TermId


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def add(self, gold: set, pred: set) -> None:
        self.tp += len(gold & pred)
        self.fp += len(pred - gold)
        self.fn += len(gold - pred)

    @property
    def precision(self) -> float:
        if self.tp + self.fp + self.fn == 0:
            return 1.0
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        if self.tp + self.fp + self.fn == 0:
            return 1.0
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class KeyMetrics:
    precision: float
    recall: float
    f1: float
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @classmethod
    def from_counts(cls, counts: ConfusionCounts) -> "KeyMetrics":
        return cls(counts.precision, counts.recall, counts.f1, counts.tp, counts.fp, counts.fn)


@dataclass(frozen=True)
class MetricReport:
    per_key: dict[str, KeyMetrics]
    micro_accuracy: float | None = None

    def as_dict(self) -> dict:
        payload = {
            key: {
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "tp": m.tp,
                "fp": m.fp,
                "fn": m.fn,
            }
            for key, m in self.per_key.items()
        }
        return {"per_key": payload, "micro_accuracy": self.micro_accuracy}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _require_same_docs(gold: Mapping, pred: Mapping) -> None:
    missing_pred = sorted(set(gold) - set(pred))
    missing_gold = sorted(set(pred) - set(gold))
    if missing_pred or missing_gold:
        parts = []
        if missing_pred:
            parts.append(f"docs missing from predictions: {', '.join(missing_pred)}")
        if missing_gold:
            parts.append(f"docs missing from gold: {', '.join(missing_gold)}")
        raise DomainError("; ".join(parts))


def _mention_set(entry: NerResult | Iterable[SpanAnnotation]) -> set[tuple[str, EntityType]]:
    if isinstance(entry, NerResult):
        return set(entry.mentions)
    return {(normalize_surface(a.surface), a.entity_type) for a in entry}


def score_ner(
    gold: Mapping[str, Iterable[SpanAnnotation]],
    pred: Mapping[str, NerResult] | Mapping[str, Iterable[SpanAnnotation]],
) -> MetricReport:
    """Per-entity-type micro-averaged P/R/F1 over per-document (case-folded surface, type) mention sets.

    Mentions, not spans, because chat-model output carries no character offsets.
    """
    _require_same_docs(gold, pred)
    counts: dict[str, ConfusionCounts] = {}
    for doc_id in sorted(gold):
        gold_items = _mention_set(gold[doc_id])
        pred_items = _mention_set(pred[doc_id])
        for ent_type in EntityType:
            g = {item for item in gold_items if item[-1] == ent_type}
            p = {item for item in pred_items if item[-1] == ent_type}
            if g or p or ent_type.value in counts:
                counts.setdefault(ent_type.value, ConfusionCounts()).add(g, p)
    return MetricReport(per_key={k: KeyMetrics.from_counts(c) for k, c in sorted(counts.items())})


def score_hpo(
    gold: Mapping[str, Iterable[TermId]],
    pred: Mapping[str, HpoExtraction] | Mapping[str, Iterable[TermId]],
) -> MetricReport:
    """Exact term-id set comparison per document, micro-aggregated under key 'HPO'."""
    _require_same_docs(gold, pred)
    counts = ConfusionCounts()
    for doc_id in sorted(gold):
        predicted = pred[doc_id]
        pred_terms = predicted.term_set() if isinstance(predicted, HpoExtraction) else set(predicted)
        counts.add(set(gold[doc_id]), pred_terms)
    return MetricReport(per_key={"HPO": KeyMetrics.from_counts(counts)})


def score_multilabel(
    gold: Mapping[str, Iterable[str]],
    pred: Mapping[str, MultiLabelResult] | Mapping[str, Iterable[str]],
    universe: frozenset[str] | set[str],
) -> MetricReport:
    """Per-label P/R/F1 plus their macro average, and per-cell micro accuracy.

    micro_accuracy = correct binary cells / (n_docs * |universe|), where
    cell (d, l) is correct iff l's membership matches between gold and
    prediction.
    """
    _require_same_docs(gold, pred)
    labels = sorted(universe)
    label_set = set(labels)
    per_label = {label: ConfusionCounts() for label in labels}
    correct_cells = 0
    total_cells = 0
    for doc_id in sorted(gold):
        gold_labels = set(gold[doc_id])
        predicted = pred[doc_id]
        pred_labels = set(predicted.labels) if isinstance(predicted, MultiLabelResult) else set(predicted)
        stray = sorted((gold_labels | pred_labels) - label_set)
        if stray:
            raise DomainError(f"doc {doc_id}: labels outside universe: {', '.join(stray)}")
        for label in labels:
            in_gold = label in gold_labels
            in_pred = label in pred_labels
            correct_cells += in_gold == in_pred
            total_cells += 1
            per_label[label].add({label} if in_gold else set(), {label} if in_pred else set())
    per_key = {label: KeyMetrics.from_counts(c) for label, c in per_label.items()}
    n = len(labels)
    per_key["macro"] = KeyMetrics(
        precision=sum(m.precision for m in per_key.values()) / n,
        recall=sum(m.recall for m in per_key.values()) / n,
        f1=sum(m.f1 for m in per_key.values()) / n,
        tp=sum(m.tp for m in per_key.values()),
        fp=sum(m.fp for m in per_key.values()),
        fn=sum(m.fn for m in per_key.values()),
    )
    accuracy = correct_cells / total_cells if total_cells else 1.0
    return MetricReport(per_key=per_key, micro_accuracy=accuracy)


def render_report(reports: Mapping[str, MetricReport], fmt: str = "markdown") -> str:
    """Render model reports as a deterministic CSV or Markdown table.

    Rows are sorted by (model, type); metric values print with 3 decimals.
    """
    if not reports:
        raise DomainError("render_report requires at least one report")
    if fmt not in ("markdown", "csv"):
        raise DomainError(f"unknown report format {fmt!r}")
    rows = []
    for model in sorted(reports):
        report = reports[model]
        for key in sorted(report.per_key):
            m = report.per_key[key]
            acc = "" if report.micro_accuracy is None else f"{report.micro_accuracy:.3f}"
            rows.append((model, key, f"{m.precision:.3f}", f"{m.recall:.3f}", f"{m.f1:.3f}", acc))
    header = ("model", "type", "precision", "recall", "f1", "micro_accuracy")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join([" --- "] * len(header)) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"
