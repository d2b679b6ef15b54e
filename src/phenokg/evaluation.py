"""Scoring of predictions against gold for all three task families.

All scorers are set-based with micro-aggregation over documents: each
document's gold and prediction become plain sets (``_items``), and one loop
(``_count``) tallies TP/FP/FN per report key.
Degenerate-count conventions: precision, recall and F1 are all 0 when
there are no predictions against nonempty gold, and all 1 when gold and
predictions are both empty.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping

from .corpus import SpanAnnotation
from .errors import DomainError
from .extraction import HpoExtraction, MultiLabelResult, NerResult
from .jsonl import csv_table, markdown_table
from .ontology import TermId


@dataclass(frozen=True)
class KeyMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> KeyMetrics:
        """P/R/F1 of the counts: all 1 when every count is 0, else a ratio with a zero denominator is 0."""
        if tp + fp + fn == 0:
            return cls(1.0, 1.0, 1.0, 0, 0, 0)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(precision, recall, f1, tp, fp, fn)


@dataclass(frozen=True)
class MetricReport:
    per_key: dict[str, KeyMetrics]
    micro_accuracy: float | None = None

    def to_json(self) -> str:
        """``{"per_key": {key: {precision, recall, f1, tp, fp, fn}}, "micro_accuracy"}``, keys sorted."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)


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


def _items(entry) -> set:
    """A document's gold or prediction as the plain set it is scored on; a ``SpanAnnotation`` is its mention."""
    if isinstance(entry, HpoExtraction):
        return entry.term_set()
    if isinstance(entry, NerResult):
        return set(entry.mentions)
    if isinstance(entry, MultiLabelResult):
        return set(entry.labels)
    return {item.mention if isinstance(item, SpanAnnotation) else item for item in entry}


def _count(gold: Mapping, pred: Mapping, key_of: Callable, universe: Iterable[str] | None = None) -> dict:
    """``[tp, fp, fn]`` per report key, summed over documents in id order; each item counts under ``key_of(item)``.

    Without a ``universe`` a key is reported once an item has it. With one, every label in it is
    reported, and an item outside it is a DomainError naming the document.
    """
    _require_same_docs(gold, pred)
    counts = {key: [0, 0, 0] for key in universe or ()}
    for doc_id in sorted(gold):
        gold_items, pred_items = _items(gold[doc_id]), _items(pred[doc_id])
        if universe is not None:
            stray = sorted(item for item in gold_items | pred_items if item not in counts)
            if stray:
                raise DomainError(f"doc {doc_id}: labels outside universe: {', '.join(stray)}")
        for i, items in enumerate((gold_items & pred_items, pred_items - gold_items, gold_items - pred_items)):
            for item in items:
                counts.setdefault(key_of(item), [0, 0, 0])[i] += 1
    return counts


def score_ner(
    gold: Mapping[str, Iterable[SpanAnnotation]],
    pred: Mapping[str, NerResult] | Mapping[str, Iterable[SpanAnnotation]],
) -> MetricReport:
    """Per-entity-type micro-averaged P/R/F1 over per-document (case-folded surface, type) mention sets.

    Mentions, not spans, because chat-model output carries no character offsets.
    """
    counts = _count(gold, pred, key_of=lambda mention: mention[1].value)
    return MetricReport(per_key={k: KeyMetrics.from_counts(*c) for k, c in sorted(counts.items())})


def score_hpo(
    gold: Mapping[str, Iterable[TermId]],
    pred: Mapping[str, HpoExtraction] | Mapping[str, Iterable[TermId]],
) -> MetricReport:
    """Exact term-id set comparison per document, micro-aggregated under key 'HPO'."""
    counts = _count(gold, pred, key_of=lambda term: "HPO")
    return MetricReport(per_key={"HPO": KeyMetrics.from_counts(*counts.get("HPO", (0, 0, 0)))})


def score_multilabel(
    gold: Mapping[str, Iterable[str]],
    pred: Mapping[str, MultiLabelResult] | Mapping[str, Iterable[str]],
    universe: frozenset[str] | set[str],
) -> MetricReport:
    """Per-label P/R/F1 plus their macro average, and per-cell micro accuracy.

    micro_accuracy = correct binary cells / (n_docs * |universe|), where
    cell (d, l) is correct iff l's membership matches between gold and
    prediction; every wrong cell is one FP or one FN of its label.
    """
    labels = sorted(universe)
    counts = _count(gold, pred, key_of=lambda label: label, universe=labels)
    per_key = {label: KeyMetrics.from_counts(*c) for label, c in counts.items()}
    n = len(labels)
    per_key["macro"] = KeyMetrics(
        precision=sum(m.precision for m in per_key.values()) / n,
        recall=sum(m.recall for m in per_key.values()) / n,
        f1=sum(m.f1 for m in per_key.values()) / n,
        tp=sum(m.tp for m in per_key.values()),
        fp=sum(m.fp for m in per_key.values()),
        fn=sum(m.fn for m in per_key.values()),
    )
    cells = len(gold) * n
    accuracy = (cells - per_key["macro"].fp - per_key["macro"].fn) / cells if cells else 1.0
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
    return csv_table(header, rows) if fmt == "csv" else markdown_table(header, rows)
