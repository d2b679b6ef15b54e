import random
import re

import pytest

from phenokg.corpus import DEFAULT_LABEL_UNIVERSE, EntityType, SpanAnnotation
from phenokg.errors import DomainError
from phenokg.evaluation import (
    KeyMetrics,
    MetricReport,
    render_report,
    score_hpo,
    score_multilabel,
    score_ner,
)
from phenokg.extraction import HpoAssertion, HpoExtraction, MultiLabelResult, NerResult
from phenokg.ontology import TermId


def _ner_gold(doc_id, surfaces, text=None, ent=EntityType.DISEASE):
    # spans laid out on a synthetic line so the offsets are valid
    annotations = []
    cursor = 0
    for surface in surfaces:
        annotations.append(SpanAnnotation(cursor, cursor + len(surface), surface, ent))
        cursor += len(surface) + 1
    return annotations


def _mentions(doc_id, surfaces, ent=EntityType.DISEASE):
    return NerResult(doc_id, frozenset((s, ent) for s in surfaces))


def test_score_ner_hand_counted_two_thirds():
    gold = {"d": _ner_gold("d", ["a", "b", "c"])}
    pred = {"d": _mentions("d", ["a", "b", "d"])}
    report = score_ner(gold, pred)
    metrics = report.per_key["Disease"]
    assert (metrics.tp, metrics.fp, metrics.fn) == (2, 1, 1)
    assert metrics.precision == pytest.approx(2 / 3)
    assert metrics.recall == pytest.approx(2 / 3)
    assert metrics.f1 == pytest.approx(2 / 3)


def test_score_ner_identity_is_perfect():
    gold = {"d": _ner_gold("d", ["x", "y"])}
    pred = {"d": _mentions("d", ["x", "y"])}
    metrics = score_ner(gold, pred).per_key["Disease"]
    assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)


def test_score_ner_empty_pred_nonempty_gold():
    gold = {"d": _ner_gold("d", ["x"])}
    pred = {"d": _mentions("d", [])}
    metrics = score_ner(gold, pred).per_key["Disease"]
    assert (metrics.precision, metrics.recall, metrics.f1) == (0.0, 0.0, 0.0)


def test_score_ner_types_scored_separately():
    gold = {
        "d": _ner_gold("d", ["aspirin"], ent=EntityType.CHEMICAL) + _ner_gold("d", ["nausea"]),
    }
    pred = {
        "d": NerResult(
            "d", frozenset({("aspirin", EntityType.CHEMICAL), ("headache", EntityType.DISEASE)})
        )
    }
    report = score_ner(gold, pred)
    assert report.per_key["Chemical"].f1 == 1.0
    assert report.per_key["Disease"].f1 == 0.0


def test_score_ner_normalizes_gold_surfaces():
    gold = {"d": [SpanAnnotation(0, 9, "Long  QT ", EntityType.DISEASE)]}
    pred = {"d": _mentions("d", ["long qt"])}
    assert score_ner(gold, pred).per_key["Disease"].f1 == 1.0


def test_score_ner_doc_mismatch_lists_ids():
    gold = {"d1": _ner_gold("d1", ["x"]), "d2": _ner_gold("d2", ["y"])}
    pred = {"d1": _mentions("d1", ["x"])}
    with pytest.raises(DomainError, match="d2"):
        score_ner(gold, pred)


def _hpo(doc_id, terms, confidence=0.9):
    return HpoExtraction(doc_id, tuple(HpoAssertion(TermId(t), confidence, "") for t in terms))


def test_score_hpo_examples():
    gold = {"d": {TermId("HP:0011172")}}
    assert score_hpo(gold, {"d": _hpo("d", ["HP:0011172"])}).per_key["HPO"].f1 == 1.0

    gold2 = {"d": {TermId("HP:0011172"), TermId("HP:0002373")}}
    metrics = score_hpo(gold2, {"d": _hpo("d", ["HP:0011172"])}).per_key["HPO"]
    assert metrics.precision == 1.0
    assert metrics.recall == 0.5
    assert metrics.f1 == pytest.approx(2 / 3)

    pred_extra = {"d": _hpo("d", ["HP:0011172", "HP:0001336"])}
    metrics = score_hpo({"d": {TermId("HP:0011172")}}, pred_extra).per_key["HPO"]
    assert (metrics.tp, metrics.fp) == (1, 1)
    assert metrics.precision == 0.5


def test_score_hpo_micro_aggregates_over_docs():
    gold = {"a": {TermId("HP:0011172")}, "b": {TermId("HP:0002373"), TermId("HP:0001336")}}
    pred = {"a": _hpo("a", ["HP:0011172"]), "b": _hpo("b", ["HP:0002373"])}
    metrics = score_hpo(gold, pred).per_key["HPO"]
    assert (metrics.tp, metrics.fp, metrics.fn) == (2, 0, 1)


def _multilabel_maps(pairs):
    gold, pred = {}, {}
    for i, (g, p) in enumerate(pairs):
        gold[f"d{i}"] = set(g)
        pred[f"d{i}"] = MultiLabelResult(f"d{i}", frozenset(p))
    return gold, pred


def test_score_multilabel_identity():
    gold, pred = _multilabel_maps([({"OBESITY", "DEMENTIA"}, {"OBESITY", "DEMENTIA"})])
    report = score_multilabel(gold, pred, DEFAULT_LABEL_UNIVERSE)
    assert report.per_key["macro"].f1 == 1.0
    assert report.micro_accuracy == 1.0


def test_score_multilabel_three_wrong_cells():
    # 2 docs x 15 labels = 30 cells; exactly 3 cells disagree
    gold, pred = _multilabel_maps(
        [
            ({"OBESITY", "DEMENTIA"}, {"OBESITY", "DEPRESSION"}),  # DEMENTIA miss + DEPRESSION extra
            ({"NONE"}, set()),  # NONE miss
        ]
    )
    report = score_multilabel(gold, pred, DEFAULT_LABEL_UNIVERSE)
    assert report.micro_accuracy == pytest.approx(27 / 30)


def test_score_multilabel_empty_pred_accuracy_is_one_minus_density():
    gold, pred = _multilabel_maps(
        [
            ({"OBESITY", "DEMENTIA", "NONE"}, set()),
            ({"UNSURE"}, set()),
        ]
    )
    density = 4 / 30
    report = score_multilabel(gold, pred, DEFAULT_LABEL_UNIVERSE)
    assert report.micro_accuracy == pytest.approx(1 - density)


def test_score_multilabel_order_invariant():
    gold = {"a": {"OBESITY"}, "b": {"DEMENTIA", "NONE"}}
    pred = {"a": {"OBESITY", "UNSURE"}, "b": {"DEMENTIA"}}
    forward = score_multilabel(gold, pred, DEFAULT_LABEL_UNIVERSE)
    backward = score_multilabel(
        dict(reversed(list(gold.items()))), dict(reversed(list(pred.items()))), DEFAULT_LABEL_UNIVERSE
    )
    assert forward == backward


def test_score_multilabel_unknown_label_is_domain_error():
    gold = {"d": {"OBESITY"}}
    pred = {"d": {"NOT_A_LABEL"}}
    with pytest.raises(DomainError, match="NOT_A_LABEL"):
        score_multilabel(gold, pred, DEFAULT_LABEL_UNIVERSE)


def test_swap_symmetry_swaps_precision_and_recall():
    rng = random.Random(5)
    universe = [TermId(f"HP:{i:07d}") for i in range(1, 30)]
    for _ in range(25):
        gold = {"d": set(rng.sample(universe, rng.randrange(8)))}
        pred_terms = set(rng.sample(universe, rng.randrange(8)))
        pred = {"d": _hpo("d", sorted(pred_terms))}
        fwd = score_hpo(gold, pred).per_key["HPO"]
        rev = score_hpo({"d": pred_terms}, {"d": _hpo("d", sorted(gold["d"]))}).per_key["HPO"]
        assert fwd.precision == pytest.approx(rev.recall, abs=1e-12)
        assert fwd.recall == pytest.approx(rev.precision, abs=1e-12)
        assert fwd.f1 == pytest.approx(rev.f1, abs=1e-12)


def test_adding_correct_prediction_never_hurts():
    gold = {"d": {TermId("HP:0000001"), TermId("HP:0000002"), TermId("HP:0000003")}}
    pred_small = {"d": _hpo("d", ["HP:0000001"])}
    pred_bigger = {"d": _hpo("d", ["HP:0000001", "HP:0000002"])}
    small = score_hpo(gold, pred_small).per_key["HPO"]
    bigger = score_hpo(gold, pred_bigger).per_key["HPO"]
    assert bigger.precision >= small.precision
    assert bigger.recall >= small.recall
    assert bigger.f1 >= small.f1


def test_both_empty_scores_one():
    metrics = KeyMetrics.from_counts(0, 0, 0)
    assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)


def test_render_report_rounding_and_sorting():
    report = MetricReport(
        per_key={
            "Disease": score_hpo({"d": {TermId("HP:0000001"), TermId("HP:0000002"), TermId("HP:0000003")}},
                                 {"d": _hpo("d", ["HP:0000001", "HP:0000002"])}).per_key["HPO"],
        }
    )
    text = render_report({"zmodel": report, "amodel": report}, fmt="csv")
    lines = text.splitlines()
    assert lines[0] == "model,type,precision,recall,f1,micro_accuracy"
    assert lines[1].startswith("amodel,Disease,1.000,0.667,0.800")
    assert lines[2].startswith("zmodel,Disease")
    assert render_report({"m": report}, fmt="csv") == render_report({"m": report}, fmt="csv")


def test_render_report_markdown_shape():
    report = MetricReport(per_key={"HPO": score_hpo({"d": {TermId("HP:0000001")}},
                                                    {"d": _hpo("d", ["HP:0000001"])}).per_key["HPO"]},
                          micro_accuracy=0.9)
    text = render_report({"m": report}, fmt="markdown")
    lines = text.splitlines()
    assert lines[0].startswith("| model | type |")
    assert "| m | HPO | 1.000 | 1.000 | 1.000 | 0.900 |" in lines


def test_render_report_escapes_a_pipe_in_a_markdown_cell():
    lines = render_report({"a|b": MetricReport(per_key={"HPO": KeyMetrics.from_counts(1, 0, 0)})}).splitlines()
    assert [len(re.split(r"(?<!\\)\|", line)) - 2 for line in lines] == [6, 6, 6]
    assert lines[2] == "| a\\|b | HPO | 1.000 | 1.000 | 1.000 |  |"


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
def test_render_report_writes_a_line_break_in_a_markdown_cell_as_br(brk):
    text = render_report({f"a{brk}b": MetricReport(per_key={"HPO": KeyMetrics.from_counts(1, 0, 0)})})
    assert text.splitlines() == text.split("\n")[:-1]
    lines = text.splitlines()
    assert len(lines) == 3  # header, rule, one row
    assert lines[2] == "| a<br>b | HPO | 1.000 | 1.000 | 1.000 |  |"


def test_render_report_rejects_empty_and_bad_format():
    with pytest.raises(DomainError):
        render_report({}, fmt="csv")
    with pytest.raises(DomainError):
        render_report({"m": MetricReport(per_key={})}, fmt="html")
