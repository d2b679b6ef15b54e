import re

import pytest

from phenokg.cohortstats import (
    compare_to_ontology,
    derive_groups,
    heatmap_csv,
    load_groups,
    phenotype_frequency,
)
from phenokg.errors import DomainError
from phenokg.fixtures import (
    GROUP_SUBTREE_ROOTS,
    dravet_allowed_terms,
    dravet_annotations,
    dravet_groups,
)
from phenokg.kg import PatientNode, PhenotypeAssertion, build_graph, upsert_assertion
from phenokg.ontology import DiseaseAnnotation, FrequencyCategory, TermId


@pytest.fixture(scope="module")
def demo_frequencies(demo_graph, demo_cohort, dravet_ontology):
    return phenotype_frequency(
        demo_graph, demo_cohort, dravet_allowed_terms(), ontology=dravet_ontology
    )


def test_reference_counts_reproduced(demo_frequencies):
    assert demo_frequencies.cohort_size == 38
    assert demo_frequencies.count(TermId("HP:0011172")) == 34
    assert demo_frequencies.count(TermId("HP:0002373")) == 24
    assert demo_frequencies.fraction(TermId("HP:0011172")) == pytest.approx(34 / 38)


def test_unobserved_terms_included_with_zero(demo_frequencies):
    assert demo_frequencies.count(TermId("HP:0100694")) == 0
    assert demo_frequencies.fraction(TermId("HP:0100694")) == 0.0


def test_patient_counts_once_per_term(dravet_ontology):
    graph = build_graph([PatientNode("p1"), PatientNode("p2")])
    term = TermId("HP:0011172")
    for confidence in (0.5, 0.7, 0.9):
        upsert_assertion(graph, PhenotypeAssertion("p1", term, confidence), dravet_ontology)
    freqs = phenotype_frequency(graph, {"p1", "p2"}, {term})
    assert freqs.count(term) == 1
    assert freqs.fraction(term) == 0.5


def test_min_confidence_monotone(dravet_ontology):
    graph = build_graph([PatientNode(f"p{i}") for i in range(4)])
    term = TermId("HP:0011172")
    for i, confidence in enumerate((0.2, 0.5, 0.8, 0.95)):
        upsert_assertion(graph, PhenotypeAssertion(f"p{i}", term, confidence), dravet_ontology)
    cohort = {f"p{i}" for i in range(4)}
    counts = [
        phenotype_frequency(graph, cohort, {term}, min_confidence=t).count(term)
        for t in (0.0, 0.3, 0.6, 0.9, 1.0)
    ]
    assert counts == [4, 3, 2, 1, 0]
    assert counts == sorted(counts, reverse=True)


def test_empty_cohort_is_domain_error(demo_graph):
    with pytest.raises(DomainError):
        phenotype_frequency(demo_graph, set(), {TermId("HP:0011172")})


def test_unknown_cohort_key_rejected(demo_graph):
    with pytest.raises(DomainError, match="NOPE"):
        phenotype_frequency(demo_graph, {"NOPE"}, {TermId("HP:0011172")})


def test_compare_rows_and_deltas(demo_frequencies, dravet_ontology):
    comparisons = compare_to_ontology(demo_frequencies, dravet_annotations(dravet_ontology))
    assert len(comparisons) == 46  # one row per annotation
    by_term = {c.term: c for c in comparisons}

    top = by_term[TermId("HP:0011172")]  # 34/38 observed vs Very frequent expected
    assert top.observed_bin is FrequencyCategory.VERY_FREQUENT
    assert top.expected_bin is FrequencyCategory.VERY_FREQUENT
    assert top.bin_delta == 0

    absent = by_term[TermId("HP:0002345")]  # 0/38 observed vs Occasional expected
    assert absent.observed_bin is FrequencyCategory.ABSENT
    assert absent.bin_delta == -2

    over = by_term[TermId("HP:0002373")]  # 24/38 Frequent vs Occasional expected
    assert over.bin_delta == 1


def test_compare_obligate_delta_zero(dravet_ontology):
    graph = build_graph([PatientNode("p1"), PatientNode("p2")])
    term = TermId("HP:0011172")
    for key in ("p1", "p2"):
        upsert_assertion(graph, PhenotypeAssertion(key, term, 0.9), dravet_ontology)
    freqs = phenotype_frequency(graph, {"p1", "p2"}, {term})
    rows = compare_to_ontology(freqs, [DiseaseAnnotation("D", term, FrequencyCategory.OBLIGATE)])
    assert rows[0].observed_fraction == 1.0
    assert rows[0].bin_delta == 0


def test_compare_missing_term_is_domain_error(demo_frequencies, dravet_ontology):
    stray = DiseaseAnnotation("D", TermId("HP:0000118"), FrequencyCategory.FREQUENT)
    with pytest.raises(DomainError, match="HP:0000118"):
        compare_to_ontology(demo_frequencies, [stray])


def test_heatmap_csv_layout(demo_frequencies, dravet_ontology):
    comparisons = compare_to_ontology(demo_frequencies, dravet_annotations(dravet_ontology))
    grouping = dravet_groups(dravet_ontology)
    text = heatmap_csv(comparisons, grouping, dravet_ontology)
    lines = text.splitlines()
    assert lines[0] == "term,name,group,observed_fraction,observed_bin,expected_bin,bin_delta"
    assert len(lines) == 47
    row = next(l for l in lines if l.startswith("HP:0011172"))
    assert row == "HP:0011172,Complex febrile seizure,nervous system,0.895,Very frequent,Very frequent,0"
    groups = [line.split(",")[2] for line in lines[1:]]
    assert groups == sorted(groups)  # rows sorted by group first
    assert text == heatmap_csv(comparisons, grouping, dravet_ontology)  # byte-identical


def test_heatmap_csv_ungrouped_fallback(demo_frequencies, dravet_ontology):
    comparisons = compare_to_ontology(demo_frequencies, dravet_annotations(dravet_ontology))
    text = heatmap_csv(comparisons[:3], {}, dravet_ontology)
    assert all(line.split(",")[2] == "ungrouped" for line in text.splitlines()[1:])
    with pytest.raises(DomainError):
        heatmap_csv([], {}, dravet_ontology)


def test_derive_groups_uses_ancestry(dravet_ontology):
    groups = dravet_groups(dravet_ontology)
    assert groups[TermId("HP:0002396")] == "nervous system"  # via Rigidity
    assert groups[TermId("HP:0011172")] == "nervous system"  # via Febrile seizure
    assert groups[TermId("HP:0001763")] == "limbs"
    assert groups[TermId("HP:0000729")] == "behavior"
    assert groups[TermId("HP:0002307")] == "head and neck"
    # every demo phenotype term lands in a group
    assert set(dravet_allowed_terms()) <= set(groups)


def test_derive_groups_first_root_wins(dravet_ontology):
    # nervous system listed first captures terms before a redundant catch-all
    ordered = {"HP:0000707": "nervous", "HP:0000118": "everything"}
    groups = derive_groups(dravet_ontology, ordered)
    assert groups[TermId("HP:0011172")] == "nervous"
    assert groups[TermId("HP:0001763")] == "everything"
    with pytest.raises(DomainError):
        derive_groups(dravet_ontology, {"HP:1234567": "nope"})


def test_load_groups_tsv(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("# comment\nHP:0011172\tnervous system\nHP:0001763\tlimbs\n")
    groups = load_groups(path)
    assert groups == {TermId("HP:0011172"): "nervous system", TermId("HP:0001763"): "limbs"}
    bad = tmp_path / "bad.tsv"
    bad.write_text("HP:0011172 nervous\n")
    with pytest.raises(DomainError, match=re.escape(f"{bad} line 1: expected 2 tab-separated columns, got 1")):
        load_groups(bad)
    bad.write_text("# comment\nHP:bad\tnervous\n")
    with pytest.raises(DomainError, match=re.escape(f"{bad} line 2: invalid term id 'HP:bad'")):
        load_groups(bad)


def test_every_fraction_in_unit_interval(demo_frequencies):
    for _, (count, fraction) in demo_frequencies.items():
        assert 0 <= count <= demo_frequencies.cohort_size
        assert 0.0 <= fraction <= 1.0
