import math
import re

import pytest
from hypothesis import given, strategies as st

from phenokg import fixtures
from phenokg.errors import DomainError, OboParseError, OntologyValidationError
from phenokg.ontology import (
    FrequencyCategory,
    TermId,
    dump_ontology,
    frequency_bin,
    load_annotations,
    load_ontology,
    normalize_label,
    parse_obo,
    resolve_label,
)

# loaded once at import: hypothesis-driven tests cannot take pytest fixtures
_DRAVET = fixtures.dravet_ontology()


def test_load_three_term_fixture(tiny_obo):
    ontology = load_ontology(tiny_obo)
    assert ontology.term_count == 3
    assert "HP:0000002" in ontology
    assert ontology.name_of(TermId("HP:0000003")) == "Second child"


def test_lookup_by_name_returns_term(dravet_ontology):
    assert resolve_label(dravet_ontology, "Complex febrile seizure") == ["HP:0011172"]


def test_dangling_parent_names_orphan():
    text = """\
[Term]
id: HP:0000001
name: Root

[Term]
id: HP:0000002
name: Child
is_a: HP:9999999
"""
    with pytest.raises(OntologyValidationError) as err:
        parse_obo(text)
    assert "HP:9999999" in str(err.value)
    assert "HP:0000002" in str(err.value)


def test_duplicate_id_rejected():
    text = """\
[Term]
id: HP:0000001
name: Root

[Term]
id: HP:0000001
name: Root again
"""
    with pytest.raises(OntologyValidationError, match="duplicate"):
        parse_obo(text)


def test_malformed_stanza_reports_line_number():
    text = "[Term]\nid: HP:0000001\nname: Root\n\n[Term]\nid: not-an-id\nname: Broken\n"
    with pytest.raises(OboParseError) as err:
        parse_obo(text)
    assert err.value.line_no == 6


def test_term_without_name_rejected():
    with pytest.raises(OboParseError, match="missing name"):
        parse_obo("[Term]\nid: HP:0000001\n")


def test_typedef_stanzas_skipped(tiny_obo):
    text = tiny_obo.read_text() + "\n[Typedef]\nid: part_of\nname: part of\n"
    assert parse_obo(text).term_count == 3


def test_header_tags_and_a_typedef_between_terms_are_skipped():
    text = """\
format-version: 1.2
ontology: hp

[Term]
id: HP:0000001
name: Root

[Typedef]
id: part_of
name: part of
is_a: HP:9999999

[Term]
id: HP:0000002
name: Child
is_a: HP:0000001
"""
    ontology = parse_obo(text)
    assert ontology.term_ids() == ["HP:0000001", "HP:0000002"]
    assert (ontology.name_of(TermId("HP:0000001")), ontology[TermId("HP:0000001")].parents) == ("Root", ())
    assert ontology[TermId("HP:0000002")].parents == ("HP:0000001",)


def test_resolve_label_normalizes_case_and_whitespace(dravet_ontology):
    assert resolve_label(dravet_ontology, "CoMpLeX   Febrile Seizure") == ["HP:0011172"]


def test_resolve_label_no_match_is_empty(dravet_ontology):
    assert resolve_label(dravet_ontology, "florgle") == []


def test_resolve_label_uses_synonyms(dravet_ontology):
    assert resolve_label(dravet_ontology, "complicated febrile seizure") == ["HP:0011172"]
    assert resolve_label(dravet_ontology, "flat feet") == ["HP:0001763"]


def test_resolve_label_names_before_synonyms():
    # a synonym of one term colliding with the name of another: name tier first
    text = """\
[Term]
id: HP:0000001
name: Alpha

[Term]
id: HP:0000002
name: Beta
synonym: "Alpha"
"""
    ontology = parse_obo(text)
    assert resolve_label(ontology, "alpha") == ["HP:0000001", "HP:0000002"]


@given(st.sampled_from(["Complex febrile seizure", "Pes planus", "Rigidity", "Anxiety"]))
def test_resolve_label_idempotent_under_normalization(name):
    mangled = "  " + name.upper() + "  "
    assert resolve_label(_DRAVET, mangled) == resolve_label(_DRAVET, normalize_label(mangled))


def test_term_id_canonicalizes_prefix():
    assert TermId("hp:0011172") == "HP:0011172"


@pytest.mark.parametrize("bad", ["HP:123", "HP0011172", "XP:0011172", "HP:00111720", ""])
def test_term_id_rejects_malformed(bad):
    with pytest.raises(DomainError):
        TermId(bad)


def test_frequency_bin_reference_fractions():
    assert frequency_bin(34 / 38) is FrequencyCategory.VERY_FREQUENT
    assert frequency_bin(24 / 38) is FrequencyCategory.FREQUENT


def test_frequency_bin_boundaries():
    assert frequency_bin(0.0) is FrequencyCategory.ABSENT
    assert frequency_bin(1.0) is FrequencyCategory.OBLIGATE
    assert frequency_bin(0.0499) is FrequencyCategory.VERY_RARE
    assert frequency_bin(0.05) is FrequencyCategory.OCCASIONAL
    assert frequency_bin(0.30) is FrequencyCategory.FREQUENT
    assert frequency_bin(0.80) is FrequencyCategory.VERY_FREQUENT
    assert frequency_bin(0.999) is FrequencyCategory.VERY_FREQUENT
    # sub-1% fractions are clamped into Very rare rather than left unmapped
    assert frequency_bin(0.004) is FrequencyCategory.VERY_RARE


@pytest.mark.parametrize("bad", [-0.1, 1.0001, math.nan])
def test_frequency_bin_domain_errors(bad):
    with pytest.raises(DomainError):
        frequency_bin(bad)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_frequency_bin_total_function(fraction):
    assert frequency_bin(fraction) in FrequencyCategory


def test_frequency_labels_round_trip():
    for category in FrequencyCategory:
        assert FrequencyCategory.from_label(category.label) is category
    assert FrequencyCategory.from_label("very_frequent") is FrequencyCategory.VERY_FREQUENT
    assert FrequencyCategory.from_label("VeryFrequent") is FrequencyCategory.VERY_FREQUENT
    with pytest.raises(DomainError):
        FrequencyCategory.from_label("sometimes")


def test_dump_and_reload_round_trip(dravet_ontology):
    reloaded = parse_obo(dump_ontology(dravet_ontology))
    assert reloaded.term_count == dravet_ontology.term_count
    for term in dravet_ontology:
        assert reloaded[term.id] == term
    assert dump_ontology(reloaded) == dump_ontology(dravet_ontology)


def test_ancestors_closure(dravet_ontology):
    # Cogwheel rigidity -> Rigidity -> nervous system -> phenotypic abnormality -> All
    ancestors = dravet_ontology.ancestors(TermId("HP:0002396"))
    assert TermId("HP:0002063") in ancestors
    assert TermId("HP:0000707") in ancestors
    assert TermId("HP:0000001") in ancestors


def test_load_annotations_demo_file(dravet_ontology):
    annotations = fixtures.dravet_annotations(dravet_ontology)
    assert len(annotations) == 46
    by_term = {a.phenotype: a.expected for a in annotations}
    assert by_term[TermId("HP:0011172")] is FrequencyCategory.VERY_FREQUENT
    assert by_term[TermId("HP:0002345")] is FrequencyCategory.OCCASIONAL


def test_load_annotations_rejects_unknown_term(tmp_path, dravet_ontology):
    path = tmp_path / "ann.tsv"
    path.write_text("D1\tHP:9999999\tFrequent\n")
    message = f"{path} line 1: phenotype HP:9999999 not in ontology"
    with pytest.raises(OntologyValidationError, match=re.escape(message)):
        load_annotations(path, dravet_ontology)


def test_load_annotations_rejects_bad_label(tmp_path, dravet_ontology):
    path = tmp_path / "ann.tsv"
    path.write_text("D1\tHP:0011172\toften\n")
    with pytest.raises(DomainError, match=re.escape(f"{path} line 1: unknown frequency category label 'often'")):
        load_annotations(path, dravet_ontology)


def test_load_annotations_rejects_a_short_row(tmp_path, dravet_ontology):
    path = tmp_path / "ann.tsv"
    path.write_text("D1\tHP:0011172\tFrequent\nD1\tHP:0011172\n")
    with pytest.raises(DomainError, match=re.escape(f"{path} line 2: expected 3 tab-separated columns, got 2")):
        load_annotations(path, dravet_ontology)
