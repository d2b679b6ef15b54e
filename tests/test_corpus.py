import pytest

from phenokg.corpus import (
    DEFAULT_LABEL_UNIVERSE,
    Document,
    EntityType,
    SpanAnnotation,
    load_hpo_gold,
    load_multilabel_gold,
    load_span_corpus,
    save_hpo_gold,
    save_multilabel_gold,
    save_span_corpus,
    synthesize_fixture,
    synthesize_multilabel_fixture,
)
from phenokg.errors import CorpusIntegrityError, DomainError
from phenokg.ontology import normalize_label


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_minimal_span_record(tmp_path):
    path = _write(tmp_path, "c.pubtator", "d1|t|aspirin causes nausea\nd1\t0\t7\taspirin\tChemical\tMESH:D001241\n")
    corpus = load_span_corpus(path)
    assert len(corpus) == 1
    doc, annotations = corpus[0]
    assert doc.doc_id == "d1"
    assert len(annotations) == 1
    ann = annotations[0]
    assert (ann.start, ann.end, ann.surface, ann.entity_type) == (0, 7, "aspirin", EntityType.CHEMICAL)
    assert ann.concept_id == "MESH:D001241"


def test_offset_mismatch_is_integrity_error(tmp_path):
    path = _write(tmp_path, "c.pubtator", "d1|t|aspirin causes nausea\nd1\t8\t15\taspirin\tChemical\n")
    with pytest.raises(CorpusIntegrityError, match="d1"):
        load_span_corpus(path)


def test_duplicate_doc_id_rejected(tmp_path):
    path = _write(tmp_path, "c.pubtator", "d1|t|first text\n\nd1|t|second text\n")
    with pytest.raises(CorpusIntegrityError, match="duplicate"):
        load_span_corpus(path)


def test_abstract_offsets_span_title_space_abstract(tmp_path):
    # text is "title xyz abstract!", abstract annotation offsets are global
    path = _write(
        tmp_path,
        "c.pubtator",
        "d9|t|title xyz\nd9|a|abstract!\nd9\t10\t18\tabstract\tDisease\n",
    )
    (doc, annotations), = load_span_corpus(path)
    assert doc.text == "title xyz abstract!"
    assert annotations[0].surface == "abstract"


def test_bad_annotation_lines_rejected(tmp_path):
    path = _write(tmp_path, "c.pubtator", "d1|t|some text here\nd1\t0\tx\tsome\tChemical\n")
    with pytest.raises(CorpusIntegrityError, match="non-integer"):
        load_span_corpus(path)
    path2 = _write(tmp_path, "c2.pubtator", "d1|t|some text here\nd2\t0\t4\tsome\tChemical\n")
    with pytest.raises(CorpusIntegrityError, match="d2"):
        load_span_corpus(path2)


def test_span_corpus_round_trip(tmp_path, synth_docs):
    path = tmp_path / "rt.pubtator"
    save_span_corpus([(d.document, list(d.spans)) for d in synth_docs], path)
    loaded = load_span_corpus(path)
    assert [doc.doc_id for doc, _ in loaded] == [d.document.doc_id for d in synth_docs]
    for (doc, annotations), synth in zip(loaded, synth_docs):
        assert doc.text == synth.document.text
        assert annotations == list(synth.spans)


def test_synthesize_fixture_gold_recoverable_by_scan(dravet_ontology, synth_docs):
    assert len(synth_docs) == 10
    for synth in synth_docs:
        assert len(synth.terms) == 3
        hay = normalize_label(synth.document.text)
        found = {
            term.id for term in dravet_ontology if normalize_label(term.name) in hay
        }
        assert found == set(synth.terms)  # precision = recall = 1.0 under exact scan


def test_synthesize_fixture_spans_check_out(synth_docs):
    for synth in synth_docs:
        for span in synth.spans:
            assert synth.document.text[span.start : span.end] == span.surface
        disease_surfaces = {s.surface for s in synth.spans if s.entity_type is EntityType.DISEASE}
        assert len(disease_surfaces) == 3


def test_synthesize_fixture_deterministic(dravet_ontology):
    a = synthesize_fixture(seed=4, ontology=dravet_ontology, n_docs=5, labels_per_doc=2)
    b = synthesize_fixture(seed=4, ontology=dravet_ontology, n_docs=5, labels_per_doc=2)
    assert [d.document for d in a] == [d.document for d in b]
    assert [d.terms for d in a] == [d.terms for d in b]


def test_synthesize_fixture_errors(dravet_ontology):
    with pytest.raises(DomainError):
        synthesize_fixture(seed=1, ontology=dravet_ontology, n_docs=0, labels_per_doc=1)
    with pytest.raises(DomainError):
        synthesize_fixture(seed=1, ontology=dravet_ontology, n_docs=1, labels_per_doc=99)


def test_hpo_gold_round_trip(tmp_path, dravet_ontology, synth_docs):
    path = tmp_path / "gold.jsonl"
    save_hpo_gold([(d.document, d.terms) for d in synth_docs], path)
    loaded = load_hpo_gold(path, dravet_ontology)
    assert [(doc.doc_id, gold) for doc, gold in loaded] == [
        (d.document.doc_id, d.terms) for d in synth_docs
    ]


def test_hpo_gold_rejects_unknown_terms(tmp_path, dravet_ontology):
    path = _write(tmp_path, "g.jsonl", '{"doc_id": "d1", "text": "t", "hpo_ids": ["HP:9999999"]}\n')
    with pytest.raises(CorpusIntegrityError, match="HP:9999999"):
        load_hpo_gold(path, dravet_ontology)


def test_hpo_gold_holds_one_term_id_object_per_distinct_id(tmp_path, dravet_ontology):
    lines = [
        '{"doc_id": "d1", "text": "t", "hpo_ids": ["HP:0000118", "HP:0000152"]}',
        '{"doc_id": "d2", "text": "t", "hpo_ids": ["HP:0000118"]}',
        '{"doc_id": "d3", "text": "t", "hpo_ids": ["hp:0000118", " HP:0000152"]}',
    ]
    path = _write(tmp_path, "g.jsonl", "\n".join(lines) + "\n")
    for ontology in (None, dravet_ontology):
        terms = [term for _, gold in load_hpo_gold(path, ontology) for term in gold]
        assert sorted(terms) == ["HP:0000118", "HP:0000118", "HP:0000118", "HP:0000152", "HP:0000152"]
        assert len({id(term) for term in terms}) == 2


@pytest.mark.parametrize(
    "hpo_ids, message",
    [
        ("[5]", "term id must be a string, got int"),
        ("[null]", "term id must be a string, got NoneType"),
        ('["HP:0001250", ["HP:0001250"]]', "term id must be a string, got list"),
        ('[{"id": "HP:0001250"}]', "term id must be a string, got dict"),
        ('["HP:0001250", "HP:12"]', r"invalid term id 'HP:12': expected HP: followed by 7 digits"),
        ('["Seizure"]', r"invalid term id 'Seizure'"),
        ("5", "hpo_ids must be an array, got 5"),
        ('"HP:0000118"', 'hpo_ids must be an array, got "HP:0000118"'),
    ],
)
def test_hpo_gold_refuses_a_bad_id_naming_its_line(tmp_path, hpo_ids, message):
    good = '{"doc_id": "d1", "text": "t", "hpo_ids": ["HP:0001250"]}'
    path = _write(tmp_path, "g.jsonl", f'{good}\n\n{{"doc_id": "d2", "text": "t", "hpo_ids": {hpo_ids}}}\n')
    with pytest.raises(CorpusIntegrityError, match=f"{path} line 3: {message}"):
        load_hpo_gold(path)


def test_multilabel_gold_round_trip(tmp_path):
    corpus = synthesize_multilabel_fixture(seed=2, n_docs=4, labels_per_doc=3)
    path = tmp_path / "ml.jsonl"
    save_multilabel_gold(corpus, path)
    assert load_multilabel_gold(path) == corpus


def test_multilabel_rejects_stray_labels(tmp_path):
    path = _write(tmp_path, "ml.jsonl", '{"doc_id": "d1", "text": "t", "labels": ["NOT_A_LABEL"]}\n')
    with pytest.raises(CorpusIntegrityError, match="NOT_A_LABEL"):
        load_multilabel_gold(path)


@pytest.mark.parametrize(
    "labels, message",
    [('"abc"', 'labels must be an array, got "abc"'), ("[5]", "label must be a string, got 5")],
)
def test_multilabel_gold_refuses_a_bad_labels_field_naming_its_line(tmp_path, labels, message):
    good = '{"doc_id": "d1", "text": "t", "labels": ["HEART_FAILURE"]}'
    path = _write(tmp_path, "ml.jsonl", f'{good}\n{{"doc_id": "d2", "text": "t", "labels": {labels}}}\n')
    with pytest.raises(CorpusIntegrityError, match=f"{path} line 2: {message}"):
        load_multilabel_gold(path)


def test_multilabel_universe_must_have_15_names(tmp_path):
    path = _write(tmp_path, "ml.jsonl", '{"doc_id": "d1", "text": "t", "labels": []}\n')
    with pytest.raises(DomainError, match="15"):
        load_multilabel_gold(path, universe=frozenset({"A", "B"}))
    assert len(DEFAULT_LABEL_UNIVERSE) == 15


def test_document_invariants():
    with pytest.raises(DomainError):
        Document("", "text")
    with pytest.raises(DomainError):
        Document("d1", "")
    with pytest.raises(DomainError):
        SpanAnnotation(5, 5, "x", EntityType.CHEMICAL)
