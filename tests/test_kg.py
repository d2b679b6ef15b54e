import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from phenokg import kg
from phenokg.errors import DomainError, GraphIntegrityError
from phenokg.fixtures import DRAVET_ICD10_CODES, build_demo_graph
from phenokg.kg import (
    Demographics,
    Graph,
    NoteKind,
    NoteNode,
    PatientNode,
    PhenotypeAssertion,
    _normalize_codes,
    build_graph,
    cohort_by_icd,
    expand_icd_prefix,
    ingest_patients,
    keyword_search,
    load_graph,
    patient_record,
    save_graph,
    upsert_assertion,
)
from phenokg.ontology import TermId


def _small_graph():
    return build_graph(
        [
            PatientNode("p1", icd10=frozenset({"G40.83"})),
            PatientNode("p2", icd10=frozenset({"G40.833", "G40.834"})),
            PatientNode("p3", icd10=frozenset({"E66.9"})),
            NoteNode("n1", "p1", "Prolonged febrile seizures noted."),
            NoteNode("n2", "p3", "Workup mentions BPAN differential.", NoteKind.HISTORY),
        ]
    )


def test_demo_fixture_has_38_patient_cohort(demo_graph):
    cohort = cohort_by_icd(demo_graph, DRAVET_ICD10_CODES, mode="any")
    assert len(cohort) == 38
    assert demo_graph.patient_count == 100


def test_empty_stream_builds_empty_graph():
    graph = build_graph([])
    assert graph.counts() == {"patients": 0, "notes": 0, "assertions": 0}


def test_note_with_unknown_patient_names_note_id():
    with pytest.raises(GraphIntegrityError, match="n9"):
        build_graph([NoteNode("n9", "ghost", "text")])


def test_duplicate_patient_key_rejected():
    with pytest.raises(GraphIntegrityError, match="duplicate"):
        build_graph([PatientNode("p1"), PatientNode("p1")])


def test_codes_normalized_and_validated():
    node = PatientNode("p", icd10=frozenset({" g40.83 "}))
    assert node.icd10 == {"G40.83"}
    with pytest.raises(DomainError):
        PatientNode("p", icd10=frozenset({"G40 83"}))
    with pytest.raises(DomainError):
        PatientNode("p", icd10=frozenset({"  "}))


# a code as ingest may spell it: either case, padded with whitespace
RAW_CODES = st.builds(
    lambda code, lower, pad: pad + (code.lower() if lower else code) + pad,
    st.text(alphabet="CEG0138.", min_size=1, max_size=6),
    st.booleans(),
    st.sampled_from(["", " ", "\t"]),
)


@given(st.lists(RAW_CODES, max_size=6), st.lists(RAW_CODES, max_size=3))
def test_patient_codes_equal_the_uncached_normalizer_and_share_one_set(icd10, cpt):
    icd10 = icd10 + [code.swapcase() for code in icd10[:2]]  # duplicates that differ only by case
    node = PatientNode("p", icd10=icd10, cpt=frozenset(cpt), rxnorm=tuple(cpt))
    assert node.icd10 == _normalize_codes(icd10)
    assert node.cpt == node.rxnorm == _normalize_codes(cpt)
    assert node.cpt is node.rxnorm
    assert PatientNode("q", icd10=list(reversed(icd10))).icd10 is node.icd10


@given(RAW_CODES, st.sampled_from(["", "  ", "G40 83", "e66\t9"]))
def test_an_invalid_code_raises_on_every_construction(good, bad):
    for _ in range(2):
        with pytest.raises(DomainError):
            PatientNode("p", icd10=[good, bad])


def test_loading_shared_code_sets_normalizes_each_distinct_raw_code_once(tmp_path, monkeypatch):
    code_sets = [[" g40.83", "E66.9"], ["G40.833"], ["f80.1 ", "q93.5"]]
    path = tmp_path / "graph.jsonl"
    path.write_text(
        "".join(
            json.dumps({"kind": "patient", "key": f"p{i}", "icd10": code_sets[i % 3], "cpt": ["99213"]}) + "\n"
            for i in range(1000)
        ),
        encoding="utf-8",
    )
    calls = []
    normalize_code = kg._normalize_code
    monkeypatch.setattr(kg, "_normalize_code", lambda code: calls.append(code) or normalize_code(code))
    kg._normalized_code_set.cache_clear()
    graph = load_graph(path)
    assert graph.patient_count == 1000 and graph.patient("p2").icd10 == {"F80.1", "Q93.5"}
    assert len(calls) <= len({code for codes in code_sets for code in codes} | {"99213"})


def test_cohort_by_icd_modes():
    graph = _small_graph()
    assert cohort_by_icd(graph, {"G40.83", "G40.833", "G40.834"}, mode="any") == {"p1", "p2"}
    assert cohort_by_icd(graph, {"g40.833", "g40.834"}, mode="all") == {"p2"}
    assert cohort_by_icd(graph, {"Z99.9"}) == set()
    with pytest.raises(DomainError):
        cohort_by_icd(graph, set())
    with pytest.raises(DomainError):
        cohort_by_icd(graph, {"G40.83"}, mode="either")


def test_cohort_by_icd_any_is_monotone_in_codes(demo_graph):
    partial = cohort_by_icd(demo_graph, {"G40.83"}, mode="any")
    fuller = cohort_by_icd(demo_graph, {"G40.83", "G40.833"}, mode="any")
    full = cohort_by_icd(demo_graph, DRAVET_ICD10_CODES, mode="any")
    assert partial <= fuller <= full


def test_exactly_one_patient_holds_both_codes(demo_graph):
    assert len(cohort_by_icd(demo_graph, {"G40.833", "G40.834"}, mode="all")) == 1


def test_no_prefix_expansion_in_cohort_query():
    graph = build_graph([PatientNode("p1", icd10=frozenset({"G40.833"}))])
    assert cohort_by_icd(graph, {"G40.83"}, mode="any") == set()
    assert expand_icd_prefix(graph, "G40.83") == {"G40.833"}


def test_keyword_search_two_bpan_patients(demo_graph):
    hits = keyword_search(demo_graph, "BPAN")
    patients = {p for p, _ in hits}
    assert len(patients) == 2
    assert keyword_search(demo_graph, "bpan") == hits  # case folding
    assert keyword_search(demo_graph, "zebra-phrase") == []
    with pytest.raises(DomainError):
        keyword_search(demo_graph, "")


def test_keyword_search_deterministic_ordering():
    graph = _small_graph()
    hits = keyword_search(graph, "e")
    assert hits == sorted(hits)


def test_upsert_assertion_idempotent(dravet_ontology):
    graph = _small_graph()
    assertion = PhenotypeAssertion("p1", TermId("HP:0011172"), 0.9, "seen", source_note="n1")
    assert upsert_assertion(graph, assertion, dravet_ontology) is True
    assert graph.assertion_count == 1
    assert upsert_assertion(graph, assertion, dravet_ontology) is False
    assert graph.assertion_count == 1
    # a different confidence is a distinct edge (frequency counting dedups)
    other = PhenotypeAssertion("p1", TermId("HP:0011172"), 0.7, "seen", source_note="n1")
    assert upsert_assertion(graph, other, dravet_ontology) is True
    assert graph.assertion_count == 2


def test_upsert_assertion_integrity_checks(dravet_ontology):
    graph = _small_graph()
    with pytest.raises(GraphIntegrityError, match="ghost"):
        upsert_assertion(graph, PhenotypeAssertion("ghost", TermId("HP:0011172"), 0.9), dravet_ontology)
    with pytest.raises(GraphIntegrityError, match="HP:9999999"):
        upsert_assertion(graph, PhenotypeAssertion("p1", TermId("HP:9999999"), 0.9), dravet_ontology)
    with pytest.raises(GraphIntegrityError, match="n404"):
        upsert_assertion(
            graph,
            PhenotypeAssertion("p1", TermId("HP:0011172"), 0.9, source_note="n404"),
            dravet_ontology,
        )


def test_save_load_round_trip(tmp_path, demo_graph, dravet_ontology):
    path = tmp_path / "graph.jsonl"
    save_graph(demo_graph, path)
    loaded = load_graph(path, dravet_ontology)
    assert loaded == demo_graph
    # byte-stable persistence
    path2 = tmp_path / "graph2.jsonl"
    save_graph(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


CORRUPTED_RECORDS = [
    ("unknown kind", {"kind": "mystery"}),
    ("note missing patient", {"kind": "note", "note_id": "n1", "patient": "ghost", "text": "t"}),
    (
        "assertion unknown patient",
        {"kind": "assertion", "patient": "ghost", "term": "HP:0011172", "confidence": 0.5},
    ),
    (
        "assertion bad term",
        {"kind": "assertion", "patient": "p1", "term": "HP:123", "confidence": 0.5},
    ),
    (
        "assertion confidence out of range",
        {"kind": "assertion", "patient": "p1", "term": "HP:0011172", "confidence": 1.5},
    ),
    ("patient missing key", {"kind": "patient"}),
    ("note bad kind", {"kind": "note", "note_id": "n1", "patient": "p1", "text": "t", "note_kind": "poem"}),
]


@pytest.mark.parametrize("label,record", CORRUPTED_RECORDS, ids=[c[0] for c in CORRUPTED_RECORDS])
def test_corrupted_files_rejected_with_named_errors(tmp_path, dravet_ontology, label, record):
    path = tmp_path / "bad.jsonl"
    lines = [json.dumps({"kind": "patient", "key": "p1"}), json.dumps(record)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphIntegrityError):
        load_graph(path, dravet_ontology)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "patient", "key": "p1"\n')
    with pytest.raises(GraphIntegrityError, match="line 1"):
        load_graph(path)


def test_assertion_term_revalidated_at_load(tmp_path, dravet_ontology):
    # term is well-formed but absent from the ontology: load must reject it
    path = tmp_path / "g.jsonl"
    records = [
        {"kind": "patient", "key": "p1"},
        {"kind": "assertion", "patient": "p1", "term": "HP:7777777", "confidence": 0.5},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    with pytest.raises(GraphIntegrityError, match="HP:7777777"):
        load_graph(path, dravet_ontology)
    # without an ontology the same file loads (format-level checks only)
    assert load_graph(path).assertion_count == 1


@st.composite
def ingest_records(draw):
    """Patient, note and assertion ingest records in any order, with raw codes and ``hp:`` term ids."""
    texts = st.text(max_size=12)
    keys = draw(st.lists(st.text(alphabet="pq01", min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    records = [
        {
            "kind": "patient",
            "key": key,
            "demographics": {
                "age_years": draw(st.none() | st.integers(0, 99)),
                "race": draw(st.none() | texts),
                "state": draw(st.none() | st.sampled_from(["PA", "NY"])),
                "zip": None,
            },
            "icd10": draw(st.lists(RAW_CODES, max_size=3)),
            "cpt": draw(st.lists(RAW_CODES, max_size=2)),
            "rxnorm": draw(st.lists(RAW_CODES, max_size=1)),
        }
        for key in keys
    ]
    note_patients = draw(st.lists(st.sampled_from(keys), max_size=3))
    for i, key in enumerate(note_patients):
        kind = draw(st.sampled_from([k.value for k in NoteKind]))
        records.append({"kind": "note", "note_id": f"n{i}", "patient": key, "text": draw(texts), "note_kind": kind})
    for _ in range(draw(st.integers(0, 6))):
        records.append({
            "kind": "assertion",
            "patient": draw(st.sampled_from(keys)),
            "term": f"hp:{draw(st.integers(0, 9_999_999)):07d}",
            "confidence": draw(st.floats(0, 1)),
            "reasoning": draw(texts),
            "source_note": draw(st.none() | st.sampled_from([f"n{i}" for i in range(len(note_patients))] or [None])),
            "extractor_version": draw(st.sampled_from(["", "v1"])),
        })
    return draw(st.permutations(records))


@given(ingest_records())
def test_save_load_save_round_trips_ingested_graphs_byte_identically(records):
    with tempfile.TemporaryDirectory() as tmp:
        ingest, first, second = (Path(tmp) / name for name in ("records.jsonl", "first.jsonl", "second.jsonl"))
        ingest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        graph = build_graph(ingest_patients(ingest))
        save_graph(graph, first)
        loaded = load_graph(first)
        save_graph(loaded, second)
        assert loaded == graph
        assert first.read_bytes() == second.read_bytes()
    assert all(a.term.startswith("HP:") for a in loaded.assertions())


def test_patient_record_render_is_deterministic(demo_graph):
    key = demo_graph.patient_keys()[0]
    record = patient_record(demo_graph, key)
    assert record.render() == patient_record(demo_graph, key).render()
    assert f"Patient key: {key}" in record.render()
    assert "ICD-10 codes:" in record.render()


def test_graph_equality_is_deep():
    a, b = _small_graph(), _small_graph()
    assert a == b
    upsert_assertion(b, PhenotypeAssertion("p1", TermId("HP:0011172"), 0.9))
    assert a != b


def test_note_kinds_cover_multimodal_sources():
    graph = build_graph(
        [
            PatientNode("p1"),
            NoteNode("n1", "p1", "extracted text of a genetics PDF", NoteKind.GENETICS_REPORT),
            NoteNode("n2", "p1", "visit purpose: follow-up", NoteKind.VISIT_PURPOSE),
        ]
    )
    kinds = {note.kind for note in graph.notes_for("p1")}
    assert kinds == {NoteKind.GENETICS_REPORT, NoteKind.VISIT_PURPOSE}
