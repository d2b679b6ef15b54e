import json
import re
import tempfile
import threading
import time
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


def test_records_may_come_before_their_patients():
    records = [
        PhenotypeAssertion("p1", TermId("HP:0011172"), 0.9, source_note="n1"),
        NoteNode("n1", "p1", "Prolonged febrile seizures noted."),
        NoteNode("n2", "p2", "Follow-up."),
        PatientNode("p2"),
        PatientNode("p1", icd10=frozenset({"G40.83"})),
    ]
    graph = build_graph(records)
    assert graph == build_graph(records[::-1])
    assert graph.counts() == {"patients": 2, "notes": 2, "assertions": 1}
    assert [note.note_id for note in graph.notes_for("p1")] == ["n1"]


def test_notes_for_lists_notes_added_out_of_id_order_by_id_before_and_after_a_round_trip(tmp_path):
    graph = Graph()
    graph.add_patient(PatientNode("p1"))
    graph.add_patient(PatientNode("p2"))
    for note_id, patient in [("n3", "p1"), ("n1", "p2"), ("n4", "p1"), ("n2", "p1"), ("n0", "p1")]:
        graph.add_note(NoteNode(note_id, patient, f"note {note_id}"))
    save_graph(graph, tmp_path / "graph.jsonl")
    for loaded in (graph, load_graph(tmp_path / "graph.jsonl")):
        assert [note.note_id for note in loaded.notes_for("p1")] == ["n0", "n2", "n3", "n4"]
        assert [note.text for note in loaded.notes_for("p2")] == ["note n1"]
        assert loaded.notes_for("p3") == ()


@pytest.mark.parametrize(
    "records,message",
    [
        # patients are added before any note, notes before any assertion, each kind in stream order
        ([NoteNode("n1", "ghost", "t"), PatientNode("p1"), PatientNode("p1")], "duplicate patient key p1"),
        (
            [PhenotypeAssertion("ghost", TermId("HP:0011172"), 0.9), NoteNode("n1", "ghost", "t"), PatientNode("p1")],
            "note n1 references unknown patient ghost",
        ),
        ([PatientNode("p1"), NoteNode("n2", "gone", "t"), NoteNode("n1", "ghost", "t")], "note n2 references"),
        (
            [PhenotypeAssertion("p1", TermId("HP:0011172"), 0.9, source_note="n9"), PatientNode("p1")],
            "assertion references unknown note n9",
        ),
    ],
    ids=["duplicate patient", "dangling note", "first dangling note", "dangling source note"],
)
def test_the_first_integrity_error_follows_kind_order_then_stream_order(records, message):
    with pytest.raises(GraphIntegrityError, match=message):
        build_graph(records)


def test_an_object_that_is_not_a_graph_record_is_refused():
    with pytest.raises(TypeError, match="not a graph record: 'p2'"):
        build_graph([PatientNode("p1"), "p2"])


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
        graph = load_graph(ingest)
        save_graph(graph, first)
        loaded = load_graph(first)
        save_graph(loaded, second)
        assert loaded == graph
        assert first.read_bytes() == second.read_bytes()
    assert all(a.term.startswith("HP:") for a in loaded.assertions())


def test_patient_record_render_is_deterministic(demo_graph):
    key = demo_graph.patient_keys()[0]
    record = patient_record(demo_graph, key)
    assert record == patient_record(demo_graph, key) and record.doc_id == key
    assert f"Patient key: {key}" in record.text
    assert "ICD-10 codes:" in record.text


def test_graph_equality_is_deep():
    a, b = _small_graph(), _small_graph()
    assert a == b
    upsert_assertion(b, PhenotypeAssertion("p1", TermId("HP:0011172"), 0.9))
    assert a != b


def test_graph_equality_ignores_insertion_order_and_sees_one_differing_assertion():
    assertions = [PhenotypeAssertion(f"p{i % 3 + 1}", TermId(f"HP:{i:07d}"), 0.5) for i in range(50)]
    forward, backward, changed = _small_graph(), _small_graph(), _small_graph()
    for assertion in assertions:
        upsert_assertion(forward, assertion)
    for assertion in reversed(assertions):
        upsert_assertion(backward, assertion)
    for assertion in assertions[:-1] + [PhenotypeAssertion("p3", TermId("HP:0000049"), 0.6)]:
        upsert_assertion(changed, assertion)
    assert forward == backward
    assert changed.assertion_count == forward.assertion_count and changed != forward


def _write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _shared_graph_records():
    """Patients with notes and assertions, every identifier spelled afresh on each line it appears in."""
    records = []
    for i in range(20):
        key = f"pat-{i:03d}"
        records.append({"kind": "patient", "key": key, "demographics": {"race": "white", "state": "PA", "zip": "19104"}})
        records.append({"kind": "note", "note_id": f"{key}-n1", "patient": key, "text": f"note of {key}"})
        for j in range(3):
            records.append({
                "kind": "assertion", "patient": key, "term": f"HP:{j + 1:07d}", "confidence": 0.5,
                "reasoning": "seen in the note", "source_note": f"{key}-n1", "extractor_version": "v1",
            })
    return records


def _identifiers(graph):
    """Every identifier object of a graph: keys, demographics, note ids and references, terms, versions."""
    for key in graph.patient_keys():
        node = graph.patient(key)
        yield from (node.key, node.demographics.race, node.demographics.state, node.demographics.zip)
    for note in graph.iter_notes():
        yield from (note.note_id, note.patient)
    for a in graph.assertions():
        yield from (a.patient, a.term, a.source_note, a.extractor_version)


def test_a_loaded_graph_holds_one_object_per_distinct_identifier(tmp_path):
    path = tmp_path / "graph.jsonl"
    _write_lines(path, _shared_graph_records())
    graph = load_graph(path)
    notes = {note.note_id: note for note in graph.iter_notes()}
    for note in notes.values():
        assert note.patient is graph.patient(note.patient).key
    for a in graph.assertions():
        assert a.patient is graph.patient(a.patient).key
        assert a.source_note is notes[a.source_note].note_id
    identifiers = list(_identifiers(graph))
    assert len({id(value) for value in identifiers}) == len(set(identifiers))


def test_notes_and_assertions_listed_first_share_their_patients_key(tmp_path):
    path = tmp_path / "graph.jsonl"
    _write_lines(path, _shared_graph_records()[::-1])
    graph = load_graph(path)
    for a in graph.assertions():
        assert a.patient is graph.patient(a.patient).key
        assert a.source_note is graph.notes_for(a.patient)[0].note_id


def test_a_thousand_distinct_term_ids_load_as_a_thousand_objects(tmp_path):
    # each id comes back after 999 others, past the reach of a small cache
    path = tmp_path / "graph.jsonl"
    _write_lines(path, [{"kind": "patient", "key": "p1"}] + [
        {"kind": "assertion", "patient": "p1", "term": f"hp:{i % 1000:07d}", "confidence": i / 3000}
        for i in range(3000)
    ])
    terms = [a.term for a in load_graph(path).assertions()]
    assert len(terms) == 3000 and all(type(term) is TermId for term in terms)
    assert len({id(term) for term in terms}) == len(set(terms)) == 1000


def test_two_loads_of_one_file_share_no_identifier_object(tmp_path):
    path = tmp_path / "graph.jsonl"
    _write_lines(path, _shared_graph_records())
    first, second = load_graph(path), load_graph(path)
    assert first == second
    assert not {id(value) for value in _identifiers(first)} & {id(value) for value in _identifiers(second)}


def test_a_loaded_graph_holds_one_demographics_and_one_confidence_per_distinct_value(tmp_path):
    path = tmp_path / "graph.jsonl"
    records = [{"kind": "patient", "key": "p-none"}]
    for i in range(30):
        key = f"p{i:02d}"
        records.append({"kind": "patient", "key": key, "demographics": {"age_years": i % 3, "state": ["PA", "NJ"][i % 2]}})
        records += [{"kind": "assertion", "patient": key, "term": "HP:0011172", "confidence": c} for c in (0.25, 0.5, 1)]
    _write_lines(path, records)
    graph = load_graph(path)
    demographics = [graph.patient(key).demographics for key in graph.patient_keys()]
    assert len({id(demo) for demo in demographics}) == len(set(demographics)) == 7
    confidences = [a.confidence for a in graph.assertions()]
    assert len({id(c) for c in confidences}) == len(set(confidences)) == 3


def test_zero_and_negative_zero_confidences_save_back_byte_for_byte(tmp_path):
    path, again = tmp_path / "graph.jsonl", tmp_path / "again.jsonl"
    graph = build_graph(
        [
            PatientNode("p1"),
            PatientNode("p2"),
            PhenotypeAssertion("p1", TermId("HP:0011172"), 0.0),
            PhenotypeAssertion("p2", TermId("HP:0011172"), -0.0),
        ]
    )
    save_graph(graph, path)
    save_graph(load_graph(path), again)
    assert again.read_bytes() == path.read_bytes()
    assert b'"confidence": 0.0' in path.read_bytes() and b'"confidence": -0.0' in path.read_bytes()


def test_notes_for_stays_right_after_an_add_note_that_follows_a_read(tmp_path):
    graph = _small_graph()
    save_graph(graph, tmp_path / "graph.jsonl")
    loaded = load_graph(tmp_path / "graph.jsonl")
    assert loaded._notes_by_patient is None  # a graph that is only loaded holds no notes index
    for g in (graph, loaded):
        assert [note.note_id for note in g.notes_for("p1")] == ["n1"]
        g.add_note(NoteNode("n0", "p1", "Earlier note."))
        g.add_note(NoteNode("n3", "p2", "First note of p2."))
        assert [note.note_id for note in g.notes_for("p1")] == ["n0", "n1"]
        assert [note.note_id for note in g.notes_for("p2")] == ["n3"]
        assert [note.note_id for note in g.notes_for("p3")] == ["n2"]


@pytest.mark.parametrize("new_id", ["n0", "n4", "n9"])  # before, between (from 3 notes on) or after the others
@pytest.mark.parametrize("read_first", [False, True])
@pytest.mark.parametrize("n_notes", [0, 1, 2, 3])
def test_notes_for_lists_a_patients_notes_by_id_around_an_add_note(n_notes, read_first, new_id):
    graph = Graph()
    for key in ("p1", "p2"):
        graph.add_patient(PatientNode(key))
    for note_id in ["n5", "n1", "n3"][:n_notes]:
        graph.add_note(NoteNode(note_id, "p1", f"note {note_id}"))
    graph.add_note(NoteNode("n2", "p2", "note n2"))
    before = sorted(["n5", "n1", "n3"][:n_notes])
    if read_first:
        first = graph.notes_for("p1")
        assert [note.note_id for note in first] == before
        assert graph.notes_for("p1") is first  # the index's own tuple, which no caller can change
    graph.add_note(NoteNode(new_id, "p1", f"note {new_id}"))
    after = graph.notes_for("p1")
    assert [note.note_id for note in after] == sorted([*before, new_id])
    assert [note.text for note in after] == [f"note {n}" for n in sorted([*before, new_id])]
    assert graph.notes_for("p1") is after and len(after) == n_notes + 1
    assert [note.note_id for note in graph.notes_for("p2")] == ["n2"]
    assert graph.notes_for("p3") == ()
    # the index holds every patient's notes as a tuple of the graph's own nodes
    held = graph._notes_by_patient
    assert held["p2"] == (graph._notes["n2"],) and held["p2"][0] is graph._notes["n2"]
    assert isinstance(held["p1"], tuple)


@pytest.mark.threads
def test_concurrent_first_notes_for_calls_each_get_the_right_notes():
    # 20 notes for each of p000-p799, one for each of p800-p899, none for p900-p999
    keys = [f"p{i:03d}" for i in range(1000)]
    notes = [NoteNode(f"n{j:05d}", keys[j * 7 % 800], f"note {j}") for j in range(16000)]
    notes += [NoteNode(f"m{j:03d}", keys[800 + j], f"note m{j}") for j in range(100)]
    expected = {key: [] for key in keys}
    for note in notes:
        expected[note.patient].append(note.note_id)
    graph = build_graph([*(PatientNode(key) for key in keys), *notes[::-1]])  # notes added in descending id order
    start = threading.Barrier(8)
    seen = []

    def read(w):
        start.wait()
        time.sleep(w / 5000)  # so that most threads make their first read while another builds the index
        order = keys[100 * w:] + keys[:100 * w]
        seen.append({key: [note.note_id for note in graph.notes_for(key)] for key in order})

    workers = [threading.Thread(target=read, args=(w,)) for w in range(8)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert len(seen) == 8 and all(result == expected for result in seen)


def test_record_to_node_takes_one_record():
    record = {"kind": "assertion", "patient": "p1", "term": "hp:0011172", "confidence": 0.5, "source_note": "n1"}
    assert kg.record_to_node(record) == PhenotypeAssertion("p1", TermId("HP:0011172"), 0.5, source_note="n1")
    assert kg.record_to_node({"kind": "patient", "key": "p1"}) == PatientNode("p1")


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


# The exact text of each error, line number included, as expect_type, expect_number and NoteKind word it.
NOTE = {"kind": "note", "note_id": "n1", "patient": "p1", "text": "t"}
ASSERTION = {"kind": "assertion", "patient": "p1", "term": "HP:0011172", "confidence": 0.5}
READER_ERRORS = [
    ("note_kind unknown", {**NOTE, "note_kind": "poem"}, "'poem' is not a valid NoteKind"),
    ("note_kind a list", {**NOTE, "note_kind": ["history"]}, "['history'] is not a valid NoteKind"),
    ("note_kind null", {**NOTE, "note_kind": None}, "None is not a valid NoteKind"),
    ("demographics a list", {"kind": "patient", "key": "p2", "demographics": [1]},
     "demographics must be an object, got [1]"),
    ("demographics zero", {"kind": "patient", "key": "p2", "demographics": 0}, "demographics must be an object, got 0"),
    ("demographics empty string", {"kind": "patient", "key": "p2", "demographics": ""},
     'demographics must be an object, got ""'),
    ("demographics empty list", {"kind": "patient", "key": "p2", "demographics": []},
     "demographics must be an object, got []"),
    ("demographics false", {"kind": "patient", "key": "p2", "demographics": False},
     "demographics must be an object, got false"),
    ("demographics null", {"kind": "patient", "key": "p2", "demographics": None},
     "demographics must be an object, got null"),
    ("age_years a bool", {"kind": "patient", "key": "p2", "demographics": {"age_years": True}},
     "age_years must be an integer, got true"),
    ("term a number", {**ASSERTION, "term": 5}, "term must be a string, got 5"),
    ("source_note a number", {**ASSERTION, "source_note": 7}, "source_note must be a string, got 7"),
    ("confidence a string", {**ASSERTION, "confidence": "0.9"}, 'confidence must be a number, got "0.9"'),
    ("confidence a bool", {**ASSERTION, "confidence": True}, "confidence must be a number, got true"),
    ("kind a list", {"kind": ["patient"], "key": "p2"}, "unknown record kind ['patient']"),
]


@pytest.mark.parametrize("label,record,message", READER_ERRORS, ids=[case[0] for case in READER_ERRORS])
def test_reader_errors_name_the_line_and_the_field(tmp_path, label, record, message):
    path = tmp_path / "graph.jsonl"
    path.write_text(json.dumps({"kind": "patient", "key": "p1"}) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(GraphIntegrityError) as err:
        load_graph(path)
    assert str(err.value) == f"{path} line 2: {message}"


def _records(graph):
    """The record each saved line stands for, in file order."""
    for key in graph.patient_keys():
        node, demo = graph.patient(key), graph.patient(key).demographics
        yield {
            "kind": "patient",
            "key": node.key,
            "demographics": {"age_years": demo.age_years, "race": demo.race, "state": demo.state, "zip": demo.zip},
            "icd10": sorted(node.icd10),
            "cpt": sorted(node.cpt),
            "rxnorm": sorted(node.rxnorm),
        }
    for note in graph.iter_notes():
        yield {"kind": "note", "note_id": note.note_id, "patient": note.patient, "text": note.text, "note_kind": note.kind.value}
    for a in sorted(graph.assertions(), key=lambda a: (a.patient, a.term, a.confidence, a.source_note or "")):
        yield {
            "kind": "assertion",
            "patient": a.patient,
            "term": a.term,
            "confidence": a.confidence,
            "reasoning": a.reasoning,
            "source_note": a.source_note,
            "extractor_version": a.extractor_version,
        }


# text JSON must escape: quotes, backslashes, control characters, non-BMP characters and surrogates
# (a high surrogate followed by a low one is written as two escapes, which JSON reads back as one
# character, so save_graph refuses such a string)
TEXT = st.text(
    st.characters() | st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", " ", "\U0001f9ec", "\ud800", "\udfff"]),
    max_size=8,
)
SURROGATE_PAIR = re.compile(r"[\ud800-\udbff][\udc00-\udfff]")
CODE = st.text(st.characters(exclude_categories=["Cs"]) | st.sampled_from(['"', "\\"]), min_size=1, max_size=4).filter(
    lambda code: not any(ch.isspace() for ch in code)
)
CONFIDENCE = st.sampled_from([0, 1, 0.0, 1.0, 5e-324, 0.1 + 0.2]) | st.floats(0, 1)


@st.composite
def graphs(draw):
    keys = draw(st.lists(TEXT.filter(bool), min_size=1, max_size=4, unique=True))
    nodes = [
        PatientNode(
            key,
            Demographics(
                draw(st.none() | st.just(0) | st.integers(0, 2**100)),
                draw(st.none() | TEXT),
                draw(st.none() | TEXT),
                draw(st.none() | TEXT),
            ),
            *(draw(st.frozensets(CODE, max_size=3)) for _ in range(3)),
        )
        for key in keys
    ]
    note_ids = draw(st.lists(TEXT.filter(bool), max_size=4, unique=True))
    nodes += [NoteNode(i, draw(st.sampled_from(keys)), draw(TEXT), draw(st.sampled_from(NoteKind))) for i in note_ids]
    for _ in range(draw(st.integers(0, 5))):
        nodes.append(PhenotypeAssertion(
            draw(st.sampled_from(keys)),
            TermId(f"HP:{draw(st.integers(0, 9_999_999)):07d}"),
            draw(CONFIDENCE),
            draw(TEXT),
            draw(st.none() | st.sampled_from(note_ids or [None])),
            draw(TEXT),
        ))
    return build_graph(nodes)


@given(graphs())
def test_each_saved_line_is_json_dumps_of_its_record(graph):
    records = list(_records(graph))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.jsonl"
        path.write_text("old\n", encoding="utf-8")
        # JSON text between two strings holds a quote, so a pair found here lies inside one string
        if SURROGATE_PAIR.search(json.dumps(records, ensure_ascii=False)):
            with pytest.raises(DomainError, match="high surrogate directly followed by a low one"):
                save_graph(graph, path)
            assert path.read_text(encoding="utf-8") == "old\n" and len(list(Path(tmp).iterdir())) == 1
            return
        save_graph(graph, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines == [json.dumps(record, sort_keys=True) for record in records] + [""]
        assert load_graph(path) == graph


@pytest.mark.parametrize(
    "graph,named",
    [
        (build_graph([PatientNode("p\ud800\udfff")]), "PatientNode(key='p\\ud800\\udfff'"),
        (build_graph([PatientNode("p1"), NoteNode("n1", "p1", "\udbff\udc00")]), "NoteNode(note_id='n1'"),
        (build_graph([PatientNode("p1", Demographics(race="\ud83d\ude00"))]), "PatientNode(key='p1'"),
        (build_graph([PatientNode("p1", icd10=frozenset({"A\ud800\udc00"}))]), "PatientNode(key='p1'"),
        (
            build_graph([PatientNode("p1"), PhenotypeAssertion("p1", TermId("HP:0011172"), 0.5, "\ud800\udfff")]),
            "PhenotypeAssertion(patient='p1', term='HP:0011172'",
        ),
    ],
    ids=["patient key", "note text", "demographics", "code", "reasoning"],
)
def test_a_surrogate_pair_is_refused_at_save_and_the_old_file_kept(tmp_path, graph, named):
    _assert_save_refused(tmp_path, graph, named)


def _assert_save_refused(tmp_path, graph, named):
    path = tmp_path / "graph.jsonl"
    save_graph(_small_graph(), path)
    before = path.read_bytes()
    with pytest.raises(DomainError, match="cannot save " + re.escape(named)):
        save_graph(graph, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["graph.jsonl"]


def test_non_bmp_characters_and_lone_or_escaped_surrogates_still_round_trip(tmp_path):
    texts = ["\U0001f9ec", "\ud800", "\udfff x \ud800", "\udfff\ud800", "\\ud800\\udfff"]
    graph = build_graph([PatientNode(f"p{i}", Demographics(race=text)) for i, text in enumerate(texts)])
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    assert load_graph(path) == graph


def _assertion(**fields):
    return PhenotypeAssertion(**{"patient": "p1", "term": TermId("HP:0011172"), "confidence": 0.5, **fields})


# nodes built in Python are not type-checked, so save_graph refuses a field its reader would refuse on load
@pytest.mark.parametrize(
    "node, named",
    [
        (NoteNode("n1", "p1", 123), "NoteNode(note_id='n1'"),
        (NoteNode("n1", "p1", "text", "history"), "NoteNode(note_id='n1'"),
        (PatientNode("p2", Demographics(age_years=3.0)), "PatientNode(key='p2'"),
        (PatientNode("p2", Demographics(age_years=True)), "PatientNode(key='p2'"),
        (PatientNode("p2", Demographics(race=7)), "PatientNode(key='p2'"),
        (_assertion(confidence=True), "PhenotypeAssertion(patient='p1'"),
        (_assertion(extractor_version=None), "PhenotypeAssertion(patient='p1'"),
        (_assertion(reasoning=None), "PhenotypeAssertion(patient='p1'"),
    ],
    ids=["note text an int", "note kind a string", "age a float", "age a bool", "race an int", "confidence a bool",
         "extractor version null", "reasoning null"],
)
def test_save_refuses_a_field_its_reader_refuses_and_keeps_the_old_file(tmp_path, node, named):
    _assert_save_refused(tmp_path, build_graph([PatientNode("p1"), node]), named)


def test_an_int_confidence_round_trips(tmp_path):
    graph = build_graph([PatientNode("p1"), _assertion(confidence=1)])
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    assert '"confidence": 1,' in path.read_text(encoding="utf-8")
    assert load_graph(path) == graph
