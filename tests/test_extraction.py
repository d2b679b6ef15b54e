import json
import random
import threading
import time
from collections import Counter

import pytest

from phenokg import extraction
from phenokg.corpus import DEFAULT_LABEL_UNIVERSE, Document, EntityType
from phenokg.errors import (
    BackendUnavailableError,
    DomainError,
    OutputParseError,
    OutputSchemaError,
    ReplayMissError,
)
from phenokg.extraction import (
    AuditLog,
    FewShotPolicy,
    GleanConfig,
    HpoAssertion,
    HpoExtraction,
    HpoTask,
    KeyedListSchema,
    MultiLabelResult,
    MultiLabelTask,
    NerResult,
    NerTask,
    PolicyMode,
    ScoreSchema,
    build_prompt,
    extract_corpus,
    merge_gleaned,
    parse_model_output,
)
from phenokg.fixtures import dravet_allowed_terms, dravet_disease_context
from phenokg.llm import BackendConfig, ScriptedBackend, make_backend, request_hash
from phenokg.ontology import TermId
from phenokg.retrieval import HashedEmbedder, build_index

from conftest import gold_hpo_responder, record_replay_cassette

VALID_HPO = '{"d1": [{"category": "HP:0011172", "confidence": 0.9, "reasoning": "febrile sz"}]}'


# -- parse_model_output -------------------------------------------------------


def test_parse_bare_object():
    body = parse_model_output(VALID_HPO, KeyedListSchema("d1"))
    assert body == [{"category": "HP:0011172", "confidence": 0.9, "reasoning": "febrile sz"}]


def test_parse_fenced_object_identical():
    fenced = f"```json\n{VALID_HPO}\n```"
    assert parse_model_output(fenced, KeyedListSchema("d1")) == parse_model_output(
        VALID_HPO, KeyedListSchema("d1")
    )


def test_parse_prose_wrapped_single_object():
    wrapped = f"Sure, here is the result you asked for:\n{VALID_HPO}\nHope that helps!"
    assert parse_model_output(wrapped, KeyedListSchema("d1"))[0]["category"] == "HP:0011172"


def test_parse_result_prefix_is_recoverable_prose():
    assert parse_model_output("Result:" + VALID_HPO, KeyedListSchema("d1"))


MALFORMED_PARSE_CASES = [
    ("empty string", ""),
    ("prose only", "no objects here at all"),
    ("truncated json", VALID_HPO[:-10]),
    ("two objects", VALID_HPO + "\n" + VALID_HPO),
    ("unbalanced brace", '{"d1": [ "oops"'),
    ("top-level array", '[{"category": "HP:0011172"}]'),
    ("fence without object", "```json\nnot json\n```"),
    ("stray braces in prose plus object", "look { at this " + VALID_HPO),
]


@pytest.mark.parametrize("label,raw", MALFORMED_PARSE_CASES, ids=[c[0] for c in MALFORMED_PARSE_CASES])
def test_unparseable_outputs_rejected_with_raw_preserved(label, raw):
    with pytest.raises(OutputParseError) as err:
        parse_model_output(raw, KeyedListSchema("d1"))
    assert err.value.raw == raw


SCHEMA_ERROR_CASES = [
    ("wrong key", '{"other": []}', "$"),
    ("two keys", '{"d1": [], "d2": []}', "$"),
    ("value not list", '{"d1": {"category": "HP:0011172"}}', "d1"),
    ("entry not object", '{"d1": ["HP:0011172"]}', "d1[0]"),
    ("missing category", '{"d1": [{"confidence": 0.5}]}', "category"),
    ("malformed term id", '{"d1": [{"category": "HP:12", "confidence": 0.5}]}', "category"),
    ("confidence above 1", '{"d1": [{"category": "HP:0011172", "confidence": 1.7}]}', "confidence"),
    ("confidence missing", '{"d1": [{"category": "HP:0011172"}]}', "confidence"),
    ("confidence not numeric", '{"d1": [{"category": "HP:0011172", "confidence": "high"}]}', "confidence"),
    ("extra field", '{"d1": [{"category": "HP:0011172", "confidence": 0.5, "note": "x"}]}', "note"),
    ("reasoning not string", '{"d1": [{"category": "HP:0011172", "confidence": 0.5, "reasoning": 7}]}', "reasoning"),
]


@pytest.mark.parametrize("label,raw,field", SCHEMA_ERROR_CASES, ids=[c[0] for c in SCHEMA_ERROR_CASES])
def test_schema_violations_name_the_field(label, raw, field, dravet_ontology):
    task = HpoTask(dravet_ontology)
    with pytest.raises(OutputSchemaError) as err:
        task.parse_output(raw, "d1")
    assert field in err.value.field


def test_confidence_string_coercion(dravet_ontology):
    task = HpoTask(dravet_ontology)
    raw = '{"d1": [{"category": "HP:0011172", "confidence": "0.75", "reasoning": "r"}]}'
    result = task.parse_output(raw, "d1")
    assert result.assertions[0].confidence == 0.75


def test_score_schema():
    assert parse_model_output('{"score": 8, "rationale": "r"}', ScoreSchema()) == (8, "r")
    with pytest.raises(OutputSchemaError, match="score"):
        parse_model_output('{"score": 12, "rationale": "r"}', ScoreSchema())
    with pytest.raises(OutputSchemaError, match="score"):
        parse_model_output('{"score": 7.5}', ScoreSchema())
    with pytest.raises(OutputSchemaError):
        parse_model_output('{"score": 5, "extra": 1}', ScoreSchema())


def test_fuzzed_outputs_never_crash(dravet_ontology):
    # random mutations of valid outputs either parse or raise the documented kinds
    rng = random.Random(2024)
    task = HpoTask(dravet_ontology)
    seeds = [
        VALID_HPO,
        '{"d1": []}',
        '{"d1": [{"category": "HP:0002373", "confidence": 1, "reasoning": ""}]}',
    ]
    alphabet = '{}[]",:0123456789abcdef HP'
    for _ in range(2000):
        text = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 6)):
            op = rng.randrange(3)
            pos = rng.randrange(len(text) + 1) if op == 0 else rng.randrange(len(text))
            if op == 0:
                text.insert(pos, rng.choice(alphabet))
            elif op == 1:
                del text[pos]
            else:
                text[pos] = rng.choice(alphabet)
        raw = "".join(text)
        try:
            task.parse_output(raw, "d1")
        except (OutputParseError, OutputSchemaError, DomainError):
            pass


# -- prompt building ----------------------------------------------------------


def _hpo_task(dravet_ontology):
    return HpoTask(
        dravet_ontology,
        allowed_terms=dravet_allowed_terms(),
        disease_context=dravet_disease_context(),
    )


def test_zero_shot_prompt_contains_schema_and_no_examples(dravet_ontology):
    task = _hpo_task(dravet_ontology)
    doc = Document("p1", "some patient details")
    request = build_prompt(task, doc)
    assert "MUST be a single JSON object" in request.system
    assert "NO explanatory text, notes, or comments" in request.system
    assert "EXAMPLES" not in request.system
    assert "{examples}" not in request.system  # placeholders all substituted
    assert "{document}" not in request.user
    assert "some patient details" in request.user


def test_prompt_is_byte_deterministic(dravet_ontology):
    task = _hpo_task(dravet_ontology)
    doc = Document("p1", "details")
    a = build_prompt(task, doc)
    b = build_prompt(task, doc)
    assert (a.system, a.user) == (b.system, b.user)


def test_allowed_terms_appear_verbatim(dravet_ontology):
    task = _hpo_task(dravet_ontology)
    request = build_prompt(task, Document("p1", "details"))
    for term in dravet_allowed_terms():
        assert term in request.system
        assert dravet_ontology.name_of(term) in request.system
    # 46-term roster, sorted by name: Action tremor first
    assert request.system.index("Action tremor") < request.system.index("Anxiety")


def test_static_few_shot_appends_k_examples(dravet_ontology, synth_docs):
    task = _hpo_task(dravet_ontology)
    pool = [(d.document, d.terms) for d in synth_docs[1:]]
    policy = FewShotPolicy(mode=PolicyMode.STATIC_FEW_SHOT, k=3, example_pool=pool)
    request = build_prompt(task, synth_docs[0].document, policy)
    assert request.system.count("INPUT:") == 3
    assert request.system.count("OUTPUT:") == 3


def test_dynamic_few_shot_excludes_query_duplicate(dravet_ontology, synth_docs):
    task = _hpo_task(dravet_ontology)
    query = synth_docs[0]
    # pool contains the query itself plus 6 others
    pool = [(d.document, d.terms) for d in synth_docs[:7]]
    embedder = HashedEmbedder()
    index = build_index(embedder, [(doc.doc_id, doc.text) for doc, _ in pool])
    policy = FewShotPolicy(
        mode=PolicyMode.DYNAMIC_FEW_SHOT, k=5, example_pool=pool, index=index, embedder=embedder
    )
    request = build_prompt(task, query.document, policy)
    assert f"PATIENT_KEY: {query.document.doc_id}\n" in request.user
    # the duplicate never shows up among the examples
    assert request.system.count(f"PATIENT_KEY: {query.document.doc_id}") == 0
    assert request.system.count("INPUT:") == 5


def test_dynamic_few_shot_matches_brute_force_selection(dravet_ontology, synth_docs):
    import math

    task = _hpo_task(dravet_ontology)
    query = synth_docs[0]
    pool = [(d.document, d.terms) for d in synth_docs]  # includes the query doc
    embedder = HashedEmbedder()
    index = build_index(embedder, [(doc.doc_id, doc.text) for doc, _ in pool])
    policy = FewShotPolicy(
        mode=PolicyMode.DYNAMIC_FEW_SHOT, k=5, example_pool=pool, index=index, embedder=embedder
    )
    request = build_prompt(task, query.document, policy)

    def cosine(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        nu = math.sqrt(sum(a * a for a in u))
        nv = math.sqrt(sum(b * b for b in v))
        return 0.0 if nu == 0 or nv == 0 else dot / (nu * nv)

    qv = embedder.embed_one(query.document.text)
    scored = sorted(
        (
            (-cosine(qv, embedder.embed_one(doc.text)), doc.doc_id)
            for doc, _ in pool
            if doc.doc_id != query.document.doc_id
        ),
    )
    expected_order = [doc_id for _, doc_id in scored[:5]]
    positions = [request.system.index(f"PATIENT_KEY: {doc_id}") for doc_id in expected_order]
    assert positions == sorted(positions)


def test_dynamic_few_shot_empty_pool_is_domain_error(dravet_ontology):
    task = _hpo_task(dravet_ontology)
    policy = FewShotPolicy(mode=PolicyMode.DYNAMIC_FEW_SHOT, k=5)
    with pytest.raises(DomainError):
        build_prompt(task, Document("p1", "text"), policy)


class CountingEmbedder(HashedEmbedder):
    def __init__(self):
        super().__init__()
        self.queries: list[str] = []

    def embed_one(self, text):
        self.queries.append(text)
        return super().embed_one(text)


def test_dynamic_examples_selected_once_per_document(dravet_ontology, synth_docs):
    task = _hpo_task(dravet_ontology)
    pool = [(d.document, d.terms) for d in synth_docs[3:]]
    index = build_index(HashedEmbedder(), [(doc.doc_id, doc.text) for doc, _ in pool])
    embedder = CountingEmbedder()
    policy = FewShotPolicy(
        mode=PolicyMode.DYNAMIC_FEW_SHOT, k=3, example_pool=pool, index=index, embedder=embedder
    )
    # the last query has a fresh id but the exact text of a pool document
    twin = pool[0][0]
    queries = [d.document for d in synth_docs[:3]] + [Document("twin-query", twin.text)]
    gold = {d.document.doc_id: sorted(d.terms) for d in synth_docs[:3]}
    gold["twin-query"] = sorted(synth_docs[3].terms)

    def answer(key, round_no):
        # two gold terms per round, so every round's prompt carries a new previous result
        return task.gold_to_json(key, gold[key][2 * round_no : 2 * round_no + 2])

    def responder(request):
        _, key, round_part = request.request_tag.split(":")
        return answer(key, int(round_part[1:]))

    backend = ScriptedBackend(responder=responder)
    extract_corpus(task, queries, backend, policy=policy, glean=GleanConfig(2))

    assert sorted(embedder.queries) == sorted(doc.text for doc in queries)
    assert len(backend.calls) == 3 * len(queries)
    sent = {request.request_tag: request for request in backend.calls}
    for doc in queries:
        previous = None
        for round_no in range(3):
            expected = build_prompt(task, doc, policy, previous, round_no)
            assert sent[expected.request_tag] == expected
            parsed = task.sanitize(task.parse_output(answer(doc.doc_id, round_no), doc.doc_id), AuditLog())
            previous = parsed if previous is None else merge_gleaned(previous, parsed)
    twin_prompt = sent["hpo:twin-query:r0"].system
    assert twin_prompt.count("INPUT:") == 3
    assert f"PATIENT_KEY: {twin.doc_id}\n" not in twin_prompt


def test_glean_config_bounds():
    with pytest.raises(DomainError):
        GleanConfig(9)
    with pytest.raises(DomainError):
        GleanConfig(-1)


# -- merge rules --------------------------------------------------------------


def test_merge_hpo_keeps_max_confidence():
    prev = HpoExtraction("k", (HpoAssertion(TermId("HP:0011172"), 0.6, "weak"),))
    new = HpoExtraction("k", (HpoAssertion(TermId("HP:0011172"), 0.9, "strong"),))
    merged = merge_gleaned(prev, new)
    assert merged.assertions == (HpoAssertion(TermId("HP:0011172"), 0.9, "strong"),)
    # ties keep the earlier assertion's reasoning
    tied = merge_gleaned(merged, HpoExtraction("k", (HpoAssertion(TermId("HP:0011172"), 0.9, "later"),)))
    assert tied.assertions[0].reasoning == "strong"


def test_merge_identity_and_union():
    empty = HpoExtraction("k", ())
    full = HpoExtraction("k", (HpoAssertion(TermId("HP:0002373"), 0.5, ""),))
    assert merge_gleaned(empty, full) == full
    a = HpoExtraction(
        "k", (HpoAssertion(TermId("HP:0011172"), 0.5, ""), HpoAssertion(TermId("HP:0002373"), 0.5, ""))
    )
    b = HpoExtraction(
        "k",
        (
            HpoAssertion(TermId("HP:0000729"), 0.5, ""),
            HpoAssertion(TermId("HP:0001300"), 0.5, ""),
            HpoAssertion(TermId("HP:0002063"), 0.5, ""),
        ),
    )
    assert len(merge_gleaned(a, b).assertions) == 5


def test_merge_key_mismatch_is_domain_error():
    with pytest.raises(DomainError):
        merge_gleaned(HpoExtraction("k1", ()), HpoExtraction("k2", ()))
    with pytest.raises(DomainError):
        merge_gleaned(HpoExtraction("k", ()), MultiLabelResult("k", frozenset()))


def test_merge_ner_and_multilabel_union():
    a = NerResult("d", frozenset({("aspirin", EntityType.CHEMICAL)}))
    b = NerResult("d", frozenset({("nausea", EntityType.DISEASE)}))
    assert merge_gleaned(a, b).mentions == a.mentions | b.mentions
    x = MultiLabelResult("d", frozenset({"OBESITY"}))
    y = MultiLabelResult("d", frozenset({"DEPRESSION"}))
    assert merge_gleaned(x, y).labels == {"OBESITY", "DEPRESSION"}


def test_results_round_trip_through_their_records():
    ner = NerResult("d", frozenset({("aspirin", EntityType.CHEMICAL), ("nausea", EntityType.DISEASE)}))
    hpo = HpoExtraction("p", (HpoAssertion(TermId("HP:0011172"), 0.9, "why"), HpoAssertion(TermId("HP:0001250"), 1.0)))
    labels = MultiLabelResult("d", frozenset({"OBESITY", "DEPRESSION"}))
    assert ner.to_record() == {
        "doc_id": "d",
        "mentions": [{"surface": "aspirin", "type": "Chemical"}, {"surface": "nausea", "type": "Disease"}],
    }
    assert hpo.to_record()["key"] == "p"
    assert [row["term"] for row in hpo.to_record()["assertions"]] == ["HP:0011172", "HP:0001250"]  # result order
    assert labels.to_record() == {"doc_id": "d", "labels": ["DEPRESSION", "OBESITY"]}
    for result in (ner, hpo, labels):
        assert type(result).from_record(json.loads(json.dumps(result.to_record()))) == result
    assert [task.result_type for task in (NerTask, HpoTask, MultiLabelTask)] == [NerResult, HpoExtraction, MultiLabelResult]


def test_ner_surface_under_two_types_extracts_and_serializes():
    # sorting (surface, EntityType) pairs used to compare the enums and raise TypeError
    mentions = [{"surface": "valproate", "type": "Chemical"}, {"surface": "valproate", "type": "Disease"}]
    backend = ScriptedBackend(
        responder=lambda request: json.dumps({"d1": mentions if request.request_tag.endswith(":r0") else []})
    )
    audit = AuditLog()
    document = Document("d1", "Valproate levels were checked; valproate toxicity was excluded.")
    result = extract_corpus(NerTask(), [document], backend, glean=GleanConfig(1), audit=audit)["d1"]
    assert len(audit) == 0
    assert result.mentions == {("valproate", EntityType.CHEMICAL), ("valproate", EntityType.DISEASE)}
    assert result.to_record() == {"doc_id": "d1", "mentions": mentions}
    assert NerResult.from_record(result.to_record()) == result
    assert json.dumps({"d1": mentions}) in backend.calls[1].user  # the glean round's previous result


# -- extract and gleaning -----------------------------------------------------


def test_extract_with_gold_backend_equals_gold(dravet_ontology, synth_docs):
    task = _hpo_task(dravet_ontology)
    gold = {d.document.doc_id: d.terms for d in synth_docs}
    backend = ScriptedBackend(responder=gold_hpo_responder(task, gold))
    doc = synth_docs[0].document
    result = extract_corpus(task, [doc], backend, glean=GleanConfig(1))[doc.doc_id]
    assert result.term_set() == set(synth_docs[0].terms)


def test_extract_reads_a_replay_config_cassette_once(dravet_ontology, synth_docs, tmp_path, monkeypatch):
    import phenokg.llm

    task = _hpo_task(dravet_ontology)
    doc = synth_docs[0].document
    gold = {doc.doc_id: synth_docs[0].terms}
    glean = GleanConfig(2)
    path = record_replay_cassette(
        tmp_path, "extract.jsonl", lambda b: extract_corpus(task, [doc], b, glean=glean), gold_hpo_responder(task, gold)
    )
    loads = []
    load_cassette = phenokg.llm.load_cassette
    monkeypatch.setattr(phenokg.llm, "load_cassette", lambda p: loads.append(p) or load_cassette(p))
    backend = make_backend(BackendConfig(kind="replay", cassette_path=str(path)))
    result = extract_corpus(task, [doc], backend, glean=glean)[doc.doc_id]
    assert result.term_set() == set(synth_docs[0].terms)
    assert len(loads) == 1  # not once per round


def test_glean_rounds_merge_by_union(dravet_ontology):
    task = HpoTask(dravet_ontology)
    rounds = {
        "r0": '{"p": [{"category": "HP:0011172", "confidence": 0.8, "reasoning": "a"}]}',
        "r1": (
            '{"p": [{"category": "HP:0011172", "confidence": 0.6, "reasoning": "dup"},'
            ' {"category": "HP:0002373", "confidence": 0.7, "reasoning": "b"}]}'
        ),
    }
    backend = ScriptedBackend(responder=lambda req: rounds[req.request_tag.rsplit(":", 1)[1]])
    result = extract_corpus(task, [Document("p", "text")], backend, glean=GleanConfig(1))["p"]
    assert {a.term: a.confidence for a in result.assertions} == {"HP:0011172": 0.8, "HP:0002373": 0.7}  # max kept


def test_unknown_term_dropped_and_audited(dravet_ontology):
    task = HpoTask(dravet_ontology)
    raw = (
        '{"p": [{"category": "HP:0000000", "confidence": 0.9, "reasoning": "bogus"},'
        ' {"category": "HP:0011172", "confidence": 0.9, "reasoning": "real"}]}'
    )
    replies = iter([raw])
    backend = ScriptedBackend(responder=lambda request: next(replies))
    audit = AuditLog()
    result = extract_corpus(task, [Document("p", "text")], backend, glean=GleanConfig(0), audit=audit)["p"]
    assert result.term_set() == {"HP:0011172"}
    assert audit.count("dropped_unknown_term") == 1


def test_disallowed_term_dropped_and_audited(dravet_ontology):
    task = HpoTask(dravet_ontology, allowed_terms=frozenset({TermId("HP:0011172")}))
    raw = '{"p": [{"category": "HP:0002373", "confidence": 0.9, "reasoning": "not allowed"}]}'
    replies = iter([raw])
    audit = AuditLog()
    backend = ScriptedBackend(responder=lambda request: next(replies))
    result = extract_corpus(task, [Document("p", "t")], backend, glean=GleanConfig(0), audit=audit)["p"]
    assert result.term_set() == set()
    assert audit.count("dropped_disallowed_term") == 1


def test_multilabel_unknown_label_dropped_and_audited():
    task = MultiLabelTask(DEFAULT_LABEL_UNIVERSE)
    raw = '{"d": ["OBESITY", "NOT_A_LABEL"]}'
    replies = iter([raw])
    audit = AuditLog()
    backend = ScriptedBackend(responder=lambda request: next(replies))
    result = extract_corpus(task, [Document("d", "t")], backend, glean=GleanConfig(0), audit=audit)["d"]
    assert result.labels == {"OBESITY"}
    assert audit.count("dropped_unknown_label") == 1


def test_backend_error_carries_round_number(dravet_ontology):
    task = HpoTask(dravet_ontology)
    ok = '{"p": [{"category": "HP:0011172", "confidence": 0.9, "reasoning": "r"}]}'
    def replies():
        yield ok
        raise BackendUnavailableError("scripted failure", attempts=1)  # the round-1 request fails

    round_replies = replies()
    backend = ScriptedBackend(responder=lambda request: next(round_replies))
    audit = AuditLog()
    results = extract_corpus(task, [Document("p", "t")], backend, glean=GleanConfig(1), audit=audit)
    assert audit.entries == [{"event": "document_round_failed", "key": "p", "round": 1, "error": "scripted failure"}]
    assert results["p"].term_set() == {"HP:0011172"}  # round 0's result is kept


def test_gleaning_monotone_and_recall_increases(dravet_ontology):
    task = _hpo_task(dravet_ontology)
    gold = {"HP:0011172", "HP:0002373", "HP:0010818", "HP:0001763"}
    stage_new = {
        0: ["HP:0011172", "HP:0002373"],
        1: ["HP:0010818"],
        2: [],
        3: ["HP:0001763"],
        4: [],
    }

    def responder(request):
        round_no = int(request.request_tag.rsplit(":r", 1)[1])
        rows = [
            {"category": t, "confidence": 0.9, "reasoning": "staged"} for t in stage_new[round_no]
        ]
        return json.dumps({"p": rows})

    results = [
        extract_corpus(task, [Document("p", "text")], ScriptedBackend(responder=responder), glean=GleanConfig(r))["p"]
        for r in range(5)
    ]
    sets = [r.term_set() for r in results]
    for prev, now in zip(sets, sets[1:]):
        assert prev <= now
    recalls = [len(s & gold) / len(gold) for s in sets]
    assert recalls == sorted(recalls)
    assert recalls[1] > recalls[0]  # one glean strictly increases recall here


def test_fuzzed_backend_outputs_always_resolve(dravet_ontology):
    # backend emits random well-formed ids, many unknown: every surviving
    # assertion must resolve in the ontology
    rng = random.Random(7)
    task = HpoTask(dravet_ontology)
    known = sorted(dravet_allowed_terms())
    audit = AuditLog()
    for i in range(50):
        ids = [
            rng.choice(known) if rng.random() < 0.5 else f"HP:{rng.randrange(10**7):07d}"
            for _ in range(rng.randrange(4))
        ]
        raw = json.dumps({"p": [{"category": t, "confidence": 0.5, "reasoning": ""} for t in ids]})
        replies = iter([raw])
        backend = ScriptedBackend(responder=lambda request: next(replies))
        result = extract_corpus(task, [Document("p", "t")], backend, glean=GleanConfig(0), audit=audit)["p"]
        assert all(term in dravet_ontology for term in result.term_set())


def test_extract_corpus_isolates_failures(dravet_ontology, synth_docs):
    task = _hpo_task(dravet_ontology)
    gold = {d.document.doc_id: d.terms for d in synth_docs}
    bad_key = synth_docs[1].document.doc_id

    def responder(request):
        _, key, round_part = request.request_tag.split(":")
        if key == bad_key:
            return "utter nonsense"
        if round_part != "r0":
            return json.dumps({key: []})
        return _hpo_task(dravet_ontology).gold_to_json(key, gold[key])

    audit = AuditLog()
    docs = [d.document for d in synth_docs[:4]]
    results = extract_corpus(
        task, docs, ScriptedBackend(responder=responder), glean=GleanConfig(1), audit=audit
    )
    assert set(results) == {d.doc_id for d in docs} - {bad_key}
    assert audit.count("document_round_failed") >= 1
    for key, result in results.items():
        assert result.term_set() == set(gold[key])


def test_extract_corpus_audit_order_pinned(dravet_ontology):
    # failures and drops interleave in document order within each round
    task = HpoTask(dravet_ontology, allowed_terms=frozenset({TermId("HP:0011172"), TermId("HP:0002373")}))

    def rows(*terms):
        return [{"category": t, "confidence": 0.9, "reasoning": "r"} for t in terms]

    replies = {
        ("a", "r0"): rows("HP:0011172", "HP:0000000"),
        ("a", "r1"): rows("HP:0010818"),
        ("b", "r0"): "garbage",
        ("c", "r0"): rows("HP:0010818"),
        ("c", "r1"): "garbage",
        ("d", "r0"): None,
        ("e", "r0"): rows("HP:0002373"),
        ("e", "r1"): rows("HP:0000000"),
    }

    def responder(request):
        _, key, round_part = request.request_tag.split(":")
        reply = replies[(key, round_part)]
        if reply is None:
            raise BackendUnavailableError("scripted failure", attempts=1)
        return reply if isinstance(reply, str) else json.dumps({key: reply})

    audit = AuditLog()
    docs = [Document(key, f"text of {key}") for key in "abcde"]
    results = extract_corpus(task, docs, ScriptedBackend(responder=responder), glean=GleanConfig(1), audit=audit)
    no_json = "no JSON object found in model output"
    assert audit.entries == [
        {"event": "dropped_unknown_term", "key": "a", "term": "HP:0000000"},
        {"event": "document_round_failed", "key": "b", "round": 0, "error": no_json},
        {"event": "dropped_disallowed_term", "key": "c", "term": "HP:0010818"},
        {"event": "document_round_failed", "key": "d", "round": 0, "error": "scripted failure"},
        {"event": "dropped_disallowed_term", "key": "a", "term": "HP:0010818"},
        {"event": "document_round_failed", "key": "c", "round": 1, "error": no_json},
        {"event": "dropped_unknown_term", "key": "e", "term": "HP:0000000"},
    ]
    assert {key: r.term_set() for key, r in results.items()} == {
        "a": {"HP:0011172"},
        "c": set(),
        "e": {"HP:0002373"},
    }


def test_extract_corpus_rejects_duplicate_keys_before_sending(dravet_ontology):
    backend = ScriptedBackend(responder=lambda request: next(iter([])))
    docs = [Document("p", "first"), Document("q", "other"), Document("p", "second")]
    with pytest.raises(DomainError, match="p"):
        extract_corpus(HpoTask(dravet_ontology), docs, backend)
    assert backend.calls == []


def _raise_type_error(request):
    time.sleep(0.01)
    raise TypeError("a bug, not a backend failure")


def test_program_bug_propagates_from_extract_corpus(dravet_ontology):
    backend = ScriptedBackend(responder=_raise_type_error)
    audit = AuditLog()
    docs = [Document(f"p{i}", "text") for i in range(20)]
    with pytest.raises(TypeError):
        extract_corpus(HpoTask(dravet_ontology), docs, backend, audit=audit, max_in_flight=1)
    assert len(backend.calls) < len(docs)
    assert audit.entries == []


def test_program_bug_propagates_from_extract(dravet_ontology):
    backend = ScriptedBackend(responder=_raise_type_error)
    with pytest.raises(TypeError):
        extract_corpus(HpoTask(dravet_ontology), [Document("p", "t")], backend, glean=GleanConfig(2))
    assert len(backend.calls) == 1  # later rounds are never sent


_ALLOWED = sorted(dravet_allowed_terms())


def _glean_responder(request):
    """A reply that depends only on (key, round): some documents fail a round, some replies carry an unknown term."""
    _, key, round_part = request.request_tag.split(":")
    i, round_no = int(key[1:]), int(round_part[1:])
    if i % 7 == round_no + 3:
        return "no object here"
    rows = [{"category": str(_ALLOWED[(i + round_no) % len(_ALLOWED)]), "confidence": 0.8, "reasoning": "r"}]
    if i % 5 == round_no:
        rows.append({"category": "HP:0000000", "confidence": 0.5, "reasoning": "unknown"})
    return json.dumps({key: rows})


_GLEAN_DOCS = [Document(f"p{i}", f"note {i}: seizures with fever") for i in range(50)]


@pytest.mark.threads
@pytest.mark.parametrize("bound", [1, 4])
def test_extract_corpus_holds_only_in_flight_prompts(dravet_ontology, monkeypatch, bound):
    lock = threading.Lock()
    counts = {"rendered": 0, "pending": 0, "peak": 0}
    render = extraction._render_prompt

    def counting_render(*args):
        request = render(*args)
        with lock:
            counts["rendered"] += 1
            counts["pending"] += 1
        return request

    def responder(request):
        with lock:
            counts["peak"] = max(counts["peak"], counts["pending"])
            counts["pending"] -= 1
        return _glean_responder(request)

    monkeypatch.setattr(extraction, "_render_prompt", counting_render)
    backend = ScriptedBackend(responder=responder, max_in_flight=bound)
    extract_corpus(_hpo_task(dravet_ontology), _GLEAN_DOCS, backend, glean=GleanConfig(2))
    # rendering every prompt of a round before sending any would hold 50 at once
    assert 1 <= counts["peak"] <= bound
    assert counts["rendered"] == len(backend.calls) > 2 * len(_GLEAN_DOCS)
    assert counts["pending"] == 0


@pytest.mark.threads
def test_extract_corpus_is_the_same_at_every_bound(dravet_ontology):
    task = _hpo_task(dravet_ontology)

    def run(bound):
        backend = ScriptedBackend(responder=_glean_responder, max_in_flight=bound)
        audit = AuditLog()
        results = extract_corpus(task, _GLEAN_DOCS, backend, glean=GleanConfig(2), audit=audit)
        return results, audit.entries, Counter(backend.calls)

    results, entries, sent = run(1)
    assert run(4) == (results, entries, sent)
    assert {entry["event"] for entry in entries} == {"document_round_failed", "dropped_unknown_term"}
    assert [e["round"] for e in entries if e["event"] == "document_round_failed"] == [0] * 7 + [1] * 7 + [2] * 7
    assert len(results) == 43 and max(sent.values()) == 1


def test_template_without_marker_raises_before_any_request(dravet_ontology, monkeypatch):
    monkeypatch.setattr(extraction, "load_template", lambda name: "{examples}\n{document}\n{previous_result}")
    backend = ScriptedBackend(responder=lambda request: "{}")
    audit = AuditLog()
    with pytest.raises(DomainError, match="---USER--- section marker"):
        extract_corpus(HpoTask(dravet_ontology), _GLEAN_DOCS[:3], backend, audit=audit)
    assert backend.calls == []
    assert audit.entries == []


def test_hpo_context_is_built_once_per_task(dravet_ontology, monkeypatch):
    calls = []
    name_of = dravet_ontology.name_of
    monkeypatch.setattr(dravet_ontology, "name_of", lambda term: calls.append(term) or name_of(term))
    task = _hpo_task(dravet_ontology)
    backend = ScriptedBackend(responder=lambda req: json.dumps({req.request_tag.split(":")[1]: []}))
    docs = [Document(f"p{i}", "text") for i in range(3)]
    assert set(extract_corpus(task, docs, backend, glean=GleanConfig(2))) == {"p0", "p1", "p2"}
    assert len(backend.calls) == 9
    assert len(calls) == len(dravet_allowed_terms())


def test_replay_miss_surfaces_through_extract(dravet_ontology):
    from phenokg.llm import CassetteBackend

    task = HpoTask(dravet_ontology)
    doc = Document("p", "t")
    request = build_prompt(task, doc)
    audit = AuditLog()
    assert extract_corpus(task, [doc], CassetteBackend(), glean=GleanConfig(0), audit=audit) == {}
    miss = ReplayMissError(request_hash(request.system, request.user))
    assert audit.entries == [{"event": "document_round_failed", "key": "p", "round": 0, "error": str(miss)}]


def test_empty_surface_is_schema_error():
    task = NerTask()
    raw = '{"d": [{"surface": "   ", "type": "Chemical"}]}'
    with pytest.raises(OutputSchemaError, match="surface"):
        task.parse_output(raw, "d")


def test_audit_log_saves_json_lines(tmp_path):
    audit = AuditLog()
    audit.record("dropped_unknown_term", key="p", term="HP:0000000")
    audit.record("scoring_failed", patient="q", error="boom")
    path = tmp_path / "audit.jsonl"
    audit.save(path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["event"] == "dropped_unknown_term"
    assert lines[1]["patient"] == "q"
    assert len(audit) == 2


def test_placeholder_tokens_in_document_text_survive(dravet_ontology):
    # a document containing a placeholder-like token must not trigger a
    # second substitution pass
    task = HpoTask(dravet_ontology, allowed_terms=frozenset({TermId("HP:0011172")}))
    doc = Document("p", "note says {allowed_terms} verbatim")
    request = build_prompt(task, doc)
    assert "note says {allowed_terms} verbatim" in request.user
