"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Every test enforces its own runtime budget.
"""

import json
import math
import random
import threading
import time
from contextlib import contextmanager

import pytest

from phenokg import fixtures
from phenokg.cohortstats import phenotype_frequency
from phenokg.corpus import (
    DEFAULT_LABEL_UNIVERSE,
    Document,
    EntityType,
    synthesize_fixture,
    synthesize_multilabel_fixture,
)
from phenokg.errors import GraphIntegrityError, OutputParseError, OutputSchemaError
from phenokg.evaluation import score_hpo, score_multilabel, score_ner
from phenokg.extraction import (
    GleanConfig,
    HpoTask,
    KeyedListSchema,
    MultiLabelResult,
    MultiLabelTask,
    NerResult,
    NerTask,
    build_prompt,
    extract_corpus,
    normalize_surface,
    parse_model_output,
)
from phenokg.kg import cohort_by_icd, load_graph, save_graph
from phenokg.llm import (
    CassetteBackend,
    ChatRequest,
    ScriptedBackend,
    complete_batch,
    load_cassette,
    request_hash,
)
from phenokg.ontology import FrequencyCategory, TermId, frequency_bin
from phenokg.retrieval import HashedEmbedder, build_index, top_k

from conftest import gold_hpo_responder


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


# -- 1. metric oracle equivalence --------------------------------------------


def _oracle_counts(gold: set, pred: set) -> tuple[int, int, int]:
    tp = sum(1 for item in pred if item in gold)
    fp = sum(1 for item in pred if item not in gold)
    fn = sum(1 for item in gold if item not in pred)
    return tp, fp, fn


def _oracle_metrics(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    if tp + fp + fn == 0:
        return 1.0, 1.0, 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _assert_matches(metrics, tp, fp, fn):
    precision, recall, f1 = _oracle_metrics(tp, fp, fn)
    assert (metrics.tp, metrics.fp, metrics.fn) == (tp, fp, fn)
    assert abs(metrics.precision - precision) <= 1e-12
    assert abs(metrics.recall - recall) <= 1e-12
    assert abs(metrics.f1 - f1) <= 1e-12


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "scorers match brute-force oracle on 200 random instances per family", 5.0):
        rng = random.Random(101)
        surfaces = [f"mention {i}" for i in range(12)]
        terms = [TermId(f"HP:{i:07d}") for i in range(1, 13)]
        labels = sorted(DEFAULT_LABEL_UNIVERSE)

        for _ in range(200):  # NER
            docs = [f"d{i}" for i in range(rng.randint(1, 4))]
            gold, pred = {}, {}
            per_type = {t: [0, 0, 0] for t in EntityType}
            for doc in docs:
                gold_sets = {t: set(rng.sample(surfaces, rng.randrange(5))) for t in EntityType}
                pred_sets = {t: set(rng.sample(surfaces, rng.randrange(5))) for t in EntityType}
                gold[doc] = [
                    _span_for(surface, ent) for ent in EntityType for surface in sorted(gold_sets[ent])
                ]
                pred[doc] = NerResult(
                    doc,
                    frozenset((normalize_surface(s), ent) for ent in EntityType for s in pred_sets[ent]),
                )
                for ent in EntityType:
                    g = {normalize_surface(s) for s in gold_sets[ent]}
                    p = {normalize_surface(s) for s in pred_sets[ent]}
                    tp, fp, fn = _oracle_counts(g, p)
                    per_type[ent][0] += tp
                    per_type[ent][1] += fp
                    per_type[ent][2] += fn
            report = score_ner(gold, pred)
            for ent in EntityType:
                if ent.value in report.per_key:
                    _assert_matches(report.per_key[ent.value], *per_type[ent])

        for _ in range(200):  # HPO
            docs = [f"d{i}" for i in range(rng.randint(1, 4))]
            gold = {d: set(rng.sample(terms, rng.randrange(6))) for d in docs}
            pred = {d: set(rng.sample(terms, rng.randrange(6))) for d in docs}
            totals = [0, 0, 0]
            for d in docs:
                tp, fp, fn = _oracle_counts(gold[d], pred[d])
                totals = [a + b for a, b in zip(totals, (tp, fp, fn))]
            _assert_matches(score_hpo(gold, pred).per_key["HPO"], *totals)

        for _ in range(200):  # multilabel
            docs = [f"d{i}" for i in range(rng.randint(1, 3))]
            gold = {d: set(rng.sample(labels, rng.randrange(5))) for d in docs}
            pred = {d: set(rng.sample(labels, rng.randrange(5))) for d in docs}
            report = score_multilabel(gold, pred, DEFAULT_LABEL_UNIVERSE)
            correct = 0
            for label in labels:
                tp, fp, fn = 0, 0, 0
                for d in docs:
                    g = {label} & gold[d]
                    p = {label} & pred[d]
                    dtp, dfp, dfn = _oracle_counts(g, p)
                    tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
                    correct += (label in gold[d]) == (label in pred[d])
                _assert_matches(report.per_key[label], tp, fp, fn)
            expected_acc = correct / (len(docs) * len(labels))
            assert abs(report.micro_accuracy - expected_acc) <= 1e-12


def _span_for(surface, ent_type):
    from phenokg.corpus import SpanAnnotation

    return SpanAnnotation(0, len(surface), surface, ent_type)


# -- 2. frequency binning regression ------------------------------------------


def test_criterion_2_frequency_binning_regression():
    with criterion(2, "reference fractions bin correctly; sweep transitions at the documented bounds", 1.0):
        assert frequency_bin(34 / 38) is FrequencyCategory.VERY_FREQUENT
        assert frequency_bin(24 / 38) is FrequencyCategory.FREQUENT

        grid = [i / 1000 for i in range(1001)]
        bins = [frequency_bin(f) for f in grid]
        transitions = [i for i in range(1, 1001) if bins[i] != bins[i - 1]]
        # 5%, 30%, 80% and 100% are exact transition points; the Absent bin
        # covers only 0 so its transition lands on the first positive step,
        # and 1% is Very rare's nominal lower bound (sub-1% clamps into it)
        assert transitions == [1, 50, 300, 800, 1000]
        assert bins[0] is FrequencyCategory.ABSENT
        assert bins[10] is FrequencyCategory.VERY_RARE
        assert bins[49] is FrequencyCategory.VERY_RARE and bins[50] is FrequencyCategory.OCCASIONAL
        assert bins[299] is FrequencyCategory.OCCASIONAL and bins[300] is FrequencyCategory.FREQUENT
        assert bins[799] is FrequencyCategory.FREQUENT and bins[800] is FrequencyCategory.VERY_FREQUENT
        assert bins[999] is FrequencyCategory.VERY_FREQUENT and bins[1000] is FrequencyCategory.OBLIGATE


# -- 3. gleaning monotonicity --------------------------------------------------


def test_criterion_3_gleaning_monotonicity(dravet_ontology):
    with criterion(3, "gleaned result sets nest round over round and recall never decreases", 5.0):
        task = HpoTask(
            dravet_ontology,
            allowed_terms=fixtures.dravet_allowed_terms(),
            disease_context=fixtures.dravet_disease_context(),
        )
        gold = {"HP:0011172", "HP:0002373", "HP:0010818", "HP:0001763", "HP:0000729"}
        stage_new = {
            0: ["HP:0011172", "HP:0002373"],
            1: ["HP:0010818"],
            2: [],
            3: ["HP:0001763", "HP:0000729"],
            4: [],
        }

        def responder(request):
            round_no = int(request.request_tag.rsplit(":r", 1)[1])
            rows = [{"category": t, "confidence": 0.9, "reasoning": "staged"} for t in stage_new[round_no]]
            return json.dumps({"p": rows})

        document = Document("p", "staged patient text")
        results = [
            extract_corpus(task, [document], ScriptedBackend(responder=responder), glean=GleanConfig(r))["p"]
            for r in range(5)
        ]
        sets = [r.term_set() for r in results]
        for earlier, later in zip(sets, sets[1:]):
            assert earlier <= later
        recalls = [len(s & gold) / len(gold) for s in sets]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))
        assert recalls[1] > recalls[0]  # a single glean strictly increases recall here


# -- 4. dynamic few-shot correctness -------------------------------------------


def _oracle_cosine(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return 0.0 if nu == 0.0 or nv == 0.0 else dot / (nu * nv)


def test_criterion_4_dynamic_few_shot_correctness():
    with criterion(4, "top-5 retrieval matches exhaustive cosine ranking on a 500-item pool", 10.0):
        rng = random.Random(404)
        vocab = [f"word{i}" for i in range(240)]
        texts = {
            f"item-{i:03d}": " ".join(rng.choice(vocab) for _ in range(rng.randint(8, 24)))
            for i in range(500)
        }
        embedder = HashedEmbedder()
        index = build_index(embedder, texts)
        vectors = {item_id: embedder.embed_one(text) for item_id, text in texts.items()}

        for q in range(100):
            query_text = " ".join(rng.choice(vocab) for _ in range(rng.randint(8, 24)))
            query_vec = embedder.embed_one(query_text)
            expected = sorted(
                ((item_id, _oracle_cosine(query_vec, vec)) for item_id, vec in vectors.items()),
                key=lambda pair: (-round(pair[1], 12), pair[0]),
            )[:5]
            got = top_k(index, query_vec, k=5)
            assert [i for i, _ in got] == [i for i, _ in expected]
            for (_, gs), (_, es) in zip(got, expected):
                assert abs(gs - es) <= 1e-9

        # ties break by ascending item id (duplicate texts share a vector)
        dup_index = build_index(embedder, {"zz": "same text", "aa": "same text", "mm": "other words"})
        ranked = top_k(dup_index, embedder.embed_one("same text"), k=3)
        assert [i for i, _ in ranked][:2] == ["aa", "zz"]

        # query self-exclusion: a pool item used as the query never returns itself
        sample_ids = sorted(texts)[:10]
        for item_id in sample_ids:
            query_vec = vectors[item_id]
            included = top_k(index, query_vec, k=1)
            assert included[0][0] == item_id and abs(included[0][1] - 1.0) <= 1e-9
            excluded = top_k(index, query_vec, k=5, exclude={item_id})
            assert item_id not in [i for i, _ in excluded]
            expected = sorted(
                (
                    (other, _oracle_cosine(query_vec, vec))
                    for other, vec in vectors.items()
                    if other != item_id
                ),
                key=lambda pair: (-round(pair[1], 12), pair[0]),
            )[:5]
            assert [i for i, _ in excluded] == [i for i, _ in expected]


# -- 5. end-to-end oracle run --------------------------------------------------


def _record_and_replay(tmp_path, name, task, documents, responder):
    backend = CassetteBackend(inner=ScriptedBackend(responder=responder))
    extract_corpus(task, documents, backend, glean=GleanConfig(0))
    path = tmp_path / name
    backend.save(path)
    return path


def _replay(path):
    return CassetteBackend(load_cassette(path))


def _mutate_cassette(path, request, mutate):
    responses = load_cassette(path)
    key = request_hash(request.system, request.user)
    payload = json.loads(responses[key])
    mutate(payload)
    responses[key] = json.dumps(payload)
    CassetteBackend(responses).save(path)


def test_criterion_5_end_to_end_oracle_run(tmp_path, dravet_ontology):
    with criterion(5, "gold-replay pipeline scores 1.000 on all tasks; one mutation moves exactly the predicted metric", 30.0):
        synth = synthesize_fixture(
            seed=55,
            ontology=dravet_ontology,
            n_docs=8,
            labels_per_doc=3,
            term_pool=sorted(fixtures.dravet_allowed_terms()),
        )
        documents = [s.document for s in synth]
        # gleaning is covered by criterion 3; replay runs use glean=0 because a
        # mutated round-0 response would change the round-1 prompt hash and
        # surface as a replay miss instead of a metric drop
        glean0 = GleanConfig(0)

        # --- HPO ---
        hpo_task = HpoTask(dravet_ontology, allowed_terms=fixtures.dravet_allowed_terms())
        hpo_gold = {s.document.doc_id: set(s.terms) for s in synth}

        def hpo_responder(request):
            _, key, _ = request.request_tag.split(":")
            return hpo_task.gold_to_json(key, hpo_gold[key])

        cassette = _record_and_replay(tmp_path, "hpo.jsonl", hpo_task, documents, hpo_responder)
        results = extract_corpus(hpo_task, documents, _replay(cassette), glean=glean0)
        report = score_hpo(hpo_gold, results).per_key["HPO"]
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

        total_terms = sum(len(t) for t in hpo_gold.values())
        target_doc = documents[0]
        request = build_prompt(hpo_task, target_doc, round_no=0)
        _mutate_cassette(cassette, request, lambda payload: payload[target_doc.doc_id].pop(0))
        mutated = extract_corpus(hpo_task, documents, _replay(cassette), glean=glean0)
        metrics = score_hpo(hpo_gold, mutated).per_key["HPO"]
        expected_recall = (total_terms - 1) / total_terms
        assert metrics.precision == 1.0
        assert abs(metrics.recall - expected_recall) <= 1e-12
        expected_f1 = 2 * expected_recall / (1 + expected_recall)
        assert abs(metrics.f1 - expected_f1) <= 1e-12

        # --- NER ---
        ner_task = NerTask()
        ner_gold = {s.document.doc_id: list(s.spans) for s in synth}

        def ner_responder(request):
            _, key, _ = request.request_tag.split(":")
            return ner_task.gold_to_json(key, ner_gold[key])

        cassette = _record_and_replay(tmp_path, "ner.jsonl", ner_task, documents, ner_responder)
        results = extract_corpus(ner_task, documents, _replay(cassette), glean=glean0)
        report = score_ner(ner_gold, results)
        for ent in ("Chemical", "Disease"):
            assert (report.per_key[ent].precision, report.per_key[ent].recall) == (1.0, 1.0)

        disease_total = sum(
            1 for spans in ner_gold.values() for s in spans if s.entity_type is EntityType.DISEASE
        )
        request = build_prompt(ner_task, target_doc, round_no=0)

        def drop_one_disease(payload):
            items = payload[target_doc.doc_id]
            idx = next(i for i, item in enumerate(items) if item["type"] == "Disease")
            items.pop(idx)

        _mutate_cassette(cassette, request, drop_one_disease)
        mutated = extract_corpus(ner_task, documents, _replay(cassette), glean=glean0)
        report = score_ner(ner_gold, mutated)
        assert report.per_key["Chemical"].f1 == 1.0  # untouched type unchanged
        disease = report.per_key["Disease"]
        assert disease.precision == 1.0
        assert abs(disease.recall - (disease_total - 1) / disease_total) <= 1e-12

        # --- multilabel ---
        ml_corpus = synthesize_multilabel_fixture(seed=56, n_docs=6, labels_per_doc=3)
        ml_docs = [doc for doc, _ in ml_corpus]
        ml_gold = {doc.doc_id: set(gold) for doc, gold in ml_corpus}
        ml_task = MultiLabelTask(DEFAULT_LABEL_UNIVERSE)

        def ml_responder(request):
            _, key, _ = request.request_tag.split(":")
            return ml_task.gold_to_json(key, ml_gold[key])

        cassette = _record_and_replay(tmp_path, "ml.jsonl", ml_task, ml_docs, ml_responder)
        results = extract_corpus(ml_task, ml_docs, _replay(cassette), glean=glean0)
        report = score_multilabel(ml_gold, results, DEFAULT_LABEL_UNIVERSE)
        assert report.per_key["macro"].f1 == 1.0
        assert report.micro_accuracy == 1.0

        target_ml = ml_docs[0]
        dropped_label = sorted(ml_gold[target_ml.doc_id])[0]
        request = build_prompt(ml_task, target_ml, round_no=0)
        _mutate_cassette(cassette, request, lambda payload: payload[target_ml.doc_id].remove(dropped_label))
        mutated = extract_corpus(ml_task, ml_docs, _replay(cassette), glean=glean0)
        report = score_multilabel(ml_gold, mutated, DEFAULT_LABEL_UNIVERSE)
        cells = len(ml_docs) * 15
        assert abs(report.micro_accuracy - (cells - 1) / cells) <= 1e-12
        untouched = [l for l in sorted(DEFAULT_LABEL_UNIVERSE) if l != dropped_label]
        baseline = score_multilabel(ml_gold, results, DEFAULT_LABEL_UNIVERSE)
        for label in untouched:
            assert report.per_key[label] == baseline.per_key[label]


# -- 6. output-contract robustness ---------------------------------------------


def test_criterion_6_output_contract_robustness(dravet_ontology):
    with criterion(6, "two recoverable deviations accepted; malformed cases rejected; 10k-case fuzz never crashes", 30.0):
        valid = '{"d1": [{"category": "HP:0011172", "confidence": 0.9, "reasoning": "febrile sz"}]}'
        schema = KeyedListSchema("d1")
        task = HpoTask(dravet_ontology)

        assert parse_model_output(valid, schema)
        assert parse_model_output(f"```json\n{valid}\n```", schema) == parse_model_output(valid, schema)
        assert parse_model_output(f"Here you go:\n{valid}\nCheers!", schema) == parse_model_output(valid, schema)

        parse_rejects = [
            "",
            "no json here",
            valid[:-8],
            valid + valid,
            '{"d1": [',
            "[1, 2, 3]",
            '"just a string"',
            "``` */ not even json ```",
        ]
        for raw in parse_rejects:
            with pytest.raises(OutputParseError):
                parse_model_output(raw, schema)

        schema_rejects = [
            '{"wrong": []}',
            '{"d1": [], "d2": []}',
            '{"d1": {"not": "a list"}}',
            '{"d1": [{"category": "HP:0011172", "confidence": 1.7, "reasoning": "x"}]}',
            '{"d1": [{"category": "HP:0011172", "confidence": -0.2, "reasoning": "x"}]}',
            '{"d1": [{"category": "HP:0011172", "confidence": 0.5, "extra": true}]}',
            '{"d1": [{"category": "not an id", "confidence": 0.5}]}',
            '{"d1": [{"confidence": 0.5}]}',
            '{"d1": [{"category": "HP:0011172", "confidence": "not numeric"}]}',
            '{"d1": [{"category": "HP:0011172", "confidence": 0.5, "reasoning": 9}]}',
        ]
        for raw in schema_rejects:
            with pytest.raises(OutputSchemaError):
                task.parse_output(raw, "d1")

        assert len(parse_rejects) + len(schema_rejects) >= 10

        rng = random.Random(606)
        seeds = [
            valid,
            '{"d1": []}',
            '{"d1": [{"category": "HP:0002373", "confidence": 1, "reasoning": ""}]}',
            '{"d1": [{"category": "HP:0011172", "confidence": "0.5", "reasoning": "quoted"}]}',
        ]
        alphabet = '{}[]",:.0123456789abcdefHP \n'
        outcomes = {"ok": 0, "parse": 0, "schema": 0}
        for _ in range(10_000):
            text = list(rng.choice(seeds))
            for _ in range(rng.randint(1, 8)):
                op = rng.randrange(4)
                if op == 0:
                    text.insert(rng.randrange(len(text) + 1), rng.choice(alphabet))
                elif op == 1 and text:
                    del text[rng.randrange(len(text))]
                elif op == 2 and text:
                    text[rng.randrange(len(text))] = rng.choice(alphabet)
                else:
                    cut = rng.randrange(len(text) + 1)
                    text = text[:cut]
            raw = "".join(text)
            try:
                task.parse_output(raw, "d1")
                outcomes["ok"] += 1
            except OutputParseError:
                outcomes["parse"] += 1
            except OutputSchemaError:
                outcomes["schema"] += 1
            # anything else propagates and fails the criterion
        assert sum(outcomes.values()) == 10_000
        assert outcomes["parse"] > 0 and outcomes["schema"] > 0


# -- 7. KG integrity and round-trip ---------------------------------------------


def test_criterion_7_kg_integrity_round_trip(tmp_path, demo_graph, dravet_ontology):
    with criterion(7, "38-patient cohort query exact; save/load round-trip; corrupted files rejected", 5.0):
        cohort = cohort_by_icd(demo_graph, {"G40.83", "G40.833", "G40.834"}, mode="any")
        assert len(cohort) == 38

        path = tmp_path / "graph.jsonl"
        save_graph(demo_graph, path)
        loaded = load_graph(path, dravet_ontology)
        assert loaded == demo_graph

        freqs = phenotype_frequency(loaded, cohort, fixtures.dravet_allowed_terms(), ontology=dravet_ontology)
        assert freqs.count(TermId("HP:0011172")) == 34

        corrupted = [
            {"kind": "mystery"},
            {"kind": "note", "note_id": "n1", "patient": "ghost", "text": "t"},
            {"kind": "assertion", "patient": "ghost", "term": "HP:0011172", "confidence": 0.5},
            {"kind": "assertion", "patient": "P0001", "term": "HP:123", "confidence": 0.5},
            {"kind": "assertion", "patient": "P0001", "term": "HP:7777777", "confidence": 0.5},
            {"kind": "assertion", "patient": "P0001", "term": "HP:0011172", "confidence": 1.5},
            {"kind": "patient"},
            {"kind": "note", "note_id": "n1", "patient": "P0001", "text": "t", "note_kind": "poem"},
        ]
        for record in corrupted:
            bad = tmp_path / "bad.jsonl"
            bad.write_text(
                json.dumps({"kind": "patient", "key": "P0001"}) + "\n" + json.dumps(record) + "\n"
            )
            with pytest.raises(GraphIntegrityError):
                load_graph(bad, dravet_ontology)


# -- 8. discovery funnel recovery -------------------------------------------------


def test_criterion_8_discovery_funnel_recovery(tmp_path, dravet_ontology):
    with criterion(8, "funnel over 1,000 patients recovers exactly the 12 planted positives via replay", 60.0):
        from phenokg.discovery import run_funnel

        graph, planted = fixtures.build_discovery_graph(n_patients=1000, seed=11, n_positive=12)
        assert len(planted) == 12
        rubric = fixtures.bpan_rubric()
        terms = sorted(fixtures.BPAN_ALLOWED_TERMS)

        def responder(request):
            tag = request.request_tag
            if tag.startswith("score:"):
                key = tag.split(":", 1)[1]
                if key in planted:
                    return json.dumps({"score": 7 + planted.index(key) % 3, "rationale": "strong match"})
                return json.dumps({"score": 1 + hash(key) % 4, "rationale": "weak"})
            _, key, round_part = tag.split(":")
            if round_part != "r0":
                return json.dumps({key: []})
            chosen = terms[: 2 + planted.index(key) % 2]
            return json.dumps(
                {key: [{"category": t, "confidence": 0.9, "reasoning": "documented"} for t in chosen]}
            )

        def run(backend):
            return run_funnel(
                graph,
                rubric,
                keywords={"BPAN"},
                generic_icd=set(fixtures.BPAN_GENERIC_ICD10),
                threshold=7,
                allowed_terms=fixtures.BPAN_ALLOWED_TERMS,
                backend=backend,
                ontology=dravet_ontology,
                glean=GleanConfig(1),
            )

        recorder = CassetteBackend(inner=ScriptedBackend(responder=responder))
        recorded_report = run(recorder)
        cassette = tmp_path / "funnel.jsonl"
        recorder.save(cassette)

        replay_report = run(_replay(cassette))
        assert replay_report == recorded_report  # deterministic given the cassette
        assert sorted(f.patient for f in replay_report.finalists) == planted
        counts = [count for _, count in replay_report.stage_counts]
        assert counts[0] == 1000
        assert counts == sorted(counts, reverse=True)
        assert dict(replay_report.stage_counts)["finalists"] == 12


# -- 9. concurrency bound ----------------------------------------------------------


@pytest.mark.threads
def test_criterion_9_concurrency_bound():
    with criterion(9, "batch completion never exceeds max_in_flight and preserves input order", 5.0):
        lock = threading.Lock()
        active = {"now": 0, "peak": 0}

        def responder(request):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            # adversarial: earlier requests finish last
            time.sleep((30 - int(request.user)) * 0.002)
            with lock:
                active["now"] -= 1
            return f"reply-{request.user}"

        backend = ScriptedBackend(responder=responder)
        requests_ = [ChatRequest(system="s", user=str(i)) for i in range(30)]
        results = complete_batch(backend, requests_, max_in_flight=3)
        assert [r.text for r in results] == [f"reply-{i}" for i in range(30)]
        assert active["peak"] <= 3
        assert active["peak"] >= 2
