import dataclasses
import json
import re
import threading
import time

import pytest
from hypothesis import given, strategies as st

from phenokg.corpus import Document
from phenokg.discovery import (
    FunnelFinalist,
    FunnelReport,
    LikelihoodScore,
    RubricCriterion,
    ScoringRubric,
    build_score_prompt,
    candidate_cohort,
    load_rubric,
    run_funnel,
    _score_chain,
)
from phenokg.errors import DomainError, OutputParseError
from phenokg.extraction import AuditLog, GleanConfig, HpoTask, build_prompt, load_template, render_template
from phenokg.fixtures import (
    BPAN_ALLOWED_TERMS,
    BPAN_GENERIC_ICD10,
    bpan_rubric,
    build_discovery_graph,
)
from phenokg.kg import NoteNode, PatientNode, build_graph, patient_record
from phenokg.llm import (
    BackendConfig,
    CassetteBackend,
    ScriptedBackend,
    load_cassette,
    make_backend,
    request_hash,
)

from conftest import record_replay_cassette


@pytest.fixture(scope="module")
def haystack():
    return build_discovery_graph(n_patients=200, seed=11, n_positive=5)


def oracle_backend(planted, allowed_terms):
    """Scripted oracle: planted patients score 7-9 and assert allowed terms."""
    planted = sorted(planted)
    terms = sorted(allowed_terms)

    def responder(request):
        tag = request.request_tag
        if tag.startswith("score:"):
            key = tag.split(":", 1)[1]
            if key in planted:
                idx = planted.index(key)
                return json.dumps({"score": 7 + idx % 3, "rationale": "matches rubric"})
            return json.dumps({"score": 2, "rationale": "weak match"})
        _, key, round_part = tag.split(":")
        if round_part != "r0":
            return json.dumps({key: []})
        idx = planted.index(key)
        chosen = terms[: 1 + idx % 3]
        rows = [{"category": t, "confidence": 0.85, "reasoning": "documented"} for t in chosen]
        return json.dumps({key: rows})

    return ScriptedBackend(responder=responder)


def test_rubric_round_trip(tmp_path):
    rubric = bpan_rubric()
    path = tmp_path / "rubric.json"
    path.write_text(json.dumps(dataclasses.asdict(rubric)))
    assert load_rubric(path) == rubric


BAD_RUBRICS = [
    ([{"description": "c", "weight": 1}], "rubric must be an object, got [{"),
    ({"disease_name": "d", "disease_context": "ctx", "criteria": 5}, "criteria must be an array, got 5"),
    ({"disease_name": "d", "disease_context": "ctx", "criteria": [{"description": "c", "weight": "heavy"}]},
     'weight must be a number, got "heavy"'),
]


@pytest.mark.parametrize("payload, problem", BAD_RUBRICS, ids=["array", "criteria", "weight"])
def test_load_rubric_names_the_file_and_the_field_of_the_wrong_shape(tmp_path, payload, problem):
    path = tmp_path / "rubric.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DomainError) as exc:
        load_rubric(path)
    assert str(exc.value).startswith(f"{path}: {problem}")


def test_rubric_validation():
    with pytest.raises(DomainError):
        ScoringRubric("d", "ctx", criteria=())
    with pytest.raises(DomainError):
        RubricCriterion("c", weight=0.0)
    with pytest.raises(DomainError):
        LikelihoodScore("p", 11)


def test_score_patient_oracle(haystack):
    graph, planted = haystack
    record = patient_record(graph, planted[0])
    replies = iter([json.dumps({"score": 8, "rationale": "clear"})])
    backend = ScriptedBackend(responder=lambda request: next(replies))
    score = _score_chain(record, bpan_rubric(), backend)
    assert score == LikelihoodScore(planted[0], 8, "clear")
    assert len(backend.calls) == 1


def test_score_patient_retry_contract(haystack):
    graph, planted = haystack
    record = patient_record(graph, planted[0])
    replies = iter([json.dumps({"score": 12, "rationale": "too high"}), json.dumps({"score": 7, "rationale": "ok"})])
    backend = ScriptedBackend(responder=lambda request: next(replies))
    assert _score_chain(record, bpan_rubric(), backend) == LikelihoodScore(planted[0], 7, "ok")
    assert backend.calls == [build_score_prompt(record, bpan_rubric())] * 2  # the identical request, re-sent once


def _one_candidate_funnel(haystack, dravet_ontology, backend) -> AuditLog:
    """``run_funnel`` on a graph holding only the first planted patient, which fails scoring."""
    graph, planted = haystack
    key = planted[0]
    audit = AuditLog()
    report = run_funnel(
        build_graph([graph.patient(key), *graph.notes_for(key)]),
        bpan_rubric(),
        keywords={"BPAN"},
        generic_icd=set(BPAN_GENERIC_ICD10),
        threshold=7,
        allowed_terms=BPAN_ALLOWED_TERMS,
        backend=backend,
        ontology=dravet_ontology,
        audit=audit,
    )
    assert dict(report.stage_counts) == {"candidates": 1, "scored": 0, "filtered": 0, "extracted": 0, "finalists": 0}
    return audit


def test_score_patient_prose_twice_is_scoring_error(haystack, dravet_ontology):
    _, planted = haystack
    replies = iter(["not json at all", "still prose"])
    backend = ScriptedBackend(responder=lambda request: next(replies))
    audit = _one_candidate_funnel(haystack, dravet_ontology, backend)
    no_json = "no JSON object found in model output"
    assert audit.entries == [{"event": "scoring_failed", "patient": planted[0], "error": no_json}]
    assert len(backend.calls) == 2


def test_score_patient_retries_on_scripted_but_not_on_replay(haystack, dravet_ontology):
    graph, planted = haystack
    record = patient_record(graph, planted[0])
    request = build_score_prompt(record, bpan_rubric())
    replay = CassetteBackend({request_hash(request.system, request.user): "not json at all"})
    replay_calls = []
    replay_complete = replay.complete
    replay.complete = lambda req: replay_calls.append(req) or replay_complete(req)
    scripted = ScriptedBackend(responder=lambda req: "not json at all")
    for backend, sent in ((replay, replay_calls), (scripted, scripted.calls)):
        with pytest.raises(OutputParseError, match="no JSON object"):
            _score_chain(record, bpan_rubric(), backend)
        expected = 1 if backend is replay else 2  # a replayed answer cannot change on a re-send
        assert sent == [request] * expected
        sent.clear()
        audit = _one_candidate_funnel(haystack, dravet_ontology, backend)
        no_json = "no JSON object found in model output"
        assert audit.entries == [{"event": "scoring_failed", "patient": planted[0], "error": no_json}]
        assert sent == [request] * expected


def test_run_funnel_reads_a_replay_config_cassette_once(haystack, dravet_ontology, tmp_path, monkeypatch):
    import phenokg.llm

    graph, planted = haystack

    def funnel(backend):
        return run_funnel(
            graph,
            bpan_rubric(),
            keywords={"BPAN"},
            generic_icd=set(BPAN_GENERIC_ICD10),
            threshold=7,
            allowed_terms=BPAN_ALLOWED_TERMS,
            backend=backend,
            ontology=dravet_ontology,
            glean=GleanConfig(1),
        )

    oracle = oracle_backend(planted, BPAN_ALLOWED_TERMS)
    path = record_replay_cassette(tmp_path, "funnel.jsonl", funnel, oracle._responder)
    loads = []
    load_cassette = phenokg.llm.load_cassette
    monkeypatch.setattr(phenokg.llm, "load_cassette", lambda p: loads.append(p) or load_cassette(p))
    report = funnel(make_backend(BackendConfig(kind="replay", cassette_path=str(path))))
    assert sorted(f.patient for f in report.finalists) == planted
    assert loads == [str(path)]  # not once per scoring batch and extraction round


def test_score_prompt_embeds_rubric(haystack):
    graph, planted = haystack
    request = build_score_prompt(patient_record(graph, planted[0]), bpan_rubric())
    assert "scale from 0 to 9" in request.system
    for criterion in bpan_rubric().criteria:
        assert criterion.description in request.system
    assert request.request_tag == f"score:{planted[0]}"


def test_candidate_cohort_inclusion_exclusion():
    # 2 keyword hits union 50 code hits with exactly 1 overlap -> 51
    records = []
    for i in range(60):
        key = f"c{i:02d}"
        codes = {"R62.50"} if i < 50 else {"Z00.0"}
        records.append(PatientNode(key, icd10=frozenset(codes)))
        text = "mentions SIGNALWORD here" if i in (0, 55) else "routine"
        records.append(NoteNode(f"{key}-n", key, text))
    graph = build_graph(records)
    cohort = candidate_cohort(graph, keywords={"SIGNALWORD"}, generic_icd={"R62.50"})
    assert len(cohort) == 51
    keyword_only = candidate_cohort(graph, keywords={"SIGNALWORD"}, generic_icd=set())
    assert keyword_only == {"c00", "c55"}
    assert candidate_cohort(graph, keywords={"missingword"}, generic_icd={"X99.9"}) == set()
    with pytest.raises(DomainError):
        candidate_cohort(graph, keywords=set(), generic_icd=set())


def test_run_funnel_recovers_planted(haystack, dravet_ontology):
    graph, planted = haystack
    backend = oracle_backend(planted, BPAN_ALLOWED_TERMS)
    audit = AuditLog()
    report = run_funnel(
        graph,
        bpan_rubric(),
        keywords={"BPAN"},
        generic_icd=set(BPAN_GENERIC_ICD10),
        threshold=7,
        allowed_terms=BPAN_ALLOWED_TERMS,
        backend=backend,
        ontology=dravet_ontology,
        glean=GleanConfig(1),
        audit=audit,
    )
    assert sorted(f.patient for f in report.finalists) == planted
    counts = [count for _, count in report.stage_counts]
    assert counts == sorted(counts, reverse=True)
    stages = [name for name, _ in report.stage_counts]
    assert stages == ["candidates", "scored", "filtered", "extracted", "finalists"]
    assert report.stage_counts[0][1] == 200  # every patient carries a generic code


def test_funnel_ranking_deterministic_and_duplicate_free(haystack, dravet_ontology):
    graph, planted = haystack
    run = lambda: run_funnel(  # noqa: E731
        graph,
        bpan_rubric(),
        keywords=set(),
        generic_icd=set(BPAN_GENERIC_ICD10),
        threshold=7,
        allowed_terms=BPAN_ALLOWED_TERMS,
        backend=oracle_backend(planted, BPAN_ALLOWED_TERMS),
        ontology=dravet_ontology,
    )
    first, second = run(), run()
    assert first == second
    patients = [f.patient for f in first.finalists]
    assert len(patients) == len(set(patients))
    scores = [f.score for f in first.finalists]
    assert scores == sorted(scores, reverse=True)


def test_raising_threshold_never_adds_finalists(haystack, dravet_ontology):
    graph, planted = haystack

    def run(threshold):
        report = run_funnel(
            graph,
            bpan_rubric(),
            keywords=set(),
            generic_icd=set(BPAN_GENERIC_ICD10),
            threshold=threshold,
            allowed_terms=BPAN_ALLOWED_TERMS,
            backend=oracle_backend(planted, BPAN_ALLOWED_TERMS),
            ontology=dravet_ontology,
        )
        return {f.patient for f in report.finalists}

    assert run(9) <= run(8) <= run(7)


def test_threshold_bounds(haystack, dravet_ontology):
    graph, planted = haystack
    with pytest.raises(DomainError):
        run_funnel(
            graph,
            bpan_rubric(),
            keywords={"BPAN"},
            generic_icd=set(),
            threshold=10,
            allowed_terms=BPAN_ALLOWED_TERMS,
            backend=oracle_backend(planted, BPAN_ALLOWED_TERMS),
            ontology=dravet_ontology,
        )


@pytest.mark.parametrize("allowed_terms, match", [(frozenset(), "allowed_terms")], ids=["no allowed terms"])
def test_run_funnel_preconditions_send_nothing(haystack, dravet_ontology, allowed_terms, match):
    graph, planted = haystack
    backend = oracle_backend(planted, BPAN_ALLOWED_TERMS)
    with pytest.raises(DomainError, match=match):
        run_funnel(
            graph,
            bpan_rubric(),
            keywords={"BPAN"},
            generic_icd=set(BPAN_GENERIC_ICD10),
            allowed_terms=allowed_terms,
            backend=backend,
            ontology=dravet_ontology,
        )
    assert backend.calls == []


def test_threshold_zero_keeps_scored_stage(haystack, dravet_ontology):
    graph, planted = haystack
    report = run_funnel(
        graph,
        bpan_rubric(),
        keywords={"BPAN"},  # candidates: only the 2 explicit mentions
        generic_icd=set(),
        threshold=0,
        allowed_terms=BPAN_ALLOWED_TERMS,
        backend=oracle_backend(planted, BPAN_ALLOWED_TERMS),
        ontology=dravet_ontology,
    )
    counts = dict(report.stage_counts)
    assert counts["filtered"] == counts["scored"] == 2


def test_scoring_failures_skip_and_audit(haystack, dravet_ontology):
    graph, planted = haystack
    broken = planted[0]

    inner = oracle_backend(planted, BPAN_ALLOWED_TERMS)

    def responder(request):
        if request.request_tag == f"score:{broken}":
            return "no json for you"
        return inner._responder(request)

    audit = AuditLog()
    report = run_funnel(
        graph,
        bpan_rubric(),
        keywords=set(),
        generic_icd=set(BPAN_GENERIC_ICD10),
        threshold=7,
        allowed_terms=BPAN_ALLOWED_TERMS,
        backend=ScriptedBackend(responder=responder),
        ontology=dravet_ontology,
        audit=audit,
    )
    assert audit.count("scoring_failed") == 1
    assert sorted(f.patient for f in report.finalists) == sorted(set(planted) - {broken})
    counts = dict(report.stage_counts)
    assert counts["scored"] == counts["candidates"] - 1


@pytest.mark.threads
def test_score_retries_run_as_a_concurrent_batch(haystack, dravet_ontology):
    graph, planted = haystack
    lock = threading.Lock()
    seen: set[str] = set()
    active = {"now": 0, "peak": 0}

    def responder(request):
        with lock:
            first = request.request_tag not in seen
            seen.add(request.request_tag)
        if first:
            return "prose, no score"  # every candidate fails its first attempt
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        time.sleep(0.005)
        with lock:
            active["now"] -= 1
        return json.dumps({"score": 2, "rationale": "weak match"})

    audit = AuditLog()
    report = run_funnel(
        graph,
        bpan_rubric(),
        keywords=set(),
        generic_icd=set(BPAN_GENERIC_ICD10),
        threshold=7,
        allowed_terms=BPAN_ALLOWED_TERMS,
        backend=ScriptedBackend(responder=responder, max_in_flight=4),
        ontology=dravet_ontology,
        audit=audit,
    )
    counts = dict(report.stage_counts)
    assert counts["scored"] == counts["candidates"] == 200
    assert audit.entries == []
    assert 2 <= active["peak"] <= 4


@pytest.mark.threads
def test_program_bug_propagates_from_run_funnel(haystack, dravet_ontology):
    graph, _ = haystack

    def responder(request):
        time.sleep(0.005)
        raise TypeError("a bug, not a backend failure")

    backend = ScriptedBackend(responder=responder, max_in_flight=1)
    audit = AuditLog()
    with pytest.raises(TypeError):
        run_funnel(
            graph,
            bpan_rubric(),
            keywords=set(),
            generic_icd=set(BPAN_GENERIC_ICD10),
            threshold=7,
            allowed_terms=BPAN_ALLOWED_TERMS,
            backend=backend,
            ontology=dravet_ontology,
            audit=audit,
        )
    assert len(backend.calls) < 200
    assert audit.entries == []


def _funnel(graph, backend, dravet_ontology, audit=None):
    return run_funnel(
        graph,
        bpan_rubric(),
        keywords={"BPAN"},
        generic_icd=set(BPAN_GENERIC_ICD10),
        threshold=7,
        allowed_terms=BPAN_ALLOWED_TERMS,
        backend=backend,
        ontology=dravet_ontology,
        audit=audit,
    )


def _score_keys(graph):
    return sorted(candidate_cohort(graph, {"BPAN"}, set(BPAN_GENERIC_ICD10)))


@pytest.mark.threads
def test_funnel_output_does_not_depend_on_completion_order(haystack, dravet_ontology):
    graph, planted = haystack
    rank = {key: i for i, key in enumerate(_score_keys(graph))}
    inner = oracle_backend(planted, BPAN_ALLOWED_TERMS)._responder
    lock = threading.Lock()

    def run(bound):
        active = {"now": 0, "peak": 0}

        def responder(request):
            key = request.request_tag.split(":")[1]
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep((len(rank) - rank[key]) * 1e-5)  # earlier keys answer last
            with lock:
                active["now"] -= 1
            if request.request_tag.startswith("score:") and rank[key] % 7 == 3:
                return "prose, no score"  # audited in key order, whatever order it failed in
            return inner(request)

        audit = AuditLog()
        report = _funnel(graph, ScriptedBackend(responder=responder, max_in_flight=bound), dravet_ontology, audit)
        return report, audit.entries, active["peak"]

    serial, parallel = run(1), run(4)
    assert serial[:2] == parallel[:2]
    assert [e["patient"] for e in serial[1]] == sorted(key for key in rank if rank[key] % 7 == 3)
    assert serial[2] == 1
    assert 2 <= parallel[2] <= 4


def test_each_survivor_is_extracted_from_its_rebuilt_patient_record(haystack, dravet_ontology):
    graph, planted = haystack
    inner = oracle_backend(planted, BPAN_ALLOWED_TERMS)._responder
    sent = {}

    def responder(request):
        sent[request.request_tag] = request
        return inner(request)

    report = _funnel(graph, ScriptedBackend(responder=responder, max_in_flight=1), dravet_ontology)
    task = HpoTask(dravet_ontology, allowed_terms=BPAN_ALLOWED_TERMS, disease_context=bpan_rubric().disease_context)
    extracted = sorted(tag.split(":")[1] for tag in sent if tag.startswith("hpo:") and tag.endswith(":r0"))
    assert extracted == sorted(planted)
    assert dict(report.stage_counts)["filtered"] == len(planted)
    for key in extracted:
        expected = build_prompt(task, Document(key, patient_record(graph, key).render()))
        assert sent[f"hpo:{key}:r0"] == expected


def test_an_out_of_range_score_is_retried_once_for_that_candidate_only(haystack, dravet_ontology):
    graph, planted = haystack
    odd = _score_keys(graph)[5]
    inner = oracle_backend(planted, BPAN_ALLOWED_TERMS)._responder
    sent = []

    def responder(request):
        sent.append(request.request_tag)
        if request.request_tag == f"score:{odd}" and sent.count(request.request_tag) == 1:
            return json.dumps({"score": 12, "rationale": "off the scale"})
        return inner(request)

    audit = AuditLog()
    report = _funnel(graph, ScriptedBackend(responder=responder), dravet_ontology, audit)
    scores_sent = [tag for tag in sent if tag.startswith("score:")]
    assert sorted(scores_sent) == sorted([f"score:{key}" for key in _score_keys(graph)] + [f"score:{odd}"])
    assert audit.entries == []
    assert dict(report.stage_counts)["scored"] == len(_score_keys(graph))


def test_a_replayed_score_is_sent_exactly_once(haystack, dravet_ontology, tmp_path):
    graph, planted = haystack
    broken = _score_keys(graph)[5]
    inner = oracle_backend(planted, BPAN_ALLOWED_TERMS)._responder

    def responder(request):
        return "prose, no score" if request.request_tag == f"score:{broken}" else inner(request)

    path = record_replay_cassette(tmp_path, "funnel.jsonl", lambda b: _funnel(graph, b, dravet_ontology), responder)
    replay = CassetteBackend(load_cassette(path))
    sent = []
    replay_complete = replay.complete
    replay.complete = lambda request: sent.append(request.request_tag) or replay_complete(request)
    audit = AuditLog()
    _funnel(graph, replay, dravet_ontology, audit)
    assert sorted(tag for tag in sent if tag.startswith("score:")) == [f"score:{key}" for key in _score_keys(graph)]
    assert [e["patient"] for e in audit.entries] == [broken]


@pytest.mark.threads
@pytest.mark.parametrize("bound", [1, 3])
def test_a_bug_in_one_candidate_propagates_and_unclaimed_candidates_are_never_sent(haystack, dravet_ontology, bound):
    graph, _ = haystack
    keys = _score_keys(graph)

    def responder(request):
        if request.request_tag == f"score:{keys[9]}":
            raise TypeError("a bug, not a backend failure")
        time.sleep(0.002)
        return json.dumps({"score": 2, "rationale": "weak match"})

    backend = ScriptedBackend(responder=responder, max_in_flight=bound)
    audit = AuditLog()
    with pytest.raises(TypeError):
        _funnel(graph, backend, dravet_ontology, audit)
    sent = [request.request_tag for request in backend.calls]
    if bound == 1:
        assert sent == [f"score:{key}" for key in keys[:10]]
    assert not {f"score:{key}" for key in keys[100:]} & set(sent)
    assert audit.entries == []


TEMPLATE_TRAPS = st.lists(
    st.sampled_from(["{document}", "{criteria}", "{scale_note}", "{disease_name}", '{"score": 1}', "---USER---",
                     " ", "\n", "x", "\u00e9"]),
    max_size=6,
).map("".join)


@given(TEMPLATE_TRAPS, TEMPLATE_TRAPS, TEMPLATE_TRAPS, TEMPLATE_TRAPS, TEMPLATE_TRAPS)
def test_score_prompt_equals_the_single_pass_render(name, context, description, scale_note, note):
    rubric = ScoringRubric(name, context, (RubricCriterion(description, 2.0), RubricCriterion("x", 0.5)), scale_note)
    graph = build_graph([PatientNode("p1"), NoteNode("p1-n", "p1", note + "tail")])
    record = patient_record(graph, "p1")
    request = build_score_prompt(record, rubric)
    system, user = render_template(
        load_template("score"),
        disease_name=name,
        disease_context=context,
        criteria=f"- (weight 2) {description}\n- (weight 0.5) x",
        scale_note=scale_note,
        document=record.render(),
    )
    assert (request.system, request.user) == (system, user)


def test_min_assertions_filter(haystack, dravet_ontology):
    graph, planted = haystack
    # the oracle gives planted[i] 1 + i % 3 assertions; demanding 2 drops the 1-assertion ones
    report = run_funnel(
        graph,
        bpan_rubric(),
        keywords=set(),
        generic_icd=set(BPAN_GENERIC_ICD10),
        threshold=7,
        allowed_terms=BPAN_ALLOWED_TERMS,
        backend=oracle_backend(planted, BPAN_ALLOWED_TERMS),
        ontology=dravet_ontology,
        min_assertions=2,
    )
    expected = {key for i, key in enumerate(sorted(planted)) if 1 + i % 3 >= 2}
    assert {f.patient for f in report.finalists} == expected


def test_funnel_report_serialization(haystack, dravet_ontology):
    graph, planted = haystack
    report = run_funnel(
        graph,
        bpan_rubric(),
        keywords=set(),
        generic_icd=set(BPAN_GENERIC_ICD10),
        threshold=7,
        allowed_terms=BPAN_ALLOWED_TERMS,
        backend=oracle_backend(planted, BPAN_ALLOWED_TERMS),
        ontology=dravet_ontology,
    )
    payload = json.loads(report.to_json())
    assert payload["stage_counts"][0]["stage"] == "candidates"
    markdown = report.to_markdown()
    assert "| stage | count |" in markdown
    for finalist in report.finalists:
        assert finalist.patient in markdown


def test_funnel_markdown_escapes_a_pipe_in_a_patient_key():
    stages = tuple((stage, 1) for stage in ("candidates", "scored", "filtered", "extracted", "finalists"))
    report = FunnelReport(stages, (FunnelFinalist("P|7", 8, (("HP:0001250", 0.9),)),))
    _, stage_table, finalist_table = report.to_markdown().split("\n\n")
    for table, width in ((stage_table, 2), (finalist_table, 3)):
        lines = table.splitlines()
        assert [len(re.split(r"(?<!\\)\|", line)) - 2 for line in lines] == [width] * len(lines)
    assert finalist_table.splitlines()[2] == "| P\\|7 | 8 | HP:0001250 (0.90) |"


def test_funnel_markdown_writes_a_line_break_in_a_patient_key_as_br():
    stages = tuple((stage, 1) for stage in ("candidates", "scored", "filtered", "extracted", "finalists"))
    report = FunnelReport(stages, (FunnelFinalist("P\n7", 8, (("HP:0001250", 0.9),)),))
    _, stage_table, finalist_table = report.to_markdown().split("\n\n")
    assert len(stage_table.splitlines()) == 2 + len(stages)
    assert finalist_table.splitlines() == [
        "| patient | score | top assertions |",
        "| --- | --- | --- |",
        "| P<br>7 | 8 | HP:0001250 (0.90) |",
    ]


def test_funnel_report_rejects_increasing_counts():
    with pytest.raises(DomainError):
        FunnelReport((("a", 1), ("b", 2)), ())
