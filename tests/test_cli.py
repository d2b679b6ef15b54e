import hashlib
import json
import os
from pathlib import Path

import pytest

from phenokg import fixtures
from phenokg.cli import main
from phenokg.corpus import (
    DEFAULT_LABEL_UNIVERSE,
    load_multilabel_gold,
    load_span_corpus,
    save_hpo_gold,
    synthesize_fixture,
)
from phenokg.extraction import (
    FewShotPolicy,
    GleanConfig,
    HpoTask,
    MultiLabelTask,
    NerTask,
    PolicyMode,
    extract_corpus,
)
from phenokg.kg import save_graph
from phenokg.llm import ScriptedBackend, write_cassette
from phenokg.ontology import dump_ontology
from phenokg.retrieval import HashedEmbedder, build_index

from conftest import gold_hpo_responder, record_replay_cassette


@pytest.fixture()
def ontology_file(tmp_path, dravet_ontology):
    path = tmp_path / "demo.obo"
    path.write_text(dump_ontology(dravet_ontology))
    return path


@pytest.fixture()
def graph_file(tmp_path, demo_graph):
    path = tmp_path / "graph.jsonl"
    save_graph(demo_graph, path)
    return path


@pytest.fixture()
def annotations_file(tmp_path):
    from importlib import resources

    path = tmp_path / "annotations.tsv"
    path.write_text(
        resources.files("phenokg").joinpath("data", "dravet_annotations.tsv").read_text(encoding="utf-8")
    )
    return path


def run_cli(args):
    return main([str(a) for a in args])


def test_ontology_stats(ontology_file, capsys):
    assert run_cli(["ontology", "stats", "--ontology", ontology_file]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["term_count"] == 52


def test_a_manifest_write_interrupted_before_the_replace_leaves_the_old_manifest(tmp_path, ontology_file, monkeypatch):
    out = tmp_path / "stats"
    out.mkdir()
    (out / "manifest.json").write_bytes(b'{"command": "old"}\n')
    replace = os.replace

    def interrupted_replace(src, dst):
        if Path(dst).name == "manifest.json":
            raise KeyboardInterrupt
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted_replace)
    with pytest.raises(KeyboardInterrupt):
        run_cli(["ontology", "stats", "--ontology", ontology_file, "--out", out])
    assert (out / "manifest.json").read_bytes() == b'{"command": "old"}\n'
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "stats.json"]


def test_corpus_synth_deterministic(tmp_path, ontology_file):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    base = ["corpus", "synth", "--kind", "hpo", "--ontology", ontology_file, "--seed", "3",
            "--n-docs", "4", "--labels-per-doc", "2"]
    assert run_cli(base + ["--out", out1]) == 0
    assert run_cli(base + ["--out", out2]) == 0
    assert (out1 / "corpus.jsonl").read_bytes() == (out2 / "corpus.jsonl").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "corpus synth"
    assert "ontology" in manifest["inputs"]
    assert manifest["versions"]["phenokg"]


def test_corpus_synth_span_kind(tmp_path, ontology_file):
    out = tmp_path / "span"
    assert run_cli([
        "corpus", "synth", "--kind", "span", "--ontology", ontology_file,
        "--seed", "2", "--n-docs", "3", "--labels-per-doc", "2", "--out", out,
    ]) == 0
    assert (out / "corpus.pubtator").exists()


@pytest.fixture()
def extract_setup(tmp_path, dravet_ontology, ontology_file):
    """Corpus + pool files and a replay cassette covering the CLI's exact prompts."""
    pool_docs = synthesize_fixture(
        seed=21, ontology=dravet_ontology, n_docs=10, labels_per_doc=3,
        term_pool=sorted(fixtures.dravet_allowed_terms()),
    )
    test_docs = synthesize_fixture(
        seed=22, ontology=dravet_ontology, n_docs=5, labels_per_doc=3,
        term_pool=sorted(fixtures.dravet_allowed_terms()),
    )
    pool_path = tmp_path / "pool.jsonl"
    corpus_path = tmp_path / "corpus.jsonl"
    save_hpo_gold([(d.document, d.hpo_gold) for d in pool_docs], pool_path)
    save_hpo_gold([(d.document, d.hpo_gold) for d in test_docs], corpus_path)

    # mirror the CLI's task/policy construction exactly, record the cassette
    task = HpoTask(dravet_ontology)
    pool = [(d.document, d.terms) for d in pool_docs]
    embedder = HashedEmbedder()
    index = build_index(embedder, [(doc.doc_id, doc.text) for doc, _ in pool])
    policy = FewShotPolicy(
        mode=PolicyMode.DYNAMIC_FEW_SHOT, k=5, example_pool=pool, index=index, embedder=embedder
    )
    gold = {d.document.doc_id: d.terms for d in pool_docs + test_docs}
    backend = fixtures.RecordingBackend(ScriptedBackend(responder=gold_hpo_responder(task, gold)))
    extract_corpus(task, [d.document for d in test_docs], backend, policy=policy, glean=GleanConfig(1))
    cassette_path = tmp_path / "cassette.jsonl"
    write_cassette(cassette_path, backend.entries)
    return corpus_path, pool_path, cassette_path, test_docs


# predictions.jsonl bytes of the HPO, NER and multilabel round trips, pinned so a serialization change shows
HPO_PREDICTIONS_SHA256 = "95b6d2aea51c815fb5d16f32aff3742bfd0a07f2f1d78e86a2bc35c5d219d08a"
NER_PREDICTIONS_SHA256 = "4fe01f3bf309e6b552c47a2ecf8984ad497132da7c7660cbfe68ccd4683c3174"
MULTILABEL_PREDICTIONS_SHA256 = "ade187e14e3ef6d1e039b94ca3b895ea109fa211b74c8902027af008879f55be"


def test_extract_replay_deterministic(tmp_path, ontology_file, extract_setup):
    corpus_path, pool_path, cassette_path, test_docs = extract_setup
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = run_cli([
            "extract", "--task", "hpo", "--corpus", corpus_path, "--pool", pool_path,
            "--policy", "dynamic-fewshot", "--k", "5", "--glean", "1",
            "--ontology", ontology_file,
            "--backend-kind", "replay", "--cassette", cassette_path,
            "--out", out,
        ])
        assert code == 0
        outs.append((out / "predictions.jsonl").read_bytes())
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == HPO_PREDICTIONS_SHA256
    records = [json.loads(l) for l in outs[0].decode().splitlines()]
    by_key = {r["key"]: {a["term"] for a in r["assertions"]} for r in records}
    assert by_key == {d.document.doc_id: set(d.terms) for d in test_docs}


@pytest.mark.parametrize(
    "task_name, expected_sha256", [("ner", NER_PREDICTIONS_SHA256), ("multilabel", MULTILABEL_PREDICTIONS_SHA256)]
)
def test_extract_then_eval_round_trip(tmp_path, ontology_file, task_name, expected_sha256):
    synth = tmp_path / "synth"
    flags = ["--kind", "span", "--ontology", ontology_file] if task_name == "ner" else ["--kind", "multilabel"]
    assert run_cli(["corpus", "synth", *flags, "--seed", "5", "--n-docs", "6", "--labels-per-doc", "3",
                    "--out", synth]) == 0
    if task_name == "ner":
        corpus = synth / "corpus.pubtator"
        task, gold_corpus = NerTask(), load_span_corpus(corpus)
    else:
        corpus = synth / "corpus.jsonl"
        task, gold_corpus = MultiLabelTask(DEFAULT_LABEL_UNIVERSE), load_multilabel_gold(corpus)
    documents = [doc for doc, _ in gold_corpus]
    cassette = record_replay_cassette(
        tmp_path,
        "cassette.jsonl",
        lambda backend: extract_corpus(task, documents, backend, glean=GleanConfig(1)),
        gold_hpo_responder(task, {doc.doc_id: gold for doc, gold in gold_corpus}),
    )
    out = tmp_path / "extract"
    assert run_cli(["extract", "--task", task_name, "--corpus", corpus,
                    "--backend-kind", "replay", "--cassette", cassette, "--out", out]) == 0
    predictions = out / "predictions.jsonl"
    assert len(predictions.read_text().splitlines()) == 6
    assert hashlib.sha256(predictions.read_bytes()).hexdigest() == expected_sha256
    eval_out = tmp_path / "eval"
    assert run_cli(["eval", "--task", task_name, "--gold", corpus, "--pred", predictions,
                    "--format", "csv", "--model-name", "replay", "--out", eval_out]) == 0
    report = json.loads((eval_out / "report.json").read_text())
    expected_keys = {"Chemical", "Disease"} if task_name == "ner" else DEFAULT_LABEL_UNIVERSE | {"macro"}
    assert {key: metrics["f1"] for key, metrics in report["per_key"].items()} == dict.fromkeys(expected_keys, 1.0)


def test_eval_gold_equals_pred_all_ones(tmp_path, ontology_file, extract_setup, capsys):
    corpus_path, pool_path, cassette_path, _ = extract_setup
    extract_out = tmp_path / "extract"
    run_cli([
        "extract", "--task", "hpo", "--corpus", corpus_path, "--pool", pool_path,
        "--policy", "dynamic-fewshot", "--k", "5", "--glean", "1",
        "--ontology", ontology_file,
        "--backend-kind", "replay", "--cassette", cassette_path,
        "--out", extract_out,
    ])
    capsys.readouterr()
    eval_out = tmp_path / "eval"
    code = run_cli([
        "eval", "--task", "hpo", "--gold", corpus_path, "--pred", extract_out / "predictions.jsonl",
        "--format", "csv", "--model-name", "replay", "--out", eval_out,
    ])
    assert code == 0
    text = (eval_out / "report.csv").read_text()
    assert "replay,HPO,1.000,1.000,1.000" in text
    report = json.loads((eval_out / "report.json").read_text())
    assert report["per_key"]["HPO"]["f1"] == 1.0


def test_kg_build_and_query(tmp_path, graph_file, ontology_file, capsys):
    build_out = tmp_path / "kg"
    assert run_cli(["kg", "build", "--records", graph_file, "--ontology", ontology_file, "--out", build_out]) == 0
    counts = json.loads((build_out / "counts.json").read_text())
    assert counts["patients"] == 100
    capsys.readouterr()

    assert run_cli([
        "kg", "query", "--graph", build_out / "graph.jsonl",
        "--icd", "G40.83", "G40.833", "G40.834",
    ]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["cohort_size"] == 38

    assert run_cli(["kg", "query", "--graph", build_out / "graph.jsonl", "--keyword", "BPAN"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert len(result["patients_with_hits"]) == 2


def test_cohort_freq_reference_row(tmp_path, graph_file, ontology_file, annotations_file, capsys):
    out = tmp_path / "freq"
    code = run_cli([
        "cohort-freq", "--graph", graph_file, "--ontology", ontology_file,
        "--annotations", annotations_file,
        "--icd", "G40.83", "G40.833", "G40.834",
        "--out", out,
    ])
    assert code == 0
    freq_csv = (out / "frequencies.csv").read_text()
    assert "HP:0011172,Complex febrile seizure,34,0.895" in freq_csv
    heatmap = (out / "heatmap.csv").read_text()
    assert "HP:0011172,Complex febrile seizure,nervous system,0.895,Very frequent,Very frequent,0" in heatmap
    payload = json.loads((out / "frequencies.json").read_text())
    assert payload["cohort_size"] == 38


def test_missing_flags_reported_together(capsys):
    code = run_cli(["eval"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert len(err["problems"]) == 4  # task, gold, pred, out all missing


def test_nonexistent_path_is_config_error(tmp_path, capsys):
    code = run_cli(["ontology", "stats", "--ontology", tmp_path / "missing.obo"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "does not exist" in err["problems"][0]


def test_config_file_supplies_defaults(tmp_path, ontology_file, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(f"ontology: {ontology_file}\n")
    assert run_cli(["--config", config, "ontology", "stats"]) == 0
    assert json.loads(capsys.readouterr().out)["term_count"] == 52


def test_config_file_flag_overrides(tmp_path, dravet_ontology, ontology_file, capsys):
    other = tmp_path / "tiny.obo"
    other.write_text("[Term]\nid: HP:0000001\nname: Only\n")
    config = tmp_path / "run.yaml"
    config.write_text(f"ontology: {other}\n")
    # explicit flag wins over the config value
    assert run_cli(["--config", config, "ontology", "stats", "--ontology", ontology_file]) == 0
    assert json.loads(capsys.readouterr().out)["term_count"] == 52


def test_config_unknown_key_rejected(tmp_path, ontology_file, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("not_a_real_option: 5\n")
    code = run_cli(["--config", config, "ontology", "stats", "--ontology", ontology_file])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "not_a_real_option" in err["problems"][0]


@pytest.mark.parametrize(
    "command",
    [
        ["ontology", "stats"],
        ["corpus", "synth"],
        ["extract"],
        ["eval"],
        ["kg", "build"],
        ["kg", "query"],
        ["cohort-freq"],
        ["discover"],
        ["cassette", "record"],
    ],
)
def test_help_for_every_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command + ["--help"])
    assert exc.value.code == 0
    assert "--" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["ontology", "stats", "--frobnicate"])
    assert exc.value.code == 2


def test_corpus_synth_multilabel(tmp_path):
    out = tmp_path / "ml"
    assert run_cli([
        "corpus", "synth", "--kind", "multilabel", "--seed", "5",
        "--n-docs", "3", "--labels-per-doc", "2", "--out", out,
    ]) == 0
    lines = (out / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert all(len(json.loads(l)["labels"]) == 2 for l in lines)


def test_discover_cli_with_replay(tmp_path, dravet_ontology, ontology_file, capsys):
    from phenokg.discovery import run_funnel, save_rubric
    from phenokg.extraction import GleanConfig

    graph, planted = fixtures.build_discovery_graph(n_patients=60, seed=13, n_positive=3)
    graph_path = tmp_path / "haystack.jsonl"
    save_graph(graph, graph_path)
    rubric = fixtures.bpan_rubric()
    rubric_path = tmp_path / "rubric.json"
    save_rubric(rubric, rubric_path)
    allowed_path = tmp_path / "allowed.txt"
    allowed_path.write_text("\n".join(sorted(fixtures.BPAN_ALLOWED_TERMS)) + "\n")
    terms = sorted(fixtures.BPAN_ALLOWED_TERMS)

    def responder(request):
        tag = request.request_tag
        if tag.startswith("score:"):
            key = tag.split(":", 1)[1]
            score = 8 if key in planted else 2
            return json.dumps({"score": score, "rationale": "scripted"})
        _, key, round_part = tag.split(":")
        if round_part != "r0":
            return json.dumps({key: []})
        return json.dumps(
            {key: [{"category": terms[0], "confidence": 0.9, "reasoning": "scripted"}]}
        )

    # record a cassette covering exactly the prompts the CLI run will make
    recorder = fixtures.RecordingBackend(ScriptedBackend(responder=responder))
    run_funnel(
        graph,
        rubric,
        keywords=["BPAN"],
        generic_icd=list(fixtures.BPAN_GENERIC_ICD10),
        threshold=7,
        allowed_terms=fixtures.BPAN_ALLOWED_TERMS,
        backend=recorder,
        ontology=dravet_ontology,
        glean=GleanConfig(1),
    )
    cassette = tmp_path / "funnel-cassette.jsonl"
    write_cassette(cassette, recorder.entries)

    out = tmp_path / "discover"
    code = run_cli([
        "discover", "--graph", graph_path, "--ontology", ontology_file,
        "--rubric", rubric_path, "--allowed-terms", allowed_path,
        "--keyword", "BPAN", "--icd", *fixtures.BPAN_GENERIC_ICD10,
        "--threshold", "7", "--glean", "1",
        "--backend-kind", "replay", "--cassette", cassette,
        "--out", out,
    ])
    assert code == 0
    report = json.loads((out / "funnel.json").read_text())
    finalists = sorted(f["patient"] for f in report["finalists"])
    assert finalists == planted
    assert (out / "funnel.md").exists()
    assert (out / "audit.jsonl").exists()
    stage = {s["stage"]: s["count"] for s in report["stage_counts"]}
    assert stage["candidates"] == 60


def _failed_run_audit(code, out, capsys, error):
    """Check a run that exited 1 with a JSON error and a manifest; return its audit entries."""
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert (out / "manifest.json").exists()
    return [json.loads(line) for line in (out / "audit.jsonl").read_text().splitlines()]


def test_extract_with_nothing_extracted_exits_nonzero(tmp_path, ontology_file, extract_setup, capsys):
    corpus_path, _, _, test_docs = extract_setup
    empty = tmp_path / "empty.jsonl"
    write_cassette(empty, [])
    out = tmp_path / "extract"
    code = run_cli([
        "extract", "--task", "hpo", "--corpus", corpus_path, "--ontology", ontology_file,
        "--backend-kind", "replay", "--cassette", empty, "--out", out,
    ])
    audit = _failed_run_audit(code, out, capsys, "PhenoKGError")
    assert {entry["event"] for entry in audit} == {"document_round_failed"}
    assert len(audit) == len(test_docs)


def test_discover_with_nothing_scored_exits_nonzero(tmp_path, ontology_file, capsys):
    from phenokg.discovery import save_rubric

    graph, _ = fixtures.build_discovery_graph(n_patients=20, seed=13, n_positive=2)
    graph_path = tmp_path / "haystack.jsonl"
    save_graph(graph, graph_path)
    rubric_path = tmp_path / "rubric.json"
    save_rubric(fixtures.bpan_rubric(), rubric_path)
    empty = tmp_path / "empty.jsonl"
    write_cassette(empty, [])
    out = tmp_path / "discover"
    code = run_cli([
        "discover", "--graph", graph_path, "--ontology", ontology_file, "--rubric", rubric_path,
        "--keyword", "BPAN", "--icd", *fixtures.BPAN_GENERIC_ICD10,
        "--backend-kind", "replay", "--cassette", empty, "--out", out,
    ])
    audit = _failed_run_audit(code, out, capsys, "ScoringError")
    assert {entry["event"] for entry in audit} == {"scoring_failed"}
    assert len(audit) == 20


def test_cassette_record_cli(tmp_path, capsys):
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            self.rfile.read(length)
            encoded = json.dumps(
                {"choices": [{"message": {"content": "recorded reply"}}], "usage": {}}
            ).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(json.dumps({"system": "s", "user": "hello"}) + "\n")
        out_path = tmp_path / "recorded.jsonl"
        code = run_cli([
            "cassette", "record", "--requests", requests_path,
            "--endpoint", f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions",
            "--model", "stub", "--out", out_path,
        ])
        assert code == 0
        entries = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert entries[0]["response"] == "recorded reply"
    finally:
        server.shutdown()
        server.server_close()


def _malformed_input_error(code, capsys, path, line_no):
    """Check a run that exited 1 with a JSON error naming ``path`` and its line; return the error."""
    assert code == 1
    error = json.loads(capsys.readouterr().err)
    assert f"{path} line {line_no}: " in error["message"]
    return error


@pytest.mark.parametrize("command", ["build", "query"])
def test_kg_commands_reject_a_non_object_graph_line(tmp_path, graph_file, capsys, command):
    path = tmp_path / "bad-graph.jsonl"
    path.write_text(graph_file.read_text().splitlines()[0] + "\n[1, 2]\n")
    flags = ["--graph", path, "--icd", "G40.83"] if command == "query" else ["--records", path, "--out", tmp_path]
    error = _malformed_input_error(run_cli(["kg", command, *flags]), capsys, path, 2)
    assert error == {"error": "GraphIntegrityError", "message": f"{path} line 2: expected a JSON object"}


def test_cassette_record_rejects_a_request_without_user(tmp_path, capsys):
    path = tmp_path / "requests.jsonl"
    path.write_text(json.dumps({"system": "s", "user": "u"}) + "\n" + json.dumps({"system": "s"}) + "\n")
    code = run_cli([
        "cassette", "record", "--requests", path,
        "--endpoint", "http://127.0.0.1:9/v1/chat/completions", "--out", tmp_path / "recorded.jsonl",
    ])
    error = _malformed_input_error(code, capsys, path, 2)
    assert error == {"error": "DomainError", "message": f"{path} line 2: missing key 'user'"}
    assert not (tmp_path / "recorded.jsonl").exists()


def test_eval_rejects_a_bad_prediction_line(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"doc_id": "d1", "text": "t", "hpo_ids": []}) + "\n")
    pred = tmp_path / "predictions.jsonl"
    pred.write_text(json.dumps({"key": "d1", "assertions": []}) + "\n\n{\"key\": \"d2\", \n")
    code = run_cli(["eval", "--task", "hpo", "--gold", gold, "--pred", pred, "--out", tmp_path / "eval"])
    error = _malformed_input_error(code, capsys, pred, 3)
    assert error["error"] == "DomainError" and "invalid JSON" in error["message"]


ASSERTION = {"kind": "assertion", "patient": "p1", "term": "HP:0011172", "confidence": 0.5}
BAD_GRAPH_LINES = [
    ({"kind": "patient", "key": "p2", "icd10": "G40.83"}, 'icd10 must be an array, got "G40.83"'),
    ({"kind": "patient", "key": "p2", "demographics": [1]}, "demographics must be an object, got [1]"),
    ({"kind": "note", "note_id": "n2", "patient": "p1", "text": 5}, "text must be a string, got 5"),
    ({"kind": "patient", "key": "p2", "icd10": [5]}, "code must be a string, got 5"),
    ({"kind": "patient", "key": 5}, "key must be a string, got 5"),
    ({"kind": "note", "note_id": 5, "patient": "p1", "text": "t"}, "note_id must be a string, got 5"),
    ({"kind": "note", "note_id": "n2", "patient": 5, "text": "t"}, "patient must be a string, got 5"),
    ({**ASSERTION, "patient": ["p1"]}, 'patient must be a string, got ["p1"]'),
    ({**ASSERTION, "extractor_version": [1]}, "extractor_version must be a string, got [1]"),
    ({**ASSERTION, "reasoning": 5}, "reasoning must be a string, got 5"),
    ({**ASSERTION, "source_note": 5}, "source_note must be a string, got 5"),
]


@pytest.mark.parametrize("record, problem", BAD_GRAPH_LINES)
def test_kg_build_rejects_a_field_of_the_wrong_shape(tmp_path, capsys, record, problem):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps({"kind": "patient", "key": "p1"}) + "\n" + json.dumps(record) + "\n")
    code = run_cli(["kg", "build", "--records", path, "--out", tmp_path / "kg"])
    error = _malformed_input_error(code, capsys, path, 2)
    assert error == {"error": "GraphIntegrityError", "message": f"{path} line 2: {problem}"}


NER_GOLD = "d1|t|valproate\n"
HPO_GOLD = json.dumps({"doc_id": "d1", "text": "t", "hpo_ids": []}) + "\n"
MULTILABEL_GOLD = json.dumps({"doc_id": "d1", "text": "t", "labels": []}) + "\n"
BAD_PREDICTION_LINES = [
    ("ner", NER_GOLD, {"doc_id": "d1", "mentions": []}, {"doc_id": "d2", "mentions": {}},
     "mentions must be an array, got {}"),
    ("ner", NER_GOLD, {"doc_id": "d1", "mentions": []}, {"doc_id": "d2", "mentions": [{"surface": "x", "type": 5}]},
     "type must be a string, got 5"),
    ("hpo", HPO_GOLD, {"key": "d1", "assertions": []}, {"key": "d2", "assertions": {}},
     "assertions must be an array, got {}"),
    ("multilabel", MULTILABEL_GOLD, {"doc_id": "d1", "labels": []}, {"doc_id": "d2", "labels": "OBESITY"},
     'labels must be an array, got "OBESITY"'),
]


@pytest.mark.parametrize("task_name, gold_text, good, bad, problem", BAD_PREDICTION_LINES)
def test_eval_rejects_a_prediction_field_of_the_wrong_shape(tmp_path, capsys, task_name, gold_text, good, bad, problem):
    gold = tmp_path / "gold"
    gold.write_text(gold_text)
    pred = tmp_path / "predictions.jsonl"
    pred.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    code = run_cli(["eval", "--task", task_name, "--gold", gold, "--pred", pred, "--out", tmp_path / "eval"])
    error = _malformed_input_error(code, capsys, pred, 2)
    assert error == {"error": "DomainError", "message": f"{pred} line 2: {problem}"}


NUMERIC_KEY_LINES = [
    ("pred", {"doc_id": 5, "labels": []}, "DomainError", "doc_id must be a string, got 5"),
    ("gold", {"doc_id": 7, "text": "t", "labels": ["OBESITY"]}, "CorpusIntegrityError",
     "doc_id must be a string, got 7"),
]


@pytest.mark.parametrize("side, line, error_name, problem", NUMERIC_KEY_LINES, ids=["pred", "gold"])
def test_eval_rejects_a_document_key_that_is_not_a_string(tmp_path, capsys, side, line, error_name, problem):
    paths = {"gold": tmp_path / "gold.jsonl", "pred": tmp_path / "predictions.jsonl"}
    paths["gold"].write_text(MULTILABEL_GOLD)
    paths["pred"].write_text(json.dumps({"doc_id": "d1", "labels": []}) + "\n")
    paths[side].write_text(json.dumps(line) + "\n")
    flags = ["--gold", paths["gold"], "--pred", paths["pred"], "--out", tmp_path / "eval"]
    code = run_cli(["eval", "--task", "multilabel", *flags])
    error = _malformed_input_error(code, capsys, paths[side], 1)
    assert error == {"error": error_name, "message": f"{paths[side]} line 1: {problem}"}


def _assert_manifest_input(out, name, path):
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs[name] == {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def test_manifests_list_every_path_input(tmp_path, graph_file, ontology_file, annotations_file, demo_cohort):
    from phenokg.discovery import save_rubric

    universe = tmp_path / "universe.txt"
    universe.write_text("\n".join(sorted(DEFAULT_LABEL_UNIVERSE)) + "\n")
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"doc_id": "d1", "text": "t", "labels": ["OBESITY"]}) + "\n")
    pred = tmp_path / "predictions.jsonl"
    pred.write_text(json.dumps({"doc_id": "d1", "labels": ["OBESITY"]}) + "\n")
    out = tmp_path / "eval"
    assert run_cli(["eval", "--task", "multilabel", "--gold", gold, "--pred", pred, "--universe", universe,
                    "--out", out]) == 0
    _assert_manifest_input(out, "universe", universe)

    cohort = tmp_path / "cohort.txt"
    cohort.write_text("\n".join(sorted(demo_cohort)) + "\n")
    out = tmp_path / "freq"
    assert run_cli(["cohort-freq", "--graph", graph_file, "--ontology", ontology_file,
                    "--annotations", annotations_file, "--cohort-file", cohort, "--out", out]) == 0
    _assert_manifest_input(out, "cohort_file", cohort)

    allowed = tmp_path / "allowed.txt"
    allowed.write_text("\n".join(sorted(fixtures.BPAN_ALLOWED_TERMS)) + "\n")
    rubric = tmp_path / "rubric.json"
    save_rubric(fixtures.bpan_rubric(), rubric)
    empty = tmp_path / "empty.jsonl"
    write_cassette(empty, [])
    out = tmp_path / "discover"
    # an empty cassette scores nobody, so discover exits 1, but it still writes its manifest
    assert run_cli(["discover", "--graph", graph_file, "--ontology", ontology_file, "--rubric", rubric,
                    "--keyword", "BPAN", "--allowed-terms", allowed,
                    "--backend-kind", "replay", "--cassette", empty, "--out", out]) == 1
    _assert_manifest_input(out, "allowed_terms", allowed)
