import argparse
import contextlib
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import threading
from pathlib import Path

import pytest

from phenokg import cli, fixtures
from phenokg.cli import build_parser, main
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
from phenokg.llm import CassetteBackend, ScriptedBackend, request_hash
from phenokg.ontology import Ontology, dump_ontology
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
    save_hpo_gold([(d.document, d.terms) for d in pool_docs], pool_path)
    save_hpo_gold([(d.document, d.terms) for d in test_docs], corpus_path)

    # mirror the CLI's task/policy construction exactly, record the cassette
    task = HpoTask(dravet_ontology)
    pool = [(d.document, d.terms) for d in pool_docs]
    embedder = HashedEmbedder()
    index = build_index(embedder, [(doc.doc_id, doc.text) for doc, _ in pool])
    policy = FewShotPolicy(
        mode=PolicyMode.DYNAMIC_FEW_SHOT, k=5, example_pool=pool, index=index, embedder=embedder
    )
    gold = {d.document.doc_id: d.terms for d in pool_docs + test_docs}
    backend = CassetteBackend(inner=ScriptedBackend(responder=gold_hpo_responder(task, gold)))
    extract_corpus(task, [d.document for d in test_docs], backend, policy=policy, glean=GleanConfig(1))
    cassette_path = tmp_path / "cassette.jsonl"
    backend.save(cassette_path)
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


def test_extract_on_replay_starts_no_worker_thread_whatever_max_in_flight_says(
    tmp_path, ontology_file, extract_setup, monkeypatch
):
    corpus_path, pool_path, cassette_path, _ = extract_setup
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a worker thread was started"))
    assert run_cli([
        "extract", "--task", "hpo", "--corpus", corpus_path, "--pool", pool_path,
        "--policy", "dynamic-fewshot", "--k", "5", "--glean", "1", "--ontology", ontology_file,
        "--backend-kind", "replay", "--cassette", cassette_path, "--max-in-flight", "4",
        "--out", tmp_path / "extract",
    ]) == 0


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


def test_cohort_freq_csvs_quote_a_name_with_a_comma(tmp_path, dravet_ontology, graph_file, annotations_file):
    name = 'Seizure, febrile "complex"'
    renamed = tmp_path / "renamed.obo"
    terms = [dataclasses.replace(t, name=name) if t.id == "HP:0011172" else t for t in dravet_ontology]
    renamed.write_text(dump_ontology(Ontology(terms)))
    out = tmp_path / "freq"
    assert run_cli(["cohort-freq", "--graph", graph_file, "--ontology", renamed, "--annotations", annotations_file,
                    "--icd", "G40.83", "G40.833", "G40.834", "--out", out]) == 0
    for table in ("frequencies.csv", "heatmap.csv"):
        with open(out / table, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert [len(row) for row in rows] == [len(header)] * len(rows)
        names = {row[header.index("term")]: row[header.index("name")] for row in rows}
        assert names["HP:0011172"] == name


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


HELP_COMMANDS = [
    ["ontology", "stats"],
    ["corpus", "synth"],
    ["extract"],
    ["eval"],
    ["kg", "build"],
    ["kg", "query"],
    ["cohort-freq"],
    ["discover"],
    ["cassette", "record"],
]


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_for_every_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command + ["--help"])
    assert exc.value.code == 0
    assert "--" in capsys.readouterr().out


def _leaf_commands(parser, prefix=()):
    """The word sequence of every runnable subcommand under ``parser``."""
    groups = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not groups:
        return [list(prefix)]
    return [leaf for name, child in groups[0].choices.items() for leaf in _leaf_commands(child, (*prefix, name))]


def test_the_help_test_covers_every_subcommand():
    assert sorted(_leaf_commands(build_parser())) == sorted(HELP_COMMANDS)


def test_malformed_config_yaml_is_a_config_error(tmp_path, ontology_file, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("ontology: [unclosed\n")
    assert run_cli(["--config", config, "ontology", "stats", "--ontology", ontology_file]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["problems"][0].startswith(f"config file {config} is not valid YAML: ")


@pytest.fixture()
def ner_corpus(tmp_path):
    """A one-document NER corpus and an empty cassette: a run over them extracts nothing, so exits 1."""
    corpus = tmp_path / "corpus.pubtator"
    corpus.write_text("d1|t|valproate\n")
    cassette = tmp_path / "empty.jsonl"
    CassetteBackend().save(cassette)
    return corpus, cassette


@pytest.mark.parametrize("source", ["flag", "config"])
def test_max_in_flight_zero_is_refused(tmp_path, ner_corpus, capsys, source):
    corpus, cassette = ner_corpus
    config = tmp_path / "run.yaml"
    config.write_text("max_in_flight: 0\n")
    flags = ["--max-in-flight", "0"] if source == "flag" else []
    prefix = ["--config", config] if source == "config" else []
    code = run_cli([*prefix, "extract", "--task", "ner", "--corpus", corpus, "--cassette", cassette, *flags,
                    "--out", tmp_path / "extract"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["problems"] == ["max_in_flight must be >= 1, got 0"]


def _manifest_config(out):
    return json.loads((out / "manifest.json").read_text())["config"]


def test_manifests_record_the_defaults_a_run_used(tmp_path, ner_corpus, graph_file, ontology_file, capsys):
    corpus, cassette = ner_corpus
    out = tmp_path / "extract"
    assert run_cli(["extract", "--task", "ner", "--corpus", corpus, "--cassette", cassette, "--out", out]) == 1
    expected = {"backend_kind": "replay", "policy": "zero-shot", "max_in_flight": 4, "glean": 1, "k": 5}
    assert {key: _manifest_config(out)[key] for key in expected} == expected

    rubric = tmp_path / "rubric.json"
    rubric.write_text(json.dumps(dataclasses.asdict(fixtures.bpan_rubric())))
    out = tmp_path / "discover"
    assert run_cli(["discover", "--graph", graph_file, "--ontology", ontology_file, "--rubric", rubric,
                    "--keyword", "BPAN", "--cassette", cassette, "--out", out]) == 1
    expected = {"backend_kind": "replay", "max_in_flight": 4, "threshold": 7, "glean": 1}
    assert {key: _manifest_config(out)[key] for key in expected} == expected


def test_a_config_string_goes_through_the_flag_type(tmp_path, ner_corpus, monkeypatch, capsys):
    corpus, cassette = ner_corpus
    config = tmp_path / "run.yaml"
    config.write_text('k: "3"\n')
    policies = []

    def extract_nothing(task, documents, backend, policy, **_):
        policies.append(policy)
        return {}

    monkeypatch.setattr(cli, "extract_corpus", extract_nothing)
    code = run_cli(["--config", config, "extract", "--task", "ner", "--corpus", corpus, "--pool", corpus,
                    "--policy", "static-fewshot", "--cassette", cassette, "--out", tmp_path / "extract"])
    assert code == 1  # the stub extracts nothing
    assert [(type(p.k), p.k) for p in policies] == [(int, 3)]
    assert _manifest_config(tmp_path / "extract")["k"] == 3


@pytest.mark.parametrize(
    "yaml_text, command, problem",
    [
        ("icd: G40.83\n", ["kg", "query"], "config key icd: expected a YAML list"),
        ("icd: G40.83\n", ["discover"], "config key icd: expected a YAML list"),
        (
            "ontology: [a.obo, b.obo]\n",
            ["ontology", "stats"],
            "config key ontology: expected one value, got ['a.obo', 'b.obo']",
        ),
        (
            "policy: bogus\n",
            ["extract"],
            "config key policy: invalid choice 'bogus' (choose from zero-shot, static-fewshot, dynamic-fewshot)",
        ),
        ("mode: bogus\n", ["kg", "query"], "config key mode: invalid choice 'bogus' (choose from any, all)"),
        ("k: three\n", ["extract"], "config key k: invalid literal for int() with base 10: 'three'"),
    ],
    ids=["kg-query-icd", "discover-icd", "ontology-stats-ontology", "extract-policy", "kg-query-mode", "extract-k"],
)
def test_a_config_value_its_flag_would_refuse_is_a_config_error(tmp_path, capsys, yaml_text, command, problem):
    config = tmp_path / "run.yaml"
    config.write_text(yaml_text)
    # refused while the config is read, before the command checks its own flags
    assert run_cli(["--config", config, *command]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["problems"]) == ("ConfigError", [problem])


def test_a_config_list_is_a_list_of_codes(tmp_path, graph_file, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("icd: [G40.83, G40.833, G40.834]\n")
    assert run_cli(["--config", config, "kg", "query", "--graph", graph_file]) == 0
    assert json.loads(capsys.readouterr().out)["cohort_size"] == 38


def test_a_config_number_goes_through_the_flag_type(tmp_path, ontology_file, monkeypatch, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("ontology: 5\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli(["--config", config, "ontology", "stats"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["problems"]) == ("ConfigError", ["path does not exist: 5"])

    (tmp_path / "5").write_text(ontology_file.read_text())
    assert run_cli(["--config", config, "ontology", "stats"]) == 0
    assert json.loads(capsys.readouterr().out)["term_count"] == 52


def test_discover_reports_a_rubric_of_the_wrong_shape(tmp_path, graph_file, ontology_file, capsys):
    rubric = tmp_path / "rubric.json"
    rubric.write_text(json.dumps({"disease_name": "d", "disease_context": "ctx", "criteria": 5}))
    code = run_cli(["discover", "--graph", graph_file, "--ontology", ontology_file, "--rubric", rubric,
                    "--keyword", "BPAN", "--out", tmp_path / "discover"])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DomainError", "message": f"{rubric}: criteria must be an array, got 5"
    }


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
    from phenokg.discovery import run_funnel
    from phenokg.extraction import GleanConfig

    graph, planted = fixtures.build_discovery_graph(n_patients=60, seed=13, n_positive=3)
    graph_path = tmp_path / "haystack.jsonl"
    save_graph(graph, graph_path)
    rubric = fixtures.bpan_rubric()
    rubric_path = tmp_path / "rubric.json"
    rubric_path.write_text(json.dumps(dataclasses.asdict(rubric)))
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
    recorder = CassetteBackend(inner=ScriptedBackend(responder=responder))
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
    recorder.save(cassette)

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
    CassetteBackend().save(empty)
    out = tmp_path / "extract"
    code = run_cli([
        "extract", "--task", "hpo", "--corpus", corpus_path, "--ontology", ontology_file,
        "--backend-kind", "replay", "--cassette", empty, "--out", out,
    ])
    audit = _failed_run_audit(code, out, capsys, "PhenoKGError")
    assert {entry["event"] for entry in audit} == {"document_round_failed"}
    assert len(audit) == len(test_docs)


def test_discover_with_nothing_scored_exits_nonzero(tmp_path, ontology_file, capsys):
    graph, _ = fixtures.build_discovery_graph(n_patients=20, seed=13, n_positive=2)
    graph_path = tmp_path / "haystack.jsonl"
    save_graph(graph, graph_path)
    rubric_path = tmp_path / "rubric.json"
    rubric_path.write_text(json.dumps(dataclasses.asdict(fixtures.bpan_rubric())))
    empty = tmp_path / "empty.jsonl"
    CassetteBackend().save(empty)
    out = tmp_path / "discover"
    code = run_cli([
        "discover", "--graph", graph_path, "--ontology", ontology_file, "--rubric", rubric_path,
        "--keyword", "BPAN", "--icd", *fixtures.BPAN_GENERIC_ICD10,
        "--backend-kind", "replay", "--cassette", empty, "--out", out,
    ])
    audit = _failed_run_audit(code, out, capsys, "ScoringError")
    assert {entry["event"] for entry in audit} == {"scoring_failed"}
    assert len(audit) == 20


@contextlib.contextmanager
def _chat_stub():
    """An OpenAI-compatible endpoint answering every request "reply <n>", n counting from 1; yields its URL."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    served = itertools.count(1)

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            self.rfile.read(length)
            encoded = json.dumps(
                {"choices": [{"message": {"content": f"reply {next(served)}"}}], "usage": {}}
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
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()


def test_cassette_record_cli(tmp_path, capsys):
    with _chat_stub() as endpoint:
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(json.dumps({"system": "s", "user": "hello"}) + "\n")
        out_path = tmp_path / "recorded.jsonl"
        code = run_cli([
            "cassette", "record", "--requests", requests_path,
            "--endpoint", endpoint,
            "--model", "stub", "--out", out_path,
        ])
        assert code == 0
        entries = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert entries[0]["response"] == "reply 1"


def test_cassette_record_writes_a_duplicated_request_once(tmp_path, capsys):
    requests_path = tmp_path / "requests.jsonl"
    requests_path.write_text((json.dumps({"system": "s", "user": "hello"}) + "\n") * 2)
    out_path = tmp_path / "recorded.jsonl"
    with _chat_stub() as endpoint:
        code = run_cli([
            "cassette", "record", "--requests", requests_path, "--endpoint", endpoint, "--max-in-flight", "1",
            "--out", out_path,
        ])
    assert code == 0
    line = json.dumps({"hash": request_hash("s", "hello"), "response": "reply 1"})
    assert out_path.read_text().splitlines() == [line]
    assert capsys.readouterr().out == f"recorded 1 responses -> {out_path}\n"


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


BAD_REQUEST_FIELDS = [
    ({"system": 5, "user": "hi"}, "system must be a string, got 5"),
    ({"user": 7}, "user must be a string, got 7"),
    ({"user": "u", "request_tag": ["t"]}, 'request_tag must be a string, got ["t"]'),
    ({"user": "u", "temperature": "0"}, 'temperature must be a number, got "0"'),
    ({"user": "u", "temperature": True}, "temperature must be a number, got true"),
    ({"user": "u", "max_tokens": 1.5}, "max_tokens must be an integer, got 1.5"),
]


@pytest.mark.parametrize("line, problem", BAD_REQUEST_FIELDS)
def test_cassette_record_rejects_a_request_field_of_the_wrong_type(tmp_path, capsys, line, problem):
    path = tmp_path / "requests.jsonl"
    path.write_text(json.dumps({"system": "s", "user": "u"}) + "\n" + json.dumps(line) + "\n")
    code = run_cli([
        "cassette", "record", "--requests", path,
        "--endpoint", "http://127.0.0.1:9/v1/chat/completions", "--out", tmp_path / "recorded.jsonl",
    ])
    error = _malformed_input_error(code, capsys, path, 2)
    assert error == {"error": "DomainError", "message": f"{path} line 2: {problem}"}
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
    ({**ASSERTION, "confidence": "0.9"}, 'confidence must be a number, got "0.9"'),
    ({**ASSERTION, "confidence": True}, "confidence must be a number, got true"),
    ({"kind": "patient", "key": "p2", "demographics": {"age_years": [1]}}, "age_years must be an integer, got [1]"),
    ({"kind": "patient", "key": "p2", "demographics": {"age_years": 1.5}}, "age_years must be an integer, got 1.5"),
    ({"kind": "patient", "key": "p2", "demographics": {"age_years": True}}, "age_years must be an integer, got true"),
    ({"kind": "patient", "key": "p2", "demographics": {"race": 5}}, "race must be a string, got 5"),
    ({"kind": "patient", "key": "p2", "demographics": {"state": ["PA"]}}, 'state must be a string, got ["PA"]'),
    ({"kind": "patient", "key": "p2", "demographics": {"zip": 19104}}, "zip must be a string, got 19104"),
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
    ("hpo", HPO_GOLD, {"key": "d1", "assertions": []},
     {"key": "d2", "assertions": [{"term": "HP:0000001", "confidence": "0.9"}]},
     'confidence must be a number, got "0.9"'),
    ("multilabel", MULTILABEL_GOLD, {"doc_id": "d1", "labels": []}, {"doc_id": "d2", "labels": "OBESITY"},
     'labels must be an array, got "OBESITY"'),
    # gold holds both documents, so only the bad field can stop the run
    ("multilabel", MULTILABEL_GOLD + MULTILABEL_GOLD.replace("d1", "d2"), {"doc_id": "d1", "labels": []},
     {"doc_id": "d2", "labels": [5]}, "label must be a string, got 5"),
    ("hpo", HPO_GOLD + HPO_GOLD.replace("d1", "d2"), {"key": "d1", "assertions": []},
     {"key": "d2", "assertions": [{"term": "HP:0000001", "confidence": 0.9, "reasoning": 7}]},
     "reasoning must be a string, got 7"),
    ("ner", NER_GOLD, {"doc_id": "d1", "mentions": []},
     {"doc_id": "d2", "mentions": [{"surface": 5, "type": "Chemical"}]}, "surface must be a string, got 5"),
    ("ner", NER_GOLD, {"doc_id": "d1", "mentions": []}, {"doc_id": "d2", "mentions": ["valproate"]},
     'mention must be an object, got "valproate"'),
    ("hpo", HPO_GOLD, {"key": "d1", "assertions": []}, {"key": "d2", "assertions": [5]},
     "assertion must be an object, got 5"),
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


@pytest.mark.parametrize("command", ["extract", "discover"])
def test_an_allowed_terms_error_names_the_file_and_line(tmp_path, capsys, graph_file, ontology_file, command):
    allowed = tmp_path / "allowed.txt"
    allowed.write_text("HP:0001250\nfoo\n")
    corpus = tmp_path / "gold.jsonl"
    corpus.write_text(HPO_GOLD)
    rubric = tmp_path / "rubric.json"
    rubric.write_text(json.dumps(dataclasses.asdict(fixtures.bpan_rubric())))
    inputs = {
        "extract": ["--task", "hpo", "--corpus", corpus],
        "discover": ["--graph", graph_file, "--rubric", rubric, "--keyword", "BPAN"],
    }
    code = run_cli([command, *inputs[command], "--ontology", ontology_file, "--allowed-terms", allowed,
                    "--out", tmp_path / "out"])
    error = _malformed_input_error(code, capsys, allowed, 2)
    message = f"{allowed} line 2: invalid term id 'foo': expected HP: followed by 7 digits"
    assert error == {"error": "DomainError", "message": message}


def test_manifests_list_every_path_input(tmp_path, graph_file, ontology_file, annotations_file, demo_cohort):
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
    rubric.write_text(json.dumps(dataclasses.asdict(fixtures.bpan_rubric())))
    empty = tmp_path / "empty.jsonl"
    CassetteBackend().save(empty)
    out = tmp_path / "discover"
    # an empty cassette scores nobody, so discover exits 1, but it still writes its manifest
    assert run_cli(["discover", "--graph", graph_file, "--ontology", ontology_file, "--rubric", rubric,
                    "--keyword", "BPAN", "--allowed-terms", allowed,
                    "--backend-kind", "replay", "--cassette", empty, "--out", out]) == 1
    _assert_manifest_input(out, "allowed_terms", allowed)


def test_the_config_file_is_hashed_in_the_manifest(tmp_path, ontology_file):
    config = tmp_path / "run.yaml"
    config.write_text(f"ontology: {ontology_file}\n")
    out = tmp_path / "stats"
    assert run_cli(["--config", config, "ontology", "stats", "--out", out]) == 0
    _assert_manifest_input(out, "config", config)
    _assert_manifest_input(out, "ontology", ontology_file)
