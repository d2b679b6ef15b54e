"""Command-line surface: reproducible runs with a manifest per output directory.

Every command that writes artifacts takes ``--out DIR`` and drops a
``manifest.json`` (config snapshot, input hashes, versions) next to its
outputs, so a run can be reproduced from the manifest plus the referenced
files. A ``--config`` YAML file supplies defaults; explicit flags override
it. Failures print a machine-readable JSON error to stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import yaml

from . import __version__
from .corpus import (
    DEFAULT_LABEL_UNIVERSE,
    load_hpo_gold,
    load_multilabel_gold,
    load_span_corpus,
    save_hpo_gold,
    save_multilabel_gold,
    save_span_corpus,
    synthesize_fixture,
    synthesize_multilabel_fixture,
)
from .cohortstats import compare_to_ontology, derive_groups, heatmap_csv, load_groups, phenotype_frequency
from .discovery import load_rubric, run_funnel
from .errors import ConfigError, DomainError, PhenoKGError, ScoringError
from .evaluation import MatchPolicy, render_report, score_hpo, score_multilabel, score_ner
from .extraction import (
    AuditLog,
    FewShotPolicy,
    GleanConfig,
    HpoTask,
    MultiLabelTask,
    NerTask,
    PolicyMode,
    extract_corpus,
)
from .fixtures import GROUP_SUBTREE_ROOTS
from .jsonl import iter_jsonl, write_atomic, write_jsonl
from .kg import cohort_by_icd, ingest_patients, build_graph, keyword_search, load_graph, save_graph
from .llm import BackendConfig, ChatRequest, make_backend, record_cassette, validate_config
from .ontology import TermId, load_annotations, load_ontology
from .retrieval import HashedEmbedder, build_index


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace) -> None:
    """Write ``manifest.json``: the config, and the SHA-256 of every path argument that is set."""
    inputs = {name: getattr(args, name) for name in _PATH_ARGS if getattr(args, name, None)}
    config_snapshot = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("handler",) and not k.startswith("_")
    }
    manifest = {
        "command": command,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in config_snapshot.items()},
        "inputs": {
            name: {"path": str(p), "sha256": _sha256(Path(p))} for name, p in sorted(inputs.items())
        },
        "versions": {"phenokg": __version__, "python": platform.python_version()},
    }
    write_atomic(out_dir / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(args, names: list[str]) -> None:
    problems = [f"--{name.replace('_', '-')} is required" for name in names if getattr(args, name) is None]
    missing = [
        f"path does not exist: {getattr(args, name)}"
        for name in names
        if getattr(args, name) is not None and name in _PATH_ARGS and not Path(getattr(args, name)).exists()
    ]
    problems.extend(missing)
    if problems:
        raise ConfigError(problems)


_PATH_ARGS = {
    "ontology",
    "corpus",
    "pool",
    "gold",
    "pred",
    "graph",
    "records",
    "annotations",
    "groups",
    "rubric",
    "cassette",
    "allowed_terms",
    "disease_context",
    "universe",
    "requests",
    "cohort_file",
}


def _or(value, default):
    return default if value is None else value


def _backend_config(args) -> BackendConfig:
    config = BackendConfig(
        kind=args.backend_kind or "replay",
        model_name=args.model or "",
        endpoint_url=args.endpoint or "",
        cassette_path=args.cassette or "",
        max_in_flight=args.max_in_flight or 4,
    )
    problems = validate_config(config)
    if problems:
        raise ConfigError(problems)
    return config


def _read_lines(path: str) -> list[str]:
    return [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]


# -- command handlers ---------------------------------------------------------


def cmd_ontology_stats(args) -> None:
    _require(args, ["ontology"])
    ontology = load_ontology(args.ontology)
    synonyms = sum(len(t.synonyms) for t in ontology)
    roots = sum(1 for t in ontology if not t.parents)
    stats = {
        "term_count": ontology.term_count,
        "synonym_count": synonyms,
        "root_count": roots,
    }
    print(json.dumps(stats, indent=2, sort_keys=True))
    if args.out:
        out = _out_dir(args)
        write_atomic(out / "stats.json", [json.dumps(stats, indent=2, sort_keys=True) + "\n"])
        _write_manifest(out, "ontology stats", args)


def cmd_corpus_synth(args) -> None:
    _require(args, ["out"])
    args.kind = _or(args.kind, "hpo")
    args.seed = _or(args.seed, 0)
    args.n_docs = _or(args.n_docs, 10)
    args.labels_per_doc = _or(args.labels_per_doc, 3)
    out = _out_dir(args)
    if args.kind in ("hpo", "span"):
        _require(args, ["ontology"])
        ontology = load_ontology(args.ontology)
        docs = synthesize_fixture(args.seed, ontology, args.n_docs, args.labels_per_doc)
        if args.kind == "hpo":
            save_hpo_gold([(d.document, d.hpo_gold) for d in docs], out / "corpus.jsonl")
        else:
            save_span_corpus([(d.document, list(d.spans)) for d in docs], out / "corpus.pubtator")
    else:
        universe = frozenset(_read_lines(args.universe)) if args.universe else DEFAULT_LABEL_UNIVERSE
        corpus = synthesize_multilabel_fixture(args.seed, args.n_docs, args.labels_per_doc, universe)
        save_multilabel_gold(corpus, out / "corpus.jsonl")
    _write_manifest(out, "corpus synth", args)
    print(f"wrote {args.n_docs} documents to {out}")


_TASKS = {task.name: task for task in (NerTask, HpoTask, MultiLabelTask)}


def _load_task_corpus(task_name: str, path: str, universe):
    if task_name == "ner":
        return load_span_corpus(path)
    if task_name == "hpo":
        return load_hpo_gold(path)
    return load_multilabel_gold(path, universe)


def _build_task(args, universe):
    if args.task == "ner":
        return NerTask()
    if args.task == "hpo":
        _require(args, ["ontology"])
        ontology = load_ontology(args.ontology)
        allowed = frozenset(TermId(t) for t in _read_lines(args.allowed_terms)) if args.allowed_terms else None
        context = Path(args.disease_context).read_text(encoding="utf-8") if args.disease_context else ""
        return HpoTask(ontology, allowed_terms=allowed, disease_context=context)
    return MultiLabelTask(universe)


def _build_policy(args, task, pool_corpus) -> FewShotPolicy:
    mode = PolicyMode(args.policy or "zero-shot")
    if mode is PolicyMode.ZERO_SHOT:
        return FewShotPolicy()
    if pool_corpus is None:
        raise ConfigError(["--pool is required for few-shot policies"])
    pool = [(doc, gold) for doc, gold in pool_corpus]
    if mode is PolicyMode.STATIC_FEW_SHOT:
        return FewShotPolicy(mode=mode, k=args.k, example_pool=pool)
    embedder = HashedEmbedder()
    index = build_index(embedder, [(doc.doc_id, doc.text) for doc, _ in pool])
    return FewShotPolicy(mode=mode, k=args.k, example_pool=pool, index=index, embedder=embedder)


def cmd_extract(args) -> None:
    _require(args, ["task", "corpus", "out"])
    args.k = _or(args.k, 5)
    args.glean = _or(args.glean, 1)
    universe = frozenset(_read_lines(args.universe)) if args.universe else DEFAULT_LABEL_UNIVERSE
    documents = [doc for doc, _ in _load_task_corpus(args.task, args.corpus, universe)]
    task = _build_task(args, universe)
    pool_corpus = _load_task_corpus(args.task, args.pool, universe) if args.pool else None
    policy = _build_policy(args, task, pool_corpus)
    backend = make_backend(_backend_config(args))
    audit = AuditLog()
    results = extract_corpus(
        task,
        documents,
        backend,
        policy=policy,
        glean=GleanConfig(args.glean),
        audit=audit,
        max_in_flight=args.max_in_flight,
    )
    out = _out_dir(args)
    write_jsonl(out / "predictions.jsonl", (json.dumps(results[key].to_record()) for key in sorted(results)))
    audit.save(out / "audit.jsonl")
    _write_manifest(out, "extract", args)
    if documents and not results:
        raise PhenoKGError(f"extracted 0/{len(documents)} documents; see {out / 'audit.jsonl'}")
    print(f"extracted {len(results)}/{len(documents)} documents -> {out / 'predictions.jsonl'}")


def _load_predictions(task_name: str, path: str) -> dict:
    """``predictions.jsonl`` read back through the task's result type, by key."""
    from_record = _TASKS[task_name].result_type.from_record
    return {result.key: result for _, result in iter_jsonl(path, DomainError, from_record)}


def cmd_eval(args) -> None:
    _require(args, ["task", "gold", "pred", "out"])
    args.format = _or(args.format, "markdown")
    universe = frozenset(_read_lines(args.universe)) if args.universe else DEFAULT_LABEL_UNIVERSE
    gold_corpus = _load_task_corpus(args.task, args.gold, universe)
    predictions = _load_predictions(args.task, args.pred)
    if args.task == "ner":
        gold = {doc.doc_id: anns for doc, anns in gold_corpus}
        policy = MatchPolicy(args.match_policy or "normalized-mention-set")
        report = score_ner(gold, predictions, policy)
    elif args.task == "hpo":
        gold = {doc.doc_id: set(label.terms) for doc, label in gold_corpus}
        report = score_hpo(gold, predictions)
    else:
        gold = {doc.doc_id: set(label.labels) for doc, label in gold_corpus}
        report = score_multilabel(gold, predictions, universe)
    model = args.model_name or "model"
    text = render_report({model: report}, fmt=args.format)
    out = _out_dir(args)
    suffix = "csv" if args.format == "csv" else "md"
    write_atomic(out / f"report.{suffix}", [text])
    write_atomic(out / "report.json", [report.to_json() + "\n"])
    _write_manifest(out, "eval", args)
    print(text, end="")


def cmd_kg_build(args) -> None:
    _require(args, ["records", "out"])
    ontology = load_ontology(args.ontology) if args.ontology else None
    graph = build_graph(ingest_patients(args.records), ontology)
    out = _out_dir(args)
    save_graph(graph, out / "graph.jsonl")
    write_atomic(out / "counts.json", [json.dumps(graph.counts(), indent=2, sort_keys=True) + "\n"])
    _write_manifest(out, "kg build", args)
    print(json.dumps(graph.counts(), sort_keys=True))


def cmd_kg_query(args) -> None:
    _require(args, ["graph"])
    if not args.icd and not args.keyword:
        raise ConfigError(["provide --icd codes or --keyword"])
    graph = load_graph(args.graph)
    result: dict = {}
    if args.icd:
        cohort = sorted(cohort_by_icd(graph, args.icd, mode=_or(args.mode, "any")))
        result["cohort"] = cohort
        result["cohort_size"] = len(cohort)
    if args.keyword:
        hits = keyword_search(graph, args.keyword)
        result["keyword_hits"] = [{"patient": p, "note_id": n} for p, n in hits]
        result["patients_with_hits"] = sorted({p for p, _ in hits})
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        out = _out_dir(args)
        write_atomic(out / "query.json", [json.dumps(result, indent=2, sort_keys=True) + "\n"])
        _write_manifest(out, "kg query", args)


def cmd_cohort_freq(args) -> None:
    _require(args, ["graph", "ontology", "annotations", "out"])
    ontology = load_ontology(args.ontology)
    graph = load_graph(args.graph, ontology)
    annotations = load_annotations(args.annotations, ontology)
    if args.cohort_file:
        cohort = set(_read_lines(args.cohort_file))
    elif args.icd:
        cohort = cohort_by_icd(graph, args.icd, mode="any")
    else:
        raise ConfigError(["provide --icd codes or --cohort-file"])
    terms = {a.phenotype for a in annotations}
    frequencies = phenotype_frequency(
        graph, cohort, terms, min_confidence=_or(args.min_confidence, 0.0), ontology=ontology
    )
    comparisons = compare_to_ontology(frequencies, annotations)
    if args.groups:
        grouping = load_groups(args.groups)
    else:
        grouping = derive_groups(ontology, GROUP_SUBTREE_ROOTS)
    out = _out_dir(args)
    write_atomic(out / "heatmap.csv", [heatmap_csv(comparisons, grouping, ontology)])
    freq_rows = ["term,name,count,fraction"]
    for term, (count, fraction) in frequencies.items():
        freq_rows.append(f"{term},{ontology.name_of(term)},{count},{fraction:.3f}")
    write_atomic(out / "frequencies.csv", ["\n".join(freq_rows) + "\n"])
    payload = {
        "cohort_size": frequencies.cohort_size,
        "counts": {t: c for t, c in sorted(frequencies.counts.items())},
    }
    write_atomic(out / "frequencies.json", [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    _write_manifest(out, "cohort-freq", args)
    print(f"cohort size {frequencies.cohort_size}; wrote {out / 'heatmap.csv'}")


def cmd_discover(args) -> None:
    _require(args, ["graph", "ontology", "rubric", "out"])
    if not args.keyword and not args.icd:
        raise ConfigError(["provide --keyword terms or --icd codes"])
    ontology = load_ontology(args.ontology)
    graph = load_graph(args.graph, ontology)
    rubric = load_rubric(args.rubric)
    allowed = (
        frozenset(TermId(t) for t in _read_lines(args.allowed_terms))
        if args.allowed_terms
        else frozenset(t.id for t in ontology)
    )
    backend = make_backend(_backend_config(args))
    audit = AuditLog()
    report = run_funnel(
        graph,
        rubric,
        keywords=args.keyword or [],
        generic_icd=args.icd or [],
        threshold=_or(args.threshold, 7),
        allowed_terms=allowed,
        backend=backend,
        ontology=ontology,
        glean=GleanConfig(_or(args.glean, 1)),
        min_assertions=args.min_assertions,
        audit=audit,
    )
    out = _out_dir(args)
    write_atomic(out / "funnel.json", [report.to_json() + "\n"])
    write_atomic(out / "funnel.md", [report.to_markdown()])
    audit.save(out / "audit.jsonl")
    _write_manifest(out, "discover", args)
    stages = dict(report.stage_counts)
    if stages["candidates"] and not stages["scored"]:
        raise ScoringError(f"scored 0/{stages['candidates']} candidates; see {out / 'audit.jsonl'}")
    print(report.to_markdown(), end="")


def cmd_cassette_record(args) -> None:
    _require(args, ["requests", "out"])

    def convert(record: dict) -> ChatRequest:
        return ChatRequest(
            system=record.get("system", ""),
            user=record["user"],
            temperature=record.get("temperature", 0.0),
            max_tokens=record.get("max_tokens", 2048),
            request_tag=record.get("request_tag", ""),
        )

    requests_ = [request for _, request in iter_jsonl(args.requests, DomainError, convert)]
    config = BackendConfig(
        kind="http",
        model_name=args.model or "",
        endpoint_url=args.endpoint or "",
        max_in_flight=args.max_in_flight or 4,
    )
    problems = validate_config(config)
    if problems:
        raise ConfigError(problems)
    count = record_cassette(make_backend(config), requests_, args.out)
    print(f"recorded {count} responses -> {args.out}")


# -- parser -------------------------------------------------------------------


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend-kind", choices=["http", "replay"], default=None, help="chat backend kind")
    parser.add_argument("--endpoint", default=None, help="chat completions endpoint URL (http backend)")
    parser.add_argument("--model", default=None, help="model name sent to the backend")
    parser.add_argument("--cassette", default=None, help="cassette path (replay backend)")
    parser.add_argument("--max-in-flight", type=int, default=None, help="max concurrent requests")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phenokg", description=__doc__)
    parser.add_argument("--config", default=None, help="YAML config file supplying flag defaults")
    sub = parser.add_subparsers(dest="command")

    p_ont = sub.add_parser("ontology", help="ontology utilities").add_subparsers(dest="subcommand")
    p_stats = p_ont.add_parser("stats", help="print term/synonym counts")
    p_stats.add_argument("--ontology", default=None, help="OBO-subset file")
    p_stats.add_argument("--out", default=None, help="optional output directory")
    p_stats.set_defaults(handler=cmd_ontology_stats)

    p_corpus = sub.add_parser("corpus", help="corpus utilities").add_subparsers(dest="subcommand")
    p_synth = p_corpus.add_parser("synth", help="generate a deterministic gold corpus")
    p_synth.add_argument("--kind", choices=["hpo", "span", "multilabel"], default=None)
    p_synth.add_argument("--ontology", default=None)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--n-docs", type=int, default=None)
    p_synth.add_argument("--labels-per-doc", type=int, default=None)
    p_synth.add_argument("--universe", default=None, help="label universe file (multilabel)")
    p_synth.add_argument("--out", default=None)
    p_synth.set_defaults(handler=cmd_corpus_synth)

    p_extract = sub.add_parser("extract", help="run extraction over a corpus")
    p_extract.add_argument("--task", choices=list(_TASKS), default=None)
    p_extract.add_argument("--corpus", default=None, help="input corpus (task-specific format)")
    p_extract.add_argument("--pool", default=None, help="few-shot example pool (same format)")
    p_extract.add_argument("--policy", choices=[m.value for m in PolicyMode], default=None)
    p_extract.add_argument("--k", type=int, default=None, help="few-shot example count (default 5)")
    p_extract.add_argument("--glean", type=int, default=None, help="gleaning iterations (default 1)")
    p_extract.add_argument("--ontology", default=None)
    p_extract.add_argument("--allowed-terms", default=None, help="file with one allowed term id per line")
    p_extract.add_argument("--disease-context", default=None, help="file with disease context text")
    p_extract.add_argument("--universe", default=None, help="label universe file (multilabel)")
    p_extract.add_argument("--out", default=None)
    _add_backend_flags(p_extract)
    p_extract.set_defaults(handler=cmd_extract)

    p_eval = sub.add_parser("eval", help="score predictions against gold")
    p_eval.add_argument("--task", choices=list(_TASKS), default=None)
    p_eval.add_argument("--gold", default=None)
    p_eval.add_argument("--pred", default=None, help="predictions.jsonl from extract")
    p_eval.add_argument("--match-policy", choices=[m.value for m in MatchPolicy], default=None)
    p_eval.add_argument("--universe", default=None)
    p_eval.add_argument("--model-name", default=None, help="model column value in the report")
    p_eval.add_argument("--format", choices=["markdown", "csv"], default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(handler=cmd_eval)

    p_kg = sub.add_parser("kg", help="knowledge-graph commands").add_subparsers(dest="subcommand")
    p_build = p_kg.add_parser("build", help="build a graph from ingest records")
    p_build.add_argument("--records", default=None, help="JSONL of patient/note/assertion records")
    p_build.add_argument("--ontology", default=None)
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(handler=cmd_kg_build)
    p_query = p_kg.add_parser("query", help="cohort and keyword queries")
    p_query.add_argument("--graph", default=None)
    p_query.add_argument("--icd", nargs="*", default=None)
    p_query.add_argument("--mode", choices=["any", "all"], default=None)
    p_query.add_argument("--keyword", default=None)
    p_query.add_argument("--out", default=None)
    p_query.set_defaults(handler=cmd_kg_query)

    p_freq = sub.add_parser("cohort-freq", help="observed vs expected phenotype frequencies")
    p_freq.add_argument("--graph", default=None)
    p_freq.add_argument("--ontology", default=None)
    p_freq.add_argument("--annotations", default=None, help="disease annotations TSV")
    p_freq.add_argument("--icd", nargs="*", default=None, help="cohort = any-mode match on these codes")
    p_freq.add_argument("--cohort-file", default=None, help="file with one patient key per line")
    p_freq.add_argument("--groups", default=None, help="grouping TSV (term_id TAB group)")
    p_freq.add_argument("--min-confidence", type=float, default=None)
    p_freq.add_argument("--out", default=None)
    p_freq.set_defaults(handler=cmd_cohort_freq)

    p_disc = sub.add_parser("discover", help="run the discovery funnel")
    p_disc.add_argument("--graph", default=None)
    p_disc.add_argument("--ontology", default=None)
    p_disc.add_argument("--rubric", default=None, help="scoring rubric JSON")
    p_disc.add_argument("--keyword", nargs="*", default=None)
    p_disc.add_argument("--icd", nargs="*", default=None)
    p_disc.add_argument("--threshold", type=int, default=None)
    p_disc.add_argument("--allowed-terms", default=None)
    p_disc.add_argument("--glean", type=int, default=None)
    p_disc.add_argument("--min-assertions", type=int, default=None)
    p_disc.add_argument("--out", default=None)
    _add_backend_flags(p_disc)
    p_disc.set_defaults(handler=cmd_discover)

    p_cass = sub.add_parser("cassette", help="cassette utilities").add_subparsers(dest="subcommand")
    p_rec = p_cass.add_parser("record", help="record live responses into a cassette")
    p_rec.add_argument("--requests", default=None, help="JSONL of {system, user, ...} requests")
    p_rec.add_argument("--endpoint", default=None)
    p_rec.add_argument("--model", default=None)
    p_rec.add_argument("--max-in-flight", type=int, default=None)
    p_rec.add_argument("--out", default=None, help="cassette output path")
    p_rec.set_defaults(handler=cmd_cassette_record)

    return parser


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    args = parser.parse_args(argv)
    if known.config:
        loaded = yaml.safe_load(Path(known.config).read_text(encoding="utf-8")) or {}
        if not isinstance(loaded, dict):
            raise ConfigError([f"config file {known.config} must contain a mapping"])
        unknown = [k for k in loaded if not hasattr(args, k.replace("-", "_"))]
        if unknown:
            raise ConfigError([f"config key not recognized for this command: {k}" for k in unknown])
        for key, value in loaded.items():
            attr = key.replace("-", "_")
            if getattr(args, attr, None) is None:
                setattr(args, attr, value)
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config_defaults(parser, argv)
        handler = getattr(args, "handler", None)
        if handler is None:
            parser.print_help()
            return 2
        handler(args)
        return 0
    except PhenoKGError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigError):
            payload["problems"] = exc.problems
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
