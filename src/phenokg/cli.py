"""Command-line surface: reproducible runs with a manifest per output directory.

Every command that writes artifacts takes ``--out DIR`` and drops a
``manifest.json`` (every value the run used, input hashes, versions) next
to its outputs, so a run can be reproduced from the manifest plus the
referenced files. A ``--config`` YAML file sets the command's defaults,
each value parsed as its flag parses it; explicit flags override it.
Failures print a machine-readable JSON error to stderr and exit nonzero.
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
from .evaluation import render_report, score_hpo, score_multilabel, score_ner
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
from .jsonl import csv_table, expect_number, expect_type, iter_jsonl, write_atomic, write_jsonl
from .kg import cohort_by_icd, keyword_search, load_graph, save_graph
from .llm import BackendConfig, CassetteBackend, ChatRequest, complete_batch, make_backend
from .ontology import TermId, load_annotations, load_ontology, read_tsv
from .retrieval import HashedEmbedder, build_index


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace) -> None:
    """Write ``manifest.json``: every value the run used, and the SHA-256 of every input file it was given."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "handler" and not k.startswith("_")}
    manifest = {
        "command": command,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()},
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in config.items() if isinstance(p, Path)},
        "versions": {"phenokg": __version__, "python": platform.python_version()},
    }
    write_atomic(out_dir / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(args, names: list[str]) -> None:
    """Refuse the run if a named flag is unset, or names an input file (a ``Path``) that does not exist."""
    values = [(name, getattr(args, name)) for name in names]
    problems = [f"--{name.replace('_', '-')} is required" for name, value in values if value is None]
    problems += [f"path does not exist: {v}" for _, v in values if isinstance(v, Path) and not v.exists()]
    if problems:
        raise ConfigError(problems)


def _backend_config(args) -> BackendConfig:
    return BackendConfig(
        kind=args.backend_kind,
        model_name=args.model,
        endpoint_url=args.endpoint,
        cassette_path=args.cassette,
        max_in_flight=args.max_in_flight,
    )


def _read_lines(path: Path) -> list[str]:
    return [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


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
    out = _out_dir(args)
    if args.kind in ("hpo", "span"):
        _require(args, ["ontology"])
        ontology = load_ontology(args.ontology)
        docs = synthesize_fixture(args.seed, ontology, args.n_docs, args.labels_per_doc)
        if args.kind == "hpo":
            save_hpo_gold([(d.document, d.terms) for d in docs], out / "corpus.jsonl")
        else:
            save_span_corpus([(d.document, list(d.spans)) for d in docs], out / "corpus.pubtator")
    else:
        universe = frozenset(_read_lines(args.universe)) if args.universe else DEFAULT_LABEL_UNIVERSE
        corpus = synthesize_multilabel_fixture(args.seed, args.n_docs, args.labels_per_doc, universe)
        save_multilabel_gold(corpus, out / "corpus.jsonl")
    _write_manifest(out, "corpus synth", args)
    print(f"wrote {args.n_docs} documents to {out}")


_TASKS = {task.name: task for task in (NerTask, HpoTask, MultiLabelTask)}


def _load_task_corpus(task_name: str, path: Path, universe):
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
        allowed = frozenset(read_tsv(args.allowed_terms, 1, TermId)) if args.allowed_terms else None
        context = args.disease_context.read_text(encoding="utf-8") if args.disease_context else ""
        return HpoTask(ontology, allowed_terms=allowed, disease_context=context)
    return MultiLabelTask(universe)


def _build_policy(args, pool) -> FewShotPolicy:
    mode = PolicyMode(args.policy)
    if mode is PolicyMode.ZERO_SHOT:
        return FewShotPolicy()
    if pool is None:
        raise ConfigError(["--pool is required for few-shot policies"])
    if mode is PolicyMode.STATIC_FEW_SHOT:
        return FewShotPolicy(mode=mode, k=args.k, example_pool=pool)
    embedder = HashedEmbedder()
    index = build_index(embedder, [(doc.doc_id, doc.text) for doc, _ in pool])
    return FewShotPolicy(mode=mode, k=args.k, example_pool=pool, index=index, embedder=embedder)


def cmd_extract(args) -> None:
    _require(args, ["task", "corpus", "out"])
    universe = frozenset(_read_lines(args.universe)) if args.universe else DEFAULT_LABEL_UNIVERSE
    documents = [doc for doc, _ in _load_task_corpus(args.task, args.corpus, universe)]
    task = _build_task(args, universe)
    pool = _load_task_corpus(args.task, args.pool, universe) if args.pool else None
    policy = _build_policy(args, pool)
    backend = make_backend(_backend_config(args))
    audit = AuditLog()
    results = extract_corpus(task, documents, backend, policy=policy, glean=GleanConfig(args.glean), audit=audit)
    out = _out_dir(args)
    write_jsonl(out / "predictions.jsonl", (json.dumps(results[key].to_record()) for key in sorted(results)))
    audit.save(out / "audit.jsonl")
    _write_manifest(out, "extract", args)
    if documents and not results:
        raise PhenoKGError(f"extracted 0/{len(documents)} documents; see {out / 'audit.jsonl'}")
    print(f"extracted {len(results)}/{len(documents)} documents -> {out / 'predictions.jsonl'}")


def _load_predictions(task_name: str, path: Path) -> dict:
    """``predictions.jsonl`` read back through the task's result type, by key."""
    from_record = _TASKS[task_name].result_type.from_record
    return {result.key: result for _, result in iter_jsonl(path, DomainError, from_record)}


def cmd_eval(args) -> None:
    _require(args, ["task", "gold", "pred", "out"])
    universe = frozenset(_read_lines(args.universe)) if args.universe else DEFAULT_LABEL_UNIVERSE
    gold = {doc.doc_id: items for doc, items in _load_task_corpus(args.task, args.gold, universe)}
    predictions = _load_predictions(args.task, args.pred)
    if args.task == "ner":
        report = score_ner(gold, predictions)
    elif args.task == "hpo":
        report = score_hpo(gold, predictions)
    else:
        report = score_multilabel(gold, predictions, universe)
    text = render_report({args.model_name: report}, fmt=args.format)
    out = _out_dir(args)
    suffix = "csv" if args.format == "csv" else "md"
    write_atomic(out / f"report.{suffix}", [text])
    write_atomic(out / "report.json", [report.to_json() + "\n"])
    _write_manifest(out, "eval", args)
    print(text, end="")


def cmd_kg_build(args) -> None:
    _require(args, ["records", "out"])
    ontology = load_ontology(args.ontology) if args.ontology else None
    graph = load_graph(args.records, ontology)
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
        cohort = sorted(cohort_by_icd(graph, args.icd, mode=args.mode))
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
    frequencies = phenotype_frequency(graph, cohort, terms, min_confidence=args.min_confidence, ontology=ontology)
    comparisons = compare_to_ontology(frequencies, annotations)
    if args.groups:
        grouping = load_groups(args.groups)
    else:
        grouping = derive_groups(ontology, GROUP_SUBTREE_ROOTS)
    out = _out_dir(args)
    write_atomic(out / "heatmap.csv", [heatmap_csv(comparisons, grouping, ontology)])
    freq_rows = [(term, ontology.name_of(term), n, f"{fraction:.3f}") for term, (n, fraction) in frequencies.items()]
    write_atomic(out / "frequencies.csv", [csv_table(("term", "name", "count", "fraction"), freq_rows)])
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
    allowed = frozenset(read_tsv(args.allowed_terms, 1, TermId) if args.allowed_terms else (t.id for t in ontology))
    backend = make_backend(_backend_config(args))
    audit = AuditLog()
    report = run_funnel(
        graph,
        rubric,
        keywords=args.keyword,
        generic_icd=args.icd,
        threshold=args.threshold,
        allowed_terms=allowed,
        backend=backend,
        ontology=ontology,
        glean=GleanConfig(args.glean),
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
            system=expect_type(record.get("system", ""), str, "system"),
            user=expect_type(record["user"], str, "user"),
            temperature=expect_number(record.get("temperature", 0.0), "temperature"),
            max_tokens=expect_number(record.get("max_tokens", 2048), "max_tokens", integer=True),
            request_tag=expect_type(record.get("request_tag", ""), str, "request_tag"),
        )

    requests_ = [request for _, request in iter_jsonl(args.requests, DomainError, convert)]
    recorder = CassetteBackend(inner=make_backend(_backend_config(args)))
    for response in complete_batch(recorder, requests_):
        if isinstance(response, PhenoKGError):
            raise response  # before any write, so a failure leaves no file
    recorder.save(args.out)
    print(f"recorded {len(recorder.responses)} responses -> {args.out}")


# -- parser -------------------------------------------------------------------


def _command(group, name: str, handler, help_text: str) -> argparse.ArgumentParser:
    """Add subcommand ``name``; its namespace carries the handler and the parser, whose defaults ``--config`` sets."""
    parser = group.add_parser(name, help=help_text)
    parser.set_defaults(handler=handler, _parser=parser)
    return parser


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend-kind", choices=["http", "replay"], default="replay", help="chat backend kind")
    parser.add_argument("--endpoint", default="", help="chat completions endpoint URL (http backend)")
    parser.add_argument("--model", default="", help="model name sent to the backend")
    parser.add_argument("--cassette", type=Path, default=None, help="cassette path (replay backend)")
    parser.add_argument("--max-in-flight", type=int, default=4, help="max concurrent requests")


def build_parser() -> argparse.ArgumentParser:
    """The ``phenokg`` parser. Each flag's default is declared here, and each input-file flag has ``type=Path``."""
    parser = argparse.ArgumentParser(prog="phenokg", description=__doc__)
    parser.add_argument("--config", type=Path, default=None, help="YAML config file supplying the command's defaults")
    sub = parser.add_subparsers(dest="command")

    p_ont = sub.add_parser("ontology", help="ontology utilities").add_subparsers(dest="subcommand")
    p_stats = _command(p_ont, "stats", cmd_ontology_stats, "print term/synonym counts")
    p_stats.add_argument("--ontology", type=Path, default=None, help="OBO-subset file")
    p_stats.add_argument("--out", default=None, help="optional output directory")

    p_corpus = sub.add_parser("corpus", help="corpus utilities").add_subparsers(dest="subcommand")
    p_synth = _command(p_corpus, "synth", cmd_corpus_synth, "generate a deterministic gold corpus")
    p_synth.add_argument("--kind", choices=["hpo", "span", "multilabel"], default="hpo")
    p_synth.add_argument("--ontology", type=Path, default=None)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--n-docs", type=int, default=10)
    p_synth.add_argument("--labels-per-doc", type=int, default=3)
    p_synth.add_argument("--universe", type=Path, default=None, help="label universe file (multilabel)")
    p_synth.add_argument("--out", default=None)

    p_extract = _command(sub, "extract", cmd_extract, "run extraction over a corpus")
    p_extract.add_argument("--task", choices=list(_TASKS), default=None)
    p_extract.add_argument("--corpus", type=Path, default=None, help="input corpus (task-specific format)")
    p_extract.add_argument("--pool", type=Path, default=None, help="few-shot example pool (same format)")
    p_extract.add_argument("--policy", choices=[m.value for m in PolicyMode], default=PolicyMode.ZERO_SHOT.value)
    p_extract.add_argument("--k", type=int, default=5, help="few-shot example count (default %(default)s)")
    p_extract.add_argument("--glean", type=int, default=1, help="gleaning iterations (default %(default)s)")
    p_extract.add_argument("--ontology", type=Path, default=None)
    p_extract.add_argument("--allowed-terms", type=Path, default=None, help="file with one allowed term id per line")
    p_extract.add_argument("--disease-context", type=Path, default=None, help="file with disease context text")
    p_extract.add_argument("--universe", type=Path, default=None, help="label universe file (multilabel)")
    p_extract.add_argument("--out", default=None)
    _add_backend_flags(p_extract)

    p_eval = _command(sub, "eval", cmd_eval, "score predictions against gold")
    p_eval.add_argument("--task", choices=list(_TASKS), default=None)
    p_eval.add_argument("--gold", type=Path, default=None)
    p_eval.add_argument("--pred", type=Path, default=None, help="predictions.jsonl from extract")
    p_eval.add_argument("--universe", type=Path, default=None)
    p_eval.add_argument("--model-name", default="model", help="model column value in the report")
    p_eval.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p_eval.add_argument("--out", default=None)

    p_kg = sub.add_parser("kg", help="knowledge-graph commands").add_subparsers(dest="subcommand")
    p_build = _command(p_kg, "build", cmd_kg_build, "build a graph from ingest records")
    p_build.add_argument("--records", type=Path, default=None, help="JSONL of patient/note/assertion records")
    p_build.add_argument("--ontology", type=Path, default=None)
    p_build.add_argument("--out", default=None)
    p_query = _command(p_kg, "query", cmd_kg_query, "cohort and keyword queries")
    p_query.add_argument("--graph", type=Path, default=None)
    p_query.add_argument("--icd", nargs="*", default=None)
    p_query.add_argument("--mode", choices=["any", "all"], default="any")
    p_query.add_argument("--keyword", default=None)
    p_query.add_argument("--out", default=None)

    p_freq = _command(sub, "cohort-freq", cmd_cohort_freq, "observed vs expected phenotype frequencies")
    p_freq.add_argument("--graph", type=Path, default=None)
    p_freq.add_argument("--ontology", type=Path, default=None)
    p_freq.add_argument("--annotations", type=Path, default=None, help="disease annotations TSV")
    p_freq.add_argument("--icd", nargs="*", default=None, help="cohort = any-mode match on these codes")
    p_freq.add_argument("--cohort-file", type=Path, default=None, help="file with one patient key per line")
    p_freq.add_argument("--groups", type=Path, default=None, help="grouping TSV (term_id TAB group)")
    p_freq.add_argument("--min-confidence", type=float, default=0.0)
    p_freq.add_argument("--out", default=None)

    p_disc = _command(sub, "discover", cmd_discover, "run the discovery funnel")
    p_disc.add_argument("--graph", type=Path, default=None)
    p_disc.add_argument("--ontology", type=Path, default=None)
    p_disc.add_argument("--rubric", type=Path, default=None, help="scoring rubric JSON")
    p_disc.add_argument("--keyword", nargs="*", default=[])
    p_disc.add_argument("--icd", nargs="*", default=[])
    p_disc.add_argument("--threshold", type=int, default=7)
    p_disc.add_argument("--allowed-terms", type=Path, default=None)
    p_disc.add_argument("--glean", type=int, default=1)
    p_disc.add_argument("--min-assertions", type=int, default=None)
    p_disc.add_argument("--out", default=None)
    _add_backend_flags(p_disc)

    p_cass = sub.add_parser("cassette", help="cassette utilities").add_subparsers(dest="subcommand")
    p_rec = _command(p_cass, "record", cmd_cassette_record, "record live responses into a cassette")
    p_rec.add_argument("--requests", type=Path, default=None, help="JSONL of {system, user, ...} requests")
    p_rec.add_argument("--endpoint", default="")
    p_rec.add_argument("--model", default="")
    p_rec.add_argument("--max-in-flight", type=int, default=4)
    p_rec.add_argument("--out", default=None, help="cassette output path")
    p_rec.set_defaults(backend_kind="http", cassette=None)  # a recording is always sent to a live endpoint

    return parser


def _config_value(flag: argparse.Action, value):
    """``value`` as ``flag`` parses it from the command line: a list flag takes a YAML list, and each value
    goes through ``str()``, then the flag's ``type``, then its ``choices``; a ValueError says what is wrong."""
    takes_list = flag.nargs in ("*", "+")
    if takes_list != isinstance(value, list):
        raise ValueError("expected a YAML list" if takes_list else f"expected one value, got {value!r}")
    typed = [flag.type(str(v)) if flag.type else str(v) for v in (value if takes_list else [value])]
    wrong = [v for v in typed if flag.choices is not None and v not in flag.choices]
    if wrong:
        raise ValueError(f"invalid choice {wrong[0]!r} (choose from {', '.join(map(str, flag.choices))})")
    return typed if takes_list else typed[0]


def _config_defaults(path: Path, command: argparse.ArgumentParser) -> dict:
    """The ``--config`` YAML mapping, keyed by flag dest and typed by each flag; every key must name one of
    ``command``'s flags, and every problem is a ConfigError that names its key."""
    try:
        loaded = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ConfigError([f"config file {path} is not valid YAML: {exc}"]) from None
    if not isinstance(loaded, dict):
        raise ConfigError([f"config file {path} must contain a mapping"])
    # argparse lists a parser's flags only in ``_actions``; the help flag (default SUPPRESS) takes no value
    flags = {a.dest: a for a in command._actions if a.option_strings and a.default is not argparse.SUPPRESS}
    defaults, problems = {}, []
    for key, value in loaded.items():
        dest = str(key).replace("-", "_")
        if dest not in flags:
            problems.append(f"config key not recognized for this command: {key}")
            continue
        try:
            defaults[dest] = _config_value(flags[dest], value)
        except ValueError as exc:
            problems.append(f"config key {key}: {exc}")
    if problems:
        raise ConfigError(problems)
    return defaults


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = getattr(args, "handler", None)
        if handler is None:
            parser.print_help()
            return 2
        if args.config:
            # the file's typed values become the command's defaults, so explicit flags win
            args._parser.set_defaults(**_config_defaults(args.config, args._parser))
            args = parser.parse_args(argv)
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
