"""The three workloads: set-up, the timed pass, and the exact output checks.

Each pass drives the program through the entry points its CLI commands call
(``extract_corpus`` for ``extract``, ``run_funnel`` for ``discover``, the
``kg`` and ``cohortstats`` functions for ``cohort-freq``) and hands the
program the backend object ``make_backend`` built, so behaviour keyed on the
backend type still fires. Names the benchmark calls directly are looked up
in this module, which is where a traced run patches them.

Import this module only after ``common.use_source_tree()``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from types import SimpleNamespace

from phenokg.cohortstats import compare_to_ontology, derive_groups, heatmap_csv, phenotype_frequency
from phenokg.corpus import load_hpo_gold
from phenokg.discovery import load_rubric, run_funnel
from phenokg.errors import GraphIntegrityError
from phenokg.evaluation import score_hpo
from phenokg.extraction import AuditLog, FewShotPolicy, GleanConfig, HpoTask, PolicyMode, extract_corpus
from phenokg.kg import cohort_by_icd, load_graph, record_to_node, save_graph, upsert_assertion
from phenokg.llm import BackendConfig, make_backend
from phenokg.ontology import TermId, load_annotations, load_ontology
from phenokg.retrieval import HashedEmbedder, build_index

from common import BPAN_GENERIC_ICD10, DISCOVER_KEYWORDS, DRAVET_ICD10, GROUP_ROOTS, MAX_IN_FLIGHT


class _Steps:
    """Wall time of each named set-up step."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def __call__(self, name: str, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - started


def _audit_problems(audit: AuditLog, expected: dict[str, int]) -> list[str]:
    problems = [
        f"audit {event}: {audit.count(event)} entries, expected {count}"
        for event, count in expected.items()
        if audit.count(event) != count
    ]
    if len(audit) != sum(expected.values()):
        problems.append(f"audit has {len(audit)} entries, expected {sum(expected.values())}")
    return problems


class ExtractDynamic:
    """``extract --task hpo --policy dynamic-fewshot --k 5 --glean 2`` over HTTP."""

    name = "extract-dynamic"

    def __init__(self, work: Path, expected: dict, endpoint: str):
        self.work = work
        self.expected = expected
        self.endpoint = endpoint
        self.items = expected["items"]

    def setup(self, steps: _Steps):
        ontology = steps("ontology.load_s", load_ontology, self.work / "ontology.obo")

        def load_corpus():
            queries = load_hpo_gold(self.work / "corpus.jsonl")
            pool = list(load_hpo_gold(self.work / "pool.jsonl"))
            lines = (self.work / "allowed_terms.txt").read_text(encoding="utf-8").split()
            context = (self.work / "disease_context.txt").read_text(encoding="utf-8")
            return [doc for doc, _ in queries], pool, frozenset(TermId(t) for t in lines), context

        documents, pool, allowed, context = steps("corpus.load_s", load_corpus)
        embedder = HashedEmbedder()
        index = steps("retrieval.build_index_s", build_index, embedder, [(d.doc_id, d.text) for d, _ in pool])
        config = BackendConfig(
            kind="http", model_name="perfbench-stub", endpoint_url=self.endpoint, max_in_flight=MAX_IN_FLIGHT
        )
        return SimpleNamespace(
            task=HpoTask(ontology, allowed_terms=allowed, disease_context=context),
            documents=documents,
            policy=FewShotPolicy(
                mode=PolicyMode.DYNAMIC_FEW_SHOT, k=5, example_pool=pool, index=index, embedder=embedder
            ),
            embedder=embedder,
            backend=make_backend(config),
        )

    def run(self, state):
        audit = AuditLog()
        results = extract_corpus(
            state.task,
            state.documents,
            state.backend,
            policy=state.policy,
            glean=GleanConfig(2),
            audit=audit,
            max_in_flight=MAX_IN_FLIGHT,
        )
        return SimpleNamespace(results=results, audit=audit)

    def check(self, state, out) -> list[str]:
        gold = {key: set(terms) for key, terms in self.expected["gold"].items()}
        results = out.results
        problems = [f"document {k}: expected a result" for k in sorted(set(gold) - set(results))]
        problems += [f"document {k}: unexpected result" for k in sorted(set(results) - set(gold))]
        problems += [
            f"document {k}: terms {sorted(results[k].term_set())} != gold {sorted(gold[k])}"
            for k in sorted(set(gold) & set(results))
            if results[k].term_set() != gold[k]
        ]
        if not problems:
            f1 = score_hpo(gold, results).per_key["HPO"].f1
            if f1 != 1.0:
                problems.append(f"micro-F1 {f1} != 1.0")
        return problems + _audit_problems(out.audit, self.expected["audit"])

    def failures(self, out) -> tuple[int, int]:
        """(documents dropped by an audited failure, documents attempted)."""
        return self.items - len(out.results), self.items


class DiscoverReplay:
    """``discover --keyword BPAN --icd <six generic codes> --threshold 7 --glean 1`` on replay."""

    name = "discover-replay"

    def __init__(self, work: Path, expected: dict, endpoint: str | None = None):
        self.work = work
        self.expected = expected
        self.items = expected["items"]

    def setup(self, steps: _Steps):
        ontology = steps("ontology.load_s", load_ontology, self.work / "ontology.obo")
        graph = steps("kg.load_graph_s", load_graph, self.work / "graph.jsonl", ontology)
        rubric = steps("corpus.load_s", load_rubric, self.work / "rubric.json")
        config = BackendConfig(
            kind="replay", cassette_path=str(self.work / "cassette.jsonl"), max_in_flight=MAX_IN_FLIGHT
        )
        return SimpleNamespace(
            graph=graph,
            rubric=rubric,
            ontology=ontology,
            allowed=frozenset(t.id for t in ontology),
            backend=steps("llm.replay.load_s", make_backend, config),
        )

    def run(self, state):
        audit = AuditLog()
        report = run_funnel(
            state.graph,
            state.rubric,
            keywords=DISCOVER_KEYWORDS,
            generic_icd=BPAN_GENERIC_ICD10,
            threshold=7,
            allowed_terms=state.allowed,
            backend=state.backend,
            ontology=state.ontology,
            glean=GleanConfig(1),
            audit=audit,
        )
        return SimpleNamespace(report=report, audit=audit)

    def check(self, state, out) -> list[str]:
        problems = []
        stages = [[name, count] for name, count in out.report.stage_counts]
        if stages != self.expected["stage_counts"]:
            problems.append(f"stage counts {stages} != {self.expected['stage_counts']}")
        got = {
            f.patient: [f.patient, f.score, [[t, c] for t, c in f.top_assertions]] for f in out.report.finalists
        }
        want = {row[0]: row for row in self.expected["finalists"]}
        problems += [
            f"finalist {k}: {got.get(k)} != {want.get(k)}"
            for k in sorted(set(got) | set(want))
            if got.get(k) != want.get(k)
        ]
        order = [f.patient for f in out.report.finalists]
        if not problems and order != [row[0] for row in self.expected["finalists"]]:
            problems.append("finalists are out of rank order")
        return problems + _audit_problems(out.audit, self.expected["audit"])

    def failures(self, out) -> tuple[int, int]:
        """(candidates dropped by an audited scoring failure, candidates)."""
        counts = dict(out.report.stage_counts)
        return counts["candidates"] - counts["scored"], counts["candidates"]


class KgCohort:
    """Apply extraction writes, persist, reload, then ``cohort-freq`` at two thresholds."""

    name = "kg-cohort"

    def __init__(self, work: Path, expected: dict, endpoint: str | None = None):
        self.work = work
        self.expected = expected
        self.items = expected["items"]

    def setup(self, steps: _Steps):
        ontology = steps("ontology.load_s", load_ontology, self.work / "ontology.obo")
        graph = steps("kg.load_graph_s", load_graph, self.work / "graph.jsonl", ontology)

        def load_inputs():
            with open(self.work / "writes.jsonl", encoding="utf-8") as fh:
                writes = [record_to_node(json.loads(line)) for line in fh]
            return writes, load_annotations(self.work / "annotations.tsv", ontology)

        writes, annotations = steps("corpus.load_s", load_inputs)
        return SimpleNamespace(graph=graph, ontology=ontology, writes=writes, annotations=annotations)

    def run(self, state):
        rejected = 0
        for assertion in state.writes:
            try:
                upsert_assertion(state.graph, assertion, state.ontology)
            except GraphIntegrityError:
                rejected += 1
        path = self.work / "graph.out.jsonl"
        save_graph(state.graph, path)
        reloaded = load_graph(path, state.ontology)
        cohort = cohort_by_icd(reloaded, DRAVET_ICD10, mode="any")
        terms = {a.phenotype for a in state.annotations}
        frequencies = {
            threshold: phenotype_frequency(
                reloaded, cohort, terms, min_confidence=threshold, ontology=state.ontology
            )
            for threshold in (0.0, 0.8)
        }
        comparisons = compare_to_ontology(frequencies[0.0], state.annotations)
        csv_text = heatmap_csv(comparisons, derive_groups(state.ontology, GROUP_ROOTS), state.ontology)
        return SimpleNamespace(
            rejected=rejected, reloaded=reloaded, cohort=cohort, frequencies=frequencies, csv=csv_text
        )

    def check(self, state, out) -> list[str]:
        problems = []
        if out.rejected != self.expected["failed_writes"]:
            problems.append(f"{out.rejected} writes rejected, expected {self.expected['failed_writes']}")
        if state.graph.assertion_count != self.expected["assertions"]:
            problems.append(f"{state.graph.assertion_count} assertions, expected {self.expected['assertions']}")
        if out.reloaded != state.graph:
            problems.append("reloaded graph differs from the written graph")
        if sorted(out.cohort) != self.expected["cohort"]:
            problems.append("cohort differs from the generated cohort")
        for threshold, frequencies in out.frequencies.items():
            want = self.expected["counts"][str(threshold)]
            if frequencies.cohort_size != len(self.expected["cohort"]):
                problems.append(f"cohort size {frequencies.cohort_size} at confidence {threshold}")
            problems += [
                f"{term} at confidence {threshold}: {frequencies.counts.get(term)} patients, expected {count}"
                for term, count in sorted(want.items())
                if frequencies.counts.get(term) != count
            ]
        rows = out.csv.splitlines()
        if len(rows) != len(state.annotations) + 1:
            problems.append(f"heat map has {len(rows) - 1} rows, expected {len(state.annotations)}")
        return problems

    def failures(self, out) -> tuple[int, int]:
        """(writes rejected by the graph's integrity checks, writes attempted)."""
        return out.rejected, self.expected["writes"]


BY_NAME = {w.name: w for w in (ExtractDynamic, DiscoverReplay, KgCohort)}
