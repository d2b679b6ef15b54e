"""The bytes of the prompts the bundled templates render, pinned by one sha256 per prompt family.

Every input comes from the package itself (fixtures, synthesizers, bundled templates), so this file run
from outside the checkout against an installed phenokg pins the templates shipped as package data:

    cd "$(mktemp -d)" && python -m pytest -q /path/to/checkout/tests/test_prompt_bytes.py

A change to any prompt byte (template text, rendering, example selection or block layout) changes a digest.
"""

import hashlib

import pytest

from phenokg import fixtures
from phenokg.corpus import DEFAULT_LABEL_UNIVERSE, synthesize_fixture, synthesize_multilabel_fixture
from phenokg.discovery import build_score_prompt
from phenokg.extraction import (
    FewShotPolicy,
    HpoAssertion,
    HpoExtraction,
    HpoTask,
    MultiLabelResult,
    MultiLabelTask,
    NerResult,
    NerTask,
    PolicyMode,
    build_prompt,
)
from phenokg.kg import patient_record
from phenokg.retrieval import HashedEmbedder, build_index

PINNED = {
    "ner": "403e69d6467c42f64da0a2871fc71dcd08467e724f6c2012bdf6fe20db6294e0",
    "hpo": "f950c67557e6c71119e946b81ae48d4c6cd52e24dc30809966ea9ccd1276562e",
    "multilabel": "65326b1c14217fe1c7bb7e8b7e17d711538ee19f553ccf0f2f14088f3781b1fa",
    "score": "a48c9f99f72257512430ba2dee28f627d8930501d4612347a17b00d65bfc71a6",
}


def _digest(requests) -> str:
    h = hashlib.sha256()
    for request in requests:
        for part in (request.request_tag, request.system, request.user):
            h.update(part.encode("utf-8") + b"\0")
    return h.hexdigest()


def _term_corpora():
    ontology = fixtures.dravet_ontology()
    terms = sorted(fixtures.dravet_allowed_terms())
    pool, queries = (
        synthesize_fixture(seed=seed, ontology=ontology, n_docs=n, labels_per_doc=3, term_pool=terms)
        for seed, n in ((31, 12), (32, 4))
    )
    return ontology, pool, queries


def _cases(name: str):
    """(task, example pool, query documents, previous results) for one task family.

    The last query document is a member of the pool and has no previous result.
    """
    if name == "multilabel":
        pool, queries = (synthesize_multilabel_fixture(seed, n, 2) for seed, n in ((33, 12), (34, 4)))
        previous = [MultiLabelResult(doc.doc_id, labels) for doc, labels in queries]
        return MultiLabelTask(DEFAULT_LABEL_UNIVERSE), pool, [doc for doc, _ in queries] + [pool[0][0]], previous
    ontology, pool, queries = _term_corpora()
    docs = [q.document for q in queries] + [pool[0].document]
    if name == "ner":
        previous = [NerResult(q.document.doc_id, frozenset(s.mention for s in q.spans)) for q in queries]
        return NerTask(), [(s.document, list(s.spans)) for s in pool], docs, previous
    task = HpoTask(ontology, fixtures.dravet_allowed_terms(), fixtures.dravet_disease_context())
    previous = [
        HpoExtraction(q.document.doc_id, tuple(HpoAssertion(t, 0.75, "seen") for t in sorted(q.terms)))
        for q in queries
    ]
    return task, [(s.document, s.terms) for s in pool], docs, previous


def _policies(pool):
    embedder = HashedEmbedder()
    index = build_index(embedder, [(doc.doc_id, doc.text) for doc, _ in pool])
    yield FewShotPolicy()
    yield FewShotPolicy(mode=PolicyMode.STATIC_FEW_SHOT, k=3, example_pool=pool)
    yield FewShotPolicy(mode=PolicyMode.DYNAMIC_FEW_SHOT, k=3, example_pool=pool, index=index, embedder=embedder)


@pytest.mark.parametrize("name", ["ner", "hpo", "multilabel"])
def test_extraction_prompt_bytes_are_pinned(name):
    task, pool, docs, previous = _cases(name)
    requests = []
    for policy in _policies(pool):
        for doc, prev in zip(docs, previous + [None]):
            requests.append(build_prompt(task, doc, policy))
            requests.append(build_prompt(task, doc, policy, previous=prev, round_no=1))
    assert _digest(requests) == PINNED[name]


def test_score_prompt_bytes_are_pinned():
    rubric = fixtures.bpan_rubric()
    graphs = [fixtures.build_discovery_graph(200, n_positive=6)[0], fixtures.build_demo_graph()]
    requests = [build_score_prompt(patient_record(g, key), rubric) for g in graphs for key in g.patient_keys()]
    assert _digest(requests) == PINNED["score"]
