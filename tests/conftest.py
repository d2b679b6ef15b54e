import json
import sys

import pytest

from phenokg import fixtures
from phenokg.corpus import synthesize_fixture
from phenokg.llm import CassetteBackend, ScriptedBackend

TINY_OBO = """\
[Term]
id: HP:0000001
name: All

[Term]
id: HP:0000002
name: First child
synonym: "Child the first"
is_a: HP:0000001

[Term]
id: HP:0000003
name: Second child
is_a: HP:0000001
"""


@pytest.fixture(autouse=True)
def fast_thread_switches(request):
    """Tests marked ``threads`` run with a 10 us switch interval, so worker threads interleave often."""
    if request.node.get_closest_marker("threads") is None:
        yield
        return
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@pytest.fixture(scope="session")
def dravet_ontology():
    return fixtures.dravet_ontology()


@pytest.fixture(scope="session")
def demo_graph():
    return fixtures.build_demo_graph()


@pytest.fixture(scope="session")
def demo_cohort(demo_graph):
    return fixtures.demo_cohort_keys(demo_graph)


@pytest.fixture()
def tiny_obo(tmp_path):
    path = tmp_path / "tiny.obo"
    path.write_text(TINY_OBO)
    return path


@pytest.fixture(scope="session")
def synth_docs(dravet_ontology):
    return synthesize_fixture(
        seed=1,
        ontology=dravet_ontology,
        n_docs=10,
        labels_per_doc=3,
        term_pool=sorted(fixtures.dravet_allowed_terms()),
    )


def gold_hpo_responder(task, gold_by_key):
    """Scripted responder that answers round 0 with gold and later rounds empty."""

    def responder(request):
        _, key, round_part = request.request_tag.split(":")
        if round_part != "r0":
            return json.dumps({key: []})
        return task.gold_to_json(key, gold_by_key[key])

    return responder


def record_replay_cassette(tmp_path, name, run_pipeline, responder):
    """Run ``run_pipeline(backend)`` against a recording scripted backend and
    persist the captured cassette; returns the cassette path."""
    backend = CassetteBackend(inner=ScriptedBackend(responder=responder))
    run_pipeline(backend)
    path = tmp_path / name
    backend.save(path)
    return path
