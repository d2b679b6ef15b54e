"""The JSON Lines reader every input goes through and the atomic writer every output goes through."""

import hashlib
import json
import re
from functools import partial

import pytest

from phenokg.cli import _load_predictions, build_parser
from phenokg.corpus import Document, HpoGoldLabel, load_hpo_gold, load_multilabel_gold, save_hpo_gold
from phenokg.errors import CorpusIntegrityError, DomainError, GraphIntegrityError
from phenokg.extraction import AuditLog
from phenokg.jsonl import iter_jsonl, write_jsonl
from phenokg.kg import ingest_patients, load_graph, save_graph
from phenokg.llm import ChatRequest, cassette_entry, load_cassette, write_cassette


def _read_requests(path):
    args = build_parser().parse_args(["cassette", "record", "--requests", str(path), "--out", "unused.jsonl"])
    args.handler(args)


# reader, the error it raises, a valid record for line 1, and the required key line 2 leaves out
READERS = {
    "hpo gold": (load_hpo_gold, CorpusIntegrityError, {"doc_id": "d1", "text": "t", "hpo_ids": []}, "text"),
    "multilabel gold": (load_multilabel_gold, CorpusIntegrityError, {"doc_id": "d", "text": "t", "labels": []}, "text"),
    "cassette": (load_cassette, DomainError, {"hash": "h1", "response": "r"}, "response"),
    "graph": (load_graph, GraphIntegrityError, {"kind": "patient", "key": "p1"}, "key"),
    "ingest records": (ingest_patients, GraphIntegrityError, {"kind": "patient", "key": "p1"}, "key"),
    "predictions": (partial(_load_predictions, "hpo"), DomainError, {"key": "d1", "assertions": []}, "assertions"),
    "cassette requests": (_read_requests, DomainError, {"system": "s", "user": "u"}, "user"),
}
# line 2 and the message it must raise; None is the valid record without the reader's required key
BAD_LINES = {
    "invalid JSON": ("{not json", "invalid JSON"),
    "not an object": ("[1, 2]", "expected a JSON object"),
    "missing key": (None, None),
}


@pytest.mark.parametrize("bad", sorted(BAD_LINES))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_names_the_file_and_line_of_a_malformed_line(tmp_path, reader, bad):
    load, error_cls, valid, required = READERS[reader]
    line_2, message = BAD_LINES[bad]
    if line_2 is None:
        line_2 = json.dumps({k: v for k, v in valid.items() if k != required})
        message = f"missing key {required!r}"
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(valid) + "\n" + line_2 + "\n")
    with pytest.raises(error_cls, match=re.escape(f"{path} line 2: {message}")):
        load(path)


def test_line_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
    assert list(iter_jsonl(path, DomainError, lambda r: r["a"])) == [(1, 1), (4, 2)]
    path.write_text('{"a": 1}\n\n{"b": 2}\n')
    with pytest.raises(DomainError, match="line 3: missing key 'a'"):
        list(iter_jsonl(path, DomainError, lambda r: r["a"]))


def test_conflicting_cassette_duplicate_names_both_lines_across_blank_lines(tmp_path):
    first, other, second = (
        json.dumps(cassette_entry(ChatRequest(system="s", user=user), text))
        for user, text in (("u", "first"), ("v", "x"), ("u", "second"))
    )
    path = tmp_path / "cassette.jsonl"
    path.write_text("\n".join([first, "", other, "   ", second]) + "\n")
    with pytest.raises(DomainError, match=re.escape(f"{path} lines 1 and 5: different responses")):
        load_cassette(path)


def _interrupted(items):
    yield from items
    raise RuntimeError("interrupted")


# each writer takes the path and an iterable of keys, one output line per key
WRITERS = {
    "write_jsonl": lambda path, keys: write_jsonl(path, (json.dumps({"key": k}) for k in keys)),
    "write_cassette": lambda path, keys: write_cassette(path, ({"hash": k, "response": "r"} for k in keys)),
    "save_hpo_gold": lambda path, keys: save_hpo_gold(
        ((Document(k, "text"), HpoGoldLabel(k, frozenset())) for k in keys), path
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_an_interrupted_write_leaves_the_old_file_and_no_temp_file(tmp_path, writer):
    path = tmp_path / "out.jsonl"
    WRITERS[writer](path, ["old-1", "old-2"])
    old = path.read_bytes()
    with pytest.raises(RuntimeError, match="interrupted"):
        WRITERS[writer](path, _interrupted(["new-1", "new-2", "new-3"]))
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_an_unserializable_audit_entry_leaves_the_old_audit_file(tmp_path):
    path = tmp_path / "audit.jsonl"
    audit = AuditLog()
    audit.record("document_round_failed", key="d0")
    audit.save(path)
    old = path.read_bytes()
    audit = AuditLog()
    audit.record("document_round_failed", key="d1")
    audit.record("document_round_failed", key="d2", error=object())
    with pytest.raises(TypeError):
        audit.save(path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_saved_demo_graph_bytes_are_unchanged(tmp_path, demo_graph):
    path = tmp_path / "graph.jsonl"
    save_graph(demo_graph, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c78d404a2350158a442ea31437acbbfb92ee4e9eef5b833ddcce789a6c5366a9"
    )
