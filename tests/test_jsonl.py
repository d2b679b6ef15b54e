"""The JSON Lines reader every input goes through and the atomic writer every output goes through."""

import hashlib
import json
import re
from functools import partial

import pytest

from phenokg.cli import _load_predictions, build_parser
from phenokg.corpus import Document, load_hpo_gold, load_multilabel_gold, save_hpo_gold
from phenokg.errors import CorpusIntegrityError, DomainError, GraphIntegrityError
from phenokg.extraction import AuditLog
from phenokg.jsonl import iter_jsonl, write_jsonl
from phenokg.kg import load_graph, save_graph
from phenokg.llm import CassetteBackend, load_cassette, request_hash


def _read_requests(path):
    args = build_parser().parse_args(["cassette", "record", "--requests", str(path), "--out", "unused.jsonl"])
    args.handler(args)


# reader, the error it raises, a valid record for line 1, and the required key line 2 leaves out
READERS = {
    "hpo gold": (load_hpo_gold, CorpusIntegrityError, {"doc_id": "d1", "text": "t", "hpo_ids": []}, "text"),
    "multilabel gold": (load_multilabel_gold, CorpusIntegrityError, {"doc_id": "d", "text": "t", "labels": []}, "text"),
    "cassette": (load_cassette, DomainError, {"hash": "h1", "response": "r"}, "response"),
    "graph": (load_graph, GraphIntegrityError, {"kind": "patient", "key": "p1"}, "key"),
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


# line 2 of a file, by what it tests
LINES_AS_JSON_LOADS_READS_THEM = {
    "leading space": ' {"a": 1}',
    "tabs and spaces around": '\t{"a": 1}\t ',
    "trailing form feed": '{"a": 1}\x0c',
    "trailing ideographic space": '{"a": 1}\u3000',
    "byte order mark": '\ufeff{"a": 1}',
    "two objects": '{"a": 1}{"b": 2}',
    "two objects and a space": '{"a": 1} {"b": 2}',
    "trailing garbage": '{"a": 1} garbage',
    "NaN and Infinity values": '{"a": NaN, "b": -Infinity}',
    "bare NaN": "NaN",
    "form feed only": "\x0c",
    "unicode whitespace only": "\u3000 \t",
    "escapes": '{"a": "caf\u00e9 \\u00e9"}',
    "unterminated": '{"a": 1',
}


@pytest.mark.parametrize("case", sorted(LINES_AS_JSON_LOADS_READS_THEM))
def test_a_line_is_accepted_or_rejected_exactly_as_json_loads_does(tmp_path, case):
    line = LINES_AS_JSON_LOADS_READS_THEM[case]
    path = tmp_path / "records.jsonl"
    path.write_text('{"first": true}\n' + line + "\n", encoding="utf-8")
    read = partial(iter_jsonl, path, DomainError, partial(json.dumps, sort_keys=True))
    if not line.strip():  # blank to str.strip, so skipped though json.loads would reject it
        assert [n for n, _ in read()] == [1]
        return
    try:
        expected = json.loads(line + "\n")
    except ValueError as exc:
        with pytest.raises(DomainError) as raised:
            list(read())
        assert str(raised.value) == f"{path} line 2: invalid JSON ({exc})"
        return
    if isinstance(expected, dict):
        assert list(read())[1] == (2, json.dumps(expected, sort_keys=True))
    else:
        with pytest.raises(DomainError, match=re.escape(f"{path} line 2: expected a JSON object")):
            list(read())


def test_conflicting_cassette_duplicate_names_both_lines_across_blank_lines(tmp_path):
    first, other, second = (
        json.dumps({"hash": request_hash("s", user), "response": text})
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
    "save_hpo_gold": lambda path, keys: save_hpo_gold(
        ((Document(k, "text"), frozenset()) for k in keys), path
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


def test_an_interrupted_cassette_save_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "cassette.jsonl"
    CassetteBackend({"h1": "old"}).save(path)
    old = path.read_bytes()
    # "h1" is written before the unserializable "h2" stops the write
    with pytest.raises(TypeError):
        CassetteBackend({"h2": object(), "h1": "new"}).save(path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_a_cassette_response_must_be_a_string(tmp_path):
    path = tmp_path / "cassette.jsonl"
    path.write_text('{"hash": "h1", "response": "r"}\n{"hash": "h2", "response": null}\n')
    with pytest.raises(DomainError, match=re.escape(f"{path} line 2: response must be a string, got null")):
        load_cassette(path)


def test_saved_demo_graph_bytes_are_unchanged(tmp_path, demo_graph):
    path = tmp_path / "graph.jsonl"
    save_graph(demo_graph, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c78d404a2350158a442ea31437acbbfb92ee4e9eef5b833ddcce789a6c5366a9"
    )
