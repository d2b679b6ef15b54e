"""JSON Lines files: the one reader (one ``raw_decode`` per line, accepting exactly what ``json.loads``
accepts) and the one atomic writer, which also writes the CLI's JSON, Markdown and CSV outputs. Every
table is rendered by one of two writers: ``csv_table`` (``csv`` module quoting, ``\\n`` line ends) and
``markdown_table`` (a ``|`` in a cell written ``\\|``, a line break ``<br>``)."""

from __future__ import annotations

import csv
import io
import json
import os
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import PhenoKGError

T = TypeVar("T")

_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string"}
_DECODER = json.JSONDecoder()
_JSON_WS = " \t\n\r"


def _loads(line: str):
    """``json.loads(line)``, decoded with one ``raw_decode`` of the line stripped of JSON whitespace."""
    stripped = line.strip(_JSON_WS)
    try:
        value, end = _DECODER.raw_decode(stripped)
        if end == len(stripped):
            return value
    except ValueError:
        pass
    return json.loads(line)  # invalid (trailing data too): raises json.loads's error, placed in the original line


def iter_jsonl(path: str | Path, error_cls: type[Exception], convert: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """Stream ``(line_no, convert(record))`` for each non-blank line of ``path`` (blank lines are counted).

    Invalid JSON, a line that is not an object, and a KeyError, TypeError, ValueError or PhenoKGError
    from ``convert`` are raised as ``error_cls("<path> line N: ...")``.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _loads(line)
            except ValueError as exc:
                raise error_cls(f"{path} line {line_no}: invalid JSON ({exc})") from None
            if not isinstance(record, dict):
                raise error_cls(f"{path} line {line_no}: expected a JSON object")
            try:
                value = convert(record)
            except KeyError as exc:
                raise error_cls(f"{path} line {line_no}: missing key {exc}") from None
            except (TypeError, ValueError, PhenoKGError) as exc:
                raise error_cls(f"{path} line {line_no}: {exc}") from None
            yield line_no, value


def expect_type(value, kind: type, name: str):
    """``value`` if it is a ``kind`` (dict, list or str); else a TypeError, which ``iter_jsonl`` gives a line number."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be {_JSON_TYPE_NAMES[kind]}, got {json.dumps(value)[:80]}")
    return value


def expect_number(value, name: str, integer: bool = False):
    """``value`` as a float if it is a JSON number and not a bool (an int, kept as is, if ``integer``); else a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise TypeError(f"{name} must be {'an integer' if integer else 'a number'}, got {json.dumps(value)[:80]}")
    return value if integer else float(value)


def csv_table(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The header and rows as CSV: a cell holding a comma, quote or line break is quoted; lines end in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def markdown_table(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The header, a ``| --- |`` rule and the rows as Markdown table lines, each ending in ``\\n``.

    A ``|`` in a cell is written ``\\|``, so every line has the header's cell count, and a ``\\r\\n``,
    ``\\r`` or ``\\n`` is written ``<br>``, so every row stays on one line.
    """

    def line(cells) -> str:
        return "| " + " | ".join(re.sub(r"\r\n?|\n", "<br>", str(cell).replace("|", "\\|")) for cell in cells) + " |\n"

    return line(header) + "|" + " --- |" * len(header) + "\n" + "".join(map(line, rows))


def write_jsonl(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line plus a newline to ``path`` through ``write_atomic``."""
    write_atomic(path, (line + "\n" for line in lines))


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the chunks as UTF-8 to a temporary sibling file, then os.replace it onto ``path``.

    If ``chunks`` raises, or the write is interrupted before the replace, the old file is left as it
    was and the temporary file is removed; a killed process also leaves the old file (and perhaps the
    temporary one). No fsync: a power loss can lose the write.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
