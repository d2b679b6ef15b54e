"""JSON Lines files: the one reader and the one writer every format goes through."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import PhenoKGError

T = TypeVar("T")

_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string"}


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
                record = json.loads(line)
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


def write_jsonl(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line plus a newline to a temporary sibling file, then os.replace it onto ``path``.

    If ``lines`` raises, the old file is left as it was and the temporary file is removed; a killed
    process also leaves the old file (and perhaps the temporary one). No fsync: a power loss can lose the write.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
