"""Exception hierarchy shared across the package."""

from __future__ import annotations


class PhenoKGError(Exception):
    """Base class for all package errors."""


class DomainError(PhenoKGError, ValueError):
    """An argument is outside the operation's documented domain."""


class OboParseError(PhenoKGError):
    """Malformed ontology stanza; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class OntologyValidationError(PhenoKGError):
    """Loaded ontology violates referential invariants (dangling parents)."""

    def __init__(self, message: str, orphans: dict[str, list[str]] | None = None):
        self.orphans = orphans or {}
        super().__init__(message)


class CorpusIntegrityError(PhenoKGError):
    """A corpus record contradicts its document (bad offsets, duplicate ids)."""


class BackendUnavailableError(PhenoKGError):
    """All attempts against a chat backend failed."""

    def __init__(self, message: str, last_status: int | None = None, attempts: int = 0):
        self.last_status = last_status
        self.attempts = attempts
        super().__init__(message)


class ReplayMissError(PhenoKGError):
    """A replay cassette has no entry for the request hash."""

    def __init__(self, request_hash: str):
        self.request_hash = request_hash
        super().__init__(f"no cassette entry for request hash {request_hash}")


class OutputParseError(PhenoKGError):
    """Model output contains no parseable JSON object; raw text preserved."""

    def __init__(self, message: str, raw: str):
        self.raw = raw
        super().__init__(message)


class OutputSchemaError(PhenoKGError):
    """Model output parsed as JSON but violates the task schema."""

    def __init__(self, message: str, field: str):
        self.field = field
        super().__init__(f"{message} (field: {field})")


class GraphIntegrityError(PhenoKGError):
    """Knowledge-graph mutation or load violates referential integrity."""


class ScoringError(PhenoKGError):
    """A patient likelihood score could not be obtained after retry."""


class ConfigError(PhenoKGError):
    """Invalid run configuration; carries every detected problem."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
