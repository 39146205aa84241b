"""Error types shared by every pipeline stage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Position of a construct in its original file (1-based, inclusive)."""

    file_id: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self):
        if (self.start_line, self.start_col) > (self.end_line, self.end_col):
            raise ValueError(f"span start after end: {self}")

    def label(self) -> str:
        return f"{self.file_id}:{self.start_line}:{self.start_col}"


class MigrationError(Exception):
    """Fatal per-file error; carries the offending span when known."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        self.span = span
        if span is not None:
            message = f"{span.label()}: {message}"
        super().__init__(message)


class MigrationErrors(MigrationError):
    """Several fatal errors, one per failing file, each reported on its own
    line."""

    def __init__(self, errors: List[MigrationError]):
        self.errors = errors
        super().__init__("\n".join(str(e) for e in errors))


class ConfigError(Exception):
    """Bad command line or configuration file (exit code 2)."""
