"""Deterministic rendering of target trees into free-form Fortran 2008."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Tuple

from .errors import MigrationError
from . import target as T


@dataclass(frozen=True)
class RenderConfig:
    indent_width: int = 2
    max_line_length: int = 132

    def __post_init__(self):
        if not (1 <= self.indent_width <= 8):
            raise MigrationError(f"indent_width out of range: {self.indent_width}")
        if not (72 <= self.max_line_length <= 132):
            raise MigrationError(f"max_line_length out of range: {self.max_line_length}")


def render_unit(tree: T.OutputNode, cfg: RenderConfig = RenderConfig()) -> str:
    """Render one target tree to text.  Deterministic: identical trees give
    identical bytes."""
    lines: List[str] = []
    _render(tree, 0, cfg, lines)
    return "\n".join(lines) + "\n" if lines else ""


def _render(node: T.OutputNode, depth: int, cfg: RenderConfig, out: List[str]) -> None:
    if isinstance(node, T.TemplateNode):
        out.extend(expand_template(node, depth, cfg))
        return
    pad = " " * (cfg.indent_width * depth)
    if node.kind == T.FILE:
        for child in node.children:
            _render(child, depth, cfg, out)
        return
    if node.kind == T.COMMENT:
        out.append("" if not node.text else pad + "!" + _comment_body(node.text))
        return
    if node.kind == T.DIRECTIVE:
        out.append(node.text)  # cpp lines stay in column 1
        return
    if node.kind == T.CONTAINS:
        out.append(" " * (cfg.indent_width * max(depth - 1, 0)) + "contains")
        return
    if node.is_block:
        out.extend(_wrap(pad + node.text, depth, cfg))
        for child in node.children:
            _render(child, depth + 1, cfg, out)
        if node.footer:
            out.extend(_wrap(pad + node.footer, depth, cfg))
        return
    out.extend(_wrap(pad + node.text, depth, cfg))


def _comment_body(text: str) -> str:
    return text if text.startswith(" ") else " " + text


def expand_template(node: T.TemplateNode, depth: int, cfg: RenderConfig) -> List[str]:
    """Re-indent the template's text relative to depth.

    The text's own leading whitespace is relative indentation; expansion
    at depth d+1 equals expansion at depth d with every line shifted one
    indent step.
    """
    raw_lines = node.text.splitlines()
    nonempty = [l for l in raw_lines if l.strip()]
    base = min((len(l) - len(l.lstrip()) for l in nonempty), default=0)
    pad = " " * (cfg.indent_width * depth)
    out: List[str] = []
    for line in raw_lines:
        if not line.strip():
            out.append("")
            continue
        out.extend(_wrap(pad + line[base:], depth, cfg))
    return out


def _wrap(line: str, depth: int, cfg: RenderConfig) -> List[str]:
    """Split a too-long statement line at token boundaries with `&`."""
    limit = cfg.max_line_length
    if len(line) <= limit:
        return [line]
    cont_pad = " " * (cfg.indent_width * (depth + 2))
    marker = " &"
    out: List[str] = []
    rest = line
    while len(rest) > limit:
        cut = _split_point(rest, limit - len(marker))
        if cut is None:
            break
        out.append(rest[:cut].rstrip() + marker)
        rest = cont_pad + rest[cut:].lstrip()
        if len(out) > 200:
            break  # defensive: give up rather than loop
    out.append(rest)
    return out


def _split_point(line: str, limit: int) -> int | None:
    """Last breakable space at or before ``limit``, never inside a string."""
    best = None
    in_string = None
    for i, c in enumerate(line):
        if i > limit and best is not None:
            break
        if in_string:
            if c == in_string:
                in_string = None
            continue
        if c in "'\"":
            in_string = c
        elif c == " " and i <= limit and line[:i].strip():
            best = i
    return best


# --- file output ------------------------------------------------------------


@dataclass
class WriteReport:
    files: List[Tuple[str, int]] = field(default_factory=list)  # (path, line count)
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def format(self) -> str:
        lines = [f"{path}: {count} lines" for path, count in self.files]
        lines += [f"error: {e}" for e in self.errors]
        lines.append(f"{len(self.files)} file(s) written, {len(self.errors)} error(s)")
        return "\n".join(lines) + "\n"


def write_tree(outputs: Sequence[Tuple[str, str]], out_dir: Path) -> WriteReport:
    """Write rendered files atomically (write-then-rename).

    A second identical run produces byte-identical files.  Any failure is
    reported per file; callers should exit nonzero when report.ok is false.
    """
    report = WriteReport()
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        report.errors.append(f"{out_dir}: {exc}")
        return report
    for rel_path, text in outputs:
        dest = out_dir / rel_path
        tmp = dest.with_name(dest.name + ".tmp")
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text, encoding="utf-8", newline="\n")
            os.replace(tmp, dest)
            report.files.append((str(dest), text.count("\n")))
        except OSError as exc:
            report.errors.append(f"{dest}: {exc}")
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
    return report
