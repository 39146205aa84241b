"""Deterministic rendering of target trees into free-form Fortran 2008."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

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
    """Write rendered files atomically: each goes to ``temp_path(dest)``,
    opened for writing whether or not it already exists, then is renamed
    over ``dest``.  Each distinct parent directory is created once.

    A second identical run produces byte-identical files.  Any failure is
    reported per file, and that file's temp file is removed; callers should
    exit nonzero when report.ok is false.
    """
    report = WriteReport()
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        report.errors.append(f"{out_dir}: {exc}")
        return report
    made = {out_dir}
    for rel_path, text in outputs:
        dest = out_dir / rel_path
        tmp = temp_path(dest)
        try:
            if dest.parent not in made:
                dest.parent.mkdir(parents=True, exist_ok=True)
                made.add(dest.parent)
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


def temp_path(dest: Path) -> Path:
    """The file write_tree writes before renaming it over ``dest``."""
    return dest.with_name(dest.name + ".tmp")


class TempWarmup:
    """Creates ``out_dir`` and an empty temp file for each output name in a
    forked helper, while the caller goes on parsing.

    Creating an inode costs far more kernel time than opening an existing
    one, and a single-threaded front end leaves a second CPU idle, so this
    takes the creations off the critical path.  It is only a warm-up:
    write_tree writes the same bytes whether or not a temp file exists, so
    where ``os.fork`` is missing or the helper fails, write_tree creates what
    is missing itself.  The helper touches nothing but these paths and
    leaves through ``os._exit``: it never returns into the caller's stack,
    flushes stdio or runs exit handlers.

    Use it as a context manager around the run; call ``wait`` before
    write_tree, and ``consumed`` with the names write_tree was given once it
    returns.  Leaving reaps the helper and removes every temp file write_tree
    did not consume.  If write_tree never returned, it also removes the
    directories that did not exist when the run began, if they are empty.
    """

    def __init__(self, out_dir: Path, names: Iterable[str]) -> None:
        self.out_dir = Path(out_dir)
        self.pending = set(names)
        self.new_dirs: List[Path] = []  # deepest first
        for directory in (self.out_dir, *self.out_dir.parents):
            if directory.exists():
                break
            self.new_dirs.append(directory)
        self.pid: Optional[int] = None
        self.kept = False

    def __enter__(self) -> "TempWarmup":
        fork = getattr(os, "fork", None)
        if fork is None or not self.pending:
            return self
        try:
            self.pid = fork()
        except OSError:
            return self
        if self.pid == 0:
            code = 1
            try:
                os.makedirs(self.out_dir, exist_ok=True)
                for name in self.pending:
                    tmp = temp_path(self.out_dir / name)
                    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT, 0o666))
                code = 0
            finally:
                os._exit(code)
        return self

    def wait(self) -> None:
        """Reap the helper; its temp files are all made once this returns."""
        if self.pid is None:
            return
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass  # already reaped
        self.pid = None

    def consumed(self, names: Iterable[str]) -> None:
        """write_tree has returned after writing (or removing) these temps."""
        self.pending.difference_update(names)
        self.kept = True

    def __exit__(self, *exc_info) -> None:
        self.wait()
        for name in self.pending:
            try:
                os.unlink(temp_path(self.out_dir / name))
            except OSError:
                pass  # consumed after all, or never made
        if not self.kept:
            for directory in self.new_dirs:
                try:
                    directory.rmdir()
                except OSError:
                    break
