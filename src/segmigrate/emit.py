"""Deterministic rendering of target trees into free-form Fortran 2008, and
the output tree: written in place into a staging tree that replaces the
old one whole."""

from __future__ import annotations

import os
import shutil
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


def write_tree(
    outputs: Sequence[Tuple[str, str]], out_dir: Path, shown_dir: Optional[Path] = None,
) -> WriteReport:
    """Write rendered files under ``out_dir``, each in place: opened for
    writing whether or not it already exists.  Each distinct parent
    directory is created once.  The report names each file, and each
    failure, by its path under ``shown_dir`` (``out_dir`` by default): the
    tree the files are meant for, when ``out_dir`` is its staging tree.

    A second identical run produces byte-identical files.  Any failure is
    reported per file, and a file that fails may be left part written; a
    caller that wants all of the tree or none of it writes into a
    :class:`StagedTree`, and exits nonzero when report.ok is false.
    """
    report = WriteReport()
    out_dir = Path(out_dir)
    shown = out_dir if shown_dir is None else Path(shown_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        report.errors.append(f"{shown}: {exc.strerror or exc}")
        return report
    made = {out_dir}
    for rel_path, text in outputs:
        dest = out_dir / rel_path
        try:
            if dest.parent not in made:
                dest.parent.mkdir(parents=True, exist_ok=True)
                made.add(dest.parent)
            dest.write_text(text, encoding="utf-8", newline="\n")
            report.files.append((str(shown / rel_path), text.count("\n")))
        except OSError as exc:
            report.errors.append(f"{shown / rel_path}: {exc.strerror or exc}")
    return report


class StagedTree:
    """The replacement of the directory ``out``, built in its sibling
    ``<out>.staging`` (so on the same file system) and swapped in whole.

    Entering creates the staging directory, and any missing parent of
    ``out``, then forks a helper that creates an empty file there for each
    of ``names`` while the caller goes on parsing: creating an inode costs
    far more kernel time than opening an existing one, and a
    single-threaded front end leaves a CPU idle.  It is only a warm-up:
    writers open the files in place and create any that is missing, so the
    bytes are the same where ``os.fork`` is missing or fails.  The helper
    touches nothing but these paths and leaves through ``os._exit``: it
    never returns into the caller's stack, flushes stdio or runs exit
    handlers.

    The process that entered calls ``wait`` before its own write, and
    ``commit`` once every write has succeeded.  Leaving reaps the helper;
    without a commit (an error, an interrupt) it also removes the staging
    tree and the parents it made, so ``out`` is as it was.  A staging
    directory that a killed run left behind is removed on entry.
    """

    def __init__(self, out: Path, names: Iterable[str]) -> None:
        self.out = Path(os.path.realpath(out))  # a symlink keeps pointing at the new tree
        self.path = self.out.with_name(self.out.name + ".staging")
        self.names = set(names)
        self.made: List[Path] = []  # missing parents of ``out`` it creates, deepest first
        self.pid: Optional[int] = None
        self.holder: Optional[str] = None  # a new directory ``commit`` moves the old tree into
        self.committed = False

    def __enter__(self) -> "StagedTree":
        if os.path.lexists(self.out) and not self.out.is_dir():
            raise MigrationError(f"{self.out}: not a directory")
        for directory in self.out.parents:
            if directory.exists():
                break
            self.made.append(directory)
        try:
            os.makedirs(self.out.parent, exist_ok=True)
            shutil.rmtree(self.path, ignore_errors=True)
            os.mkdir(self.path)
        except OSError as exc:
            self._discard()
            raise MigrationError(f"{self.path}: {exc.strerror or exc}")
        fork = getattr(os, "fork", None)
        if fork is None or not self.names:
            return self
        try:
            self.pid = fork()
        except OSError:
            return self
        if self.pid == 0:
            code = 1
            try:
                staging = str(self.path)
                for name in self.names:
                    os.close(os.open(os.path.join(staging, name), os.O_WRONLY | os.O_CREAT, 0o666))
                code = 0
            finally:
                os._exit(code)
        return self

    def wait(self) -> None:
        """Reap the helper; its files are all made once this returns."""
        if self.pid is None:
            return
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass  # already reaped
        self.pid = None

    def commit(self, written: Iterable[str]) -> None:
        """Swap the staging tree in for ``out``.  ``written`` are the names
        the writers filled; the helper's other files go first.

        Each entry of the old ``out`` that the staging tree lacks is
        carried over by a hard link, directories recreated with their
        modes, so the old tree is only read.  Then ``out`` is moved aside
        and the staging tree renamed to ``out``; leaving removes the old
        tree.  A failure raises MigrationError, and leaving puts the old
        tree back.
        """
        self.wait()
        for name in self.names.difference(written):
            try:
                os.unlink(os.path.join(self.path, name))
            except FileNotFoundError:
                pass  # the helper never made it
        try:
            if self.out.is_dir():
                import tempfile  # only to replace a tree: the import costs every run

                _carry_over(self.out, self.path)
                shutil.copymode(self.out, self.path)
                self.holder = tempfile.mkdtemp(prefix=self.out.name + ".old-", dir=self.out.parent)
                os.rename(self.out, os.path.join(self.holder, self.out.name))
            os.rename(self.path, self.out)
        except OSError as exc:
            raise MigrationError(f"cannot replace {self.out}: {exc}")
        self.committed = True

    def _discard(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        for directory in self.made:
            try:
                directory.rmdir()
            except OSError:
                break

    def __exit__(self, *exc_info) -> None:
        self.wait()
        if self.holder is not None:
            if not os.path.lexists(self.out):  # stopped between the two renames
                os.rename(os.path.join(self.holder, self.out.name), self.out)
            shutil.rmtree(self.holder, ignore_errors=True)
        if not self.committed:
            self._discard()


def _carry_over(old: Path, new: Path) -> None:
    """Hard-link into ``new`` each entry of ``old`` whose name it lacks,
    recreating each directory with its mode; ``old`` is only read."""
    with os.scandir(old) as entries:
        for entry in entries:
            target = os.path.join(new, entry.name)
            if os.path.lexists(target):
                continue  # this run's output
            if entry.is_dir(follow_symlinks=False):
                os.mkdir(target)
                _carry_over(entry.path, target)
                shutil.copymode(entry.path, target)
            else:
                os.link(entry.path, target, follow_symlinks=False)
