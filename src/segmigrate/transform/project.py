"""Whole-project migration: one output file per input file plus the
generated segment and support modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import analysis
from .. import target as T
from ..emit import RenderConfig, render_unit
from ..errors import MigrationError
from ..frontend import ast_nodes as A
from ..frontend.lexer import NAME, INT, OP, EQUALS, MINUS, DottedAccess, ExprToken, Token, walk_tokens
from ..model import ProjectModel
from .segments import generate_support_modules, migrate_segment
from .tokens import GapTable
from .units import make_context, wrap_in_module


@dataclass
class FileStats:
    source: str
    output: str
    rewritten: int = 0
    removed: int = 0
    passthrough: int = 0


class FileOutcome(NamedTuple):
    """What migrating one source file, or making one generated module, gave:
    its output name and text and its stats, or its error."""

    source: str
    name: str
    text: Optional[str] = None
    stats: Optional[FileStats] = None
    error: Optional[str] = None


@dataclass
class MigrationResult:
    files: List[FileOutcome] = field(default_factory=list)  # one per source file, in file order
    modules: List[FileOutcome] = field(default_factory=list)  # the generated modules
    conflicts: List[str] = field(default_factory=list)  # output names given twice

    @property
    def errors(self) -> List[str]:
        return self.conflicts + [o.error for o in self.files + self.modules if o.error]

    @property
    def stats(self) -> List[FileStats]:
        return [o.stats for o in self.files + self.modules if o.stats]

    @property
    def outputs(self) -> List[Tuple[str, str]]:
        """(name, text) of every output, or nothing when anything failed."""
        if self.errors:
            return []
        return [(o.name, o.text) for o in self.files + self.modules]

    @property
    def ok(self) -> bool:
        return not self.errors

    def merge(self, files: Sequence[FileOutcome]) -> None:
        """Add source files migrated by another call, keeping file order."""
        self.files = sorted(self.files + list(files), key=lambda o: o.source)

    def format_report(self) -> str:
        lines = []
        for s in self.stats:
            lines.append(
                f"{s.source} -> {s.output}: "
                f"{s.rewritten} rewritten, {s.removed} removed, {s.passthrough} passthrough"
            )
        lines += [f"error: {e}" for e in self.errors]
        status = "ok" if self.ok else "failed"
        lines.append(f"{len(self.outputs)} file(s), {len(self.errors)} error(s), {status}")
        return "\n".join(lines) + "\n"


def output_name(file_id: str) -> str:
    return PurePosixPath(file_id).stem + ".f90"


def migrate_project(
    units: Sequence[A.ProgramUnitAst],
    model: ProjectModel,
    intents: Dict[Tuple[str, int], str],
    cfg: Optional[RenderConfig] = None,
    modules: bool = True,
) -> MigrationResult:
    """Migrate the source files of ``units`` and, with ``modules``, check
    that no two outputs share a name and synthesize all generated modules.

    ``model`` is the whole project's; ``units`` may be those of some of its
    files, when another call migrates the rest and only one call passes
    ``modules``.  Any error makes the whole result unusable: it has no
    outputs, so a caller cannot write a half-migrated project.
    """
    cfg = cfg or RenderConfig()
    result = MigrationResult()

    by_file: Dict[str, List[A.ProgramUnitAst]] = {}
    for unit in units:
        by_file.setdefault(unit.file_id, []).append(unit)
    # pure Fortran 77 projects need no segment runtime
    support = generate_support_modules() if modules and model.segments else []

    if modules:
        # two sources written to one file would lose one of them
        sources: Dict[str, List[str]] = {}
        for file_id in sorted({u.file_id for u in model.units.values()}):
            sources.setdefault(output_name(file_id), []).append(file_id)
        for seg_name in sorted(model.segments):
            sources.setdefault(f"{seg_name}_mod.f90", []).append(model.segments[seg_name].file_id)
        for name, _ in support:
            sources.setdefault(name, []).append("the segment runtime")
        result.conflicts = [f"{name} would be the output of each of {', '.join(owners)}"
                            for name, owners in sources.items() if len(owners) > 1]
        if result.conflicts:
            return result

    gaps: GapTable = {}  # the renderer's spacing decisions, one per token pair
    for file_id in sorted(by_file):
        tree = T.TargetNode(T.FILE)
        stats = FileStats(source=file_id, output=output_name(file_id))
        try:
            for i, unit in enumerate(by_file[file_id]):
                if i > 0:
                    tree.add(T.blank())
                ctx = make_context(unit, model, intents, gaps)
                tree.add(wrap_in_module(ctx))
                stats.rewritten += ctx.rewritten
                stats.removed += ctx.removed
                stats.passthrough += ctx.passthrough
            result.files.append(
                FileOutcome(file_id, stats.output, render_unit(tree, cfg), stats))
        except MigrationError as exc:
            result.files.append(FileOutcome(file_id, stats.output, error=str(exc)))
    if not modules:
        return result

    for seg_name in sorted(model.segments):
        seg = model.segments[seg_name]
        name = f"{seg_name}_mod.f90"
        try:
            tree = T.TargetNode(T.FILE)
            tree.add(migrate_segment(seg))
            stats = FileStats(source=seg.file_id, output=name, rewritten=1)
            result.modules.append(FileOutcome(seg.file_id, name, render_unit(tree, cfg), stats))
        except MigrationError as exc:
            result.modules.append(FileOutcome(seg.file_id, name, error=str(exc)))

    for name, tree in support:
        result.modules.append(FileOutcome("the segment runtime", name, render_unit(tree, cfg)))
    return result


# --- pointer misuse diagnostics ---------------------------------------------

_COMPARE_OPS = {"=", ".eq.", ".ne.", ".lt.", ".le.", ".gt.", ".ge."}


def negative_pointer_uses(unit: A.ProgramUnitAst, model: ProjectModel) -> List[str]:
    """Places where a segment pointer meets a negative integer literal.

    Legacy code used negative integers as sentinel pointer values; those
    comparisons and assignments cannot survive the move to typed pointers.
    """
    pointers = set(model.units[unit.name].pointers)
    pointers |= {seg.name for seg in analysis.segments_in_scope(unit, model)}
    if not pointers:
        return []

    warnings: List[str] = []
    for node in unit.body:
        for stream in _streams_of(node):
            # a dotted access stands for its pointer; slash-dims for their base
            flat = [
                Token(NAME, t.pointer) if isinstance(t, DottedAccess) else t
                for t in walk_tokens(stream)
                if isinstance(t, Token) or isinstance(t, DottedAccess) and t.pointer
            ]
            for hit in _scan_negative(flat, pointers):
                warnings.append(f"{node.span.label()}: pointer {hit!r} used with a negative literal")
    return warnings


def _streams_of(node: A.Node) -> List[Sequence[ExprToken]]:
    if isinstance(node, A.OpaqueNode):
        return [node.tokens]
    if isinstance(node, A.AssignmentNode):
        # one `lhs = rhs` stream: the negative-literal pattern spans the `=`
        streams = [list(node.lhs) + [EQUALS] + list(node.rhs)]
    elif isinstance(node, A.CallNode):
        streams = list(node.args)
    else:
        return []
    return streams + [node.guard] if node.guard else streams


def _scan_negative(toks: List[Token], pointers) -> List[str]:
    hits: List[str] = []
    for i, t in enumerate(toks):
        if not (t.kind == NAME and t.value in pointers):
            continue
        # name <op> - <int>   or   - <int> <op> name
        if (
            i + 2 < len(toks)
            and toks[i + 1].kind == OP and toks[i + 1].value in _COMPARE_OPS
            and toks[i + 2] == MINUS
            and i + 3 < len(toks) and toks[i + 3].kind == INT
        ):
            hits.append(t.value)
        elif (
            i >= 3
            and toks[i - 1].kind == OP and toks[i - 1].value in _COMPARE_OPS
            and toks[i - 2].kind == INT
            and toks[i - 3] == MINUS
        ):
            hits.append(t.value)
    return hits
