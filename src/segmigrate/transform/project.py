"""Whole-project migration: one output file per input file plus the
generated segment and support modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import target as T
from ..emit import RenderConfig, render_unit
from ..errors import MigrationError
from ..frontend import ast_nodes as A
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

    @property
    def errors(self) -> List[str]:
        return [o.error for o in self.files + self.modules if o.error]

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
        """Add source files migrated by another call, keeping file order;
        those that another process wrote come without their text."""
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
        count = len(self.files) + len(self.modules) if self.ok else 0
        lines.append(f"{count} file(s), {len(self.errors)} error(s), {status}")
        return "\n".join(lines) + "\n"


def migrate_project(
    units: Sequence[A.ProgramUnitAst],
    model: ProjectModel,
    intents: Dict[Tuple[str, int], str],
    cfg: Optional[RenderConfig] = None,
    modules: bool = True,
    *,
    targets: Optional[T.TargetNames] = None,
) -> MigrationResult:
    """Migrate the source files of ``units`` and, with ``modules``,
    synthesize all generated modules.

    ``model`` is the whole project's; ``units`` may be those of some of its
    files, when another call migrates the rest and only one call passes
    ``modules``.  Any error makes the whole result unusable: it has no
    outputs, so a caller cannot write a half-migrated project.  Whether two
    outputs or modules share a name is the caller's check, on
    :func:`target.target_names` of the model, which it may pass as
    ``targets``.
    """
    cfg = cfg or RenderConfig()
    result = MigrationResult()
    if targets is None:
        targets = T.target_names(model)

    by_file: Dict[str, List[A.ProgramUnitAst]] = {}
    for unit in units:
        by_file.setdefault(unit.file_id, []).append(unit)

    gaps: GapTable = {}  # the renderer's spacing decisions, one per token pair
    for file_id in sorted(by_file):
        tree = T.TargetNode(T.FILE)
        stats = FileStats(source=file_id, output=T.output_name(file_id))
        try:
            for i, unit in enumerate(by_file[file_id]):
                if i > 0:
                    tree.add(T.blank())
                ctx = make_context(unit, model, intents, gaps, targets)
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

    for seg_name, seg in sorted(model.segments.items()):
        name = T.output_name(T.module_name(seg_name))
        try:
            stats = FileStats(source=seg.file_id, output=name, rewritten=1)
            result.modules.append(
                FileOutcome(seg.file_id, name, render_unit(migrate_segment(seg), cfg), stats))
        except MigrationError as exc:
            result.modules.append(FileOutcome(seg.file_id, name, error=str(exc)))

    # pure Fortran 77 projects need no segment runtime
    for name, tree in generate_support_modules() if model.segments else []:
        result.modules.append(FileOutcome(T.RUNTIME, name, render_unit(tree, cfg)))
    return result


# --- pointer misuse diagnostics ---------------------------------------------


def negative_pointer_uses(unit: A.ProgramUnitAst, model: ProjectModel) -> List[str]:
    """Places where a segment pointer meets a negative integer literal, one
    per statement and pointer, in name order (see ``StatementFacts.negated``).

    Legacy code used negative integers as sentinel pointer values; those
    comparisons and assignments cannot survive the move to typed pointers.
    """
    summary = model.units[unit.name]
    pointers = set(summary.pointers).union(
        name for name in summary.segments_in_scope if name in model.segments)
    return [f"{node.span.label()}: pointer {name!r} used with a negative literal"
            for node in unit.body for name in node.facts.negated if name in pointers]
