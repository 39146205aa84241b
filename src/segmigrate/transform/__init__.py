"""Out-of-place rewriting: statements, segments, whole projects."""

from .project import FileStats, MigrationResult, migrate_project, negative_pointer_uses
from .segments import generate_support_modules, migrate_segment, synthesize_command_bodies
from .tokens import render_tokens
from .units import RewriteContext, compute_unit_uses, make_context, rewrite_statement, wrap_in_module

__all__ = [
    "FileStats",
    "MigrationResult",
    "RewriteContext",
    "compute_unit_uses",
    "generate_support_modules",
    "make_context",
    "migrate_project",
    "migrate_segment",
    "negative_pointer_uses",
    "render_tokens",
    "rewrite_statement",
    "synthesize_command_bodies",
    "wrap_in_module",
]
