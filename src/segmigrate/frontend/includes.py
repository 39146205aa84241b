"""Include resolution: the four include syntaxes are flattened in-place,
between traceability marker comments."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Sequence

from ..errors import MigrationError
from ..model import SegmentDefinition
from . import ast_nodes as A
from .lexer import read_source, split_logical_lines
from .parser import parse_fragment

BEGIN_MARK = '[seg-migrate] begin include "{path}"'
END_MARK = '[seg-migrate] end include "{path}"'


@dataclass
class Fragment:
    """A migrated included file: segment definitions pulled out, comments
    dropped, nested includes already flattened."""

    path: str
    statements: List[A.Node] = field(default_factory=list)
    segments: List[SegmentDefinition] = field(default_factory=list)
    includes: List[str] = field(default_factory=list)  # nested include paths


FragmentCache = Dict[str, Fragment]


def find_include_file(path: str, search_paths: Sequence[Path]) -> Path:
    tried = []
    for base in search_paths:
        candidate = Path(base) / path
        tried.append(str(candidate))
        if candidate.is_file():
            return candidate
    raise MigrationError(
        f"include file {path!r} not found; tried: " + ", ".join(tried)
    )


def build_fragment_cache(
    include_paths: Sequence[str],
    search_paths: Sequence[Path],
) -> FragmentCache:
    """Load and flatten every included file; the one include loader.

    Nested includes are resolved recursively; a cycle is a fatal error.
    """
    cache: FragmentCache = {}
    for path in include_paths:
        _load_fragment(path, search_paths, cache, stack=[])
    return cache


def _load_fragment(path, search_paths, cache, stack) -> Fragment:
    if path in cache:
        return cache[path]
    if path in stack:
        cycle = " -> ".join(stack + [path])
        raise MigrationError(f"include cycle: {cycle}")
    resolved = find_include_file(path, search_paths)
    lines = split_logical_lines(read_source(resolved), str(resolved))
    raw = parse_fragment(lines, str(resolved))

    frag = Fragment(path=path)
    for node in raw.body:
        if isinstance(node, A.CommentNode):
            continue  # comments in included files are not copied
        if isinstance(node, A.SegmentDefNode):
            frag.segments.append(node.definition)
            continue
        if isinstance(node, A.IncludeNode):
            nested = _load_fragment(
                node.directive.path, search_paths, cache, stack + [path]
            )
            frag.includes.append(nested.path)
            frag.statements.append(
                A.CommentNode(span=node.span, text=BEGIN_MARK.format(path=nested.path))
            )
            frag.statements.extend(nested.statements)
            frag.statements.append(
                A.CommentNode(span=node.span, text=END_MARK.format(path=nested.path))
            )
            frag.segments.extend(nested.segments)
            continue
        frag.statements.append(node)
    cache[path] = frag
    return frag


def resolve_includes(unit: A.ProgramUnitAst, cache: FragmentCache) -> A.ProgramUnitAst:
    """Replace every include directive of ``unit`` by marker comments
    enclosing the fragment's statements.

    Returns a new unit with a new body; ``unit`` is left untouched.  The
    spliced statements are the fragment's own nodes, shared with every
    other unit that includes it.  ``cache`` must hold every directive of
    ``unit`` (``build_fragment_cache`` of the unit's include paths).
    """
    body: List[A.Node] = []
    extra = list(unit.extra_segments_in_scope)
    for node in unit.body:
        if not isinstance(node, A.IncludeNode):
            body.append(node)
            continue
        path = node.directive.path
        frag = cache[path]
        body.append(A.CommentNode(span=node.span, text=BEGIN_MARK.format(path=path)))
        body.extend(frag.statements)
        body.append(A.CommentNode(span=node.span, text=END_MARK.format(path=path)))
        for seg in frag.segments:
            if seg.name not in extra:
                extra.append(seg.name)
    return replace(unit, body=body, extra_segments_in_scope=extra)
