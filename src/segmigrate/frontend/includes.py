"""Include resolution: the four include syntaxes are flattened in-place,
between traceability marker comments."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..errors import MigrationError, MigrationErrors, SourceSpan
from ..model import SegmentDefinition
from . import ast_nodes as A
from .lexer import read_source, split_logical_lines
from .parser import StatementTable, parse_fragment

BEGIN_MARK = '[seg-migrate] begin include "{path}"'
END_MARK = '[seg-migrate] end include "{path}"'


@dataclass
class Fragment:
    """A migrated included file: segment definitions pulled out, comments
    dropped, nested includes already flattened."""

    path: str
    statements: List[A.Node] = field(default_factory=list)
    segments: List[SegmentDefinition] = field(default_factory=list)
    includes: List[A.IncludeNode] = field(default_factory=list)  # nested directives, in order


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
    requests: Iterable[Union[str, A.IncludeNode]],
    search_paths: Sequence[Path],
    table: Optional[StatementTable] = None,
) -> FragmentCache:
    """Load and flatten every included file; the one include loader.

    ``requests`` are include paths, or the include directives that ask for
    them.  Nested includes are resolved recursively.  Every include that
    names a missing or unreadable file is an error at the directive that
    asked for it, and every fragment that includes itself through a chain of
    includes is an error at its include that starts the shortest such
    chain.  All of them are raised together, once every request is loaded.
    The fragments are parsed with the statement table ``table``, if given
    (see ``parser.parse_fragment``).
    """
    loader = _Loader(search_paths, table)
    for request in requests:
        if isinstance(request, A.IncludeNode):
            loader.load(request.directive.path, request.span, [])
        else:
            loader.load(request, None, [])
    if loader.cyclic:
        for path in sorted(loader.cache):
            loader.report_cycle(path)
    if loader.errors:
        raise MigrationErrors(loader.errors)
    return loader.cache


class _Loader:
    def __init__(self, search_paths: Sequence[Path], table: Optional[StatementTable]) -> None:
        self.search_paths = search_paths
        self.table = table
        self.cache: FragmentCache = {}
        self.errors: List[MigrationError] = []
        # path -> the error to repeat at each directive asking for it, or
        # None once an error located in the file itself has been reported
        self.failed: Dict[str, Optional[str]] = {}
        self.cyclic = False  # some directive named a fragment still loading

    def load(self, path: str, span: Optional[SourceSpan], stack: List[str]) -> Optional[Fragment]:
        if path in self.cache:
            return self.cache[path]
        if path in stack:
            self.cyclic = True  # reported by report_cycle once loading is done
            return None
        if path not in self.failed:
            try:
                resolved = find_include_file(path, self.search_paths)
                lines = split_logical_lines(read_source(resolved), str(resolved))
                raw = parse_fragment(lines, str(resolved), self.table)
            except MigrationError as exc:
                self.failed[path] = None if exc.span else str(exc)
                if exc.span:
                    self.errors.append(exc)
            else:
                return self._flatten(path, raw.body, stack + [path])
        if self.failed[path] is not None:
            self.errors.append(MigrationError(self.failed[path], span))
        return None

    def _flatten(self, path: str, body: Sequence[A.Node], stack: List[str]) -> Fragment:
        frag = Fragment(path=path)
        for node in body:
            if isinstance(node, A.CommentNode):
                continue  # comments in included files are not copied
            if isinstance(node, A.SegmentDefNode):
                frag.segments.append(node.definition)
                continue
            if isinstance(node, A.IncludeNode):
                frag.includes.append(node)
                nested = self.load(node.directive.path, node.span, stack)
                if nested is not None:
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
        self.cache[path] = frag
        return frag

    def report_cycle(self, path: str) -> None:
        """The shortest chain of includes leading from ``path`` back to it,
        found breadth-first with each fragment's includes in order.  It
        depends only on the files, so a fragment loaded by several runs over
        different sources is reported the same way by each."""
        seen = set()
        queue = deque((node, [path, node.directive.path]) for node in self.cache[path].includes)
        while queue:
            first, chain = queue.popleft()
            last = chain[-1]
            if last == path:
                self.errors.append(
                    MigrationError(f"include cycle: {' -> '.join(chain)}", first.span))
                return
            if last in seen or last not in self.cache:
                continue
            seen.add(last)
            queue.extend((first, chain + [node.directive.path])
                         for node in self.cache[last].includes)


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
