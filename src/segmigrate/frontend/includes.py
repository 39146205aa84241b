"""Include resolution: the four include syntaxes are flattened in-place,
between traceability marker comments.  The spliced nodes are the included
file's, in every unit; the unit's ``splices`` say where they came from."""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import MigrationError, MigrationErrors
from ..model import SegmentDefinition
from . import ast_nodes as A
from .lexer import read_source, split_logical_lines
from .parser import StatementTable, parse_fragment

BEGIN_MARK = '[seg-migrate] begin include "{path}"'
END_MARK = '[seg-migrate] end include "{path}"'


Place = Tuple[A.ProgramUnitAst, int]  # a directive: the parsed file, its index in the body


@dataclass
class Fragment:
    """A migrated included file: segment definitions pulled out, comments
    dropped, nested includes already flattened."""

    path: str  # as the directives name it
    flat: A.ProgramUnitAst  # its statements, their lines and their splices
    segments: List[SegmentDefinition]
    includes: List[Place]  # its nested directives, in order
    begin: A.CommentNode  # the markers around each splice of it
    end: A.CommentNode


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
    requests: Iterable[Union[str, Place]],
    search_paths: Sequence[Path],
    table: Optional[StatementTable] = None,
) -> FragmentCache:
    """Load and flatten every included file; the one include loader.

    ``requests`` are include paths, or the places of the directives that
    ask for them.  Nested includes are resolved recursively.  Every include
    that names a missing or unreadable file is an error at the directive
    that asked for it, and every fragment that includes itself through a
    chain of includes is an error at its include that starts the shortest
    such chain.  All of them are raised together, once every request is loaded.
    The fragments are parsed with the statement table ``table``, if given
    (see ``parser.parse_fragment``).
    """
    loader = _Loader(search_paths, table)
    for request in requests:
        if isinstance(request, str):
            loader.load(request, None, [])
        else:
            loader.load(_path_at(request), request, [])
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

    def load(self, path: str, place: Optional[Place], stack: List[str]) -> Optional[Fragment]:
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
                return self._flatten(path, raw, stack + [path])
        if self.failed[path] is not None:
            self.errors.append(MigrationError(self.failed[path], place and place[0].span_of(place[1])))
        return None

    def _flatten(self, path: str, raw: A.ProgramUnitAst, stack: List[str]) -> Fragment:
        segments: List[SegmentDefinition] = []
        includes: List[Place] = []
        for i, node in enumerate(raw.body):
            if isinstance(node, A.SegmentDefNode):
                segments.append(node.definition)
            elif isinstance(node, A.IncludeNode):
                includes.append((raw, i))
                nested = self.load(node.directive.path, (raw, i), stack)
                segments += nested.segments if nested else []
        # comments in included files are not copied; a nested include that
        # failed to load, which is reported, is left out
        flat = _spliced(raw, self.cache.get, (A.CommentNode, A.SegmentDefNode))
        frag = self.cache[path] = Fragment(
            path, flat, segments, includes, A.CommentNode(text=BEGIN_MARK.format(path=path)),
            A.CommentNode(text=END_MARK.format(path=path)))
        return frag

    def report_cycle(self, path: str) -> None:
        """The shortest chain of includes leading from ``path`` back to it,
        found breadth-first with each fragment's includes in order.  It
        depends only on the files, so a fragment loaded by several runs over
        different sources is reported the same way by each."""
        seen = set()
        queue = deque((place, [path, _path_at(place)]) for place in self.cache[path].includes)
        while queue:
            first, chain = queue.popleft()
            last = chain[-1]
            if last == path:
                self.errors.append(
                    MigrationError(f"include cycle: {' -> '.join(chain)}", first[0].span_of(first[1])))
                return
            if last in seen or last not in self.cache:
                continue
            seen.add(last)
            queue.extend((first, chain + [_path_at(place)]) for place in self.cache[last].includes)


def _path_at(place: Place) -> str:
    unit, i = place
    return unit.body[i].directive.path


def _spliced(unit: A.ProgramUnitAst, fragment_of: Callable[[str], Optional[Fragment]],
             dropped=()) -> A.ProgramUnitAst:
    """``unit`` with the entries of the ``dropped`` types left out and each
    directive replaced by the statements of ``fragment_of`` its path, or
    left out if that is None, between markers at the directive's line."""
    body: List[A.Node] = []
    starts = array("I")
    splices: List[Tuple[int, A.ProgramUnitAst]] = []
    extra = list(unit.extra_segments_in_scope)
    for i, node in enumerate(unit.body):
        if not isinstance(node, A.IncludeNode):
            if not isinstance(node, dropped):
                body.append(node)
                starts.append(unit.lines[i])
            continue
        frag = fragment_of(node.directive.path)
        if frag is None:
            continue
        if frag.flat.body:
            splices.append((len(body) + 1, frag.flat))
        body += (frag.begin, *frag.flat.body, frag.end)
        starts.append(unit.lines[i])
        starts += frag.flat.lines
        starts.append(unit.lines[i])
        for seg in frag.segments:
            if seg.name not in extra:
                extra.append(seg.name)
    return replace(unit, body=body, lines=starts, splices=tuple(splices),
                   extra_segments_in_scope=extra)


def resolve_includes(unit: A.ProgramUnitAst, cache: FragmentCache) -> A.ProgramUnitAst:
    """Replace every include directive of ``unit`` by marker comments
    enclosing the fragment's statements.

    Returns a new unit with a new body; ``unit`` is left untouched.  The
    spliced statements and the markers are the fragment's own nodes, shared
    with every other unit that includes it.  ``cache`` must hold every
    directive of ``unit`` (``build_fragment_cache`` of the unit's include
    paths).
    """
    return _spliced(unit, cache.__getitem__)
