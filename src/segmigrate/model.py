"""Two-level code representation: project-wide dependency model plus the
per-unit ASTs it links to.

The dependency model (unit summaries, segments, call edges, include edges)
stays resident for a whole run.  So do the unit ASTs, each in the process
that parsed it: ``migrate`` holds every unit until the output tree is
written.  Each :class:`UnitSummary` is filled in one pass over its unit's
body, its read/write events and default pointers included; it is plain
data, so a summary built in one process can be merged into the model of
another.  The intent pass reads only the summaries, and the rewrite is the
one other pass over a body.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import MigrationError, SourceSpan
from .frontend.lexer import ExprToken


@dataclass(frozen=True)
class FieldDef:
    """One field of a segment."""

    name: str
    base_type: str  # integer | real | double precision | logical | character | pointer
    char_len: Optional[object] = None  # int or "*" for character fields
    dims: Tuple[Tuple[ExprToken, ...], ...] = ()
    segment: Optional[str] = None  # target segment for pointer fields
    is_dynamic: bool = False

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass
class SegmentDefinition:
    """A segment: name, ordered fields, and the variables that size them."""

    name: str
    fields: List[FieldDef]
    dimensioning_vars: List[str]  # first-encounter order
    file_id: str = "<unknown>"
    # comments found inside the SEGMENT block; they move to the segment module
    comments: List[str] = field(default_factory=list)

    @property
    def default_pointer(self) -> str:
        # Esope implicitly declares a pointer named after the segment.
        return self.name

    def field_names(self) -> Set[str]:
        return {f.name for f in self.fields}

    def dynamic_fields(self) -> List[FieldDef]:
        return [f for f in self.fields if f.is_dynamic]


#: a name collection that is only tested for membership, sorted
Names = Tuple[str, ...]

#: the event ``(SIZED, pointer)``: a SEGINI/SEGADJ reads its segment's dimensioning variables
SIZED = "d"


@dataclass(slots=True)
class UnitSummary:
    """Every fact of one unit that depends on the unit alone, filled in one
    pass over its body by :func:`summarize_unit`.  Units with the same
    IMPLICIT rules share one table; nothing changes a summary once built."""

    name: str
    kind: str  # program | subroutine | function
    parameters: List[str]
    file_id: str
    span: SourceSpan
    return_type: Optional[str]
    pointers: Dict[str, str]  # POINTEUR name -> segment name
    # explicit types, a POINTEUR winning over an INTEGER declaration (the
    # Esope pointer-as-integer idiom); a name only dimensioned maps to ""
    declared: Dict[str, str]
    implicit_table: Dict[str, str]  # letter -> type, default rule included
    external: Names  # named by an EXTERNAL statement
    typed: Names  # named by a type statement
    arrays: Names  # declared with dimensions
    invoked: Names  # followed by a parenthesis in some statement
    assigned: Names  # written, a function's result aside
    referenced: Names
    defined: Names  # the unit, its dummies, declarations, segments, fields
    esope_statements: List[str]  # command kinds, in order
    definitions: Tuple[SegmentDefinition, ...]  # the segments it defines, in order
    segments_in_scope: List[str]  # its own definitions, then included ones
    calls: Tuple[Tuple[str, int], ...]  # (callee, argument count), in order
    events: Tuple[Tuple, ...]  # ast_nodes.Event or SIZED, in order; no function result write
    default_pointers: Names  # in-scope segment names used with no POINTEUR line

    def segment_of(self, pointer: str) -> Optional[str]:
        """The segment of a POINTEUR, else the in-scope one a default pointer names."""
        return self.pointers.get(pointer, pointer if pointer in self.segments_in_scope else None)


@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    arg_count: int
    external: bool = False


@dataclass
class ProjectModel:
    units: Dict[str, UnitSummary] = field(default_factory=dict)
    segments: Dict[str, SegmentDefinition] = field(default_factory=dict)
    call_graph: List[CallEdge] = field(default_factory=list)
    include_graph: List[Tuple[str, str]] = field(default_factory=list)
    intent_catalog: Dict[str, List[str]] = field(default_factory=dict)
    # project-wide indexes, each built on first use; units and call edges
    # are complete once build_project_model returns, and register_segment
    # drops the module index
    _functions: Optional[Dict[str, UnitSummary]] = field(
        default=None, init=False, repr=False, compare=False)
    _calls: Optional[Tuple[Dict[str, List[CallEdge]], Dict[str, Set[int]]]] = field(
        default=None, init=False, repr=False, compare=False)
    _modules: Optional[Tuple[Dict[str, str], Dict[str, str]]] = field(
        default=None, init=False, repr=False, compare=False)

    def functions(self) -> Dict[str, UnitSummary]:
        if self._functions is None:
            self._functions = {n: u for n, u in self.units.items() if u.kind == "function"}
        return self._functions

    def _call_index(self) -> Tuple[Dict[str, List[CallEdge]], Dict[str, Set[int]]]:
        if self._calls is None:
            by_caller: Dict[str, List[CallEdge]] = {}
            arg_counts: Dict[str, Set[int]] = {}
            for e in self.call_graph:
                by_caller.setdefault(e.caller, []).append(e)
                arg_counts.setdefault(e.callee, set()).add(e.arg_count)
            self._calls = (by_caller, arg_counts)
        return self._calls

    def calls_from(self, caller: str) -> List[CallEdge]:
        return self._call_index()[0].get(caller, [])

    def arg_counts(self, callee: str) -> Set[int]:
        """The argument counts of every call to ``callee`` in the project."""
        return self._call_index()[1].get(callee, set())

    def modules_seen_from(self, unit_name: str, symbols: Set[str]) -> Dict[str, str]:
        """The migrated module defining each of ``symbols`` that has one, as
        seen from unit ``unit_name``: a segment's own module, else that of
        another non-program unit, else that of the first segment owning a
        field of that name.  A unit never resolves to its own module."""
        if self._modules is None:
            fields: Dict[str, str] = {}
            for seg in self.segments.values():
                for f in seg.fields:
                    fields.setdefault(f.name, f"{seg.name}_mod")
            segments = {name: f"{name}_mod" for name in self.segments}
            units = {n: f"{n}_mod" for n, u in self.units.items() if u.kind != "program"}
            self._modules = ({**fields, **units, **segments}, {**fields, **segments})
        every, without_units = self._modules
        found = {s: every[s] for s in symbols if s in every and s != unit_name}
        if unit_name in symbols and unit_name in without_units:
            found[unit_name] = without_units[unit_name]
        return found


def build_project_model(
    units: Sequence[object], segments: Iterable[SegmentDefinition] = ()
) -> ProjectModel:
    """Collect every unit, segment and call edge of a project.

    ``units`` are parsed :class:`ProgramUnitAst` objects with their includes
    resolved, or the :class:`UnitSummary` of such a unit built elsewhere, in
    project order; ``segments`` are those of the included files.  Symbols
    referenced but nowhere defined are flagged external on their call edges.
    """
    model = ProjectModel()
    for unit in units:
        if unit.name in model.units:
            raise MigrationError(f"unit {unit.name!r} defined twice", unit.span)
        summary = unit if isinstance(unit, UnitSummary) else summarize_unit(unit)
        model.units[unit.name] = summary
        for seg in summary.definitions:
            register_segment(model, seg)
    for seg in segments:
        existing = model.segments.get(seg.name)
        if existing is None:
            register_segment(model, seg)
        elif existing is not seg and existing.file_id != seg.file_id:
            raise MigrationError(
                f"segment {seg.name!r} defined in both {existing.file_id} and {seg.file_id}"
            )
    model.call_graph = [
        CallEdge(u.name, callee, count, callee not in model.units)
        for u in model.units.values()
        for callee, count in u.calls
    ]
    return model


def summarize_unit(unit) -> UnitSummary:
    """The summary of ``unit``, from one pass over its body."""
    from .frontend import ast_nodes as A

    pointers: Dict[str, str] = {}
    types: Dict[str, str] = {}
    dims_only: List[str] = []
    rules: List[Tuple[str, str]] = []
    external, typed, arrays, invoked, referenced, used = (set() for _ in range(6))
    defined = {unit.name, *unit.params}
    commands: List[str] = []
    definitions: List[SegmentDefinition] = []
    calls: List[Tuple[str, int]] = []
    events: List[Tuple] = []
    for node in unit.body:
        referenced.update(node.facts.names)
        invoked.update(node.facts.invoked)
        used.update(node.facts.pointers)  # candidate default pointers
        own = node.facts.events
        if isinstance(node, A.TypeDeclNode):
            for ent in node.entities:
                defined.add(ent.name)
                if ent.dims:
                    arrays.add(ent.name)
                if node.base_type is None:  # DIMENSION
                    dims_only.append(ent.name)
                else:
                    typed.add(ent.name)
                    types[ent.name] = format_type(node.base_type, node.char_len)
        elif isinstance(node, A.PointerDeclNode):
            pointers.update(node.entries)
        elif isinstance(node, A.ExternalDeclNode):
            external.update(node.names)
        elif isinstance(node, A.ImplicitDeclNode):
            rules += node.rules
        elif isinstance(node, A.CallNode):
            referenced.add(node.callee)
            calls.append((node.callee, len(node.args)))
        elif isinstance(node, A.AssignmentNode):
            if own[-1:] == (("w", unit.name),):
                own = own[:-1]  # the write of a function result
        elif isinstance(node, A.EsopeCommandNode):
            commands.append(node.kind)
            used.update((node.target, node.source))
            if node.kind in (A.SEGINI, A.SEGADJ):
                events.append((SIZED, node.target))
        elif isinstance(node, A.SegmentDefNode):
            seg = node.definition
            definitions.append(seg)
            defined.add(seg.name)
            defined.update(seg.field_names())
        events += own
    defined.update(pointers, external)
    declared = {**types, **{p: f"type({seg}), pointer" for p, seg in pointers.items()}}
    for name in dims_only:
        declared.setdefault(name, "")  # typed by implicit rule, dimensioned here
    scope = [seg.name for seg in definitions]
    scope += [n for n in unit.extra_segments_in_scope if n not in scope]
    return UnitSummary(
        name=unit.name, kind=unit.kind, parameters=unit.params, file_id=unit.file_id,
        span=unit.span, return_type=unit.return_type, pointers=pointers, declared=declared,
        implicit_table=implicit_table(rules), external=_names(external),
        typed=_names(typed), arrays=_names(arrays), invoked=_names(invoked),
        assigned=_names({ev[1] for ev in events if ev[0] == "w"}),
        referenced=_names(referenced), defined=_names(defined), esope_statements=commands,
        definitions=tuple(definitions), segments_in_scope=scope, calls=tuple(calls),
        events=tuple(events),
        default_pointers=_names(used.intersection(scope) - pointers.keys()),
    )


def _names(names: Set[str]) -> Names:
    return tuple(sorted(names))


# --- typing rules -----------------------------------------------------------


def format_type(base: str, char_len) -> str:
    """Free-form spelling of a type; a CHARACTER without length has length 1."""
    if base == "character":
        return f"character(len={1 if char_len is None else char_len})"
    return base


def default_implicit_type(name: str) -> str:
    """The standard naming rule: `i` through `n` are integers, the rest reals."""
    return "integer" if name[0].lower() in "ijklmn" else "real"


# Units with the same IMPLICIT rules share one table, which nothing changes.
_TABLES: Dict[Tuple[Tuple[str, str], ...], Dict[str, str]] = {}


def implicit_table(rules: Sequence[Tuple[str, str]]) -> Dict[str, str]:
    """Per-letter type map after applying IMPLICIT ``rules`` (type, letters)
    on top of the default rule."""
    key = tuple(rules)
    if key not in _TABLES:
        table = {letter: default_implicit_type(letter) for letter in "abcdefghijklmnopqrstuvwxyz"}
        for type_name, letters in rules:
            m = re.match(r"character\s*\*\s*(\d+)", type_name)
            if m:
                type_name = format_type("character", m.group(1))
            for letter in _expand_letters(letters):
                table[letter] = type_name
        _TABLES[key] = table
    return _TABLES[key]


def _expand_letters(spec: str) -> List[str]:
    out: List[str] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(chr(c) for c in range(ord(lo), ord(hi) + 1))
        elif part:
            out.append(part)
    return out


def register_segment(model: ProjectModel, seg: SegmentDefinition) -> None:
    if seg.name in model.segments:
        raise MigrationError(f"segment {seg.name!r} defined twice")
    model.segments[seg.name] = seg
    model._modules = None


def segment_for_field(
    model: ProjectModel, field_name: str, unit_scope: Sequence[str]
) -> Optional[SegmentDefinition]:
    """Find the unique in-scope segment owning ``field_name``.

    Two in-scope owners make the default-pointer rewrite unsound, so that
    case is a hard error rather than a pick-one.
    """
    owners = [
        model.segments[s]
        for s in unit_scope
        if s in model.segments and field_name in model.segments[s].field_names()
    ]
    if not owners:
        return None
    if len(owners) > 1:
        names = ", ".join(sorted(o.name for o in owners))
        raise MigrationError(
            f"field {field_name!r} is owned by several in-scope segments: {names}"
        )
    return owners[0]


def dump_model(model: ProjectModel) -> str:
    """Line-oriented debug report: one entity per line (kind, name, file)."""
    lines = []
    for name in sorted(model.units):
        u = model.units[name]
        lines.append(f"unit\t{u.kind}\t{name}\t{u.file_id}")
    for name in sorted(model.segments):
        lines.append(f"segment\t{name}\t{model.segments[name].file_id}")
    for e in sorted(model.call_graph, key=lambda e: (e.caller, e.callee)):
        flag = "external" if e.external else "internal"
        lines.append(f"call\t{e.caller}\t{e.callee}\t{e.arg_count}\t{flag}")
    for inc in sorted(model.include_graph):
        lines.append(f"include\t{inc[0]}\t{inc[1]}")
    return "\n".join(lines) + ("\n" if lines else "")
