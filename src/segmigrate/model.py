"""Two-level code representation: project-wide dependency model plus the
per-unit ASTs it links to.

The dependency model (unit summaries, segments, call edges, include edges)
stays resident for a whole run.  So do the unit ASTs, each in the process
that parsed it, which holds one node per distinct statement of its range:
``migrate`` holds every unit until the output tree is written.  Each
:class:`UnitSummary` is filled in one pass over its unit's body, its
default pointers and the read/write events the intent solver can use
included.  Only the process that rewrites a unit reads its summary; every
other process reads the unit's :class:`UnitRecord`, plain data that
crosses a pipe, its events travelling beside it.  So a model holds the
summary of each unit its process parsed and the record of every other.
The intent pass reads only the model, and the rewrite is the one other
pass over a body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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

#: the event ``(SIZED, segment)``: a SEGINI/SEGADJ reads its segment's dimensioning variables
SIZED = "d"


@dataclass(slots=True)
class UnitRecord:
    """What the rest of the project reads of one unit: the record a worker
    sends up for each unit of its range, and the first process sends down
    for each unit of the other ranges."""

    name: str
    kind: str  # program | subroutine | function
    parameters: List[str]
    file_id: str
    span: SourceSpan
    definitions: Tuple[SegmentDefinition, ...]  # the segments it defines, in order
    calls: Tuple[Tuple[str, int], ...]  # (callee, argument count), in order


@dataclass(slots=True)
class UnitSummary(UnitRecord):
    """Every fact of one unit that depends on the unit alone, filled in one
    pass over its body by :func:`summarize_unit`: its record plus the facts
    only the process that rewrites the unit reads.  Units with the same
    IMPLICIT rules share one table; nothing changes a summary once built."""

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
    segments_in_scope: List[str]  # its own definitions, then included ones
    # ast_nodes.Event or SIZED, in order, no function result write, only
    # those usable_events keeps; () when they were kept beside the summary
    # (see summarize_unit)
    events: Tuple[Tuple, ...]
    # in-scope segment names with no POINTEUR line, referenced or named by a command
    default_pointers: Names

    def segment_of(self, pointer: str) -> Optional[str]:
        """The segment of a POINTEUR, else the in-scope one a default pointer names."""
        return self.pointers.get(pointer, pointer if pointer in self.segments_in_scope else None)

    def record(self) -> UnitRecord:
        """The unit's record alone, which is what crosses a pipe."""
        return UnitRecord(self.name, self.kind, self.parameters, self.file_id, self.span,
                          self.definitions, self.calls)


@dataclass(frozen=True, slots=True)
class CallEdge:
    caller: str
    callee: str
    arg_count: int
    external: bool = False


@dataclass
class ProjectModel:
    units: Dict[str, UnitRecord] = field(default_factory=dict)
    segments: Dict[str, SegmentDefinition] = field(default_factory=dict)
    call_graph: List[CallEdge] = field(default_factory=list)
    include_graph: List[Tuple[str, str]] = field(default_factory=list)
    intent_catalog: Dict[str, List[str]] = field(default_factory=dict)
    # unit -> its events, which only the intent solve reads; build_project_model
    # takes them from the units it summarizes, and a caller that kept them
    # beside the summaries sets them here
    events: Dict[str, Tuple[Tuple, ...]] = field(default_factory=dict)
    # project-wide indexes, each built on first use; units and call edges
    # are complete once build_project_model returns
    _functions: Optional[Dict[str, UnitRecord]] = field(
        default=None, init=False, repr=False, compare=False)
    _arg_counts: Optional[Dict[str, Set[int]]] = field(
        default=None, init=False, repr=False, compare=False)

    def functions(self) -> Dict[str, UnitRecord]:
        if self._functions is None:
            self._functions = {n: u for n, u in self.units.items() if u.kind == "function"}
        return self._functions

    def arg_counts(self, callee: str) -> Set[int]:
        """The argument counts of every call to ``callee`` in the project."""
        if self._arg_counts is None:
            self._arg_counts = {}
            for e in self.call_graph:
                self._arg_counts.setdefault(e.callee, set()).add(e.arg_count)
        return self._arg_counts.get(callee, set())


def build_project_model(
    units: Sequence[object], segments: Iterable[SegmentDefinition] = ()
) -> ProjectModel:
    """Collect every unit, segment and call edge of a project.

    ``units`` are parsed :class:`ProgramUnitAst` objects with their includes
    resolved, or the :class:`UnitRecord` or summary of such a unit built
    elsewhere, whose events the caller sets, in project order; ``segments``
    are those of the included files.  Symbols referenced but nowhere defined
    are flagged external on their call edges.
    """
    model = ProjectModel()
    for unit in units:
        if unit.name in model.units:
            raise MigrationError(f"unit {unit.name!r} defined twice", unit.span)
        if not isinstance(unit, UnitRecord):
            unit = summarize_unit(unit)
            model.events[unit.name] = unit.events
        model.units[unit.name] = unit
        for seg in unit.definitions:
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


def summarize_unit(unit, events: Optional[List[Tuple[Tuple, ...]]] = None,
                   segments: Iterable[SegmentDefinition] = ()) -> UnitSummary:
    """The summary of ``unit``, from one pass over its body.  Given a list
    ``events``, the unit's events are appended to it and the summary holds
    none.  Either way only the events :func:`usable_events` keeps are
    stored.  A SIZED marker names the segment of its pointer, so that no
    other process needs the unit's pointers to resolve it, and stays only
    if a dummy sizes that segment, or if that is none of the unit's own or
    of ``segments``, which the model may resolve: no other reads a dummy."""
    from .frontend import ast_nodes as A

    pointers: Dict[str, str] = {}
    types: Dict[str, str] = {}
    dims_only: List[str] = []
    rules: List[Tuple[str, str]] = []
    external, typed, arrays, invoked, referenced = (set() for _ in range(5))
    used: Set[str] = set()  # the operands of the Esope commands
    defined = {unit.name, *unit.params}
    commands: List[str] = []
    definitions: List[SegmentDefinition] = []
    calls: List[Tuple[str, int]] = []
    own_events: List[Tuple] = []
    for node in unit.body:
        referenced.update(node.facts.names)
        invoked.update(node.facts.invoked)
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
                own_events.append((SIZED, node.target))
        elif isinstance(node, A.SegmentDefNode):
            seg = node.definition
            definitions.append(seg)
            defined.add(seg.name)
            defined.update(seg.field_names())
        own_events += own
    defined.update(pointers, external)
    declared = {**types, **{p: f"type({seg}), pointer" for p, seg in pointers.items()}}
    for name in dims_only:
        declared.setdefault(name, "")  # typed by implicit rule, dimensioned here
    scope = [seg.name for seg in definitions]
    scope += [n for n in unit.extra_segments_in_scope if n not in scope]
    unsized = {seg.name for seg in (*segments, *definitions)
               if set(unit.params).isdisjoint(seg.dimensioning_vars)}
    # pointer -> its segment (see UnitSummary.segment_of), if a dummy may size it
    sized = {p: seg for p, seg in ({n: n for n in scope} | pointers).items() if seg not in unsized}
    kept = [(SIZED, sized[ev[1]]) if ev[0] == SIZED else ev for ev in own_events
            if ev[0] != SIZED or ev[1] in sized]
    usable = tuple(usable_events(kept, unit.params))
    if events is not None:
        events.append(usable)
    return UnitSummary(
        name=unit.name, kind=unit.kind, parameters=unit.params, file_id=unit.file_id,
        span=unit.span, pointers=pointers, declared=declared,
        implicit_table=implicit_table(rules), external=_names(external),
        typed=_names(typed), arrays=_names(arrays), invoked=_names(invoked),
        assigned=_names({ev[1] for ev in own_events if ev[0] == "w"}),
        referenced=_names(referenced), defined=_names(defined), esope_statements=commands,
        definitions=tuple(definitions), segments_in_scope=scope, calls=tuple(calls),
        events=usable if events is None else (),
        default_pointers=_names((used | referenced).intersection(scope) - pointers.keys()),
    )


def usable_events(events: Iterable[Tuple], dummies: Collection[str]) -> Iterator[Tuple]:
    """The ``events`` that can change the intent solver's state of a dummy
    (``analysis._READ``/``_WRITE``), in order, and every SIZED marker.  A
    dummy's first plain read leaves it ``in``, ``out`` or ``inout``, which
    no later read changes; its first plain write leaves it ``out`` or
    ``inout``, which no later access changes.  So an event is kept if it
    concerns a dummy not yet written, unless it is a read of one already
    read.  Keeping the result instead of ``events`` gives the same intents."""
    read: Set[str] = set()
    written: Set[str] = set()
    for ev in events:
        kind, name = ev[0], ev[-1]
        if kind != SIZED:
            if name not in dummies or name in written:
                continue
            if kind == "w":
                written.add(name)
            elif kind == "r":
                if name in read:
                    continue
                read.add(name)
        yield ev


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
    """Per-letter type map after applying IMPLICIT ``rules`` (type, letters),
    each type spelled by :func:`format_type`, on top of the default rule."""
    key = tuple(rules)
    if key not in _TABLES:
        table = {letter: default_implicit_type(letter) for letter in "abcdefghijklmnopqrstuvwxyz"}
        for type_name, letters in rules:
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
