"""Two-level code representation: project-wide dependency model plus the
per-unit ASTs it links to.

The dependency model (units, segments, call edges, include edges) is small
enough to stay resident for a whole run; unit ASTs are transient and may be
dropped once their unit has been migrated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import MigrationError
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


@dataclass
class UnitSummary:
    name: str
    kind: str  # program | subroutine | function
    parameters: List[str]
    file_id: str
    return_type: Optional[str] = None
    referenced: Set[str] = field(default_factory=set)
    defined: Set[str] = field(default_factory=set)
    esope_statements: List[str] = field(default_factory=list)  # command kinds, in order
    segments_in_scope: List[str] = field(default_factory=list)


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


def build_project_model(units: Sequence[object]) -> ProjectModel:
    """Collect every unit, segment, call edge and include edge of a project.

    ``units`` are parsed :class:`ProgramUnitAst` objects (included fragments
    already registered as fragments, not passed here).  Symbols referenced
    but nowhere defined are flagged external on their call edges.
    """
    from .frontend import ast_nodes as A

    model = ProjectModel()
    for unit in units:
        if unit.name in model.units:
            raise MigrationError(f"unit {unit.name!r} defined twice", unit.span)
        summary = UnitSummary(
            name=unit.name,
            kind=unit.kind,
            parameters=list(unit.params),
            file_id=unit.file_id,
            return_type=unit.return_type,
        )
        model.units[unit.name] = summary
        for seg in A.segment_definitions(unit):
            register_segment(model, seg)
            summary.segments_in_scope.append(seg.name)
        for name in unit.extra_segments_in_scope:
            if name not in summary.segments_in_scope:
                summary.segments_in_scope.append(name)
        summary.referenced = A.referenced_symbols(unit)
        summary.defined = A.defined_symbols(unit)
        summary.esope_statements = [
            node.kind for node in unit.body if isinstance(node, A.EsopeCommandNode)
        ]

    for unit in units:
        for node in unit.body:
            if isinstance(node, A.CallNode):
                external = node.callee not in model.units
                model.call_graph.append(CallEdge(unit.name, node.callee, len(node.args), external))

    return model


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
