"""The Fortran 2008 target program: its global names, and its output tree
of typed nodes plus blocks of preformatted text.

Large generated bodies (the per-segment command implementations) are
template nodes: finished Fortran text whose relative indentation the
renderer keeps while shifting it to the depth where the node stands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple, Union

from .model import ProjectModel, SegmentDefinition, UnitRecord

# --- global names -----------------------------------------------------------


def module_name(name: str) -> str:
    """The module that holds unit or segment ``name``."""
    return f"{name}_mod"


def output_name(file_id: str) -> str:
    """The output file of a source, or of a generated module: the stem of
    the name after the last ``/``, as ``PurePosixPath.stem`` spells it."""
    name = file_id[file_id.rfind("/") + 1:]
    dot = name.rfind(".")
    return (name[:dot] if 0 < dot < len(name) - 1 else name) + ".f90"


#: the support modules of every project with segments
RUNTIME = "the segment runtime"
RUNTIME_MODULES = (module_name("segment"), module_name("segment_registry"))


class TargetNames(NamedTuple):
    """The global names of a project's target program that the rewrite reads,
    from :func:`target_names`."""

    routines: Dict[str, str]  # subroutine or function -> its module; a program has none


#: what gives a global name: a unit, a segment or the runtime
Origin = Union[UnitRecord, SegmentDefinition, str]


def _is_program(origin: Origin) -> bool:
    return isinstance(origin, UnitRecord) and origin.kind == "program"


def _describe(origin: Origin) -> str:
    if isinstance(origin, UnitRecord):
        return f"{origin.kind} {origin.name} at {origin.span.label()}"
    if isinstance(origin, SegmentDefinition):
        return f"segment {origin.name} in {origin.file_id}"
    return origin


def target_names(model: ProjectModel) -> TargetNames:
    """The module of each subroutine and function of the project ``model``."""
    return TargetNames({name: module_name(name) for name, unit in model.units.items()
                        if unit.kind != "program"})


def name_clashes(model: ProjectModel) -> List[str]:
    """A message per output file or global name of the project ``model``
    with two origins, files first (Fortran 2008, 16.2): sources in file
    order, units in project order, then segments and the runtime.  A
    program's name is global, as a module's is.  The origins are the
    model's own records, listed only while this runs."""
    files: Dict[str, List[str]] = {}  # output file -> each source, or the runtime, written to it
    # global name -> each program of that name, and each unit, segment or the
    # runtime defining a module of that name
    modules: Dict[str, List[Origin]] = {}
    for file_id in sorted({u.file_id for u in model.units.values()}):
        files.setdefault(output_name(file_id), []).append(file_id)
    for name, unit in model.units.items():
        modules.setdefault(name if unit.kind == "program" else module_name(name), []).append(unit)
    generated: List[Tuple[str, str, Origin]] = [
        (module_name(name), seg.file_id, seg) for name, seg in sorted(model.segments.items())]
    generated += [(module, RUNTIME, RUNTIME) for module in RUNTIME_MODULES if generated]
    for module, source, origin in generated:
        files.setdefault(output_name(module), []).append(source)
        modules.setdefault(module, []).append(origin)
    messages = [f"{name} would be the output of each of {', '.join(origins)}"
                for name, origins in files.items() if len(origins) > 1]
    for name, origins in modules.items():
        if len(origins) < 2:
            continue
        if any(map(_is_program, origins)):
            described = [_describe(o) if _is_program(o) else f"the module of {_describe(o)}"
                         for o in origins]
            messages.append(f"global name {name} would name each of {', '.join(described)}")
        else:
            messages.append(f"module {name} would be defined by each of "
                            f"{', '.join(map(_describe, origins))}")
    return messages


# --- output tree ------------------------------------------------------------

# typed node kinds
FILE = "file"
MODULE = "module"
PROGRAM = "program"
PROCEDURE = "procedure"
DERIVED_TYPE = "derived-type"
INTERFACE = "interface"
STATEMENT = "statement"
DECLARATION = "declaration"
USE = "use"
COMMENT = "comment"
CONTAINS = "contains"
DIRECTIVE = "directive"

_BLOCK_KINDS = {FILE, MODULE, PROGRAM, PROCEDURE, DERIVED_TYPE, INTERFACE}


@dataclass
class TargetNode:
    kind: str
    text: str = ""
    children: List["OutputNode"] = field(default_factory=list)
    footer: str = ""

    @property
    def is_block(self) -> bool:
        return self.kind in _BLOCK_KINDS

    def add(self, *nodes: "OutputNode") -> "TargetNode":
        self.children.extend(nodes)
        return self


@dataclass
class TemplateNode:
    text: str


OutputNode = Union[TargetNode, TemplateNode]


def statement(text: str) -> TargetNode:
    return TargetNode(STATEMENT, text)


def declaration(text: str) -> TargetNode:
    return TargetNode(DECLARATION, text)


def comment(text: str) -> TargetNode:
    return TargetNode(COMMENT, text)


def blank() -> TargetNode:
    return TargetNode(COMMENT, "")


def use(module: str) -> TargetNode:
    return TargetNode(USE, f"use {module}")


def module_node(name: str) -> TargetNode:
    return TargetNode(MODULE, f"module {name}", footer=f"end module {name}")


def program_node(name: str) -> TargetNode:
    return TargetNode(PROGRAM, f"program {name}", footer=f"end program {name}")
