"""The Fortran 2008 target program: its global names, and its output tree
of typed nodes plus blocks of preformatted text.

Large generated bodies (the per-segment command implementations) are
template nodes: finished Fortran text whose relative indentation the
renderer keeps while shifting it to the depth where the node stands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, List, NamedTuple, Union

# --- global names -----------------------------------------------------------


def module_name(name: str) -> str:
    """The module that holds unit or segment ``name``."""
    return f"{name}_mod"


def output_name(file_id: str) -> str:
    """The output file of a source, or of a generated module."""
    return PurePosixPath(file_id).stem + ".f90"


#: the support modules of every project with segments
RUNTIME = "the segment runtime"
RUNTIME_MODULES = (module_name("segment"), module_name("segment_registry"))


class TargetNames(NamedTuple):
    """The global names of a project's target program, from :func:`target_names`."""

    files: Dict[str, List[str]]  # output file -> each source, or the runtime, written to it
    modules: Dict[str, List[str]]  # module -> each unit, segment or runtime defining it
    routines: Dict[str, str]  # subroutine or function -> its module; a program has none

    def clashes(self) -> List[str]:
        """A message per name with two origins, files first (Fortran 2008, 16.2)."""
        return ([f"{name} would be the output of each of {', '.join(origins)}"
                 for name, origins in self.files.items() if len(origins) > 1]
                + [f"module {name} would be defined by each of {', '.join(origins)}"
                   for name, origins in self.modules.items() if len(origins) > 1])


def target_names(model) -> TargetNames:
    """Every output file and module of the project ``model`` with its
    origins: sources in file order, units in project order, then segments
    and the runtime."""
    names = TargetNames({}, {}, {})
    for file_id in sorted({u.file_id for u in model.units.values()}):
        names.files.setdefault(output_name(file_id), []).append(file_id)
    for name, unit in model.units.items():
        if unit.kind != "program":
            names.routines[name] = module_name(name)
            names.modules[module_name(name)] = [f"{unit.kind} {name} at {unit.span.label()}"]
    generated = [(module_name(name), seg.file_id, f"segment {name} in {seg.file_id}")
                 for name, seg in sorted(model.segments.items())]
    generated += [(module, RUNTIME, RUNTIME) for module in RUNTIME_MODULES if generated]
    for module, source, origin in generated:
        names.files.setdefault(output_name(module), []).append(source)
        names.modules.setdefault(module, []).append(origin)
    return names


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
