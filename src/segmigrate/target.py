"""Fortran 2008 output tree: typed nodes plus blocks of preformatted text.

Large generated bodies (the per-segment command implementations) are
template nodes: finished Fortran text whose relative indentation the
renderer keeps while shifting it to the depth where the node stands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

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
