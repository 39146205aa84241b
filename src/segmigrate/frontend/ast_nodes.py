"""AST node classes for one program unit (the full-fidelity level).

Only constructs that must be rewritten are deeply parsed; any other host
statement survives as an :class:`OpaqueNode` wrapping its token stream.

The AST is read-only once the parser has built it.  Include resolution
builds each unit a new body but shares the statement nodes: every unit
that includes a file holds that file's nodes, not copies of them.  No
stage after the parser mutates a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from ..errors import SourceSpan
from .lexer import DottedAccess, ExprToken, IncludeDirective, SlashDim, Token, NAME, stream_names

if TYPE_CHECKING:
    from ..model import SegmentDefinition


@dataclass
class Node:
    span: SourceSpan
    label: Optional[int] = None


@dataclass
class CommentNode(Node):
    text: str = ""  # empty text is a preserved blank line


@dataclass
class DirectiveNode(Node):
    """Non-include preprocessor line, passed through verbatim."""

    text: str = ""


@dataclass
class IncludeNode(Node):
    directive: IncludeDirective = None


@dataclass
class SegmentDefNode(Node):
    definition: "SegmentDefinition" = None


@dataclass
class PointerDeclNode(Node):
    # POINTEUR p.seg[, q.seg2 ...]
    entries: List[Tuple[str, str]] = field(default_factory=list)


# Esope command kinds
SEGINI = "segini"
SEGINI_COPY = "segini-copy"
SEGACT = "segact"
SEGACT_MOVE = "segact-move"
SEGADJ = "segadj"
SEGSUP = "segsup"
SEGPRT = "segprt"
SEGDES = "segdes"


@dataclass
class EsopeCommandNode(Node):
    kind: str = ""
    target: str = ""
    source: Optional[str] = None  # second operand of the copy/move forms
    original: str = ""  # source text, for traceability comments


@dataclass
class DeclEntity:
    name: str
    dims: Tuple[Tuple[ExprToken, ...], ...] = ()


@dataclass
class TypeDeclNode(Node):
    # `dimension a(10)` is modelled as a declaration with base_type None
    base_type: Optional[str] = None
    char_len: Optional[object] = None
    entities: List[DeclEntity] = field(default_factory=list)


@dataclass
class ExternalDeclNode(Node):
    names: List[str] = field(default_factory=list)


@dataclass
class ImplicitDeclNode(Node):
    # none=True for `implicit none`; otherwise (type, letters) rules
    none: bool = False
    rules: List[Tuple[str, str]] = field(default_factory=list)
    original: str = ""


@dataclass
class CallNode(Node):
    callee: str = ""
    args: List[List[ExprToken]] = field(default_factory=list)
    guard: Optional[List[ExprToken]] = None  # condition of a logical IF


@dataclass
class AssignmentNode(Node):
    lhs: List[ExprToken] = field(default_factory=list)
    rhs: List[ExprToken] = field(default_factory=list)
    guard: Optional[List[ExprToken]] = None  # condition of a logical IF


@dataclass
class OpaqueNode(Node):
    tokens: List[ExprToken] = field(default_factory=list)


@dataclass
class ProgramUnitAst:
    name: str
    kind: str  # program | subroutine | function
    params: List[str]
    body: List[Node]
    span: SourceSpan
    file_id: str
    return_type: Optional[str] = None
    # segments made visible by resolved includes (not declared in this file)
    extra_segments_in_scope: List[str] = field(default_factory=list)


# --- traversal helpers ------------------------------------------------------


def segment_definitions(unit: ProgramUnitAst) -> List["SegmentDefinition"]:
    return [n.definition for n in unit.body if isinstance(n, SegmentDefNode)]


#: statement keywords that must not be mistaken for symbol references
STATEMENT_KEYWORDS = {
    "if", "then", "else", "elseif", "endif", "end",
    "do", "enddo", "while", "continue",
    "goto", "go", "to", "return", "stop", "pause",
    "write", "read", "print", "format", "open", "close", "rewind",
    "backspace", "inquire", "endfile",
    "call", "common", "equivalence", "data", "save", "parameter",
    "dimension", "entry", "intrinsic",
}

#: intrinsics that may appear in expressions without a declaration
INTRINSIC_FUNCTIONS = {
    "abs", "max", "min", "mod", "sqrt", "exp", "log", "log10",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
    "int", "nint", "real", "float", "dble", "char", "ichar", "len",
    "index", "sign", "iabs", "amax1", "amin1", "max0", "min0",
    "size", "trim", "adjustl", "null",
}


def node_streams(node: Node) -> List[Sequence[ExprToken]]:
    """The expression token streams of a statement: an assignment's target,
    value and guard; a call's arguments and guard; an opaque statement's
    tokens.  Any other statement has none.  The list is new on each call."""
    if isinstance(node, OpaqueNode):
        return [node.tokens]
    if isinstance(node, AssignmentNode):
        streams = [node.lhs, node.rhs]
    elif isinstance(node, CallNode):
        streams = list(node.args)
    else:
        return []
    if node.guard:
        streams.append(node.guard)
    return streams


def statement_reference_names(node: Node) -> Set[str]:
    """Names a statement references, with statement keywords filtered out."""
    if isinstance(node, OpaqueNode):
        return _opaque_reference_names(node.tokens)
    if isinstance(node, TypeDeclNode):
        streams = [dim for ent in node.entities for dim in ent.dims]
    else:
        streams = node_streams(node)
    names: Set[str] = set()
    for stream in streams:
        names.update(stream_names(stream))
    return names - INTRINSIC_FUNCTIONS


def _opaque_reference_names(tokens: Sequence[ExprToken]) -> Set[str]:
    names = set(stream_names(tokens))
    skip = set()
    for idx, t in enumerate(tokens):
        if not (isinstance(t, Token) and t.kind == NAME):
            break
        if t.value in STATEMENT_KEYWORDS:
            skip.add(t.value)
        else:
            break
    # `if (...) then`, `do 10 i = ...`: keywords may also follow groups
    for t in tokens:
        if isinstance(t, Token) and t.kind == NAME and t.value in ("then", "to"):
            skip.add(t.value)
    # common block names sit between slashes and are not variables
    first = tokens[0] if tokens else None
    if isinstance(first, Token) and first.kind == NAME and first.value == "common":
        inside = False
        for t in tokens[1:]:
            if isinstance(t, Token) and t.value == "/":
                inside = not inside
            elif inside and isinstance(t, Token) and t.kind == NAME:
                skip.add(t.value)
    return (names - skip - STATEMENT_KEYWORDS) - INTRINSIC_FUNCTIONS


def referenced_symbols(unit: ProgramUnitAst) -> Set[str]:
    names: Set[str] = set()
    for node in unit.body:
        names |= statement_reference_names(node)
        if isinstance(node, CallNode):
            names.add(node.callee)
    return names


def defined_symbols(unit: ProgramUnitAst) -> Set[str]:
    """Symbols declared by the unit itself (incl. parameters and pointers)."""
    names: Set[str] = set(unit.params)
    names.add(unit.name)
    for node in unit.body:
        if isinstance(node, TypeDeclNode):
            names |= {e.name for e in node.entities}
        elif isinstance(node, PointerDeclNode):
            names |= {p for p, _ in node.entries}
        elif isinstance(node, ExternalDeclNode):
            names |= set(node.names)
        elif isinstance(node, SegmentDefNode):
            names.add(node.definition.name)
            names |= node.definition.field_names()
    return names
