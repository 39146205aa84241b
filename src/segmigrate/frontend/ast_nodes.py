"""AST node classes for one program unit (the full-fidelity level).

Only constructs that must be rewritten are deeply parsed; any other host
statement survives as an :class:`OpaqueNode` wrapping its token stream.

The AST is read-only once the parser has built it, and the types enforce
it: every node class is a frozen, slotted dataclass.  Include resolution
builds each unit a new body but shares the statement nodes: every unit
that includes a file holds that file's nodes, not copies of them.

Every node carries its :class:`StatementFacts` in ``node.facts``, built
once by :func:`statement_facts` when the node is constructed: the one walk
over the statement's folded token streams.  The model, the analysis and the
rewriter read the record instead of walking the streams again.  A statement
whose text the parser has classified before in the same range is a
:meth:`Node.restamped` twin of the first node: its own span and label, the
first node's content and record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..errors import SourceSpan
from .lexer import (  # the token types are also re-exported for the AST's users
    DottedAccess, ExprToken, IncludeDirective, SlashDim, Token, NAME, EQUALS, LPAREN, RPAREN,
    split_top_commas,
)

if TYPE_CHECKING:
    from ..model import SegmentDefinition

#: ('r', name) | ('w', name) | ('f', callee, position, name)
Event = Tuple


class StatementFacts(NamedTuple):
    """What one statement says about names.  It depends on the statement
    alone, never on the unit holding it, so a fragment's node has one
    record for every unit that includes the fragment."""

    # each of these three holds a name once, in sorted order
    names: Tuple[str, ...] = ()  # referenced; intrinsics and keywords left out
    invoked: Tuple[str, ...] = ()  # each followed by a parenthesis at its level
    # reads, writes and forwards in textual order.  The unit summary's events
    # mark where a SEGINI/SEGADJ reads its segment's dimensioning variables
    # and drop the write of an assignment to the unit's own name.
    events: Tuple[Event, ...] = ()
    pointers: Tuple[str, ...] = ()  # explicit pointers of dotted accesses
    esope: bool = False  # a dotted access or slash-dim at the top level of a stream


NO_FACTS = StatementFacts()


@dataclass(frozen=True, slots=True)
class Node:
    span: SourceSpan
    label: Optional[int] = None
    facts: StatementFacts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "facts", statement_facts(self))

    def restamped(self, span: SourceSpan, label: Optional[int]) -> "Node":
        """This statement at ``span`` with ``label``: a new node sharing its
        other fields and its ``facts`` with this one, built without a walk."""
        twin = object.__new__(type(self))
        put = object.__setattr__
        put(twin, "span", span)
        put(twin, "label", label)
        put(twin, "facts", self.facts)
        for name in self.__match_args__[2:]:  # the init fields after span and label
            put(twin, name, getattr(self, name))
        return twin


@dataclass(frozen=True, slots=True)
class CommentNode(Node):
    text: str = ""  # empty text is a preserved blank line


@dataclass(frozen=True, slots=True)
class DirectiveNode(Node):
    """Non-include preprocessor line, passed through verbatim."""

    text: str = ""


@dataclass(frozen=True, slots=True)
class IncludeNode(Node):
    directive: IncludeDirective = None


@dataclass(frozen=True, slots=True)
class SegmentDefNode(Node):
    definition: "SegmentDefinition" = None


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class EsopeCommandNode(Node):
    kind: str = ""
    target: str = ""
    source: Optional[str] = None  # second operand of the copy/move forms
    original: str = ""  # source text, for traceability comments


@dataclass(frozen=True, slots=True)
class DeclEntity:
    name: str
    dims: Tuple[Tuple[ExprToken, ...], ...] = ()


@dataclass(frozen=True, slots=True)
class TypeDeclNode(Node):
    # `dimension a(10)` is modelled as a declaration with base_type None
    base_type: Optional[str] = None
    char_len: Optional[object] = None
    entities: List[DeclEntity] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class ExternalDeclNode(Node):
    names: List[str] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class ImplicitDeclNode(Node):
    # none=True for `implicit none`; otherwise (type, letters) rules
    none: bool = False
    rules: List[Tuple[str, str]] = field(default_factory=list)
    original: str = ""


@dataclass(frozen=True, slots=True)
class CallNode(Node):
    callee: str = ""
    args: List[List[ExprToken]] = field(default_factory=list)
    guard: Optional[List[ExprToken]] = None  # condition of a logical IF


@dataclass(frozen=True, slots=True)
class AssignmentNode(Node):
    lhs: List[ExprToken] = field(default_factory=list)
    rhs: List[ExprToken] = field(default_factory=list)
    guard: Optional[List[ExprToken]] = None  # condition of a logical IF


@dataclass(frozen=True, slots=True)
class OpaqueNode(Node):
    tokens: List[ExprToken] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
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


# --- the statement record ---------------------------------------------------


def statement_facts(node: Node) -> StatementFacts:
    """The record of one statement, from one walk over its token streams:
    an assignment's target, value and guard; a call's arguments and guard;
    an opaque statement's tokens; a declaration's dimensions."""
    build = _BUILDERS.get(type(node))
    return NO_FACTS if build is None else build(node)


def _walk(stream: Sequence[ExprToken], names: List[str], invoked: List[str],
          pointers: List[str], marks: Optional[List[int]] = None) -> bool:
    """The one walk over a folded token stream.  Appends its names in
    textual order to ``names`` (a dotted access gives its explicit pointer,
    never its field), each name a parenthesis follows at its own level to
    ``invoked``, and the explicit pointers of dotted accesses to
    ``pointers``.  ``marks`` gets, for each top-level token, the length of
    ``names`` before it.  True if the stream holds a dotted access or a
    slash-dim at its top level."""
    folded = False
    before = None  # the name just passed at this level
    for t in stream:
        if marks is not None:
            marks.append(len(names))
        if isinstance(t, Token):
            if t.kind == NAME:
                names.append(t.value)
                before = t.value
                continue
            if before is not None and t == LPAREN:
                invoked.append(before)
        else:
            folded = True
            if isinstance(t, DottedAccess):
                if t.pointer:
                    names.append(t.pointer)
                    pointers.append(t.pointer)
                for sub in t.subscripts:
                    _walk(sub, names, invoked, pointers)
            else:  # slash-dim
                _walk((t.base,), names, invoked, pointers)
        before = None
    return folded


def stream_names(stream: Sequence[ExprToken]) -> List[str]:
    """The names of a folded token stream in textual order (see ``_walk``)."""
    names: List[str] = []
    _walk(stream, names, [], [])
    return names


#: what an opaque statement's names leave out
_KEYWORDS_AND_INTRINSICS = STATEMENT_KEYWORDS | INTRINSIC_FUNCTIONS

# Equal records are one shared object, as equal lexemes are one token.  The
# table only grows with the distinct statements of the input.
_SHARED: Dict[StatementFacts, StatementFacts] = {NO_FACTS: NO_FACTS}


def _record(names, invoked, events, pointers, esope: bool,
            excluded=INTRINSIC_FUNCTIONS) -> StatementFacts:
    """The shared record; its names leave out the ``excluded`` ones."""
    facts = StatementFacts(_unique(names, excluded), _unique(invoked), tuple(events),
                           _unique(pointers), esope)
    return _SHARED.setdefault(facts, facts)


def _unique(names: Sequence[str], excluded=frozenset()) -> Tuple[str, ...]:
    """Sorted, so statements naming the same set share one record."""
    return tuple(sorted(set(names).difference(excluded))) if names else ()


def _reads(names: Sequence[str], excluded=INTRINSIC_FUNCTIONS) -> List[Event]:
    """A read event for each name but the ``excluded`` ones."""
    return [("r", n) for n in names if n not in excluded]


def _assignment_facts(node: AssignmentNode) -> StatementFacts:
    names, invoked, pointers = [], [], []
    esope = False
    for stream in (node.guard, node.rhs, node.lhs[1:]):
        if stream:
            esope |= _walk(stream, names, invoked, pointers)
    events = _reads(names)
    # a statement-function target is not invoked, so the target walks alone
    mark = len(names)
    esope |= _walk(node.lhs[:1], names, [], pointers)
    target = node.lhs[0] if node.lhs else None
    if isinstance(target, Token) and target.kind == NAME:
        events.append(("w", target.value))
    elif isinstance(target, DottedAccess):
        events += _reads(names[mark + bool(target.pointer):])
        if target.pointer:
            events.append(("r", target.pointer))  # writing a field reads the pointer
    return _record(names, invoked, events, pointers, esope)


def _call_facts(node: CallNode) -> StatementFacts:
    names, invoked, pointers = [], [], []
    esope = False
    if node.guard:
        esope |= _walk(node.guard, names, invoked, pointers)
    events = _reads(names)
    for i, arg in enumerate(node.args):
        mark = len(names)
        esope |= _walk(arg, names, invoked, pointers)
        if len(arg) == 1 and isinstance(arg[0], Token) and arg[0].kind == NAME:
            events.append(("f", node.callee, i, arg[0].value))
        else:
            events += _reads(names[mark:])
    return _record(names, invoked, events, pointers, esope)


def _opaque_facts(node: OpaqueNode) -> StatementFacts:
    tokens = node.tokens
    names, invoked, pointers = [], [], []
    marks: List[int] = []
    esope = _walk(tokens, names, invoked, pointers, marks)
    marks.append(len(names))
    head = tokens[0] if tokens else None
    kw = head.value if isinstance(head, Token) and head.kind == NAME else None
    if kw in ("write", "print"):
        events = _reads(names[1:])
    elif kw == "read":
        # read (control) item, item, ...: an item's base is written
        close = _control_end(tokens)
        events = _reads(names[marks[2]:marks[close]]) if close else []
        start = close + 1 if close else 1
        for item in split_top_commas(tokens[start:]):
            if item:
                events += _reads(names[marks[start + 1]:marks[start + len(item)]])
                if isinstance(item[0], Token) and item[0].kind == NAME:
                    events.append(("w", item[0].value))
            start += len(item) + 1
    elif kw == "do" and EQUALS in tokens:
        k = tokens.index(EQUALS)
        events = _reads(names[marks[k + 1]:])
        if isinstance(tokens[k - 1], Token) and tokens[k - 1].kind == NAME:
            events.append(("w", tokens[k - 1].value))
    elif kw == "do":
        events = _reads(names[1:])
    elif kw is None:
        events = _reads(names)
    else:
        events = _reads(names, _KEYWORDS_AND_INTRINSICS)
    # common block names sit between slashes and are not variables
    blocks: Set[str] = set()
    if kw == "common":
        inside = False
        for t in tokens[1:]:
            if isinstance(t, Token) and t.value == "/":
                inside = not inside
            elif inside and isinstance(t, Token) and t.kind == NAME:
                blocks.add(t.value)
    return _record(names, invoked, events, pointers, esope, _KEYWORDS_AND_INTRINSICS | blocks)


def _control_end(tokens: Sequence[ExprToken]) -> int:
    """Index of the parenthesis closing the one that follows the keyword,
    or 0 if the keyword is followed by none or it is never closed."""
    depth = 0
    for i, t in enumerate(tokens[1:] if tokens[1:2] == [LPAREN] else (), 1):
        depth += (t == LPAREN) - (t == RPAREN)
        if depth == 0:
            return i
    return 0


def _decl_facts(node: TypeDeclNode) -> StatementFacts:
    # adjustable-array bounds are read on entry
    names = [n for ent in node.entities for dim in ent.dims for n in stream_names(dim)]
    return _record(names, (), _reads(names), (), False)


def _command_facts(node: EsopeCommandNode) -> StatementFacts:
    read, write = ("r", node.target), ("w", node.target)
    if node.kind == SEGINI:
        events = [write]
    elif node.kind == SEGINI_COPY:
        events = [("r", node.source), write]
    elif node.kind == SEGACT_MOVE:
        events = [("r", node.source), read, write]
    elif node.kind in (SEGADJ, SEGSUP):
        events = [read, write]
    else:  # segprt, segact, segdes
        events = [read]
    return _record((), (), events, (), False)


_BUILDERS = {
    OpaqueNode: _opaque_facts,
    AssignmentNode: _assignment_facts,
    CallNode: _call_facts,
    TypeDeclNode: _decl_facts,
    EsopeCommandNode: _command_facts,
}
