"""Island-grammar parser: Esope constructs and the host declarations we must
rewrite are parsed deeply, everything else stays opaque.

Each statement kind has one rule.  Every type, in a type statement, a
segment field, a FUNCTION header or an IMPLICIT rule, is the pattern
``_TYPE_SPEC`` read by ``_type_spec``; a return type and a rule's type are
kept spelled by ``model.format_type``.  A ``*len`` on a type other than
CHARACTER goes through the table ``_SIZED_TYPES``: REAL*8 is DOUBLE
PRECISION, a ``*4`` is the default type, and any other length is an error
at its statement.  A CALL and an assignment, under a logical IF or not, are
built by ``_call_or_assignment``; any other statement stays opaque, whole.

Legacy code repeats its statements (POINTEUR, SEGACT, IMPLICIT, CONTINUE,
shared declarations), so each distinct line, a statement's label and text
or a comment's text, is parsed once per statement table, and every repeat
is the stored node: no node holds a position (see ``ast_nodes``).  The
caller owns the table and decides how long it lives:
``cli.read_range`` makes one per range of sources and shares it with the
include loader, so it is dropped with the range's front end; ``parse_units``
or ``parse_fragment`` given none makes one for the call.  The table is never
module-level, so a library caller's memory does not grow from run to run.

``_parse_body_line`` is the one place a line is looked up in the table,
before any pattern is tried, in every context.  A SEGMENT line never
reaches the table.  An END line does: ``parse_fragment`` stores a
fragment's END as an ordinary statement, so ``_is_end`` is decided first.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..errors import MigrationError, SourceSpan
from ..model import FieldDef, SegmentDefinition, format_type
from . import ast_nodes as A
from .lexer import (
    COMMENT,
    DIRECTIVE,
    STATEMENT,
    ExprToken,
    LogicalLine,
    Token,
    NAME,
    LPAREN,
    RPAREN,
    EQUALS,
    detect_include,
    scan_expression,
    split_logical_lines,
    split_top_commas,
    tokenize,
    _collect_group,
)

#: a type name and its optional ``*len``; every pattern naming a type uses it
_TYPE_SPEC = (
    r"(?P<base>integer|real|logical|double\s+precision|character)"
    r"(?:\s*\*\s*(?P<len>\d+|\(\s*\*\s*\)))?"
)
_PROGRAM_RE = re.compile(r"^program\s+([a-z][a-z0-9_]*)\s*$", re.IGNORECASE)
_SUBROUTINE_RE = re.compile(
    r"^subroutine\s+([a-z][a-z0-9_]*)\s*(\(([^)]*)\))?\s*$", re.IGNORECASE
)
_FUNCTION_RE = re.compile(
    rf"^(?:{_TYPE_SPEC}\s+)?function\s+(?P<name>[a-z][a-z0-9_]*)\s*\((?P<params>[^)]*)\)\s*$",
    re.IGNORECASE,
)
_SEGMENT_START_RE = re.compile(r"^segment\s*,?\s*([a-z][a-z0-9_]*)\s*$", re.IGNORECASE)
_SEGMENT_END_RE = re.compile(r"^end\s*segment\s*$", re.IGNORECASE)
_POINTEUR_RE = re.compile(r"^pointeur\s+(.+)$", re.IGNORECASE)
_ESOPE_CMD_RE = re.compile(
    r"^(segini|segact|segadj|segsup|segprt|segdes)\s*,?\s*"
    r"([a-z][a-z0-9_]*)\s*(?:=\s*([a-z][a-z0-9_]*))?\s*$",
    re.IGNORECASE,
)
_ESOPE_CMD_HEAD_RE = re.compile(r"^(segini|segact|segadj|segsup|segprt|segdes)\b", re.IGNORECASE)
_TYPE_DECL_RE = re.compile(rf"^{_TYPE_SPEC}\s+(?P<entities>[a-z].*)$", re.IGNORECASE)
_DIMENSION_RE = re.compile(r"^dimension\s+(.+)$", re.IGNORECASE)
_EXTERNAL_RE = re.compile(r"^external\s+(.+)$", re.IGNORECASE)
_IMPLICIT_RE = re.compile(r"^implicit\s+(.+)$", re.IGNORECASE)
_END_RE = re.compile(r"^end(\s+(subroutine|function|program)(\s+[a-z][a-z0-9_]*)?)?\s*$", re.IGNORECASE)
# a rule and the comma after it, unless the comma ends the text; the letters
# hold no `*`, so the `(*)` of CHARACTER*(*) is never a letter list
_IMPLICIT_RULE_RE = re.compile(
    rf"\s*{_TYPE_SPEC}\s*\((?P<letters>[^)*]*)\)\s*(?P<comma>,(?=.))?", re.IGNORECASE)
_LETTER_ITEM_RE = re.compile(r"[a-z](?:-[a-z])?")
_POINTER_ENTRY_RE = re.compile(r"^([a-z][a-z0-9_]*)\.([a-z][a-z0-9_]*)$")
_BLANKS_RE = re.compile(r"\s+")

#: the ``*len`` table of every type but CHARACTER: (type, length) -> the type it is
_SIZED_TYPES = {("real", 8): "double precision", ("real", 4): "real",
                ("integer", 4): "integer", ("logical", 4): "logical"}

_IF = Token(NAME, "if")
_CALL = Token(NAME, "call")

#: (label, stripped statement text) or (kind, comment or directive text) -> its one node
StatementTable = Dict[Tuple[Union[int, str, None], str], A.Node]


def parse_source(source: str, file_id: str = "<input>") -> List[A.ProgramUnitAst]:
    """Parse a whole file into its program units."""
    return parse_units(split_logical_lines(source, file_id), file_id)


def parse_units(
    lines: List[LogicalLine], file_id: str, table: Optional[StatementTable] = None,
) -> List[A.ProgramUnitAst]:
    """The program units of a file, parsed with the statement table
    ``table``.  Comments and preprocessor lines outside every unit open the
    body of the next unit, or close that of the last."""
    if table is None:
        table = {}
    units: List[A.ProgramUnitAst] = []
    body, starts, i = _read_body(lines, 0, table, file_id, _is_statement)
    while i < len(lines):
        first = lines[i]
        header = _header_of(first, file_id)
        if header is None:
            raise MigrationError("statement outside any program unit", _span(file_id, first))
        kind, name, params, rtype = header
        more, more_starts, i = _read_body(lines, i + 1, table, file_id, _is_end)
        if i == len(lines):
            raise MigrationError(f"missing END for unit {name!r}", _span(file_id, first))
        units.append(A.ProgramUnitAst(
            name=name, kind=kind, params=params, body=body + more,
            span=SourceSpan(file_id, first.start, 1, lines[i].end, 72), file_id=file_id,
            return_type=rtype, lines=starts + more_starts))
        body, starts, i = _read_body(lines, i + 1, table, file_id, _is_statement)
    if units and body:
        units[-1] = replace(units[-1], body=units[-1].body + body, lines=units[-1].lines + starts)
    return units


def parse_unit(lines: List[LogicalLine], file_id: str = "<input>") -> A.ProgramUnitAst:
    """Parse exactly one program unit (header through END)."""
    units = parse_units(lines, file_id)
    if len(units) != 1:
        raise MigrationError(f"expected exactly one program unit, found {len(units)}")
    return units[0]


def parse_fragment(
    lines: List[LogicalLine], file_id: str, table: Optional[StatementTable] = None,
) -> A.ProgramUnitAst:
    """Parse an included fragment: a headerless statement sequence."""
    body, starts, _ = _read_body(lines, 0, {} if table is None else table, file_id,
                                 lambda line: False)
    return A.ProgramUnitAst(name=file_id, kind="fragment", params=[], body=body,
                            span=SourceSpan(file_id, 1, 1, 1, 1), file_id=file_id, lines=starts)


def _is_statement(line: LogicalLine) -> bool:
    return line.kind == STATEMENT


def _is_end(line: LogicalLine) -> bool:
    return line.kind == STATEMENT and _END_RE.match(line.text.strip()) is not None


def _read_body(lines: List[LogicalLine], i: int, table: StatementTable, file_id: str,
               stop: Callable[[LogicalLine], bool]) -> Tuple[List[A.Node], array, int]:
    """The nodes of the lines from ``i`` on up to the first that ``stop``
    holds for, the line each starts at, and the index of that line."""
    body: List[A.Node] = []
    starts = array("I")
    while i < len(lines) and not stop(lines[i]):
        starts.append(lines[i].start)
        node, i = _parse_body_line(lines, i, table, file_id)
        body.append(node)
    return body, starts, i


_Header = Tuple[str, str, List[str], Optional[str]]  # kind, name, dummies, return type


def _span(file_id: str, line: LogicalLine) -> SourceSpan:
    """Where ``line`` of ``file_id`` is, for a diagnostic or a unit."""
    return SourceSpan(file_id, line.start, 1, line.end, 72)


def _located(exc: MigrationError, file_id: str, line: LogicalLine) -> MigrationError:
    """``exc``, at ``line`` of ``file_id`` if it has no place yet."""
    return exc if exc.span else MigrationError(str(exc), _span(file_id, line))


def _header_of(line: LogicalLine, file_id: str) -> Optional[_Header]:
    text = line.text.strip()
    m = _PROGRAM_RE.match(text)
    if m:
        return ("program", m.group(1).lower(), [], None)
    m = _SUBROUTINE_RE.match(text)
    if m:
        params = _split_params(m.group(3))
        return ("subroutine", m.group(1).lower(), params, None)
    m = _FUNCTION_RE.match(text)
    if m:
        try:
            rtype = format_type(*_type_spec(m)) if m["base"] else None
        except MigrationError as exc:
            raise _located(exc, file_id, line) from None
        return ("function", m["name"].lower(), _split_params(m["params"]), rtype)
    return None


def _split_params(raw: Optional[str]) -> List[str]:
    if not raw or not raw.strip():
        return []
    return [p.strip().lower() for p in raw.split(",")]


def _parse_body_line(lines: List[LogicalLine], i: int, table: StatementTable,
                     file_id: str) -> Tuple[A.Node, int]:
    """The node of line ``i`` of ``file_id`` and the index of the line after
    it.  A line in ``table`` is not parsed again: its node is the stored one.
    A text that fails is never stored, so each of its occurrences fails at
    its own line."""
    line = lines[i]
    text = line.text.strip() if line.kind == STATEMENT else line.text
    key = (line.label if line.kind == STATEMENT else line.kind, text)
    node = table.get(key)
    if node is not None:
        return node, i + 1
    if line.kind == COMMENT:
        node = A.CommentNode(text=text)
    elif (include := detect_include(line)) is not None:
        node = A.IncludeNode(directive=include)
    elif line.kind == DIRECTIVE:
        node = A.DirectiveNode(text=text)
    elif _SEGMENT_START_RE.match(text):
        for j in range(i, len(lines)):
            if lines[j].kind == STATEMENT and _SEGMENT_END_RE.match(lines[j].text.strip()):
                seg = parse_segment_definition(lines[i : j + 1], file_id)
                return A.SegmentDefNode(definition=seg), j + 1
        raise MigrationError("unterminated SEGMENT block (no END SEGMENT)", _span(file_id, line))
    else:
        try:
            node = _classify(text, line.label)
        except MigrationError as exc:
            raise _located(exc, file_id, line) from None
    table[key] = node
    return node, i + 1


def classify_statement(line: LogicalLine, table: StatementTable) -> A.Node:
    """The node of one statement line, looked up in and stored to ``table``."""
    return _parse_body_line([line], 0, table, "<input>")[0]


def _classify(text: str, label: Optional[int]) -> A.Node:
    """The node of a statement's stripped text.  An error raised here has
    no place: the caller locates it at the statement's line."""
    m = _POINTEUR_RE.match(text)
    if m:
        return A.PointerDeclNode(label=label, entries=_parse_pointer_list(m.group(1)))

    if _ESOPE_CMD_HEAD_RE.match(text):
        m = _ESOPE_CMD_RE.match(text)
        if not m:
            raise MigrationError(f"malformed Esope command: {text!r}")
        keyword = m.group(1).lower()
        target = m.group(2).lower()
        source = m.group(3).lower() if m.group(3) else None
        kind = keyword
        if source is not None:
            if keyword == "segini":
                kind = A.SEGINI_COPY
            elif keyword == "segact":
                kind = A.SEGACT_MOVE
            else:
                raise MigrationError(f"{keyword} does not take a source operand")
        return A.EsopeCommandNode(label=label, kind=kind, target=target, source=source, original=text)

    m = _IMPLICIT_RE.match(text)
    if m:
        return _parse_implicit(m.group(1), text, label)

    m = _EXTERNAL_RE.match(text)
    if m:
        names = [n.strip().lower() for n in m.group(1).split(",")]
        return A.ExternalDeclNode(label=label, names=names)

    m = _DIMENSION_RE.match(text)
    if m:
        entities = _parse_decl_entities(m.group(1))
        return A.TypeDeclNode(label=label, base_type=None, entities=entities)

    m = _TYPE_DECL_RE.match(text)
    if m and not _FUNCTION_RE.match(text):
        base, char_len, entities = _type_statement(m)
        return A.TypeDeclNode(label=label, base_type=base, char_len=char_len, entities=entities)

    tokens = scan_expression(tokenize(text))
    guard, rest = None, tokens
    if tokens[:2] == [_IF, LPAREN]:
        guard, j = _collect_group(tokens, 1)
        rest = tokens[j:]
    node = _call_or_assignment(rest, guard, label)
    return A.OpaqueNode(label=label, tokens=tokens) if node is None else node


def _call_or_assignment(tokens: List[ExprToken], guard: Optional[List[ExprToken]],
                        label: Optional[int]) -> Optional[A.Node]:
    """The CALL (the callee, an optional argument group and nothing after it)
    or the assignment (a top-level ``=`` after no statement keyword) that
    ``tokens`` make under ``guard``, else None."""
    head = tokens[0] if tokens else None
    if head == _CALL and len(tokens) > 1 and isinstance(tokens[1], Token) and tokens[1].kind == NAME:
        inner, end = _collect_group(tokens, 2) if tokens[2:3] == [LPAREN] else ([], 2)
        if end != len(tokens):
            return None
        return A.CallNode(label=label, callee=tokens[1].value, args=split_top_commas(inner),
                          guard=guard)
    k = _top_level_assign_index(tokens)
    if k is None or isinstance(head, Token) and head.kind == NAME and head.value in A.STATEMENT_KEYWORDS:
        return None
    return A.AssignmentNode(label=label, lhs=tokens[:k], rhs=tokens[k + 1 :], guard=guard)


def _top_level_assign_index(tokens: List[ExprToken]) -> Optional[int]:
    depth = 0
    for idx, t in enumerate(tokens):
        depth += (t == LPAREN) - (t == RPAREN)
        if depth == 0 and t == EQUALS:
            return idx
    return None


def _type_spec(m: re.Match) -> Tuple[str, Optional[object]]:
    """The base type and the character length (an int, ``"*"`` or None) of
    a matched ``_TYPE_SPEC``."""
    base, size = _BLANKS_RE.sub(" ", m["base"].lower()), m["len"]
    if size is not None:
        size = int(size) if size.isdigit() else "*"
    if base == "character" or size is None:
        return base, size
    if (base, size) not in _SIZED_TYPES:
        spec = m.string[m.start("base"):m.end("len")]
        raise MigrationError(f"unsupported type length: {spec!r}")
    return _SIZED_TYPES[base, size], None


def _type_statement(m: re.Match) -> Tuple[str, Optional[object], List[A.DeclEntity]]:
    """The base type, character length and entities of a matched ``_TYPE_DECL_RE``."""
    base, char_len = _type_spec(m)
    return base, char_len, _parse_decl_entities(m["entities"])


def _parse_pointer_list(raw: str) -> List[Tuple[str, str]]:
    entries = []
    for item in raw.split(","):
        item = item.strip().lower()
        m = _POINTER_ENTRY_RE.match(item)
        if not m:
            raise MigrationError(f"malformed POINTEUR entry {item!r}")
        entries.append((m.group(1), m.group(2)))
    return entries


def _parse_implicit(rest: str, original: str, label) -> A.ImplicitDeclNode:
    rest = rest.strip()
    if rest.lower() == "none":
        return A.ImplicitDeclNode(label=label, none=True, original=original)
    matches = list(_IMPLICIT_RULE_RE.finditer(rest))
    rules = [(format_type(*_type_spec(m)), m["letters"].replace(" ", "").lower())
             for m in matches]
    # the rules cover the text, a comma between each two, each letter item
    # is a letter or a range of letters in alphabetical order (ANSI X3.9-1978
    # 8.5), and no rule has an assumed length
    if (not rules or "".join(m[0] for m in matches) != rest
            or not all(m["comma"] for m in matches[:-1])
            or any(t == format_type("character", "*") for t, _ in rules)
            or not all(_LETTER_ITEM_RE.fullmatch(item) and item[0] <= item[-1]
                       for _, letters in rules for item in letters.split(","))):
        raise MigrationError(f"unparseable implicit statement: {original!r}")
    return A.ImplicitDeclNode(label=label, rules=rules, original=original)


def _parse_decl_entities(raw: str) -> List[A.DeclEntity]:
    tokens = tokenize(raw)
    entities: List[A.DeclEntity] = []
    for part in split_top_commas(tokens):
        if not part or part[0].kind != NAME:
            raise MigrationError(f"malformed declaration entity in {raw!r}")
        name = part[0].value
        dims: Tuple[Tuple[ExprToken, ...], ...] = ()
        if len(part) > 1:
            if part[1] != LPAREN:
                raise MigrationError(f"malformed declaration entity in {raw!r}")
            inner, j = _collect_group(part, 1)
            if j != len(part):
                raise MigrationError(f"trailing junk after declaration entity {name!r}")
            dims = tuple(tuple(scan_expression(p)) for p in split_top_commas(inner))
        entities.append(A.DeclEntity(name=name, dims=dims))
    return entities


def parse_segment_definition(lines: List[LogicalLine], file_id: str = "<input>") -> SegmentDefinition:
    """Parse a ``SEGMENT, name`` ... ``END SEGMENT`` block of ``file_id``."""
    stmts = [l for l in lines if l.kind == STATEMENT]
    if not stmts:
        raise MigrationError("empty segment block")
    m = _SEGMENT_START_RE.match(stmts[0].text.strip())
    if not m:
        raise MigrationError("segment block must start with SEGMENT, <name>", _span(file_id, stmts[0]))
    if not _SEGMENT_END_RE.match(stmts[-1].text.strip()):
        raise MigrationError("unterminated SEGMENT block (no END SEGMENT)", _span(file_id, stmts[0]))
    name = m.group(1).lower()
    comments = [l.text for l in lines if l.kind == COMMENT]

    raw_fields: List[Tuple[str, str, Optional[object], Tuple, Optional[str]]] = []
    for line in stmts[1:-1]:
        text = line.text.strip()
        try:
            pm = _POINTEUR_RE.match(text)
            if pm:
                for pname, seg in _parse_pointer_list(pm.group(1)):
                    raw_fields.append((pname, "pointer", None, (), seg))
                continue
            dm = _TYPE_DECL_RE.match(text)
            if not dm:
                raise MigrationError(f"unsupported segment field declaration: {text!r}")
            base, char_len, entities = _type_statement(dm)
        except MigrationError as exc:
            raise _located(exc, file_id, line) from None
        raw_fields += [(ent.name, base, char_len, ent.dims, None) for ent in entities]

    if not raw_fields:
        raise MigrationError(f"segment {name!r} has no field to manage", _span(file_id, stmts[0]))

    field_names = [f[0] for f in raw_fields]
    seen = set()
    for fname in field_names:
        if fname in seen:
            raise MigrationError(f"duplicate field {fname!r} in segment {name!r}", _span(file_id, stmts[0]))
        seen.add(fname)

    # dimensioning variables: non-field identifiers in dimension expressions,
    # in first-encounter order scanning fields top-to-bottom, left-to-right
    dim_vars: List[str] = []
    for fname, base, char_len, dims, seg in raw_fields:
        for dim in dims:
            for sym in A.stream_names(dim):
                if sym not in seen and sym not in dim_vars:
                    dim_vars.append(sym)

    fields = []
    for fname, base, char_len, dims, seg in raw_fields:
        dynamic = any(s in dim_vars for dim in dims for s in A.stream_names(dim))
        fields.append(
            FieldDef(
                name=fname, base_type=base, char_len=char_len, dims=dims,
                segment=seg, is_dynamic=dynamic,
            )
        )
    return SegmentDefinition(
        name=name, fields=fields, dimensioning_vars=dim_vars,
        file_id=file_id, comments=comments,
    )
