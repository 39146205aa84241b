"""Island-grammar parser: Esope constructs and the host declarations we must
rewrite are parsed deeply, everything else stays opaque.

Legacy code repeats its statements (POINTEUR, SEGACT, IMPLICIT, CONTINUE,
shared declarations), so each distinct statement text is parsed once per
statement table.  The caller owns the table and decides how long it lives:
``cli.read_range`` makes one per range of sources and shares it with the
include loader, so it is dropped with the range's front end; ``parse_units``
or ``parse_fragment`` given none makes one for the call.  The table is never
module-level, so a library caller's memory does not grow from run to run.

Inside a unit, a statement line is looked up in the table before any other
pattern is tried.  That is safe because an include line and a SEGMENT line
never reach the table: they are recognized before a statement is classified.
An END line does: ``parse_fragment`` stores every statement of an included
file, END included, as an ordinary one.  So whether a line ends its unit is
decided before the lookup.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..errors import MigrationError, SourceSpan
from ..model import FieldDef, SegmentDefinition
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

_PROGRAM_RE = re.compile(r"^program\s+([a-z][a-z0-9_]*)\s*$", re.IGNORECASE)
_SUBROUTINE_RE = re.compile(
    r"^subroutine\s+([a-z][a-z0-9_]*)\s*(\(([^)]*)\))?\s*$", re.IGNORECASE
)
_FUNCTION_RE = re.compile(
    r"^(?:(integer|real|logical|double\s+precision|character(?:\s*\*\s*\d+)?)\s+)?"
    r"function\s+([a-z][a-z0-9_]*)\s*\(([^)]*)\)\s*$",
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
_TYPE_DECL_RE = re.compile(
    r"^(integer|real|logical|double\s+precision|character)"
    r"(\s*\*\s*(\d+|\(\s*\*\s*\)))?\s+([a-z].*)$",
    re.IGNORECASE,
)
_DIMENSION_RE = re.compile(r"^dimension\s+(.+)$", re.IGNORECASE)
_EXTERNAL_RE = re.compile(r"^external\s+(.+)$", re.IGNORECASE)
_IMPLICIT_RE = re.compile(r"^implicit\s+(.+)$", re.IGNORECASE)
_CALL_RE = re.compile(r"^call\s+([a-z][a-z0-9_]*)\s*(\(.*\))?\s*$", re.IGNORECASE)
_END_RE = re.compile(r"^end(\s+(subroutine|function|program)(\s+[a-z][a-z0-9_]*)?)?\s*$", re.IGNORECASE)
_IMPLICIT_RULE_RE = re.compile(
    r"(integer|real|logical|double\s+precision|character(?:\s*\*\s*\d+)?)\s*\(([^)]*)\)",
    re.IGNORECASE,
)
_LETTER_RANGE_RE = re.compile(r"[^-]-[^-]")
_POINTER_ENTRY_RE = re.compile(r"^([a-z][a-z0-9_]*)\.([a-z][a-z0-9_]*)$")
_BLANKS_RE = re.compile(r"\s+")

_IF = Token(NAME, "if")

#: stripped statement text -> the node first classified from it
StatementTable = Dict[str, A.Node]


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
    i = 0
    outside: List[A.Node] = []
    while i < len(lines):
        line = lines[i]
        if line.kind == STATEMENT and _header_of(line) is not None:
            unit, i = _parse_one_unit(lines, i, file_id, outside, table)
            outside = []
            units.append(unit)
        elif line.kind == STATEMENT:
            raise MigrationError("statement outside any program unit", line.span)
        else:
            node, i = _parse_body_line(lines, i, table)
            outside.append(node)
    if units and outside:
        units[-1] = replace(units[-1], body=units[-1].body + outside)
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
    if table is None:
        table = {}
    body: List[A.Node] = []
    i = 0
    while i < len(lines):
        node, i = _parse_body_line(lines, i, table)
        body.append(node)
    span = lines[0].span if lines else SourceSpan(file_id, 1, 1, 1, 1)
    return A.ProgramUnitAst(
        name=file_id, kind="fragment", params=[], body=body, span=span, file_id=file_id
    )


def _header_of(line: LogicalLine) -> Optional[Tuple[str, str, List[str], Optional[str]]]:
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
        rtype = _BLANKS_RE.sub(" ", m.group(1).lower()) if m.group(1) else None
        return ("function", m.group(2).lower(), _split_params(m.group(3)), rtype)
    return None


def _split_params(raw: Optional[str]) -> List[str]:
    if not raw or not raw.strip():
        return []
    return [p.strip().lower() for p in raw.split(",")]


def _parse_one_unit(lines: List[LogicalLine], i: int, file_id: str, body: List[A.Node],
                    table: StatementTable):
    header = lines[i]
    kind, name, params, rtype = _header_of(header)
    i += 1
    end_span = None
    while i < len(lines):
        line = lines[i]
        if line.kind == STATEMENT:
            text = line.text.strip()
            if _END_RE.match(text):  # before the lookup: a fragment's END is stored
                end_span = line.span
                i += 1
                break
            node = table.get(text)
            if node is not None:
                body.append(node.restamped(line.span, line.label))
                i += 1
                continue
        node, i = _parse_body_line(lines, i, table)
        body.append(node)
    if end_span is None:
        raise MigrationError(f"missing END for unit {name!r}", header.span)
    span = SourceSpan(file_id, header.span.start_line, 1, end_span.end_line, end_span.end_col)
    return (
        A.ProgramUnitAst(
            name=name, kind=kind, params=params, body=body, span=span,
            file_id=file_id, return_type=rtype,
        ),
        i,
    )


def _parse_body_line(lines: List[LogicalLine], i: int, table: StatementTable) -> Tuple[A.Node, int]:
    line = lines[i]
    if line.kind == COMMENT:
        return A.CommentNode(span=line.span, text=line.text), i + 1
    include = detect_include(line)
    if include is not None:
        return A.IncludeNode(span=line.span, directive=include), i + 1
    if line.kind == DIRECTIVE:
        return A.DirectiveNode(span=line.span, text=line.text), i + 1

    text = line.text.strip()
    if _SEGMENT_START_RE.match(text):
        j = i
        block = []
        while j < len(lines):
            block.append(lines[j])
            if lines[j].kind == STATEMENT and _SEGMENT_END_RE.match(lines[j].text.strip()):
                seg = parse_segment_definition(block)
                seg.file_id = line.span.file_id
                return A.SegmentDefNode(span=line.span, definition=seg), j + 1
            j += 1
        raise MigrationError("unterminated SEGMENT block (no END SEGMENT)", line.span)

    return classify_statement(line, table), i + 1


def classify_statement(line: LogicalLine, table: StatementTable) -> A.Node:
    """The node of one statement.  A text already in ``table`` is not parsed
    again: its node is the stored one restamped with this line's span and
    label.  A text that fails is never stored, so each of its occurrences
    fails at its own line."""
    text = line.text.strip()
    node = table.get(text)
    if node is not None:
        return node.restamped(line.span, line.label)
    node = table[text] = _classify(text, line.span, line.label)
    return node


def _classify(text: str, span: SourceSpan, label: Optional[int]) -> A.Node:
    m = _POINTEUR_RE.match(text)
    if m:
        return A.PointerDeclNode(span=span, label=label, entries=_parse_pointer_list(m.group(1), span))

    if _ESOPE_CMD_HEAD_RE.match(text):
        m = _ESOPE_CMD_RE.match(text)
        if not m:
            raise MigrationError(f"malformed Esope command: {text!r}", span)
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
                raise MigrationError(f"{keyword} does not take a source operand", span)
        return A.EsopeCommandNode(
            span=span, label=label, kind=kind, target=target, source=source, original=text
        )

    m = _IMPLICIT_RE.match(text)
    if m:
        return _parse_implicit(m.group(1), text, span, label)

    m = _EXTERNAL_RE.match(text)
    if m:
        names = [n.strip().lower() for n in m.group(1).split(",")]
        return A.ExternalDeclNode(span=span, label=label, names=names)

    m = _DIMENSION_RE.match(text)
    if m:
        entities = _parse_decl_entities(m.group(1), span)
        return A.TypeDeclNode(span=span, label=label, base_type=None, entities=entities)

    m = _TYPE_DECL_RE.match(text)
    if m and not _FUNCTION_RE.match(text):
        base = _BLANKS_RE.sub(" ", m.group(1).lower())
        char_len: Optional[object] = None
        if m.group(3):
            char_len = "*" if "*" in m.group(3) and not m.group(3).isdigit() else int(m.group(3))
        entities = _parse_decl_entities(m.group(4), span)
        return A.TypeDeclNode(span=span, label=label, base_type=base, char_len=char_len, entities=entities)

    m = _CALL_RE.match(text)
    if m:
        return _make_call(m, span, label)

    tokens = scan_expression(tokenize(text, span), span)

    if tokens and tokens[0] == _IF and len(tokens) > 1 and tokens[1] == LPAREN:
        guard, j = _collect_group(tokens, 1, span)
        rest = tokens[j:]
        if rest and not (isinstance(rest[0], Token) and rest[0].kind == NAME and rest[0].value == "then"):
            inner = _classify_if_body(rest, span, label, guard)
            if inner is not None:
                return inner

    k = _top_level_assign_index(tokens)
    if k is not None:
        head = tokens[0]
        if isinstance(head, Token) and head.kind == NAME and head.value in A.STATEMENT_KEYWORDS:
            return A.OpaqueNode(span=span, label=label, tokens=tokens)
        return A.AssignmentNode(span=span, label=label, lhs=tokens[:k], rhs=tokens[k + 1 :])

    return A.OpaqueNode(span=span, label=label, tokens=tokens)


def _classify_if_body(rest: List[ExprToken], span, label, guard: List[ExprToken]):
    if not rest:
        return None
    head = rest[0]
    if isinstance(head, Token) and head.kind == NAME and head.value == "call":
        if len(rest) >= 2 and isinstance(rest[1], Token) and rest[1].kind == NAME:
            args: List[List[ExprToken]] = []
            if len(rest) >= 3 and rest[2] == LPAREN:
                inner, _ = _collect_group(rest, 2, span)
                args = split_top_commas(inner)
            return A.CallNode(span=span, label=label, callee=rest[1].value, args=args, guard=guard)
        return None
    k = _top_level_assign_index(rest)
    if k is not None:
        hd = rest[0]
        if isinstance(hd, Token) and hd.kind == NAME and hd.value in A.STATEMENT_KEYWORDS:
            return None
        return A.AssignmentNode(span=span, label=label, lhs=rest[:k], rhs=rest[k + 1 :], guard=guard)
    return None


def _top_level_assign_index(tokens: List[ExprToken]) -> Optional[int]:
    depth = 0
    for idx, t in enumerate(tokens):
        if isinstance(t, Token):
            if t == LPAREN:
                depth += 1
            elif t == RPAREN:
                depth -= 1
            elif depth == 0 and t == EQUALS:
                return idx
    return None


def _make_call(m, span, label) -> A.CallNode:
    callee = m.group(1).lower()
    args: List[List[ExprToken]] = []
    if m.group(2):
        inner_toks = tokenize(m.group(2)[1:-1], span)
        args = [list(scan_expression(p, span)) for p in split_top_commas(inner_toks)]
    return A.CallNode(span=span, label=label, callee=callee, args=args)


def _parse_pointer_list(raw: str, span) -> List[Tuple[str, str]]:
    entries = []
    for item in raw.split(","):
        item = item.strip().lower()
        m = _POINTER_ENTRY_RE.match(item)
        if not m:
            raise MigrationError(f"malformed POINTEUR entry {item!r}", span)
        entries.append((m.group(1), m.group(2)))
    return entries


def _parse_implicit(rest: str, original: str, span, label) -> A.ImplicitDeclNode:
    rest = rest.strip()
    if rest.lower() == "none":
        return A.ImplicitDeclNode(span=span, label=label, none=True, original=original)
    rules: List[Tuple[str, str]] = []
    for m in _IMPLICIT_RULE_RE.finditer(rest):
        rules.append((_BLANKS_RE.sub(" ", m.group(1).lower()), m.group(2).replace(" ", "").lower()))
    ranges = [part for _, letters in rules for part in letters.split(",") if "-" in part]
    if not rules or not all(_LETTER_RANGE_RE.fullmatch(part) for part in ranges):
        raise MigrationError(f"unparseable implicit statement: {original!r}", span)
    return A.ImplicitDeclNode(span=span, label=label, rules=rules, original=original)


def _parse_decl_entities(raw: str, span) -> List[A.DeclEntity]:
    tokens = tokenize(raw, span)
    entities: List[A.DeclEntity] = []
    for part in split_top_commas(tokens):
        if not part or part[0].kind != NAME:
            raise MigrationError(f"malformed declaration entity in {raw!r}", span)
        name = part[0].value
        dims: Tuple[Tuple[ExprToken, ...], ...] = ()
        if len(part) > 1:
            if part[1] != LPAREN:
                raise MigrationError(f"malformed declaration entity in {raw!r}", span)
            inner, j = _collect_group(part, 1, span)
            if j != len(part):
                raise MigrationError(f"trailing junk after declaration entity {name!r}", span)
            dims = tuple(tuple(scan_expression(p, span)) for p in split_top_commas(inner))
        entities.append(A.DeclEntity(name=name, dims=dims))
    return entities


def parse_segment_definition(lines: List[LogicalLine]) -> SegmentDefinition:
    """Parse a ``SEGMENT, name`` ... ``END SEGMENT`` block."""
    stmts = [l for l in lines if l.kind == STATEMENT]
    if not stmts:
        raise MigrationError("empty segment block")
    m = _SEGMENT_START_RE.match(stmts[0].text.strip())
    if not m:
        raise MigrationError("segment block must start with SEGMENT, <name>", stmts[0].span)
    if not _SEGMENT_END_RE.match(stmts[-1].text.strip()):
        raise MigrationError("unterminated SEGMENT block (no END SEGMENT)", stmts[0].span)
    name = m.group(1).lower()
    comments = [l.text for l in lines if l.kind == COMMENT]

    raw_fields: List[Tuple[str, str, Optional[object], Tuple, Optional[str]]] = []
    for line in stmts[1:-1]:
        text = line.text.strip()
        pm = _POINTEUR_RE.match(text)
        if pm:
            for pname, seg in _parse_pointer_list(pm.group(1), line.span):
                raw_fields.append((pname, "pointer", None, (), seg))
            continue
        dm = _TYPE_DECL_RE.match(text)
        if not dm:
            raise MigrationError(f"unsupported segment field declaration: {text!r}", line.span)
        base = _BLANKS_RE.sub(" ", dm.group(1).lower())
        char_len: Optional[object] = None
        if dm.group(3):
            char_len = "*" if not dm.group(3).isdigit() else int(dm.group(3))
        for ent in _parse_decl_entities(dm.group(4), line.span):
            raw_fields.append((ent.name, base, char_len, ent.dims, None))

    if not raw_fields:
        raise MigrationError(f"segment {name!r} has no field to manage", stmts[0].span)

    field_names = [f[0] for f in raw_fields]
    seen = set()
    for fname in field_names:
        if fname in seen:
            raise MigrationError(f"duplicate field {fname!r} in segment {name!r}", stmts[0].span)
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
        file_id=stmts[0].span.file_id, comments=comments,
    )
