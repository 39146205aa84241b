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
shared declarations), so each distinct statement text is parsed once per
statement table.  The caller owns the table and decides how long it lives:
``cli.read_range`` makes one per range of sources and shares it with the
include loader, so it is dropped with the range's front end; ``parse_units``
or ``parse_fragment`` given none makes one for the call.  The table is never
module-level, so a library caller's memory does not grow from run to run.

``_parse_body_line`` is the one place a statement line is looked up in the
table, before any pattern is tried, in every context.  An include line and
a SEGMENT line never reach the table.  An END line does: ``parse_fragment``
stores a fragment's END as an ordinary statement.  So ``_parse_one_unit``
decides whether a line ends its unit before the lookup.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

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
        if line.kind != STATEMENT:
            node, i = _parse_body_line(lines, i, table)
            outside.append(node)
            continue
        header = _header_of(line)
        if header is None:
            raise MigrationError("statement outside any program unit", line.span)
        unit, i = _parse_one_unit(lines, i, header, file_id, outside, table)
        outside = []
        units.append(unit)
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


_Header = Tuple[str, str, List[str], Optional[str]]  # kind, name, dummies, return type


def _header_of(line: LogicalLine) -> Optional[_Header]:
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
        rtype = format_type(*_type_spec(m, line.span)) if m["base"] else None
        return ("function", m["name"].lower(), _split_params(m["params"]), rtype)
    return None


def _split_params(raw: Optional[str]) -> List[str]:
    if not raw or not raw.strip():
        return []
    return [p.strip().lower() for p in raw.split(",")]


def _parse_one_unit(lines: List[LogicalLine], i: int, header: _Header, file_id: str,
                    body: List[A.Node], table: StatementTable):
    kind, name, params, rtype = header
    start = lines[i].span
    i += 1
    end_span = None
    while i < len(lines):
        line = lines[i]
        # before the lookup: a fragment's END is stored
        if line.kind == STATEMENT and _END_RE.match(line.text.strip()):
            end_span = line.span
            i += 1
            break
        node, i = _parse_body_line(lines, i, table)
        body.append(node)
    if end_span is None:
        raise MigrationError(f"missing END for unit {name!r}", start)
    span = SourceSpan(file_id, start.start_line, 1, end_span.end_line, end_span.end_col)
    return (
        A.ProgramUnitAst(
            name=name, kind=kind, params=params, body=body, span=span,
            file_id=file_id, return_type=rtype,
        ),
        i,
    )


def _parse_body_line(lines: List[LogicalLine], i: int, table: StatementTable) -> Tuple[A.Node, int]:
    """The node of line ``i`` and the index of the line after it.  A
    statement whose text is in ``table`` is not parsed again: its node is the
    stored one restamped with this line's span and label.  A text that fails
    is never stored, so each of its occurrences fails at its own line."""
    line = lines[i]
    if line.kind == COMMENT:
        return A.CommentNode(span=line.span, text=line.text), i + 1
    text = line.text.strip()
    node = table.get(text) if line.kind == STATEMENT else None
    if node is not None:
        return node.restamped(line.span, line.label), i + 1
    include = detect_include(line)
    if include is not None:
        return A.IncludeNode(span=line.span, directive=include), i + 1
    if line.kind == DIRECTIVE:
        return A.DirectiveNode(span=line.span, text=line.text), i + 1

    if _SEGMENT_START_RE.match(text):
        for j in range(i, len(lines)):
            if lines[j].kind == STATEMENT and _SEGMENT_END_RE.match(lines[j].text.strip()):
                seg = parse_segment_definition(lines[i : j + 1])
                return A.SegmentDefNode(span=line.span, definition=seg), j + 1
        raise MigrationError("unterminated SEGMENT block (no END SEGMENT)", line.span)

    node = table[text] = _classify(text, line.span, line.label)
    return node, i + 1


def classify_statement(line: LogicalLine, table: StatementTable) -> A.Node:
    """The node of one statement line, looked up in and stored to ``table``."""
    return _parse_body_line([line], 0, table)[0]


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
        base, char_len, entities = _type_statement(m, span)
        return A.TypeDeclNode(span=span, label=label, base_type=base, char_len=char_len, entities=entities)

    tokens = scan_expression(tokenize(text, span), span)
    guard, rest = None, tokens
    if tokens[:2] == [_IF, LPAREN]:
        guard, j = _collect_group(tokens, 1, span)
        rest = tokens[j:]
    node = _call_or_assignment(rest, guard, span, label)
    return A.OpaqueNode(span=span, label=label, tokens=tokens) if node is None else node


def _call_or_assignment(tokens: List[ExprToken], guard: Optional[List[ExprToken]],
                        span: SourceSpan, label: Optional[int]) -> Optional[A.Node]:
    """The CALL (the callee, an optional argument group and nothing after it)
    or the assignment (a top-level ``=`` after no statement keyword) that
    ``tokens`` make under ``guard``, else None."""
    head = tokens[0] if tokens else None
    if head == _CALL and len(tokens) > 1 and isinstance(tokens[1], Token) and tokens[1].kind == NAME:
        inner, end = _collect_group(tokens, 2, span) if tokens[2:3] == [LPAREN] else ([], 2)
        if end != len(tokens):
            return None
        return A.CallNode(span=span, label=label, callee=tokens[1].value,
                          args=split_top_commas(inner), guard=guard)
    k = _top_level_assign_index(tokens)
    if k is None or isinstance(head, Token) and head.kind == NAME and head.value in A.STATEMENT_KEYWORDS:
        return None
    return A.AssignmentNode(span=span, label=label, lhs=tokens[:k], rhs=tokens[k + 1 :], guard=guard)


def _top_level_assign_index(tokens: List[ExprToken]) -> Optional[int]:
    depth = 0
    for idx, t in enumerate(tokens):
        depth += (t == LPAREN) - (t == RPAREN)
        if depth == 0 and t == EQUALS:
            return idx
    return None


def _type_spec(m: re.Match, span: SourceSpan) -> Tuple[str, Optional[object]]:
    """The base type and the character length (an int, ``"*"`` or None) of
    a matched ``_TYPE_SPEC``."""
    base, size = _BLANKS_RE.sub(" ", m["base"].lower()), m["len"]
    if size is not None:
        size = int(size) if size.isdigit() else "*"
    if base == "character" or size is None:
        return base, size
    if (base, size) not in _SIZED_TYPES:
        spec = m.string[m.start("base"):m.end("len")]
        raise MigrationError(f"unsupported type length: {spec!r}", span)
    return _SIZED_TYPES[base, size], None


def _type_statement(m: re.Match, span: SourceSpan) -> Tuple[str, Optional[object], List[A.DeclEntity]]:
    """The base type, character length and entities of a matched ``_TYPE_DECL_RE``."""
    base, char_len = _type_spec(m, span)
    return base, char_len, _parse_decl_entities(m["entities"], span)


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
    matches = list(_IMPLICIT_RULE_RE.finditer(rest))
    rules = [(format_type(*_type_spec(m, span)), m["letters"].replace(" ", "").lower())
             for m in matches]
    # the rules cover the text, a comma between each two, each letter item
    # is a letter or a range of letters in alphabetical order (ANSI X3.9-1978
    # 8.5), and no rule has an assumed length
    if (not rules or "".join(m[0] for m in matches) != rest
            or not all(m["comma"] for m in matches[:-1])
            or any(t == format_type("character", "*") for t, _ in rules)
            or not all(_LETTER_ITEM_RE.fullmatch(item) and item[0] <= item[-1]
                       for _, letters in rules for item in letters.split(","))):
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
        base, char_len, entities = _type_statement(dm, line.span)
        raw_fields += [(ent.name, base, char_len, ent.dims, None) for ent in entities]

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
