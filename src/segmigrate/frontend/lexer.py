"""Fixed-form lexing: card splitting, tokenization, island folding.

Column rules: 1-5 statement label, 6 continuation marker, 7-72 statement
body, 73+ sequence numbers (ignored).  Tabs expand to 8-column stops
before the rules apply.

Tokens are immutable and interned: every equal lexeme of a run is one
shared ``Token`` object.  Code compares them with the shared constants
(``LPAREN``, ``DOT``, ``SLASH``, ...), never with a freshly built token.
Interning goes on above the lexer: the parser shares the classified
content of each distinct statement text of a range, and it looks every
statement line up in that table in one place, in a unit, a fragment or
between units alike, before it tries the include, SEGMENT or any other
pattern.  So a repeated line is neither matched nor tokenized again.  Only
whether the line is its unit's END is decided first (see ``parser``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..errors import MigrationError, SourceSpan

STATEMENT = "statement"
COMMENT = "comment"
DIRECTIVE = "directive"

# The four include flavors found in the legacy code base.
FLAVOR_HASH = "preprocessor-hash"
FLAVOR_FORTRAN = "fortran-include"
FLAVOR_PERCENT = "esope-percent-inc"
FLAVOR_DASH = "esope-dash-inc"

_HASH_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+["<]([^">]+)[">]\s*$', re.IGNORECASE)
_FORTRAN_INCLUDE_RE = re.compile(r"^include\s+['\"]([^'\"]+)['\"]\s*$", re.IGNORECASE)
_ESOPE_INCLUDE_RE = re.compile(r"^[%-]inc\s+['\"]?([^'\"\s]+)['\"]?\s*$", re.IGNORECASE)

#: every input file (program sources, included files, the intent catalog)
#: is read in this encoding, whatever the locale says
SOURCE_ENCODING = "utf-8"


def read_source(path: Union[str, Path]) -> str:
    """Text of one input file, its line ends read as ``\\n``; undecodable
    bytes are a migration error naming the file."""
    try:
        with open(path, encoding=SOURCE_ENCODING) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise MigrationError(
            f"{path}: not valid {SOURCE_ENCODING} (byte {exc.start}: {exc.reason})"
        )


class LogicalLine(NamedTuple):
    """One statement (continuations merged), comment, or directive; a plain
    tuple, since one is built per statement of every file."""

    kind: str
    text: str
    span: SourceSpan
    label: Optional[int] = None


@dataclass(frozen=True)
class IncludeDirective:
    flavor: str
    path: str
    span: SourceSpan


def expand_tabs(line: str) -> str:
    return line.expandtabs(8)


def split_logical_lines(source: str, file_id: str = "<input>") -> List[LogicalLine]:
    """Split a whole fixed-form file into logical lines.

    Comments (including blank lines, kept with empty text) and preprocessor
    directives stay as distinct lines in original order; continuation cards
    are merged into the statement they continue.  A comment card between a
    statement and its continuation card follows that statement.  A ``!`` in
    the body outside a character literal starts a comment that runs to the
    end of its card; a card holding only such a comment is a comment line.
    """
    out: List[LogicalLine] = []
    pending: Optional[dict] = None  # statement being assembled
    held: List[LogicalLine] = []  # comments met while a statement is pending

    def flush():
        nonlocal pending
        if pending is not None:
            out.append(LogicalLine(
                STATEMENT, pending["text"].rstrip(),
                SourceSpan(file_id, pending["start"], 1, pending["end"], 72), pending["label"]))
            pending = None
        out.extend(held)
        held.clear()

    def comment(text: str, span: SourceSpan):
        # a continuation card may still follow, so a statement's comment waits
        (out if pending is None else held).append(LogicalLine(COMMENT, text, span))

    def card_span() -> SourceSpan:
        return SourceSpan(file_id, lineno, 1, lineno, max(1, len(line.rstrip())))

    # only a newline ends a card: a form feed or a vertical tab is blank space
    cards = source.split("\n")
    if cards[-1] == "":
        cards.pop()
    for lineno, raw in enumerate(cards, start=1):
        line = expand_tabs(raw)
        first = line[0] if line else ""

        if not line.strip():
            comment("", card_span())
            continue
        if first in ("C", "c", "*", "!"):
            comment(line[1:].rstrip(), card_span())
            continue
        if first == "#":
            flush()
            out.append(LogicalLine(DIRECTIVE, line.rstrip(), card_span()))
            continue

        label_field = line[0:5]
        cont_field = line[5:6]
        body = line[6:72]
        continued = bool(cont_field.strip()) and cont_field != "0"
        if continued and pending is None:
            raise MigrationError("continuation card with no preceding statement", card_span())

        if "!" in body:
            # an inline comment; a literal may be open since an earlier card
            before = pending["text"] if continued else ""
            code = _code_part(before + body)[len(before):]
            if not (continued or code.strip() or label_field.strip()):
                comment(body[len(code) + 1 :].rstrip(), card_span())
                continue
            body = code

        if continued:
            pending["text"] += body.rstrip()
            pending["end"] = lineno
            continue

        flush()
        label: Optional[int] = None
        if label_field.strip():
            try:
                label = int(label_field.strip())
            except ValueError:
                raise MigrationError(f"bad statement label {label_field.strip()!r}", card_span())
        pending = {"text": body.rstrip(), "label": label, "start": lineno, "end": lineno}

    flush()
    return out


def _code_part(text: str) -> str:
    """``text`` up to its first ``!`` outside a character literal."""
    quote = ""
    for i, c in enumerate(text):
        if quote:
            if c == quote:
                quote = ""
        elif c in "'\"":
            quote = c
        elif c == "!":
            return text[:i]
    return text


def detect_include(line: LogicalLine) -> Optional[IncludeDirective]:
    """Recognize any of the four include syntaxes on one logical line."""
    if line.kind == DIRECTIVE:
        m = _HASH_INCLUDE_RE.match(line.text)
        if m:
            return IncludeDirective(FLAVOR_HASH, m.group(1), line.span)
        return None
    if line.kind != STATEMENT:
        return None
    text = line.text.strip()
    m = _FORTRAN_INCLUDE_RE.match(text)
    if m:
        return IncludeDirective(FLAVOR_FORTRAN, m.group(1), line.span)
    m = _ESOPE_INCLUDE_RE.match(text)
    if m:
        flavor = FLAVOR_PERCENT if text.startswith("%") else FLAVOR_DASH
        return IncludeDirective(flavor, m.group(1), line.span)
    return None


# --- statement tokenization -------------------------------------------------

NAME = "name"
INT = "int"
REAL = "real"
STRING = "string"
OP = "op"
PUNCT = "punct"


class Token(NamedTuple):
    kind: str
    value: str


LPAREN = Token(PUNCT, "(")
RPAREN = Token(PUNCT, ")")
COMMA = Token(PUNCT, ",")
DOT = Token(PUNCT, ".")
SLASH = Token(OP, "/")
EQUALS = Token(OP, "=")
MINUS = Token(OP, "-")


@dataclass(frozen=True, slots=True)
class DottedAccess:
    """Esope field access ``p.f`` or ``p.f(i, j)``; pointer None means the
    default-pointer shorthand resolved later by the rewriter."""

    pointer: Optional[str]
    field: str
    subscripts: Tuple[Tuple["ExprToken", ...], ...] = ()


@dataclass(frozen=True, slots=True)
class SlashDim:
    """Esope array-extent query ``a(/k)`` / ``p.f(/k)``."""

    base: Union[Token, DottedAccess]
    dim: int


ExprToken = Union[Token, DottedAccess, SlashDim]


# ASCII case only, so ``.falſe.`` is no operator
_LOGICAL_OP = r"(?ai:\.(?:eqv|neqv|eq|ne|lt|le|gt|ge|and|or|not|xor|true|false)\.)"

# One lexeme per match after optional blanks; the group name is its kind,
# but for a number (INT or REAL).  A number leaves the dot of ``1.eq.2``
# alone.  A ``dotnum`` (``.5``) is a REAL only where no value precedes it,
# which ``tokenize`` decides.
_LEXEME_RE = re.compile(
    r"\s*(?:"
    r"""(?P<string>'[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!"))"""
    r"|(?P<name>(?i:[a-z_][a-z0-9_]*))"
    r"|(?P<number>\d+(?:(?!" + _LOGICAL_OP + r")\.\d*)?(?:[eEdD][+-]?\d+)?)"
    r"|(?P<op>" + _LOGICAL_OP + r"|\*\*|//|=>|[-+*/=])"
    r"|(?P<dotnum>\.\d+(?:[eEdD][+-]?\d+)?)"
    r"|(?P<punct>[(),:%$.])"
    r"|(?P<stray>\S))"
)

# The intern tables: source lexeme -> token, and token -> its one shared
# object.  They only grow with the distinct lexemes of the input, and sharing
# an immutable value shows nowhere but in ``is``.
_BY_LEXEME: Dict[str, Token] = {}
_SHARED: Dict[Token, Token] = {t: t for t in (LPAREN, RPAREN, COMMA, DOT, SLASH, EQUALS, MINUS)}


def tokenize(text: str, span: Optional[SourceSpan] = None) -> List[Token]:
    """Tokenize one statement body.  Identifiers are lowercased; string
    literals keep their quotes and case."""
    toks: List[Token] = []
    pos = 0
    while True:
        for m in _LEXEME_RE.finditer(text, pos):
            kind = m.lastgroup
            lexeme = m[kind]
            tok = _BY_LEXEME.get(lexeme)
            if tok is None:
                if kind == "stray":
                    if lexeme in "'\"":
                        raise MigrationError("unterminated string literal", span)
                    raise MigrationError(f"unexpected character {lexeme!r} in statement", span)
                if kind == "dotnum" and toks and (toks[-1].kind in (NAME, INT, REAL) or toks[-1] == RPAREN):
                    # `x.5`: a dot, then the digits scanned afresh
                    toks.append(DOT)
                    pos = m.start(kind) + 1
                    break
                tok = _intern(kind, lexeme)
            toks.append(tok)
        else:
            return toks


def _intern(kind: str, lexeme: str) -> Token:
    if kind == STRING:
        tok = Token(STRING, lexeme)
    else:
        value = lexeme.lower()
        if kind == "number":
            tok = Token(INT if value.isdecimal() else REAL, value)
        else:
            tok = Token(REAL if kind == "dotnum" else kind, value)
    tok = _SHARED.setdefault(tok, tok)
    if kind != "dotnum":
        _BY_LEXEME[lexeme] = tok
    return tok


# --- island folding ---------------------------------------------------------


def scan_expression(tokens: Sequence[Token], span: Optional[SourceSpan] = None) -> List[ExprToken]:
    """Fold dotted accesses and slash-dims into structured tokens; every
    other token passes through unchanged.  Only a ``.`` or a ``/`` right
    after ``(`` can start one, so a stream holding neither is not walked."""
    toks = list(tokens)
    if DOT not in toks and (SLASH not in toks or (LPAREN, SLASH) not in zip(toks, toks[1:])):
        return toks  # nothing to fold
    out: List[ExprToken] = []
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if isinstance(t, Token) and t.kind == NAME:
            if (
                i + 2 < n
                and toks[i + 1] == DOT
                and isinstance(toks[i + 2], Token)
                and toks[i + 2].kind == NAME
            ):
                access = DottedAccess(t.value, toks[i + 2].value)
                i += 3
                access, i = _fold_paren_suffix(access, toks, i, span)
                out.append(access)
                continue
            slash = _try_plain_slash(t, toks, i, span)
            if slash is not None:
                out.append(slash[0])
                i = slash[1]
                continue
        out.append(t)
        i += 1
    return out


def _try_plain_slash(t: Token, toks: List[Token], i: int, span):
    # name ( / k )
    if (
        i + 3 < len(toks)
        and toks[i + 1] == LPAREN
        and toks[i + 2] == SLASH
    ):
        if not (isinstance(toks[i + 3], Token) and toks[i + 3].kind == INT):
            raise MigrationError("slash-dim index must be an integer literal", span)
        if i + 4 >= len(toks) or toks[i + 4] != RPAREN:
            raise MigrationError("malformed slash-dim", span)
        return SlashDim(t, int(toks[i + 3].value)), i + 5
    return None


def _fold_paren_suffix(access: DottedAccess, toks: List[Token], i: int, span):
    """Attach a subscript list or a slash-dim following a dotted access."""
    n = len(toks)
    if i >= n or toks[i] != LPAREN:
        return access, i
    if i + 1 < n and toks[i + 1] == SLASH:
        if not (i + 2 < n and isinstance(toks[i + 2], Token) and toks[i + 2].kind == INT):
            raise MigrationError("slash-dim index must be an integer literal", span)
        if i + 3 >= n or toks[i + 3] != RPAREN:
            raise MigrationError("malformed slash-dim", span)
        return SlashDim(access, int(toks[i + 2].value)), i + 4
    inner, j = _collect_group(toks, i, span)
    subs = tuple(tuple(scan_expression(part, span)) for part in split_top_commas(inner))
    return DottedAccess(access.pointer, access.field, subs), j


def _collect_group(toks: List[Token], i: int, span) -> Tuple[List[Token], int]:
    """Return tokens inside the balanced paren group opening at ``i``."""
    depth = 0
    inner: List[Token] = []
    j = i
    while j < len(toks):
        t = toks[j]
        if t == LPAREN:
            depth += 1
            if depth > 1:
                inner.append(t)
        elif t == RPAREN:
            depth -= 1
            if depth == 0:
                return inner, j + 1
            inner.append(t)
        else:
            inner.append(t)
        j += 1
    raise MigrationError("unbalanced parentheses", span)


def split_top_commas(toks: Sequence[ExprToken]) -> List[List[ExprToken]]:
    """Split at commas outside parentheses; an empty stream has no parts."""
    parts: List[List[ExprToken]] = [[]]
    depth = 0
    for t in toks:
        if t == LPAREN:
            depth += 1
        elif t == RPAREN:
            depth -= 1
        if depth == 0 and t == COMMA:
            parts.append([])
        else:
            parts[-1].append(t)
    if parts == [[]]:
        return []
    return parts
