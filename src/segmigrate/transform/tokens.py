"""Token stream rewriting and rendering.

Dotted accesses become ``%`` component references, slash-dims become
``size`` calls, and everything else is re-spaced into readable free form.

Whether a blank goes between two adjacent tokens, and whether the second is
a unary sign, depends on those two tokens alone (``_space_before``,
``_is_unary``; no blank follows a unary sign).  Tokens are interned, so the
decision is made once per distinct pair and kept in a gap table, together
with the text it gives.  A dotted access and a slash-dim count as one key,
``_VALUE``: the rules see only that they are values.  The caller owns the
table: ``transform.migrate_project`` makes one per call and hands it to the
rewrite context of each unit, so it is dropped with the call;
``render_tokens`` given none makes one for its stream.  The table is never
module-level, so a library caller's memory does not grow from run to run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import MigrationError
from ..frontend.lexer import OP, PUNCT, DottedAccess, ExprToken, SlashDim, Token

#: keywords that read better with a space before their paren group
_SPACED_KEYWORDS = {"if", "elseif", "while", "where", "then", "case"}

#: operators rendered without surrounding spaces
_TIGHT_OPS = {"**", "//"}

#: the gap-table key of a dotted access or a slash-dim
_VALUE = Token("value", "")

#: the state after a token: its key and whether it is a unary sign
_State = Optional[Tuple[Token, bool]]

#: (state after the previous token, key of the token) -> (the blank if one
#: goes before the token, then the token's text unless it is a _VALUE;
#: the state after the token)
GapTable = Dict[Tuple[_State, Token], Tuple[str, _State]]


def _render_one(t: ExprToken, resolve_field, gaps: GapTable) -> str:
    if isinstance(t, Token):
        return t.value
    if isinstance(t, DottedAccess):
        pointer = t.pointer if t.pointer else resolve_field(t.field)
        base = f"{pointer}%{t.field}"
        if t.subscripts:
            subs = ", ".join(render_tokens(s, resolve_field, gaps) for s in t.subscripts)
            return f"{base}({subs})"
        return base
    if isinstance(t, SlashDim):
        inner = _render_one(t.base, resolve_field, gaps)
        return f"size({inner}, dim={t.dim})"
    raise MigrationError(f"cannot render token {t!r}")


def render_tokens(
    stream: Sequence[ExprToken], resolve_field=None, gaps: Optional[GapTable] = None,
) -> str:
    """Render a token stream as one free-form expression or statement,
    deciding each gap through the table ``gaps``."""
    if resolve_field is None:
        def resolve_field(field):
            raise MigrationError(f"bare field {field!r} outside segment scope")
    if gaps is None:
        gaps = {}

    out: List[str] = []
    state: _State = None
    for t in stream:
        key = t if t.__class__ is Token else _VALUE
        gap = gaps.get((state, key))
        if gap is None:
            gap = gaps[state, key] = _gap(state, key)
        text, state = gap
        out.append(text)
        if key is not t:
            out.append(_render_one(t, resolve_field, gaps))
    return "".join(out)


def _gap(state: _State, key: Token) -> Tuple[str, _State]:
    prev, prev_unary = state or (None, False)
    blank = " " if prev is not None and not prev_unary and _space_before(prev, key) else ""
    return blank + (key.value if key is not _VALUE else ""), (key, _is_unary(prev, key))


def _token_text(t: Optional[ExprToken]) -> str:
    if isinstance(t, Token):
        return t.value
    return ""


def _is_unary(prev: Optional[ExprToken], t: ExprToken) -> bool:
    if not (isinstance(t, Token) and t.kind == OP and t.value in ("+", "-")):
        return False
    if prev is None:
        return True
    p = _token_text(prev)
    return p in ("(", ",", "=", ":") or (isinstance(prev, Token) and prev.kind == OP)


def _space_before(prev: ExprToken, t: ExprToken) -> bool:
    """Whether a blank goes between ``prev`` and ``t``, unless ``prev`` is a
    unary sign."""
    p = _token_text(prev)
    binary = isinstance(prev, Token) and prev.kind == OP and p not in _TIGHT_OPS
    if isinstance(t, Token):
        if t.kind == PUNCT:
            if t.value == "(":
                # a group after a keyword, an operator, `=` or a comma stands apart
                return p in _SPACED_KEYWORDS or p == "," or binary
            return t.value not in (")", ",", ":", ".", "%")  # tight closers
        if t.kind == OP:
            if t.value in _TIGHT_OPS:
                return False
            if t.value == "*" and p in ("(", ","):
                return False  # io wildcard
            return p != "("
    # value-like token
    if p in ("(", ":", ".", "%"):
        return False
    if isinstance(prev, Token):
        if prev.kind == OP:
            return binary
        if prev.kind == PUNCT:
            return prev.value in (",", ")")
    return True
