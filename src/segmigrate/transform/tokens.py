"""Token stream rewriting and rendering.

Dotted accesses become ``%`` component references, slash-dims become
``size`` calls, and everything else is re-spaced into readable free form.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import MigrationError
from ..frontend.lexer import OP, PUNCT, DottedAccess, ExprToken, SlashDim, Token

#: keywords that read better with a space before their paren group
_SPACED_KEYWORDS = {"if", "elseif", "while", "where", "then", "case"}

#: operators rendered without surrounding spaces
_TIGHT_OPS = {"**", "//"}


def _render_one(t: ExprToken, resolve_field) -> str:
    if isinstance(t, Token):
        return t.value
    if isinstance(t, DottedAccess):
        pointer = t.pointer if t.pointer else resolve_field(t.field)
        base = f"{pointer}%{t.field}"
        if t.subscripts:
            subs = ", ".join(render_tokens(s, resolve_field) for s in t.subscripts)
            return f"{base}({subs})"
        return base
    if isinstance(t, SlashDim):
        inner = _render_one(t.base, resolve_field) if not isinstance(t.base, Token) else t.base.value
        return f"size({inner}, dim={t.dim})"
    raise MigrationError(f"cannot render token {t!r}")


def render_tokens(stream: Sequence[ExprToken], resolve_field=None) -> str:
    """Render a token stream as one free-form expression or statement."""
    if resolve_field is None:
        def resolve_field(field):
            raise MigrationError(f"bare field {field!r} outside segment scope")

    out: List[str] = []
    prev: Optional[ExprToken] = None
    prev_unary = False
    for t in stream:
        piece = _render_one(t, resolve_field)
        if out and _space_before(prev, t, piece, prev_unary):
            out.append(" ")
        out.append(piece)
        prev_unary = _is_unary(prev, t)
        prev = t
    return "".join(out)


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


def _space_before(prev: Optional[ExprToken], t: ExprToken, piece: str, prev_unary: bool) -> bool:
    p = _token_text(prev)
    if prev_unary:
        return False
    if isinstance(t, Token):
        if t.kind == PUNCT:
            if t.value == "(":
                return p in _SPACED_KEYWORDS
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
            return prev.value not in _TIGHT_OPS
        if prev.kind == PUNCT:
            return prev.value in (",", ")")
    return True
