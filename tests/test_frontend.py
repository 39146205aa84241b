"""Lexer, parser, and include-resolution tests."""

import dataclasses
import operator
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from segmigrate.cli import RunConfig, discover_sources, load_units, read_range
from segmigrate.errors import MigrationError, SourceSpan
from segmigrate.frontend import ast_nodes as A
from segmigrate.frontend.includes import (
    BEGIN_MARK,
    END_MARK,
    build_fragment_cache,
    find_include_file,
    resolve_includes,
)
from segmigrate.frontend.lexer import (
    COMMENT,
    DIRECTIVE,
    STATEMENT,
    FLAVOR_DASH,
    FLAVOR_FORTRAN,
    FLAVOR_HASH,
    FLAVOR_PERCENT,
    LPAREN,
    DottedAccess,
    SlashDim,
    Token,
    detect_include,
    scan_expression,
    split_logical_lines,
    tokenize,
)
from segmigrate.frontend import parser
from segmigrate.frontend.parser import (
    classify_statement, parse_fragment, parse_source, parse_unit, parse_units,
)
from segmigrate.model import format_type
from segmigrate.transform.tokens import render_tokens

from helpers import (
    OracleLexError, oracle_classify, oracle_render_tokens, oracle_scan_expression, oracle_tokenize,
)

LISTING_SOURCE = """\
      SUBROUTINE NEWUSER(LIB,NAME)
      INTEGER UBBCNT
      SEGMENT, USER
        CHARACTER*40 UNAME
        INTEGER UBB(UBBCNT)
      END SEGMENT
      POINTEUR UR.USER
C     create the user record
      UBBCNT = 0
      SEGINI, UR
      UR.UNAME = NAME
      WRITE(*,*) UR.UBB(/1)
      END
"""


def stmt(text, label=None):
    lines = split_logical_lines(" " * 6 + text)
    assert len(lines) == 1 and lines[0].kind == STATEMENT
    return lines[0]


# --- card splitting ---------------------------------------------------------


def manual_merge(cards):
    """Independent oracle: concatenate columns 7-72 of each card."""
    merged = ""
    for card in cards:
        merged += card.expandtabs(8)[6:72].rstrip()
    return merged.rstrip()


def test_continuation_merge_matches_column_oracle():
    cards = [
        "      CALL FOO(A,",
        "     &          B,",
        "     1          C)",
    ]
    lines = split_logical_lines("\n".join(cards))
    assert len(lines) == 1
    assert lines[0].text == manual_merge(cards)
    assert lines[0].span.start_line == 1 and lines[0].span.end_line == 3


def test_columns_73_plus_are_ignored():
    card = "      X = 1" + " " * 61 + "SEQ00010"
    assert len(card) > 72
    lines = split_logical_lines(card)
    assert lines[0].text == "X = 1"


def test_tabs_expand_to_8_column_stops():
    lines = split_logical_lines("\tX = 1")
    assert lines[0].kind == STATEMENT
    assert lines[0].text.strip() == "X = 1"


def test_comment_and_blank_lines_preserved():
    source = "C hello\n\n* star\n! bang\n      X = 1\n"
    lines = split_logical_lines(source)
    kinds = [l.kind for l in lines]
    assert kinds == [COMMENT, COMMENT, COMMENT, COMMENT, STATEMENT]
    assert lines[1].text == ""


def test_statement_label_parsed():
    lines = split_logical_lines("   10 CONTINUE")
    assert lines[0].label == 10


def test_bad_label_is_an_error():
    with pytest.raises(MigrationError):
        split_logical_lines("  1X  CONTINUE")


def test_orphan_continuation_is_an_error():
    with pytest.raises(MigrationError):
        split_logical_lines("     &  X = 1")


def test_directive_kept_at_column_one():
    lines = split_logical_lines('#include "a.inc"')
    assert lines[0].kind == DIRECTIVE


def test_inline_comment_is_dropped():
    assert stmt("X = 1 ! note").text == "X = 1"
    assert stmt("CALL LOG('HI! THERE', \"!\") ! 'not a literal").text == (
        "CALL LOG('HI! THERE', \"!\")"
    )


def test_inline_comment_after_literal_continued_across_cards():
    cards = [
        "      CALL LOG('A ! B",
        "     &C ! D') ! note",
        "     !  , 'E''!') ! column 6 continues",
    ]
    lines = split_logical_lines("\n".join(cards))
    assert [l.text for l in lines] == ["CALL LOG('A ! BC ! D')  , 'E''!')"]


def test_card_holding_only_an_inline_comment_is_a_comment():
    lines = split_logical_lines("      X = 1\n      ! note\n! bang\n      Y = 2")
    assert [(l.kind, l.text) for l in lines] == [
        (STATEMENT, "X = 1"), (COMMENT, " note"), (COMMENT, " bang"), (STATEMENT, "Y = 2"),
    ]


def test_comment_card_inside_a_continued_statement_follows_it():
    source = "      SUBROUTINE S\n      X = 1 +\nC     note\n     &    2\n      END\n"
    lines = split_logical_lines(source)
    assert [(l.kind, l.text) for l in lines] == [
        (STATEMENT, "SUBROUTINE S"), (STATEMENT, "X = 1 +    2"), (COMMENT, "     note"),
        (STATEMENT, "END"),
    ]
    assert (lines[1].span.start_line, lines[1].span.end_line) == (2, 4)
    node, comment = parse_source(source)[0].body
    assert f"{render_tokens(node.lhs)} = {render_tokens(node.rhs)}" == "x = 1 + 2"
    assert comment == A.CommentNode(span=lines[2].span, text="     note")


@pytest.mark.parametrize("blank", ["\f", "\v", "\x1c", "\x85", "\u2028"])
def test_only_a_newline_ends_a_card(blank):
    source = f"      SUBROUTINE A(X)\n{blank}\n      X = 1{blank}\n      Y = 2\n      END\n"
    lines = split_logical_lines(source)
    assert [(l.kind, l.text, l.span.start_line) for l in lines] == [
        (STATEMENT, "SUBROUTINE A(X)", 1), (COMMENT, "", 2), (STATEMENT, "X = 1", 3),
        (STATEMENT, "Y = 2", 4), (STATEMENT, "END", 5),
    ]


def test_a_file_has_no_card_after_its_last_newline():
    assert split_logical_lines("") == []
    assert len(split_logical_lines("      END\n")) == 1
    assert len(split_logical_lines("      END\n\n")) == 2


# --- include detection ------------------------------------------------------


@pytest.mark.parametrize(
    "text,flavor,path",
    [
        ('#include "user.seg"', FLAVOR_HASH, "user.seg"),
        ("#include <sys.inc>", FLAVOR_HASH, "sys.inc"),
        ("      include 'book.seg'", FLAVOR_FORTRAN, "book.seg"),
        ("      %inc library.seg", FLAVOR_PERCENT, "library.seg"),
        ("      -inc user.seg", FLAVOR_DASH, "user.seg"),
    ],
)
def test_detect_include_flavors(text, flavor, path):
    line = split_logical_lines(text)[0]
    directive = detect_include(line)
    assert directive is not None
    assert directive.flavor == flavor
    assert directive.path == path


def test_non_include_lines_do_not_match():
    assert detect_include(stmt("X = INCLUDED + 1")) is None
    assert detect_include(stmt("INCREMENT = 1")) is None


# --- tokenization -----------------------------------------------------------


def test_tokenize_lowercases_names_but_not_strings():
    toks = tokenize("CALL FOO('Mixed Case')")
    assert toks[1] == Token("name", "foo")
    assert toks[3] == Token("string", "'Mixed Case'")


def test_tokenize_logical_word_between_integers():
    toks = tokenize("1.EQ.2")
    assert [t.kind for t in toks] == ["int", "op", "int"]
    assert toks[1].value == ".eq."


def test_tokenize_real_literals():
    assert tokenize("1.5")[0] == Token("real", "1.5")
    assert tokenize("1.5E-3")[0] == Token("real", "1.5e-3")
    assert tokenize("2.")[0] == Token("real", "2.")
    assert tokenize("X = .5")[-1] == Token("real", ".5")


def test_tokenize_doubled_quote_escape():
    toks = tokenize("'it''s'")
    assert toks == [Token("string", "'it''s'")]


def test_tokenize_unterminated_string():
    with pytest.raises(MigrationError):
        tokenize("'oops")


def test_equal_lexemes_share_one_token():
    a = tokenize("X = FOO(1) + 'lit'")
    b = tokenize("foo = x*1 + 'lit'")
    assert a[0] is b[2] and a[2] is b[0]
    assert a[4] is b[4] and a[7] is b[6]
    assert a[3] is LPAREN


# Statement bodies built from the lexemes the scanners treat specially.  The
# stray characters leave out digits that are not decimal (``²``): the frozen
# scanner took them for digits, the live one rejects them.
_LEXEME = st.one_of(
    st.builds(operator.add, st.sampled_from("aBzQ_"), st.text("aBzQ_019", max_size=4)),
    st.builds(
        "{}{}{}".format,
        st.text("0159", min_size=1, max_size=3),
        st.sampled_from(["", ".", ".5", ".05"]),
        st.sampled_from(["", "e", "e12", "E+1", "d-2", "D3"]),
    ),
    st.builds(operator.add, st.sampled_from([".5", ".05", ".50"]), st.sampled_from(["", "e3", "D-1", "e"])),
    st.sampled_from([
        "1.eq.2", "1.EQV.x", "1.e5", "1..eq.2", ".abc.", ".falſe.", ".NeqV.", ".not.", ".True.",
        "x.5", "a(1).5", "**", "//", "=>",
        "'it''s'", '"say ""hi"""', "''", "''''", "'oops", '"open',
        "p.f", "P.F(I, J)", "p.f(/2)", "a(/1)", "a(/k)", "a(/1", "p.f(/1 2)", "p.f(i",
        "!", "#", "&", ";", "?", "@", "[", "~", "é", "ſ", "\t",
    ]),
    st.sampled_from(list("+-*/=(),:%$.'\" ")),
)
_BODY = st.one_of(
    st.lists(st.tuples(_LEXEME, st.sampled_from(["", " ", "  "])), max_size=10).map(
        lambda parts: "".join(lexeme + gap for lexeme, gap in parts)
    ),
    st.text(alphabet="aBqE_0159.eEdD+-*/=(),:%$'\" !", max_size=24),
)


def _fold(text):
    try:
        return repr(scan_expression(tokenize(text)))
    except MigrationError as exc:
        return ("error", str(exc))


def _oracle_fold(text):
    try:
        return repr(oracle_scan_expression(oracle_tokenize(text)))
    except OracleLexError as exc:
        return ("error", str(exc))


@settings(max_examples=500, deadline=None)
@given(_BODY)
def test_lexer_agrees_with_frozen_character_scanner(text):
    assert _fold(text) == _oracle_fold(text)


#: one gap table for every example, as a migrate shares one across its units
_GAPS = {}


@settings(max_examples=500, deadline=None)
@given(_BODY)
def test_renderer_agrees_with_frozen_renderer(text):
    try:
        stream = scan_expression(tokenize(text))
    except MigrationError:
        return
    resolve = lambda field: "dflt"
    assert render_tokens(stream, resolve, _GAPS) == oracle_render_tokens(stream, resolve)


# --- island folding ---------------------------------------------------------


def test_fold_dotted_access():
    out = scan_expression(tokenize("UR.UNAME"))
    assert out == [DottedAccess("ur", "uname")]


def test_fold_dotted_access_with_subscripts():
    out = scan_expression(tokenize("UR.UBB(I, J+1)"))
    assert len(out) == 1
    access = out[0]
    assert access.pointer == "ur" and access.field == "ubb"
    assert len(access.subscripts) == 2


def test_fold_nested_dotted_subscript():
    out = scan_expression(tokenize("A.B(C.D(I))"))
    inner = out[0].subscripts[0][0]
    assert isinstance(inner, DottedAccess)
    assert inner.pointer == "c" and inner.field == "d"


def test_fold_slash_dim_forms():
    dotted = scan_expression(tokenize("UR.UBB(/1)"))[0]
    assert isinstance(dotted, SlashDim) and dotted.dim == 1
    plain = scan_expression(tokenize("A(/2)"))[0]
    assert isinstance(plain, SlashDim) and plain.dim == 2
    assert plain.base == Token("name", "a")


def test_slash_dim_requires_integer_literal():
    with pytest.raises(MigrationError):
        scan_expression(tokenize("UR.UBB(/N)"))


def test_division_is_not_a_slash_dim():
    out = scan_expression(tokenize("A(I/2)"))
    assert all(not isinstance(t, SlashDim) for t in out)


# --- unit parsing -----------------------------------------------------------


def segment_definitions(unit):
    return [n.definition for n in unit.body if isinstance(n, A.SegmentDefNode)]


def test_listing_style_unit_parses_completely():
    unit = parse_unit(split_logical_lines(LISTING_SOURCE), "newuser.f")
    assert unit.kind == "subroutine"
    assert unit.name == "newuser"
    assert unit.params == ["lib", "name"]

    segs = segment_definitions(unit)
    assert len(segs) == 1
    seg = segs[0]
    assert seg.name == "user"
    assert [f.name for f in seg.fields] == ["uname", "ubb"]
    assert seg.fields[0].base_type == "character" and seg.fields[0].char_len == 40
    assert seg.fields[1].is_dynamic
    assert seg.dimensioning_vars == ["ubbcnt"]

    pointers = [n for n in unit.body if isinstance(n, A.PointerDeclNode)]
    assert pointers[0].entries == [("ur", "user")]

    commands = [n for n in unit.body if isinstance(n, A.EsopeCommandNode)]
    assert [c.kind for c in commands] == [A.SEGINI]
    assert commands[0].target == "ur"

    assigns = [n for n in unit.body if isinstance(n, A.AssignmentNode)]
    dotted = [a for a in assigns if isinstance(a.lhs[0], DottedAccess)]
    assert dotted and dotted[0].lhs[0].field == "uname"

    opaque = [n for n in unit.body if isinstance(n, A.OpaqueNode)]
    slash = [t for n in opaque for t in n.tokens if isinstance(t, SlashDim)]
    assert len(slash) == 1


def test_command_variants_classify():
    assert classify_statement(stmt("SEGINI, UR"), {}).kind == A.SEGINI
    assert classify_statement(stmt("SEGINI UR"), {}).kind == A.SEGINI
    copy = classify_statement(stmt("SEGINI, P=Q"), {})
    assert copy.kind == A.SEGINI_COPY and copy.source == "q"
    move = classify_statement(stmt("SEGACT, P=Q"), {})
    assert move.kind == A.SEGACT_MOVE
    assert classify_statement(stmt("SEGACT, P"), {}).kind == A.SEGACT
    assert classify_statement(stmt("SEGDES, P"), {}).kind == A.SEGDES


def test_source_operand_only_on_copyable_commands():
    with pytest.raises(MigrationError):
        classify_statement(stmt("SEGSUP, P=Q"), {})


def test_malformed_command_is_an_error():
    with pytest.raises(MigrationError):
        classify_statement(stmt("SEGINI, 1BAD"), {})


def test_malformed_implicit_letter_range_is_an_error():
    node = classify_statement(stmt("IMPLICIT INTEGER(A-C, X), CHARACTER*4(D)"), {})
    assert node.rules == [("integer", "a-c,x"), ("character(len=4)", "d")]
    for bad in ("A-B-C", "AB-C", "A-"):
        with pytest.raises(MigrationError, match="unparseable implicit statement"):
            classify_statement(stmt(f"IMPLICIT INTEGER({bad})"), {})


@pytest.mark.parametrize("text", [
    "IMPLICIT INTEGER (A-H), BOGUS (X)", "IMPLICIT INTEGER (A-H) JUNK", "IMPLICIT INTEGER (1)",
    "IMPLICIT INTEGER (A-H),", "IMPLICIT INTEGER (A-H) REAL (O-Z)",
    # a range's first letter must come before its second (ANSI X3.9-1978 8.5)
    "IMPLICIT INTEGER (Z-A)", "IMPLICIT INTEGER (A-H, Q-P)"])
def test_implicit_text_that_no_rule_covers_is_an_error_at_its_statement(text):
    with pytest.raises(MigrationError, match="unparseable implicit statement") as caught:
        parse_source(f"      SUBROUTINE S(X)\n      {text}\n      END\n", "s.f")
    assert caught.value.span.start_line == 2


# --- one type spec at every site -------------------------------------------


@pytest.mark.parametrize("text, base", [
    ("REAL*8 A", "double precision"), ("REAL * 8 A", "double precision"),
    ("REAL*4 A", "real"), ("INTEGER*4 A", "integer"), ("LOGICAL*4 A", "logical"),
])
def test_a_length_on_a_numeric_type_gives_its_own_type(text, base):
    node = classify_statement(stmt(text), {})
    assert (node.base_type, node.char_len) == (base, None)


@pytest.mark.parametrize("text", [
    "INTEGER*2 N", "LOGICAL*1 L", "REAL*16 X", "DOUBLE PRECISION*8 D", "REAL*(*) X"])
def test_any_other_length_on_a_numeric_type_is_an_error_at_its_statement(text):
    with pytest.raises(MigrationError, match="unsupported type length") as caught:
        parse_source(f"      SUBROUTINE S(X)\n      {text}\n      END\n", "s.f")
    assert caught.value.span.start_line == 2


def test_a_segment_field_takes_the_same_type_spec():
    src = ("      SUBROUTINE S(X)\n      SEGMENT, SEG\n      REAL*8 V(N)\n"
           "      CHARACTER*(*) C\n      END SEGMENT\n      END\n")
    (seg,) = segment_definitions(parse_source(src, "s.f")[0])
    assert [(f.base_type, f.char_len) for f in seg.fields] == [
        ("double precision", None), ("character", "*")]
    with pytest.raises(MigrationError, match="unsupported type length") as caught:
        parse_source(src.replace("REAL*8", "INTEGER*2"), "s.f")
    assert caught.value.span.start_line == 3


@pytest.mark.parametrize("header, return_type", [
    ("REAL*8 FUNCTION F(X)", "double precision"),
    ("CHARACTER*(*) FUNCTION F(X)", "character(len=*)"),
    ("CHARACTER*8 FUNCTION F(X)", "character(len=8)"),
    ("CHARACTER * 8 FUNCTION F(X)", "character(len=8)"),
    ("CHARACTER FUNCTION F(X)", "character(len=1)"),
    ("DOUBLE  PRECISION FUNCTION F(X)", "double precision"),
    ("FUNCTION F(X)", None),
])
def test_a_function_header_takes_the_same_type_spec(header, return_type):
    (unit,) = parse_source(f"      {header}\n      F = X\n      END\n", "f.f")
    assert (unit.kind, unit.return_type) == ("function", return_type)


def test_an_implicit_rule_takes_the_same_type_spec():
    node = classify_statement(stmt("IMPLICIT REAL*8 (A-H,O-Z), CHARACTER*2 (S)"), {})
    assert node.rules == [("double precision", "a-h,o-z"), ("character(len=2)", "s")]
    for bad in ("CHARACTER*(*) (A)", "CHARACTER*(*)"):
        with pytest.raises(MigrationError, match="unparseable implicit statement"):
            classify_statement(stmt(f"IMPLICIT {bad}"), {})
    with pytest.raises(MigrationError, match="unsupported type length"):
        classify_statement(stmt("IMPLICIT INTEGER*2 (I-N)"), {})


# --- the classifier against the frozen one ---------------------------------
#
# Statement texts from a small grammar: CALLs and assignments, under a
# logical IF or not; type and IMPLICIT statements with every length form;
# keyword statements; and junk.  Each example is tagged with the named
# change its form may show against the frozen classifier, or None.

_ATOM = st.sampled_from([
    "X", "1", "2.5", "'S'", "P.F", "P.F(I, 2)", "A(/1)", "P.G(/2)", "-X", "MAX(X, Y)",
    "(X + 1)", "A(I)", "X .GT. 0"])
_EXPR = st.one_of(_ATOM, st.builds(
    "{} {} {}".format, _ATOM, st.sampled_from(["+", "*", "/", ".AND.", "//"]), _ATOM))
_ARGS = st.lists(_EXPR, min_size=1, max_size=3).map(", ".join)
_GUARD = st.sampled_from(["C", "X .GT. 0", "P.F .EQ. 1", "A(/1) .NE. N", "(X)"])
_ASSIGNMENT = st.builds(
    "{} = {}".format,
    st.sampled_from(["X", "A(I)", "P.F", "P.F(I)", "IF", "DO 10 I", "CALL", "THEN", "A(/1)"]),
    _EXPR)
_TYPE_NAME = st.sampled_from(
    ["INTEGER", "REAL", "LOGICAL", "DOUBLE PRECISION", "double  precision", "CHARACTER"])
_LENGTH = st.sampled_from(["", "*1", "*2", "*4", "*8", "*16", " * 8", "*40", "*(*)", "*( * )"])
_KEYWORD_STATEMENT = st.sampled_from([
    "DIMENSION A(10), B(N)", "EXTERNAL F, G", "POINTEUR P.SEG, Q.SEG", "SEGINI, P",
    "SEGACT, P=Q", "SEGSUP, P=Q", "GOTO 10", "CONTINUE", "RETURN", "DO 10 I = 1, N",
    "WRITE(*,*) X, P.F", "READ(5,*) X", "COMMON /B/ X, Y", "DATA X /1/", "END", "ELSE",
    "END IF", "IMPLICIT NONE", "FORMAT(I5)", "PARAMETER (N = 10)", "SAVE"])


def _length_case(type_name, length):
    """``"real*8"``, ``"default"`` (a ``*4`` on INTEGER, REAL or LOGICAL),
    ``"unsupported length"``, or None for no length or a CHARACTER one."""
    base = " ".join(type_name.lower().split())
    size = length.strip(" *")
    if base == "character" or not length:
        return None
    if (base, size) == ("real", "8"):
        return "real*8"
    if size == "4" and base != "double precision":
        return "default"
    return "unsupported length"


@st.composite
def _call_statement(draw):
    guarded = draw(st.booleans())
    args = draw(st.one_of(st.just(""), st.just("()"), _ARGS.map("({})".format),
                          _ARGS.map("({}".format)))
    unclosed = args.count("(") > args.count(")")
    tail = "" if unclosed else draw(st.sampled_from(["", " Y", "(Y)", ")", " = 1"]))
    text = f"CALL {draw(st.sampled_from(['F', 'FOO', 'IF', 'END']))}{args}{tail}"
    if guarded:  # the frozen guarded form already failed on an unclosed group
        case = "guarded call tail" if tail and (args or tail != "(Y)") else None
        text = f"IF ({draw(_GUARD)}) {text}"
    elif unclosed:
        case = "unclosed call group"
    else:  # the frozen pattern matched when the text ended in `)`
        case = "call group then more" if args and tail.endswith(")") else None
    return text, case


@st.composite
def _type_statement(draw):
    type_name, length = draw(_TYPE_NAME), draw(_LENGTH)
    entities = draw(st.sampled_from(["A", "A, B(10)", "V(N)", "S(2, M)", "C(N, *)"]))
    case = _length_case(type_name, length)
    return f"{type_name}{length} {entities}", None if case == "default" else case


@st.composite
def _implicit_statement(draw):
    rules, cases = [], set()
    for _ in range(draw(st.integers(1, 2))):
        type_name, length = draw(_TYPE_NAME), draw(_LENGTH)
        letters = draw(st.sampled_from(["A-H", "A-H,O-Z", "I-N", "X", "A-B-C"]))
        rules.append(f"{type_name}{length} ({letters})")
        if type_name == "CHARACTER" and "(" in length:
            cases.add("assumed-length rule")
        else:
            case = _length_case(type_name, length)
            cases.add("sized rule" if case in ("real*8", "default") else case)
    junk = draw(st.sampled_from(["", "", " JUNK", ", BOGUS (X)", ", INTEGER (1)", ","]))
    if junk:
        cases.add("uncovered rule text")
    # an unsupported length fails first, then the check of every rule
    case = next((c for c in ("unsupported length", "uncovered rule text", "assumed-length rule",
                             "sized rule") if c in cases), None)
    return "IMPLICIT " + ", ".join(rules) + junk, case


_STATEMENT = st.one_of(
    _call_statement(),
    _ASSIGNMENT.map(lambda text: (text, None)),
    st.builds("IF ({}) {}".format, _GUARD, st.one_of(_ASSIGNMENT, st.sampled_from(
        ["THEN", "GOTO 10", "RETURN", "CALL", "", "THEN = 1"]))).map(
        lambda text: (text.strip(), None)),
    _type_statement(),
    _implicit_statement(),
    _KEYWORD_STATEMENT.map(lambda text: (text, None)),
    _BODY.map(lambda text: (text.strip(), None)),
)

_SPAN = SourceSpan("s.f", 1, 1, 1, 72)


def _spelled(type_name):
    """A frozen IMPLICIT rule's type as ``format_type`` spells it."""
    m = re.fullmatch(r"character\s*(?:\*\s*(\d+))?", type_name)
    return format_type("character", m[1] and int(m[1])) if m else type_name


def _classified(classify, text):
    """The node's kind and fields, declared types spelled by ``format_type``."""
    try:
        node = classify(text, _SPAN, None)
    except MigrationError as exc:
        return ("error", str(exc))
    fields = {f.name: getattr(node, f.name) for f in dataclasses.fields(node) if f.name != "facts"}
    if isinstance(node, A.TypeDeclNode):
        base, char_len = fields.pop("base_type"), fields.pop("char_len")
        fields["type"] = base and format_type(base, char_len)
    elif isinstance(node, A.ImplicitDeclNode):
        fields["rules"] = [(_spelled(t), letters) for t, letters in node.rules]
    return (type(node).__name__, fields)


def _sized_rule(live, frozen):
    if frozen[0] == "error":
        return live[0] == "ImplicitDeclNode" or live == frozen
    if live[0] == "error":  # the letters of a rule the frozen one dropped
        return "unparseable implicit statement" in live[1]
    rest = iter(live[1]["rules"])  # the frozen rules are the live ones, some left out
    shorter = frozen[1]["rules"]
    return len(shorter) < len(live[1]["rules"]) and all(rule in rest for rule in shorter)


def _unparseable_implicit(live, frozen):
    return live[0] == "error" and "unparseable implicit statement" in live[1]


def _now_opaque(live, frozen):
    return live[0] == "OpaqueNode" and frozen[0] == "CallNode"


#: tag -> whether the live outcome is the frozen one with the named change
_CHANGES = {
    # REAL*8 is double precision, no longer real
    "real*8": lambda live, frozen: (
        live[0] == frozen[0] == "TypeDeclNode" and live[1] == {**frozen[1], "type": "double precision"}),
    # any other length on a numeric type is an error, no longer dropped
    "unsupported length": lambda live, frozen: (
        live[0] == "error" and "unsupported type length" in live[1]),
    # an IMPLICIT rule takes REAL*8 and the *4 lengths, and its letters are
    # checked; the frozen rules rejected such a rule, or dropped it when
    # another rule matched
    "sized rule": _sized_rule,
    # CHARACTER*(*) in IMPLICIT is an error, no longer dropped beside another rule
    "assumed-length rule": _unparseable_implicit,
    # IMPLICIT text that no rule covers, or a letter item that is no letter,
    # is an error; the frozen rules dropped the text or took the item
    "uncovered rule text": _unparseable_implicit,
    # IF (C) CALL F(X) Y keeps its tokens: opaque, as the bare form
    "guarded call tail": _now_opaque,
    # CALL F(X)(Y) is opaque; the frozen pattern took all to the last `)` as arguments
    "call group then more": _now_opaque,
    # CALL F(X is the located error the guarded form gives
    "unclosed call group": lambda live, frozen: live == ("error", "s.f:1:1: unbalanced parentheses"),
}


@settings(max_examples=600, deadline=None)
@given(_STATEMENT)
@example(("REAL*8 A", "real*8"))
@example(("INTEGER*2 N", "unsupported length"))
@example(("IMPLICIT REAL*8 (A-H,O-Z)", "sized rule"))
@example(("IMPLICIT CHARACTER*(*) (A-H), INTEGER (I-N)", "assumed-length rule"))
@example(("IMPLICIT INTEGER (A-H) JUNK", "uncovered rule text"))
@example(("IF (C) CALL F(X) Y", "guarded call tail"))
@example(("CALL F(X)(Y)", "call group then more"))
@example(("CALL F(X", "unclosed call group"))
def test_classifier_agrees_with_frozen_classifier(tagged):
    text, case = tagged
    live, frozen = _classified(parser._classify, text), _classified(oracle_classify, text)
    assert live == frozen if case is None else _CHANGES[case](live, frozen), (text, live, frozen)


def test_logical_if_call_gets_guard():
    node = classify_statement(stmt("IF (X .GT. 0) CALL FOO(X)"), {})
    assert isinstance(node, A.CallNode)
    assert node.callee == "foo" and node.guard is not None


def test_logical_if_assignment_gets_guard():
    node = classify_statement(stmt("IF (N .EQ. 0) Y = 1"), {})
    assert isinstance(node, A.AssignmentNode)
    assert node.guard is not None


def test_a_call_with_tokens_after_its_arguments_stays_whole_under_a_guard():
    bare = classify_statement(stmt("CALL F(X) Y"), {})
    guarded = classify_statement(stmt("IF (C) CALL F(X) Y"), {})
    assert isinstance(bare, A.OpaqueNode) and isinstance(guarded, A.OpaqueNode)
    assert guarded.tokens[4:] == bare.tokens
    assert render_tokens(guarded.tokens, None, {}) == "if (c) call f(x) y"


def test_block_if_stays_opaque():
    node = classify_statement(stmt("IF (X .GT. 0) THEN"), {})
    assert isinstance(node, A.OpaqueNode)


def test_do_statement_stays_opaque():
    node = classify_statement(stmt("DO 10 I = 1, N"), {})
    assert isinstance(node, A.OpaqueNode)


def test_statement_outside_unit_is_an_error():
    with pytest.raises(MigrationError):
        parse_source("      X = 1\n")


def test_missing_end_is_an_error():
    with pytest.raises(MigrationError):
        parse_source("      SUBROUTINE S(X)\n      X = 1\n")


def test_unterminated_segment_is_an_error():
    src = "      SUBROUTINE S(X)\n      SEGMENT, A\n      INTEGER F\n      END\n"
    with pytest.raises(MigrationError):
        parse_source(src)


def test_duplicate_segment_field_is_an_error():
    src = (
        "      SUBROUTINE S(X)\n      SEGMENT, A\n"
        "      INTEGER F\n      REAL F\n      END SEGMENT\n      END\n"
    )
    with pytest.raises(MigrationError):
        parse_source(src)


def test_comment_count_is_preserved_by_parsing():
    unit = parse_unit(split_logical_lines(LISTING_SOURCE), "f")
    in_comments = sum(
        1 for l in split_logical_lines(LISTING_SOURCE)
        if l.kind == COMMENT
    )
    seg_comments = sum(len(s.comments) for s in segment_definitions(unit))
    out_comments = sum(1 for n in unit.body if isinstance(n, A.CommentNode))
    assert out_comments + seg_comments == in_comments


def test_leading_comments_open_the_body_of_the_unit_they_precede():
    src = (
        "C first A\n\nC second A\n"
        "      SUBROUTINE A\n      END\n"
        "C only B\n"
        "      SUBROUTINE B\n      X = 1\n      END\n"
    )
    a, b = parse_source(src, "ab.f")
    assert [n.text for n in a.body] == [" first A", "", " second A"]
    assert [type(n) for n in b.body] == [A.CommentNode, A.AssignmentNode]
    assert b.body[0].text == " only B" and b.body[0].span.start_line == 6


def test_lines_outside_every_unit_are_parsed_as_body_lines():
    # an include ahead of a header is resolved like one inside the body
    src = '#include "u.seg"\n      SUBROUTINE A\n      END\n#endif\nC note\n'
    (a,) = parse_source(src, "a.f")
    assert [type(n) for n in a.body] == [A.IncludeNode, A.DirectiveNode, A.CommentNode]
    assert [n.span.start_line for n in a.body] == [1, 4, 5]
    assert parse_source("C only a comment\n#endif\n", "c.f") == []

def test_island_soundness_opaque_round_trip():
    """Statements the island grammar does not claim keep their tokens."""
    rng = random.Random(7)
    samples = [
        "Y = MAX(A, B) + C(I)",
        "GOTO 20",
        "OPEN(UNIT=3, FILE='x.dat')",
        "REWIND 3",
        "STOP",
    ]
    for text in rng.sample(samples, len(samples)):
        node = classify_statement(stmt(text), {})
        if isinstance(node, A.OpaqueNode):
            assert node.tokens == scan_expression(tokenize(text))


def test_a_repeated_statement_shares_its_content_and_keeps_its_place(tmp_path):
    (tmp_path / "a.f").write_text(
        "      SUBROUTINE A(X)\n      X = X + P.F(1)\n   10 X = X + P.F(1)\n      END\n")
    (tmp_path / "b.f").write_text(
        "      SUBROUTINE B(X)\n      INCLUDE 'c.inc'\n   20   X = X + P.F(1)\n      END\n")
    (tmp_path / "c.inc").write_text("      INTEGER K\n      X = X + P.F(1)\n")
    units, _ = read_range(RunConfig(src=tmp_path), discover_sources(tmp_path))
    nodes = [node for unit in units for node in unit.body if not isinstance(node, A.CommentNode)]
    assert [(Path(n.span.file_id).name, n.span.start_line, n.label) for n in nodes] == [
        ("a.f", 2, None), ("a.f", 3, 10), ("c.inc", 1, None), ("c.inc", 2, None),
        ("b.f", 3, 20)]
    first, *repeats = [n for n in nodes if isinstance(n, A.AssignmentNode)]
    assert len(repeats) == 3
    for node in repeats:
        assert node is not first
        assert replace(node, span=first.span, label=first.label) == first
        assert node.rhs is first.rhs and node.facts is first.facts
        assert node.facts == A.statement_facts(node) != A.NO_FACTS


def test_the_caller_owns_the_statement_table():
    source = "      SUBROUTINE A\n      X = 1\n      X = 1\n      END\n"
    table = {}
    first = parse_units(split_logical_lines(source, "a.f"), "a.f", table)[0].body
    assert list(table) == ["X = 1"] and table["X = 1"] is first[0]
    again = parse_units(split_logical_lines(source, "b.f"), "b.f", table)[0].body
    assert [n.span.file_id for n in again] == ["b.f", "b.f"]
    assert again[0].lhs is first[0].lhs and list(table) == ["X = 1"]
    # with no table given, each call parses afresh
    once, twice = (parse_source(source)[0].body[0] for _ in range(2))
    assert once.lhs is not twice.lhs is not first[0].lhs


def test_a_fragment_s_end_in_the_table_still_ends_a_unit():
    table = {}
    parse_fragment(split_logical_lines("      X = 1\n      END\n", "f.inc"), "f.inc", table)
    assert "END" in table  # a fragment's END is an ordinary statement
    source = "      SUBROUTINE A\n      X = 1\n      END\n      SUBROUTINE B\n      END\n"
    units = parse_units(split_logical_lines(source, "a.f"), "a.f", table)
    assert [(u.name, u.span.end_line) for u in units] == [("a", 3), ("b", 5)]
    assert [type(n) for n in units[0].body] == [A.AssignmentNode]


def test_a_repeated_include_or_segment_line_keeps_its_meaning():
    source = (
        "      SUBROUTINE A\n"
        "      INCLUDE 'c.inc'\n"
        "      SEGMENT, X\n        INTEGER N\n      END SEGMENT\n"
        "      N = 1\n"
        "      INCLUDE 'c.inc'\n"
        "      SEGMENT, X\n        INTEGER N\n      END SEGMENT\n"
        "      END\n"
    )
    table = {}
    parse_fragment(split_logical_lines("      N = 1\n      INTEGER N\n", "f.inc"), "f.inc", table)
    for file_id in ("a.f", "b.f"):  # the second file meets each text again
        body = parse_units(split_logical_lines(source, file_id), file_id, table)[0].body
        assert [type(n) for n in body] == [A.IncludeNode, A.SegmentDefNode, A.AssignmentNode,
                                           A.IncludeNode, A.SegmentDefNode]
        assert [n.span.start_line for n in body] == [2, 3, 6, 7, 8]


# --- include resolution -----------------------------------------------------


def write(path: Path, text: str):
    path.write_text(text)


def test_nested_include_matches_textual_substitution(tmp_path):
    write(tmp_path / "inner.inc", "      K = K + 1\n")
    write(
        tmp_path / "outer.inc",
        "      J = 0\n      include 'inner.inc'\n      J = J + K\n",
    )
    src = (
        "      SUBROUTINE S(K, J)\n"
        "      INTEGER K, J\n"
        "      include 'outer.inc'\n"
        "      END\n"
    )
    unit = parse_source(src, "s.f")[0]
    cache = build_fragment_cache(["outer.inc"], [tmp_path])
    resolved = resolve_includes(unit, cache)

    # oracle: textual substitution of the include bodies, in order
    texts = []
    for node in resolved.body:
        if isinstance(node, A.AssignmentNode):
            texts.append(node.lhs[0].value)
    assert texts == ["j", "k", "j"]

    comments = [n.text for n in resolved.body if isinstance(n, A.CommentNode)]
    assert BEGIN_MARK.format(path="outer.inc") in comments
    assert END_MARK.format(path="outer.inc") in comments
    assert BEGIN_MARK.format(path="inner.inc") in comments

    # the input AST is untouched
    assert any(isinstance(n, A.IncludeNode) for n in unit.body)


def test_include_cycle_is_an_error(tmp_path):
    write(tmp_path / "a.inc", "      include 'b.inc'\n")
    write(tmp_path / "b.inc", "      include 'a.inc'\n")
    with pytest.raises(MigrationError) as err:
        build_fragment_cache(["a.inc"], [tmp_path])
    assert "cycle" in str(err.value)
    assert "a.inc" in str(err.value) and "b.inc" in str(err.value)


def test_missing_include_lists_tried_paths(tmp_path):
    with pytest.raises(MigrationError) as err:
        find_include_file("gone.inc", [tmp_path, tmp_path / "sub"])
    assert "gone.inc" in str(err.value)
    assert str(tmp_path / "gone.inc") in str(err.value)


def test_included_segments_enter_scope(tmp_path):
    write(
        tmp_path / "rec.seg",
        "      SEGMENT, REC\n      INTEGER VAL(N)\n      END SEGMENT\n",
    )
    src = (
        "      SUBROUTINE S(P)\n"
        "      include 'rec.seg'\n"
        "      POINTEUR P.REC\n"
        "      END\n"
    )
    unit = parse_source(src, "s.f")[0]
    cache = build_fragment_cache(["rec.seg"], [tmp_path])
    resolved = resolve_includes(unit, cache)
    assert resolved.extra_segments_in_scope == ["rec"]
    assert cache["rec.seg"].segments[0].dimensioning_vars == ["n"]


def test_units_share_the_nodes_of_an_included_file(tmp_path):
    write(tmp_path / "inner.inc", "      K = K + 1\n")
    write(tmp_path / "outer.inc", "      J = 0\n      include 'inner.inc'\n")
    write(
        tmp_path / "a.f",
        "      SUBROUTINE A(J, K)\n      INTEGER J, K\n"
        "      include 'outer.inc'\n      END\n",
    )
    write(
        tmp_path / "b.f",
        "      SUBROUTINE B(J, K)\n      INTEGER J, K\n"
        "      include 'outer.inc'\n      include 'inner.inc'\n      END\n",
    )
    units, _ = load_units(RunConfig(src=tmp_path), discover_sources(tmp_path))
    a, b = ([n for n in u.body if isinstance(n, A.AssignmentNode)] for u in units)
    assert [len(a), len(b)] == [2, 3]
    assert a[0] is b[0]
    assert a[1] is b[1] is b[2]
