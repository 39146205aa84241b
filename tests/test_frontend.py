"""Lexer, parser, and include-resolution tests."""

import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from segmigrate.cli import RunConfig, discover_sources, load_units
from segmigrate.errors import MigrationError
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
from segmigrate.frontend.parser import classify_statement, parse_source, parse_unit
from segmigrate.transform.tokens import render_tokens

from helpers import OracleLexError, oracle_scan_expression, oracle_tokenize

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
    assert classify_statement(stmt("SEGINI, UR")).kind == A.SEGINI
    assert classify_statement(stmt("SEGINI UR")).kind == A.SEGINI
    copy = classify_statement(stmt("SEGINI, P=Q"))
    assert copy.kind == A.SEGINI_COPY and copy.source == "q"
    move = classify_statement(stmt("SEGACT, P=Q"))
    assert move.kind == A.SEGACT_MOVE
    assert classify_statement(stmt("SEGACT, P")).kind == A.SEGACT
    assert classify_statement(stmt("SEGDES, P")).kind == A.SEGDES


def test_source_operand_only_on_copyable_commands():
    with pytest.raises(MigrationError):
        classify_statement(stmt("SEGSUP, P=Q"))


def test_malformed_command_is_an_error():
    with pytest.raises(MigrationError):
        classify_statement(stmt("SEGINI, 1BAD"))


def test_malformed_implicit_letter_range_is_an_error():
    node = classify_statement(stmt("IMPLICIT INTEGER(A-C, X), CHARACTER*4(D)"))
    assert node.rules == [("integer", "a-c,x"), ("character*4", "d")]
    for bad in ("A-B-C", "AB-C", "A-"):
        with pytest.raises(MigrationError, match="unparseable implicit statement"):
            classify_statement(stmt(f"IMPLICIT INTEGER({bad})"))


def test_logical_if_call_gets_guard():
    node = classify_statement(stmt("IF (X .GT. 0) CALL FOO(X)"))
    assert isinstance(node, A.CallNode)
    assert node.callee == "foo" and node.guard is not None


def test_logical_if_assignment_gets_guard():
    node = classify_statement(stmt("IF (N .EQ. 0) Y = 1"))
    assert isinstance(node, A.AssignmentNode)
    assert node.guard is not None


def test_block_if_stays_opaque():
    node = classify_statement(stmt("IF (X .GT. 0) THEN"))
    assert isinstance(node, A.OpaqueNode)


def test_do_statement_stays_opaque():
    node = classify_statement(stmt("DO 10 I = 1, N"))
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
        node = classify_statement(stmt(text))
        if isinstance(node, A.OpaqueNode):
            assert node.tokens == scan_expression(tokenize(text))


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
