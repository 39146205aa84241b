"""Rewrite catalog, segment module synthesis, and project migration."""

import copy
import dataclasses
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from segmigrate import analysis, cli, target as T
from segmigrate.cli import RunConfig, discover_sources, load_units, main
from segmigrate.emit import RenderConfig, render_unit
from segmigrate.errors import MigrationError
from segmigrate.frontend import ast_nodes as A
from segmigrate.frontend.lexer import scan_expression, tokenize
from segmigrate.frontend.parser import parse_source
from segmigrate.model import build_project_model
from segmigrate.transform import (
    generate_support_modules,
    make_context,
    migrate_project,
    migrate_segment,
    negative_pointer_uses,
    render_tokens,
    rewrite_statement,
    wrap_in_module,
)

from segmigrate.transform import units as units_mod

from helpers import BOOKSTORE, BOOKSTORE_INTENTS, frozen_negative_pointer_uses, undeclared_references

LISTING_UNIT = """\
      SUBROUTINE NEWUSER(LIB,NAME)
      INTEGER UBBCNT
      SEGMENT, USER
        CHARACTER*40 UNAME
        INTEGER UBB(UBBCNT)
      END SEGMENT
      POINTEUR UR.USER
      UBBCNT = 0
      SEGINI, UR
      UR.UNAME = NAME
      WRITE(*,*) UR.UBB(/1)
      END
"""


def setup_unit(src=LISTING_UNIT, file_id="newuser.f", catalog=None):
    units = parse_source(src, file_id)
    model = build_project_model(units)
    if catalog:
        model.intent_catalog = catalog
    intents = analysis.infer_intents(model)
    return units, model, intents


def rewrite_to_text(src, needle_kind):
    units, model, intents = setup_unit(src)
    ctx = make_context(units[0], model, intents)
    for node in units[0].body:
        if isinstance(node, needle_kind):
            out = rewrite_statement(node, ctx)
            return [n.text for n in out if isinstance(n, T.TargetNode)]
    raise AssertionError("statement not found")


# --- rewrite catalog --------------------------------------------------------


def test_pointeur_rewrite_has_no_null_initializer():
    texts = rewrite_to_text(LISTING_UNIT, A.PointerDeclNode)
    assert texts == ["type(user), pointer :: ur"]


def test_segini_passes_dimensioning_variables():
    texts = rewrite_to_text(LISTING_UNIT, A.EsopeCommandNode)
    assert texts == ["call segini(ur, ubbcnt)"]


def test_copy_and_move_forms():
    src = (
        "      SUBROUTINE S(P, Q)\n"
        "      SEGMENT, A\n      INTEGER V(N)\n      END SEGMENT\n"
        "      POINTEUR P.A, Q.A\n"
        "      N = 1\n"
        "      SEGINI, P\n"
        "      SEGINI, Q=P\n"
        "      SEGACT, Q=P\n"
        "      SEGADJ, P\n"
        "      SEGSUP, Q\n"
        "      SEGPRT, P\n"
        "      END\n"
    )
    units, model, intents = setup_unit(src, "s.f")
    ctx = make_context(units[0], model, intents)
    texts = []
    for node in units[0].body:
        if isinstance(node, A.EsopeCommandNode):
            for out in rewrite_statement(node, ctx):
                texts.append(out.text)
    assert texts == [
        "call segini(p, n)",
        "call segcop(q, p)",
        "call segmov(q, p)",
        "call segadj(p, n)",
        "call segsup(q)",
        "call segprt(p)",
    ]


def test_segact_and_segdes_removed_with_traceability():
    src = (
        "      SUBROUTINE S(P)\n"
        "      SEGMENT, A\n      INTEGER V(N)\n      END SEGMENT\n"
        "      POINTEUR P.A\n"
        "      SEGACT, P\n"
        "      SEGDES, P\n"
        "      END\n"
    )
    units, model, intents = setup_unit(src, "s.f")
    ctx = make_context(units[0], model, intents)
    comments = []
    for node in units[0].body:
        if isinstance(node, A.EsopeCommandNode):
            out = rewrite_statement(node, ctx)
            assert len(out) == 1 and out[0].kind == T.COMMENT
            comments.append(out[0].text)
    assert "[seg-migrate] removed" in comments[0]
    assert "SEGACT, P" in comments[0]
    assert "SEGDES, P" in comments[1]
    assert ctx.removed == 2


def test_dotted_and_slash_dim_expression_rewrites():
    assert render_tokens([A.DottedAccess("ur", "uname")]) == "ur%uname"
    sub = (A.Token("name", "i"),)
    assert render_tokens([A.DottedAccess("ur", "ubb", (sub,))]) == "ur%ubb(i)"
    slash = A.SlashDim(A.DottedAccess("ur", "ubb"), 1)
    assert render_tokens([slash]) == "size(ur%ubb, dim=1)"


def _rendered(text):
    return render_tokens(scan_expression(tokenize(text)))


@pytest.mark.parametrize("source, expected", [
    ("Y * (X + 1)", "y * (x + 1)"),
    ("(X - 1) / (X + 1)", "(x - 1) / (x + 1)"),
    (".NOT. (X .GT. Y) .AND. (N .EQ. 1)", ".not. (x .gt. y) .and. (n .eq. 1)"),
    ("PARAMETER (M = (2))", "parameter(m = (2))"),
    ("CALL G(A, (B))", "call g(a, (b))"),
])
def test_a_group_after_an_operator_equals_or_comma_stands_apart(source, expected):
    assert _rendered(source) == expected


@pytest.mark.parametrize("source, expected", [
    ("X = -(Y)", "x = -(y)"),
    ("2**(N - 1)", "2**(n - 1)"),
    ("F(-1)", "f(-1)"),
    ("A(I)", "a(i)"),
    ("WRITE(*,*) X", "write(*,*) x"),
    ("IF (X .GT. 1) Y = 2", "if (x .gt. 1) y = 2"),
])
def test_a_group_after_a_sign_a_tight_operator_or_a_name_stays_tight(source, expected):
    assert _rendered(source) == expected


def test_one_gap_table_serves_every_stream_of_a_migrate(monkeypatch):
    tables, tokens = [], 0
    real = units_mod.render_tokens

    def spy(stream, resolve_field=None, gaps=None):
        nonlocal tokens
        tables.append(gaps)
        tokens += len(stream)
        return real(stream, resolve_field, gaps)

    monkeypatch.setattr(units_mod, "render_tokens", spy)
    units, model = load_units(RunConfig(src=BOOKSTORE, intent_catalog=BOOKSTORE_INTENTS),
                              discover_sources(BOOKSTORE))
    assert migrate_project(units, model, analysis.infer_intents(model)).ok
    assert len(tables) > 100 and all(t is tables[0] for t in tables)
    # one entry per distinct pair, far fewer than the gaps rendered
    assert 0 < 2 * len(tables[0]) < tokens


def test_unknown_command_target_is_an_error():
    src = (
        "      SUBROUTINE S(P)\n"
        "      SEGINI, P\n"
        "      END\n"
    )
    units, model, intents = setup_unit(src, "s.f")
    ctx = make_context(units[0], model, intents)
    with pytest.raises(MigrationError):
        rewrite_statement(units[0].body[0], ctx)


def test_a_pointer_to_a_segment_the_project_never_defines_is_an_error_at_the_unit():
    # no ghost_mod is written, so `use ghost_mod` would not compile
    src = "      SUBROUTINE S(X)\n      POINTEUR P.GHOST\n      X = 1\n      END\n"
    units, model, intents = setup_unit(src, "s.f")
    assert migrate_project(units, model, intents).errors == [
        "s.f:1:1: pointer 'p' targets unknown segment 'ghost'"]


def test_implicit_statement_removed_and_replaced():
    src = (
        "      SUBROUTINE S(K)\n"
        "      IMPLICIT REAL(A-Z)\n"
        "      K = 1\n"
        "      END\n"
    )
    units, model, intents = setup_unit(src, "s.f")
    text = render_unit(wrap_in_module(make_context(units[0], model, intents)))
    lines = [l.strip() for l in text.splitlines()]
    assert lines.count("implicit none") == 1
    assert "IMPLICIT REAL(A-Z)" in text  # quoted inside the traceability comment
    assert "real, intent(out) :: k" in text


def test_a_subroutine_that_calls_itself_is_recursive():
    # Fortran 2008 lets only a recursive procedure invoke itself
    src = ("      SUBROUTINE S(N)\n      INTEGER N\n      IF (N .GT. 0) CALL S(N - 1)\n      END\n"
           "      SUBROUTINE T(N)\n      INTEGER N\n      CALL S(N)\n      END\n")
    units, model, intents = setup_unit(src, "s.f")
    texts = [render_unit(wrap_in_module(make_context(unit, model, intents))) for unit in units]
    assert "\n  recursive subroutine s(n)\n" in texts[0]
    assert "    if (n .gt. 0) call s(n - 1)\n" in texts[0]
    assert "\n  subroutine t(n)\n" in texts[1]


def test_internal_external_removed_true_external_gets_interface():
    src = (
        "      SUBROUTINE HELPER(X)\n"
        "      INTEGER X\n"
        "      X = 1\n"
        "      END\n"
        "      SUBROUTINE S(Y)\n"
        "      INTEGER Y\n"
        "      EXTERNAL HELPER, OUTSIDE\n"
        "      CALL HELPER(Y)\n"
        "      CALL OUTSIDE(Y, Y)\n"
        "      END\n"
    )
    units, model, intents = setup_unit(src, "s.f", catalog={"outside": ["in", "out"]})
    unit = [u for u in units if u.name == "s"][0]
    text = render_unit(wrap_in_module(make_context(unit, model, intents)))
    assert "removed (routine is module-resident): external helper" in text
    assert "interface" in text
    assert "subroutine outside(arg1, arg2)" in text
    assert "real, intent(in) :: arg1" in text
    assert "real, intent(out) :: arg2" in text
    assert "use helper_mod" in text


def test_goto_common_and_equivalence_pass_through():
    src = (
        "      SUBROUTINE S(X)\n"
        "      INTEGER X\n"
        "      COMMON /BLK/ A, B\n"
        "      EQUIVALENCE (A, B)\n"
        "      GOTO 10\n"
        " 10   CONTINUE\n"
        "      END\n"
    )
    units, model, intents = setup_unit(src, "s.f")
    text = render_unit(wrap_in_module(make_context(units[0], model, intents)))
    assert re.search(r"common\s*/\s*blk\s*/\s*a, b", text)
    assert "equivalence" in text
    assert "goto 10" in text
    assert "10 continue" in text
    assert "blk" not in [l.split()[-1] for l in text.splitlines() if "::" in l]


# --- segment module synthesis -----------------------------------------------


def listing_segment():
    units, model, _ = setup_unit()
    return model.segments["user"]


def test_derived_type_matches_listing_structure():
    text = render_unit(migrate_segment(listing_segment()))
    block = re.search(
        r"type, extends\(segment\) :: user\n(.*?)end type user", text, re.S
    )
    assert block is not None
    lines = [l.strip() for l in block.group(1).splitlines() if l.strip()]
    assert lines[0] == "integer, private :: ubbcnt = 0"
    assert lines[1] == "character(len=40), public :: uname = ''"
    assert lines[2] == "integer, pointer, public :: ubb(:) => null()"
    assert lines[3] == "contains"


def test_segment_module_exports_command_generics():
    text = render_unit(migrate_segment(listing_segment()))
    for generic in ("segini", "segadj", "segsup", "segprt", "segcop", "segmov"):
        assert f"interface {generic}" in text
    assert "interface assignment(=)" in text
    assert "use => for segment pointers" in text


def test_extent_function_truncates_and_rejects_negatives():
    src = (
        "      SUBROUTINE S(P)\n"
        "      SEGMENT, GROW\n      REAL V(N*1.1)\n      END SEGMENT\n"
        "      POINTEUR P.GROW\n"
        "      N = 1\n"
        "      SEGINI, P\n"
        "      END\n"
    )
    _, model, _ = setup_unit(src, "s.f")
    text = render_unit(migrate_segment(model.segments["grow"]))
    assert "extent = int(n * 1.1)" in text
    assert "if (extent < 0) then" in text
    assert "error stop 1" in text


def test_segadj_copies_surviving_elements():
    text = render_unit(migrate_segment(listing_segment()))
    adj = re.search(r"subroutine user_segadj.*?end subroutine user_segadj", text, re.S)
    body = adj.group(0)
    assert "n1 = min(size(p%ubb, dim=1), size(new_ubb, dim=1))" in body
    assert "new_ubb(1:n1) = p%ubb(1:n1)" in body
    assert "p%ubb => new_ubb" in body


def test_seg_store_is_a_halting_stub():
    text = render_unit(migrate_segment(listing_segment()))
    store = re.search(r"subroutine user_seg_store.*?end subroutine", text, re.S)
    assert "not implemented" in store.group(0)
    assert "error stop 1" in store.group(0)


def test_support_modules():
    files = dict(generate_support_modules())
    abstract = render_unit(files["segment_mod.f90"])
    for deferred in ("segsup", "segcop", "segmov", "segprt", "seg_store", "seg_type"):
        assert f"procedure(abstract_{deferred}), deferred :: {deferred}" in abstract
    registry = render_unit(files["segment_registry_mod.f90"])
    for op in ("seg_register", "seg_lookup", "seg_release"):
        assert op in registry
    assert "in_use" in registry


def test_template_expansion_leaves_no_placeholders():
    text = render_unit(migrate_segment(listing_segment()))
    assert not re.search(r"\{\d+\}", text)


# --- whole-unit wrapping ----------------------------------------------------


def test_migration_is_out_of_place():
    units, model = load_units(
        RunConfig(src=BOOKSTORE, intent_catalog=BOOKSTORE_INTENTS), discover_sources(BOOKSTORE))
    snapshot = copy.deepcopy(units)
    intents = analysis.infer_intents(model)
    assert migrate_project(units, model, intents).ok
    assert len(units) == len(snapshot)
    for unit, before in zip(units, snapshot):
        assert unit == before, unit.name


def test_function_wrapping_declares_result_type():
    src = (
        "      REAL FUNCTION HALF(X)\n"
        "      REAL X\n"
        "      HALF = X / 2\n"
        "      END\n"
    )
    units, model, intents = setup_unit(src, "half.f")
    text = render_unit(wrap_in_module(make_context(units[0], model, intents)))
    assert "function half(x)" in text
    assert "real :: half" in text
    assert "end function half" in text
    assert "module half_mod" in text


def migrated_files(**sources):
    units = [u for name, src in sources.items() for u in parse_source(src, f"{name}.f")]
    model = build_project_model(units)
    result = migrate_project(units, model, analysis.infer_intents(model))
    assert result.ok, result
    return dict(result.outputs)


def test_a_sized_type_keeps_its_precision_at_every_site():
    files = migrated_files(s=(
        "      SUBROUTINE S(A, B, N)\n      IMPLICIT REAL*8 (O-Z)\n      REAL*8 A\n"
        "      REAL*4 B\n      INTEGER*4 N\n      SEGMENT, SEG\n      REAL*8 V(N)\n"
        "      END SEGMENT\n      A = B + N\n      Q = A\n      END\n"
        "      CHARACTER * 8 FUNCTION G(X)\n      G = 'A'\n      END\n"
        "      REAL*8 FUNCTION H(X)\n      H = X\n      END\n"))
    lines = {line.strip() for text in files.values() for line in text.splitlines()}
    assert {"double precision, intent(out) :: a", "real, intent(in) :: b",
            "integer, intent(in) :: n", "double precision :: q",
            "double precision, pointer, public :: v(:) => null()",
            "character(len=8) :: g", "double precision :: h"} <= lines


@pytest.mark.parametrize("external", ["", "      EXTERNAL TWICE\n"], ids=["typed", "external"])
def test_a_caller_that_types_a_project_function_uses_its_module(external):
    files = migrated_files(
        twice="      INTEGER FUNCTION TWICE(K)\n      TWICE = 2*K\n      END\n",
        use2="      SUBROUTINE USE2(N, M)\n      INTEGER TWICE\n" + external +
        "      M = TWICE(N)\n      END\n")
    lines = [line.strip() for line in files["use2.f90"].splitlines()]
    assert "use twice_mod" in lines
    assert not any(re.match(r"integer\b.*::.*\btwice\b", line) for line in lines)
    assert undeclared_references(files) == []


def test_a_function_s_own_type_statement_declares_its_result():
    files = migrated_files(fact=
        "      INTEGER FUNCTION FACT(K)\n      INTEGER FACT\n      FACT = 1\n"
        "      IF (K .GT. 1) FACT = K*FACT(K-1)\n      END\n")
    lines = [line.strip() for line in files["fact.f90"].splitlines()]
    assert "integer :: fact" in lines and not any(l.startswith("use ") for l in lines)


def test_lines_outside_every_unit_are_kept_in_source_order():
    src = ("#ifdef FAST\nC lead\n      SUBROUTINE A(X)\n      X = 1\n      END\n"
           "#endif\nC trailing note\n")
    units, model, intents = setup_unit(src, "a.f")
    text = dict(migrate_project(units, model, intents).outputs)["a.f90"]
    lines = text.splitlines()
    kept = [l for l in lines if l.startswith("#") or "lead" in l or "trailing" in l]
    assert kept == ["#ifdef FAST", "    ! lead", "#endif", "    ! trailing note"]
    assert lines.index("#endif") > lines.index("    x = 1")

def test_rendered_unit_is_deterministic():
    units, model, intents = setup_unit()
    one = render_unit(wrap_in_module(make_context(units[0], model, intents)))
    units2, model2, intents2 = setup_unit()
    two = render_unit(wrap_in_module(make_context(units2[0], model2, intents2)))
    assert one == two


def test_migrate_project_counts_and_failure_purity(tmp_path):
    units, model, intents = setup_unit()
    result = migrate_project(units, model, intents)
    assert result.ok
    names = [n for n, _ in result.outputs]
    assert names == [
        "newuser.f90", "user_mod.f90", "segment_mod.f90", "segment_registry_mod.f90",
    ]
    stats = result.stats[0]
    assert stats.rewritten > 0 and stats.passthrough > 0

    # a failing unit yields no outputs at all
    bad = parse_source(
        "      SUBROUTINE BAD(P)\n      SEGINI, P\n      END\n", "bad.f"
    )
    bad_model = build_project_model(bad)
    bad_result = migrate_project(bad, bad_model, {})
    assert not bad_result.ok
    assert bad_result.outputs == []


def test_negative_pointer_diagnostic():
    src = (
        "      SUBROUTINE S(P)\n"
        "      SEGMENT, A\n      INTEGER V(N)\n      END SEGMENT\n"
        "      POINTEUR P.A\n"
        "      P = -1\n"
        "      IF (P .EQ. -1) RETURN\n"
        "      END\n"
    )
    units, model, _ = setup_unit(src, "s.f")
    warnings = negative_pointer_uses(units[0], model)
    assert len(warnings) == 2
    assert all("'p'" in w for w in warnings)

    clean = parse_source(
        "      SUBROUTINE T(X)\n      X = -1\n      END\n", "t.f"
    )
    assert negative_pointer_uses(clean[0], build_project_model(clean)) == []


@pytest.mark.parametrize("header, decl", [
    ("CHARACTER*(*) FUNCTION H(X)", "CHARACTER*(*) X"),
    ("FUNCTION H(X)", "CHARACTER*(*) H, X"),
], ids=["header", "type statement"])
def test_an_assumed_length_function_result_is_an_error_at_the_unit(header, decl):
    # only an external function may have one, and the output is a module procedure
    src = f"      {header}\n      {decl}\n      H = X\n      END\n"
    units, model, intents = setup_unit(src, "h.f")
    assert migrate_project(units, model, intents).errors == [
        "h.f:1:1: assumed-length result of function 'h'"]


def test_an_assumed_length_dummy_of_a_function_migrates():
    src = "      CHARACTER*8 FUNCTION H(X)\n      CHARACTER*(*) X\n      H = X\n      END\n"
    units, model, intents = setup_unit(src, "h.f")
    assert migrate_project(units, model, intents).ok


# Statements that set pointers (P, Q and the default pointer SEG), plain
# variables and expressions against negative literals: in assignments, under
# guards, as call arguments and in opaque IFs and DOs.  With no dotted access
# and no slash-dim, the record's names agree with the frozen flat scan.
_NEG_NAME = st.sampled_from(["P", "Q", "SEG", "X", "K"])
_NEG_ATOM = st.one_of(_NEG_NAME, st.sampled_from(
    ["-1", "- 2", "-12", "1", "-K", "-P", "(-1)", "F(P)", "A(-1)", "2.5"]))
_NEG_EXPR = st.one_of(_NEG_ATOM, st.builds("{} {} {}".format, _NEG_ATOM, st.sampled_from(
    [".EQ.", ".NE.", ".LT.", ".LE.", ".GT.", ".GE.", "+", "-", "*", ".AND."]), _NEG_ATOM))
_NEG_ARGS = st.lists(_NEG_EXPR, min_size=1, max_size=3).map(", ".join)
_NEG_STATEMENT = st.one_of(
    st.builds("{} = {}".format, st.one_of(_NEG_NAME, st.just("A(K)")), _NEG_EXPR),
    st.builds("IF ({}) {} = {}".format, _NEG_EXPR, _NEG_NAME, _NEG_EXPR),
    st.builds("IF ({}) CALL F({})".format, _NEG_EXPR, _NEG_ARGS),
    st.builds("CALL F({})".format, _NEG_ARGS),
    st.builds("IF ({}) THEN".format, _NEG_EXPR),
    st.builds("IF ({}) RETURN".format, _NEG_EXPR),
    st.builds("DO 10 {} = {}, N".format, _NEG_NAME, _NEG_ATOM),
)

HANDLE_UNIT = """\
      SUBROUTINE S(P, Q, I, A, X)
      SEGMENT, SEG
      INTEGER V(N)
      END SEGMENT
      POINTEUR P.SEG, Q.SEG, I.SEG, A.SEG
{}
      END
"""


def negative_uses(*statements):
    """The warnings of the live and the frozen scan on ``HANDLE_UNIT``; a
    statement longer than 60 characters goes on continuation cards."""
    cards = []
    for statement in statements:
        parts = [statement[i:i + 60] for i in range(0, len(statement), 60)]
        cards += ["      " + parts[0]] + ["     &" + part for part in parts[1:]]
    units = parse_source(HANDLE_UNIT.format("\n".join(cards)), "s.f")
    model = build_project_model(units)
    return negative_pointer_uses(units[0], model), frozen_negative_pointer_uses(units[0], model)


@settings(max_examples=300, deadline=None)
@given(st.lists(_NEG_STATEMENT, min_size=1, max_size=6))
def test_negative_pointer_uses_agree_with_frozen_scan(statements):
    live, frozen = negative_uses(*statements)
    assert set(live) == set(frozen)
    assert len(live) == len(set(live))


def warned(line, pointer):
    return f"s.f:{line}:1: pointer {pointer!r} used with a negative literal"


@pytest.mark.parametrize("statement", ["IF (P.V .EQ. -1) RETURN", "P.V = -1"])
def test_a_field_value_against_a_negative_literal_is_no_pointer_use(statement):
    assert negative_uses(statement) == ([], [warned(6, "p")])


def test_a_subscript_of_a_field_is_not_next_to_the_comparison():
    assert negative_uses("IF (P.V(I) .EQ. -1) RETURN") == ([], [warned(6, "i")])
    # a subscript is scanned at its own level
    assert negative_uses("X = P.V(I .EQ. -1)") == ([warned(6, "i")], [warned(6, "i")])


def test_an_extent_against_a_negative_literal_is_no_pointer_use():
    assert negative_uses("IF (A(/1) .EQ. -1) RETURN") == ([], [warned(6, "a")])


def test_each_pointer_is_warned_once_per_statement_in_name_order():
    live, frozen = negative_uses("IF (Q .EQ. -1 .OR. P .LT. -2 .OR. Q .GT. -3) RETURN")
    assert live == [warned(6, "p"), warned(6, "q")]
    assert frozen == [warned(6, "q"), warned(6, "p"), warned(6, "q")]


def test_a_repeated_statement_is_reported_at_each_of_its_lines():
    # one node serves both lines; each report names its own
    live, _ = negative_uses("IF (P .EQ. -1) RETURN", "X = 1", "IF (P .EQ. -1) RETURN")
    assert live == [warned(6, "p"), warned(8, "p")]
    src = ("      SUBROUTINE A\n      SEGINI, P\n      END\n"
           "      SUBROUTINE B\n      X = 1\n      SEGINI, P\n      END\n")
    units, model, intents = setup_unit(src, "s.f")
    assert units[0].body[0] is units[1].body[1]
    errors = []
    for unit in units:
        with pytest.raises(MigrationError) as caught:
            wrap_in_module(make_context(unit, model, intents))
        errors.append(str(caught.value))
    assert errors == [f"s.f:{line}:1: segini target 'p' is not a declared pointer"
                      for line in (2, 6)]


class CountingBody(list):
    """A unit body that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_each_unit_body_is_scanned_at_most_twice(tmp_path, monkeypatch, capsys):
    bodies = {}
    resolve = cli.resolve_includes

    def counting_resolve(unit, cache):
        resolved = resolve(unit, cache)
        bodies[unit.name] = CountingBody(resolved.body)
        return dataclasses.replace(resolved, body=bodies[unit.name])

    summaries = Counter()
    summarize = cli.summarize_unit

    def counting_summarize(unit, *events):
        summaries[unit.name] += 1
        return summarize(unit, *events)

    monkeypatch.setattr(cli, "resolve_includes", counting_resolve)
    monkeypatch.setattr(cli, "summarize_unit", counting_summarize)
    argv = ["migrate", "--src", str(BOOKSTORE), "--out", str(tmp_path / "out"),
            "--intent-catalog", str(BOOKSTORE_INTENTS)]
    assert main(argv) == 0
    capsys.readouterr()
    scans = {name: body.iterations for name, body in bodies.items()}
    assert max(scans.values()) <= 2, scans  # the model, then the rewrite
    assert summaries == Counter(dict.fromkeys(bodies, 1))


class CountingEdges(list):
    """A call graph that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def call_graph_scans(n):
    src = "".join(
        f"      SUBROUTINE S{i}(X)\n      EXTERNAL LOGX\n      CALL LOGX(X)\n      END\n"
        for i in range(n)
    )
    units = parse_source(src, "logx.f")
    model = build_project_model(units)
    model.call_graph = edges = CountingEdges(model.call_graph)
    result = migrate_project(units, model, analysis.infer_intents(model))
    assert result.ok
    assert result.outputs[0][1].count("subroutine logx(arg1)") == n
    return edges.iterations


def test_interface_blocks_do_not_rescan_the_call_graph():
    assert call_graph_scans(40) == call_graph_scans(5)
