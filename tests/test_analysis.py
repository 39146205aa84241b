"""Typing, external-name classification, and intent inference tests."""

import random
import string
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from segmigrate import analysis
from segmigrate.analysis import (
    IN,
    INOUT,
    OUT,
    RoutineSpec,
    classify_external_names,
    compute_uses,
    infer_implicit_types,
    infer_intents,
    load_intent_catalog,
    segments_in_scope,
    solve_intents,
)
from segmigrate.cli import RunConfig, discover_sources, load_units
from segmigrate.errors import MigrationError
from segmigrate.frontend import ast_nodes as A, lexer
from segmigrate.frontend.lexer import read_source, split_logical_lines
from segmigrate.frontend.parser import parse_source
from segmigrate.model import build_project_model, default_implicit_type
from segmigrate.transform import migrate_project, project as transform_project

from helpers import (
    BOOKSTORE,
    BOOKSTORE_INTENTS,
    PLAIN77,
    frozen_call_edges,
    frozen_default_pointer_uses,
    frozen_esope_touch,
    frozen_invoked_names,
    frozen_statement_reference_names,
    frozen_unit_events,
    frozen_unit_summary,
    jacobi_intents,
    oracle_intents,
    random_program,
)


def project(src, file_id="t.f"):
    units = build_project_model(parse_source(src, file_id))
    return parse_source(src, file_id), units


# --- implicit typing --------------------------------------------------------


def test_default_rule_matches_26_letter_oracle():
    # oracle computed directly from the standard's letter ranges
    for letter in string.ascii_lowercase:
        expected = "integer" if "i" <= letter <= "n" else "real"
        assert default_implicit_type(letter) == expected
        assert default_implicit_type(letter.upper() + "var") == expected


def test_implicit_statement_overrides_letters():
    src = (
        "      SUBROUTINE S(X)\n"
        "      IMPLICIT INTEGER(A-C, X), CHARACTER*8(D)\n"
        "      X = 1\n"
        "      END\n"
    )
    _, model = project(src)
    table = model.units["s"].implicit_table
    assert table["a"] == table["b"] == table["c"] == "integer"
    assert table["x"] == "integer"
    assert table["d"] == "character(len=8)"
    assert table["e"] == "real"
    assert table["i"] == "integer"


def test_declared_types_pointer_wins_over_integer():
    src = (
        "      SUBROUTINE S(P)\n"
        "      SEGMENT, A\n      INTEGER V(N)\n      END SEGMENT\n"
        "      INTEGER P\n"
        "      POINTEUR P.A\n"
        "      N = 1\n"
        "      SEGINI, P\n"
        "      END\n"
    )
    _, model = project(src)
    assert model.units["s"].declared["p"] == "type(a), pointer"


def test_every_referenced_symbol_typed_exactly_once():
    src = (
        "      SUBROUTINE S(A, K)\n"
        "      REAL A\n"
        "      DIMENSION B(10)\n"
        "      B(1) = A + K + Z\n"
        "      END\n"
    )
    units, model = project(src)
    out = infer_implicit_types(units[0], model, segments_in_scope(units[0], model))
    symbols = [a.symbol for a in out]
    assert len(symbols) == len(set(symbols))
    assert set(symbols) == {"a", "k", "b", "z"}
    by_symbol = {a.symbol: a for a in out}
    assert by_symbol["a"].inferred_type == "real"
    assert by_symbol["k"].inferred_type == "integer"
    assert by_symbol["b"].origin == analysis.IMPLICIT_RULE
    assert by_symbol["z"].inferred_type == "real"


def test_variable_also_called_is_an_error():
    src = (
        "      SUBROUTINE S(X)\n"
        "      INTEGER FOO\n"
        "      FOO = 1\n"
        "      CALL FOO(X)\n"
        "      END\n"
    )
    units, model = project(src)
    with pytest.raises(MigrationError) as err:
        infer_implicit_types(units[0], model, segments_in_scope(units[0], model))
    assert "foo" in str(err.value)


# --- external-name classification -------------------------------------------


def test_classification_of_typed_names():
    src = (
        "      SUBROUTINE S(X)\n"
        "      EXTERNAL HELPER\n"
        "      INTEGER FN\n"
        "      REAL ARR(5)\n"
        "      INTEGER PLAIN\n"
        "      PLAIN = FN(X) + ARR(1)\n"
        "      END\n"
    )
    units, model = project(src)
    out = classify_external_names(units[0], model)
    assert out["helper"] == analysis.EXTERNAL_ROUTINE_DECL
    assert out["fn"] == analysis.RETURN_TYPE_DECL
    assert out["arr"] == analysis.PLAIN_VARIABLE_DECL
    assert out["plain"] == analysis.PLAIN_VARIABLE_DECL


def test_assigned_and_invoked_is_an_error():
    src = (
        "      SUBROUTINE S(X)\n"
        "      INTEGER FN\n"
        "      FN = 1\n"
        "      X = FN(2)\n"
        "      END\n"
    )
    units, model = project(src)
    with pytest.raises(MigrationError):
        classify_external_names(units[0], model)


# --- intent inference -------------------------------------------------------


def solve_one(events, nparams=1):
    spec = RoutineSpec(params=[f"p{i}" for i in range(nparams)], events=events)
    return solve_intents({"s": spec}, {})


def test_first_access_classification():
    assert solve_one([("r", "p0")])[("s", 0)] == IN
    assert solve_one([("w", "p0")])[("s", 0)] == OUT
    assert solve_one([("r", "p0"), ("w", "p0")])[("s", 0)] == INOUT
    assert solve_one([("w", "p0"), ("r", "p0")])[("s", 0)] == OUT
    assert solve_one([])[("s", 0)] == INOUT  # untouched: by-reference default


def test_forwarding_inherits_callee_intent():
    routines = {
        "top": RoutineSpec(["x"], [("f", "mid", 0, "x")]),
        "mid": RoutineSpec(["y"], [("f", "leaf", 0, "y")]),
        "leaf": RoutineSpec(["z"], [("r", "z")]),
    }
    table = solve_intents(routines, {})
    assert table[("leaf", 0)] == IN
    assert table[("mid", 0)] == IN
    assert table[("top", 0)] == IN


def test_forwarding_to_catalog_routine():
    routines = {"top": RoutineSpec(["x"], [("f", "ext", 0, "x")])}
    assert solve_intents(routines, {"ext": ["out"]})[("top", 0)] == OUT
    assert solve_intents(routines, {})[("top", 0)] == INOUT


def test_solution_is_order_independent():
    routines = {
        "a": RoutineSpec(["x"], [("f", "b", 0, "x"), ("w", "x")]),
        "b": RoutineSpec(["y"], [("r", "y")]),
        "c": RoutineSpec(["z"], [("f", "a", 0, "z")]),
    }
    forward = solve_intents(dict(routines), {})
    reversed_order = solve_intents(dict(reversed(list(routines.items()))), {})
    assert forward == reversed_order


def test_intents_from_parsed_source():
    src = (
        "      SUBROUTINE COPY(SRC, DST)\n"
        "      INTEGER SRC, DST\n"
        "      DST = SRC\n"
        "      END\n"
        "      SUBROUTINE TOP(A, B)\n"
        "      INTEGER A, B\n"
        "      CALL COPY(A, B)\n"
        "      END\n"
    )
    units, model = project(src)
    table = infer_intents(model)
    assert table[("copy", 0)] == IN and table[("copy", 1)] == OUT
    assert table[("top", 0)] == IN and table[("top", 1)] == OUT


@pytest.mark.parametrize("command", ["SEGINI", "SEGADJ"])
def test_sizing_a_segment_reads_its_dimensioning_variables(tmp_path, command):
    # the generated call passes UBBCNT to an intent(in) dummy whether the
    # target is the segment's default pointer or a POINTEUR of it
    (tmp_path / "user.seg").write_text((BOOKSTORE / "user.seg").read_text())
    (tmp_path / "bydflt.f").write_text(
        "      SUBROUTINE BYDFLT(UBBCNT)\n"
        '#include "user.seg"\n'
        f"      {command}, USER\n"
        "      UBBCNT = 0\n"
        "      END\n")
    (tmp_path / "byptr.f").write_text(
        "      SUBROUTINE BYPTR(UBBCNT)\n"
        '#include "user.seg"\n'
        "      POINTEUR UR.USER\n"
        f"      {command}, UR\n"
        "      UBBCNT = 0\n"
        "      END\n")
    units, model = load_units(RunConfig(src=tmp_path), discover_sources(tmp_path))
    table = infer_intents(model)
    assert table[("bydflt", 0)] == table[("byptr", 0)] == INOUT
    outputs = dict(migrate_project(units, model, table).outputs)
    assert "real, intent(inout) :: ubbcnt" in outputs["bydflt.f90"]

def test_fixpoint_agrees_with_inlining_oracle():
    rng = random.Random(20260824)
    for _ in range(60):
        routines, catalog = random_program(rng, RoutineSpec)
        assert solve_intents(routines, catalog) == oracle_intents(routines, catalog)


def both_orders(routines):
    return [dict(routines), dict(reversed(list(routines.items())))]


def test_fixpoint_agrees_with_frozen_jacobi_on_recursive_programs():
    # recursion puts the answer on the evaluation schedule, not on an oracle
    rng = random.Random(20261018)
    compared = cycling = 0
    for _ in range(2000):
        routines, catalog = random_program(rng, RoutineSpec, cyclic=True)
        reference = jacobi_intents(routines, catalog)
        table = solve_intents(routines, catalog)
        if reference is None:
            cycling += 1
            assert table.keys() == {
                (n, i) for n, spec in routines.items() for i in range(len(spec.params))
            }
            assert set(table.values()) <= {IN, OUT, INOUT}
        else:
            compared += 1
            assert table == reference
    assert compared >= 1900 and cycling >= 1


def test_recursive_answer_is_the_jacobi_one():
    # in-place re-evaluation after r2 is known would give r3.y = inout
    routines = {
        "r2": RoutineSpec(["x"], [("f", "ext", 0, "x")]),
        "r3": RoutineSpec(["y"], [("f", "r3", 0, "y"), ("f", "r2", 0, "y"), ("w", "y")]),
    }
    for order in both_orders(routines):
        assert solve_intents(order, {}) == {("r2", 0): INOUT, ("r3", 0): OUT}


def test_oscillating_recursion_ends_in_inout():
    # Jacobi alternates (a.y, b.z) between (inout, out) and (out, inout)
    routines = {
        "a": RoutineSpec(["x", "y"], [("f", "b", 0, "y"), ("w", "y")]),
        "b": RoutineSpec(["z"], [("f", "a", 1, "z"), ("r", "z")]),
    }
    assert jacobi_intents(routines, {}) is None
    for order in both_orders(routines):
        assert solve_intents(order, {}) == {("a", 0): INOUT, ("a", 1): INOUT, ("b", 0): INOUT}


def test_solver_work_is_linear_on_a_forwarding_chain(monkeypatch):
    n = 2000
    routines = {
        f"r{k}": RoutineSpec(["a", "b", "c"], [("f", f"r{k + 1}", i, p) for i, p in enumerate("abc")])
        for k in range(n - 1)
    }
    routines[f"r{n - 1}"] = RoutineSpec(
        ["a", "b", "c"], [("r", "a"), ("w", "b"), ("r", "c"), ("w", "c")]
    )
    run_events = analysis._run_events
    runs = 0

    def counting(*args):
        nonlocal runs
        runs += 1
        return run_events(*args)

    monkeypatch.setattr(analysis, "_run_events", counting)
    for order in both_orders(routines):
        runs = 0
        table = solve_intents(order, {})
        assert runs <= 2 * n
        for name in routines:
            assert [table[(name, i)] for i in range(3)] == [IN, OUT, INOUT]


# --- the statement record ---------------------------------------------------


def agrees_with_frozen_walkers(units, model):
    """Each statement's record, each unit's default pointers and the events
    the intent pass hands the solver against the walkers that read the
    streams again."""
    for unit in units:
        scope = {seg.name for seg in segments_in_scope(unit, model)}
        pointers = model.units[unit.name].pointers
        used = set()
        for node in unit.body:
            assert set(node.facts.names) == frozen_statement_reference_names(node), node
            one = SimpleNamespace(body=[node])
            assert set(node.facts.invoked) == frozen_invoked_names(one), node
            assert node.facts.esope == frozen_esope_touch(node), node
            used.update(frozen_default_pointer_uses(node, scope, pointers))
        assert model.units[unit.name].default_pointers == tuple(sorted(used)), unit.name
    with mock.patch.object(analysis, "solve_intents", wraps=analysis.solve_intents) as solve:
        infer_intents(model)
    routines = solve.call_args.args[0]
    assert {name: list(spec.events) for name, spec in routines.items()} == {
        unit.name: frozen_unit_events(unit, model) for unit in units if unit.kind != "program"}


@pytest.mark.parametrize("src,catalog", [(BOOKSTORE, BOOKSTORE_INTENTS), (PLAIN77, None)],
                         ids=["bookstore", "plain77"])
def test_statement_records_agree_with_frozen_walkers_on_goldens(src, catalog):
    agrees_with_frozen_walkers(*load_units(
        RunConfig(src=src, intent_catalog=catalog), discover_sources(src)))


HAND_WRITTEN = """\
      REAL FUNCTION F(K, N)
      COMMON /BLK/ X, BLK
      X = P.F(K)(1:3)
      P.F(A(K)) = X
      F = X + 1
      IF (N .GT. 0) CALL LOGMSG(K, N + 1)
      READ(*,*) A, B(I)
      DO 10 I = 1, N
   10 CONTINUE
      END
"""


def test_statement_records_agree_with_frozen_walkers_by_hand():
    units = parse_source(HAND_WRITTEN, "f.f")
    model = build_project_model(units)
    agrees_with_frozen_walkers(units, model)
    common, dotted, to_field, result, guarded, read, do = units[0].body[:7]
    assert "blk" not in common.facts.names and "x" in common.facts.names
    assert dotted.facts.invoked == () and dotted.facts.pointers == ("p",)  # not k
    assert to_field.facts.invoked == () and to_field.facts.events[-1] == ("r", "p")
    assert result.facts.events[-1] == ("w", "f")
    assert ("w", "f") not in model.units["f"].events
    assert model.units["f"].assigned == ("a", "b", "i", "x")  # not the result f
    assert guarded.facts.events == (("r", "n"), ("f", "logmsg", 0, "k"), ("r", "n"))
    assert read.facts.events == (("w", "a"), ("r", "i"), ("w", "b"))
    assert read.facts.invoked == ("b", "read")
    assert do.facts.events == (("r", "n"), ("w", "i"))


# Routines in the shapes of ``random_program``: reads, writes and forwards of
# their dummies to later routines and to an external, written as source.
_NAME = st.sampled_from(["p0", "p1", "p2", "x", "k", "n", "r0"])
_ATOM = st.one_of(
    _NAME, st.sampled_from(["1", "2.5", "'s'", "a(/1)", "q.g", "max(k, 1)"]),
    st.builds("f({})".format, _NAME), st.builds("a({})".format, _NAME),
    st.builds("p.f({})(1:3)".format, _NAME),
)
_EXPR = st.lists(_ATOM, min_size=1, max_size=3).map(" + ".join)
_ARGS = st.lists(st.one_of(_NAME, _EXPR), max_size=3).map(", ".join)
_TARGET = st.one_of(_NAME, st.sampled_from(["a(k)", "p.f(k)", "p.f(a(k))", "q.g", "a(k)(1:2)"]))
_CALLEE = st.sampled_from(["r1", "r2", "ext0"])
_STATEMENT = st.one_of(
    st.builds("{} = {}".format, _TARGET, _EXPR),
    st.builds("CALL {}({})".format, _CALLEE, _ARGS),
    st.builds("IF ({} .GT. 0) {} = {}".format, _EXPR, _TARGET, _EXPR),
    st.builds("IF ({} .GT. 0) CALL {}({})".format, _EXPR, _CALLEE, _ARGS),
    st.builds("IF ({} .GT. 0) WRITE(*,*) {}".format, _EXPR, _ARGS),
    st.builds("IF ({}) THEN".format, _EXPR),
    st.builds("READ(*,*) {}".format, st.lists(
        st.sampled_from(["x", "p0", "b(i)", "p.f", "q.g(k)", "(a(i), i = 1, n)"]),
        min_size=1, max_size=3).map(", ".join)),
    st.builds("WRITE(*,*) {}".format, _ARGS),
    st.builds("PRINT *, {}".format, _EXPR),
    st.builds("DO 10 {} = 1, {}".format, st.sampled_from(["i", "p1", "k"]), _EXPR),
    st.sampled_from(["10 CONTINUE", "END IF", "COMMON /blk/ x, blk", "RETURN", "GO TO 10"]),
)
_UNIT = st.tuples(st.sampled_from(["SUBROUTINE", "FUNCTION"]),
                  st.lists(st.sampled_from(["p0", "p1", "p2"]), max_size=3, unique=True),
                  st.lists(_STATEMENT, max_size=8))


def _cards(statement):
    label, _, rest = statement.partition(" ")
    if label.isdigit():
        return [f"{label:>5} {rest}"]
    cards = [statement[i:i + 60] for i in range(0, len(statement), 60)]
    return ["      " + cards[0]] + ["     &" + card for card in cards[1:]]


@settings(max_examples=150, deadline=None)
@given(st.lists(_UNIT, min_size=1, max_size=3))
def test_statement_records_agree_with_frozen_walkers_on_random_programs(shapes):
    lines = []
    for i, (kind, params, statements) in enumerate(shapes):
        lines.append(f"      {kind} r{i}({', '.join(params)})")
        for statement in statements:
            lines += _cards(statement)
        lines.append("      END")
    units = parse_source("\n".join(lines) + "\n", "r.f")
    agrees_with_frozen_walkers(units, build_project_model(units))


def test_each_statement_is_walked_once(monkeypatch):
    """One walk per distinct statement text of a range; a repeat shares the
    first node's record, and no stream is walked after ``load_units``."""
    build = A.statement_facts
    walked = []

    def counting(node):
        walked.append(node)
        return build(node)

    def walking(*args):
        raise AssertionError("a token stream was walked after load_units")

    monkeypatch.setattr(A, "statement_facts", counting)
    units, model = load_units(
        RunConfig(src=BOOKSTORE, intent_catalog=BOOKSTORE_INTENTS), discover_sources(BOOKSTORE))
    for module, name in ((lexer, "walk_tokens"), (transform_project, "walk_tokens"),
                         (A, "stream_names"), (A, "_walk")):
        monkeypatch.setattr(module, name, walking)
    intents = infer_intents(model)
    assert migrate_project(units, model, intents).ok
    monkeypatch.undo()

    texts = {}  # (file, line) -> text of the statement starting there
    for file_id in {node.span.file_id for unit in units for node in unit.body}:
        for line in split_logical_lines(read_source(Path(file_id)), file_id):
            texts[file_id, line.span.start_line] = line.text.strip()

    def text(node):
        return texts[node.span.file_id, node.span.start_line]

    def statements(nodes):
        return [node for node in nodes if not isinstance(
            node, (A.CommentNode, A.DirectiveNode, A.IncludeNode, A.SegmentDefNode))]

    in_bodies = statements(node for unit in units for node in unit.body)
    walked = [text(node) for node in statements(walked)]
    assert sorted(walked) == sorted({text(node) for node in in_bodies})
    assert len(in_bodies) > len(walked)  # some statements repeat
    for unit in units:
        for node in unit.body:
            assert node.facts is build(node), node


# --- the unit summary -------------------------------------------------------


def summaries_agree_with_frozen_scanners(units, model):
    """Every field of each unit's summary, and the call graph, against the
    scanners that read the unit's body again for each fact."""
    for unit in units:
        summary = model.units[unit.name]
        got = {f.name: getattr(summary, f.name) for f in fields(summary)}
        # the events and the default pointers: see agrees_with_frozen_walkers
        del got["events"], got["default_pointers"]
        assert got == frozen_unit_summary(unit), unit.name
    edges = [(e.caller, e.callee, e.arg_count, e.external) for e in model.call_graph]
    assert edges == frozen_call_edges(units)


@pytest.mark.parametrize("src,catalog", [(BOOKSTORE, BOOKSTORE_INTENTS), (PLAIN77, None)],
                         ids=["bookstore", "plain77"])
def test_unit_summaries_agree_with_frozen_scanners_on_goldens(src, catalog):
    summaries_agree_with_frozen_scanners(*load_units(
        RunConfig(src=src, intent_catalog=catalog), discover_sources(src)))


# Declarations for the ``random_program`` shapes; ``@`` is the unit's segment.
_DECLARATION = st.one_of(
    st.builds("{} {}".format,
              st.sampled_from(["INTEGER", "REAL", "LOGICAL", "CHARACTER", "CHARACTER*8",
                               "DOUBLE PRECISION"]),
              st.lists(st.sampled_from(["p0", "x", "k", "f", "r0", "p", "a(n)", "b(10, k)"]),
                       min_size=1, max_size=3, unique=True).map(", ".join)),
    st.builds("DIMENSION {}".format, st.sampled_from(["a(n)", "b(10), x(2)"])),
    st.builds("EXTERNAL {}".format, st.sampled_from(["ext0", "r1, f"])),
    st.sampled_from(["IMPLICIT NONE", "IMPLICIT INTEGER(A-C, X), CHARACTER*4(D)",
                     "IMPLICIT REAL(P-R)", "POINTEUR P.@, Q.@", "POINTEUR P.OTHER",
                     "SEGINI, P", "SEGADJ, P", "SEGACT, Q", "SEGDES, P", "SEGINI, P = Q",
                     "SEGSUP, Q", "SEGPRT, P", "SEGINI, @", "SEGADJ, @", "SEGACT, @"]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_UNIT, st.lists(_DECLARATION, max_size=6), st.booleans()),
                min_size=1, max_size=3))
def test_unit_summaries_agree_with_frozen_scanners_on_random_programs(shapes):
    lines = []
    for i, ((kind, params, statements), declarations, segment) in enumerate(shapes):
        lines.append(f"      {kind} r{i}({', '.join(params)})")
        if segment:
            lines += [f"      SEGMENT, S{i}", "        INTEGER V(N)", "      END SEGMENT"]
        for statement in declarations + statements:
            lines += _cards(statement.replace("@", f"S{i}"))
        lines.append("      END")
    units = parse_source("\n".join(lines) + "\n", "r.f")
    model = build_project_model(units)
    summaries_agree_with_frozen_scanners(units, model)
    agrees_with_frozen_walkers(units, model)


def test_units_with_equal_implicit_rules_share_one_table():
    src = "".join(
        f"      SUBROUTINE S{i}(X)\n      IMPLICIT INTEGER(A-Z)\n      X = 1\n      END\n"
        for i in range(3)
    ) + "      SUBROUTINE T(X)\n      X = 1\n      END\n"
    _, model = project(src)
    tables = [model.units[name].implicit_table for name in ("s0", "s1", "s2", "t")]
    assert tables[0] is tables[1] is tables[2]
    assert tables[0]["x"] == "integer" and tables[3]["x"] == "real"


# --- module imports and catalog ---------------------------------------------


def test_compute_uses_sorted_and_checked():
    module_of = {"foo": "foo_mod", "bar": "bar_mod"}
    uses = compute_uses({"foo", "bar", "x"}, {"x"}, module_of, set())
    assert uses == ["bar_mod", "foo_mod"]
    with pytest.raises(MigrationError):
        compute_uses({"ghost"}, set(), module_of, set())
    assert compute_uses({"ghost"}, set(), module_of, {"ghost"}) == []


def test_load_intent_catalog():
    catalog = load_intent_catalog(
        "# comment\nfoo(in, out)\nbar(inout)\nbaz()\n"
    )
    assert catalog == {"foo": ["in", "out"], "bar": ["inout"], "baz": []}
    with pytest.raises(MigrationError):
        load_intent_catalog("foo(in\n")
    with pytest.raises(MigrationError):
        load_intent_catalog("foo(sideways)\n")
