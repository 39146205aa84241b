"""Project model construction and queries."""

from dataclasses import replace

import pytest

from segmigrate.errors import MigrationError
from segmigrate.frontend.parser import parse_source
from segmigrate.model import (
    FieldDef,
    SegmentDefinition,
    build_project_model,
    dump_model,
    register_segment,
)
from segmigrate.transform import make_context

PROJECT = """\
      SUBROUTINE ALPHA(X, Y)
      INTEGER X, Y
      CALL BETA(X)
      CALL MISSING(Y)
      END
      SUBROUTINE BETA(N)
      INTEGER N
      SEGMENT, REC
        INTEGER VAL(N)
      END SEGMENT
      POINTEUR P.REC
      N = N + 1
      END
      INTEGER FUNCTION GAMMA(N)
      INTEGER N
      GAMMA = N
      END
"""


def build():
    return build_project_model(parse_source(PROJECT, "proj.f"))


def test_units_and_kinds_collected():
    model = build()
    assert set(model.units) == {"alpha", "beta", "gamma"}
    assert model.units["alpha"].kind == "subroutine"
    assert model.units["gamma"].kind == "function"
    assert model.functions().keys() == {"gamma"}


def test_call_edges_with_external_flag():
    model = build()
    from_alpha = [e for e in model.call_graph if e.caller == "alpha"]
    edges = {(e.callee, e.external) for e in from_alpha}
    assert edges == {("beta", False), ("missing", True)}
    assert from_alpha[0].arg_count == 1
    assert model.arg_counts("beta") == {1} and model.arg_counts("alpha") == set()


def test_segments_registered_from_unit_bodies():
    model = build()
    assert set(model.segments) == {"rec"}
    assert model.units["beta"].segments_in_scope == ["rec"]


def test_duplicate_unit_is_an_error():
    units = parse_source(PROJECT, "a.f") + parse_source(PROJECT, "b.f")
    with pytest.raises(MigrationError):
        build_project_model(units)


def test_duplicate_segment_is_an_error():
    model = build()
    with pytest.raises(MigrationError):
        register_segment(
            model, SegmentDefinition("rec", [FieldDef("v", "integer")], [])
        )


def make_segment(name, fields):
    return SegmentDefinition(name, [FieldDef(f, "integer") for f in fields], [])


def beta_seeing(model, scope):
    """The rewrite context of unit beta with segments ``scope`` in scope."""
    model.units["beta"] = replace(model.units["beta"], segments_in_scope=scope)
    beta = next(u for u in parse_source(PROJECT, "proj.f") if u.name == "beta")
    return make_context(beta, model, {})


def test_segment_for_field_resolution():
    model = build()
    register_segment(model, make_segment("other", ["weight"]))
    ctx = beta_seeing(model, ["rec", "other"])
    assert ctx.names.owners == {"val": ("rec",), "weight": ("other",)}
    assert ctx.resolve_field("val") == "rec"
    with pytest.raises(MigrationError, match="bare field 'nowhere' matches no in-scope segment"):
        ctx.resolve_field("nowhere")


def test_segment_for_field_ambiguity_is_an_error():
    model = build()
    register_segment(model, make_segment("a1", ["shared"]))
    register_segment(model, make_segment("a2", ["shared"]))
    ctx = beta_seeing(model, ["a2", "a1"])
    assert ctx.names.owners == {"shared": ("a2", "a1")}
    with pytest.raises(MigrationError,
                       match="'shared' is owned by several in-scope segments: a1, a2"):
        ctx.resolve_field("shared")


def test_dump_model_is_line_oriented_and_sorted():
    model = build()
    lines = dump_model(model).splitlines()
    unit_names = [l.split("\t")[2] for l in lines if l.startswith("unit\t")]
    assert unit_names == sorted(unit_names)
    assert "unit\tsubroutine\talpha\tproj.f" in lines
    assert any(l.startswith("segment\trec") for l in lines)
    assert "call\talpha\tmissing\t1\texternal" in lines


def test_esope_statement_census():
    src = (
        "      SUBROUTINE S(P)\n"
        "      SEGMENT, A\n      INTEGER V(N)\n      END SEGMENT\n"
        "      POINTEUR P.A\n"
        "      N = 1\n"
        "      SEGINI, P\n"
        "      SEGPRT, P\n"
        "      SEGSUP, P\n"
        "      END\n"
    )
    model = build_project_model(parse_source(src, "s.f"))
    assert model.units["s"].esope_statements == ["segini", "segprt", "segsup"]
