"""Rendering, line wrapping, and atomic file output."""

import os
import re

import pytest

from segmigrate import target as T
from segmigrate.emit import RenderConfig, expand_template, render_unit, write_tree
from segmigrate.errors import MigrationError


def stmt(text):
    return T.TargetNode(T.STATEMENT, text)


def simple_module():
    return T.TargetNode(
        T.MODULE,
        "module demo_mod",
        footer="end module demo_mod",
        children=[
            stmt("implicit none"),
            T.TargetNode(T.CONTAINS, ""),
            T.TargetNode(
                T.PROCEDURE,
                "subroutine go(x)",
                footer="end subroutine go",
                children=[stmt("integer, intent(inout) :: x"), stmt("x = x + 1")],
            ),
        ],
    )


def test_render_indents_by_nesting_depth():
    text = render_unit(simple_module())
    assert text == (
        "module demo_mod\n"
        "  implicit none\n"
        "contains\n"
        "  subroutine go(x)\n"
        "    integer, intent(inout) :: x\n"
        "    x = x + 1\n"
        "  end subroutine go\n"
        "end module demo_mod\n"
    )


def test_indent_width_is_configurable():
    text = render_unit(simple_module(), RenderConfig(indent_width=4))
    assert "    implicit none\n" in text
    assert "        integer, intent(inout) :: x\n" in text


def test_comment_and_blank_rendering():
    tree = T.TargetNode(
        T.FILE,
        "",
        children=[
            T.TargetNode(T.COMMENT, "a note"),
            T.TargetNode(T.COMMENT, ""),
            T.TargetNode(T.DIRECTIVE, "#include \"x.h\""),
        ],
    )
    assert render_unit(tree) == "! a note\n\n#include \"x.h\"\n"


def test_directive_stays_in_column_one():
    tree = T.TargetNode(
        T.MODULE,
        "module m",
        footer="end module m",
        children=[T.TargetNode(T.DIRECTIVE, "#define N 4")],
    )
    assert "\n#define N 4\n" in render_unit(tree)


def test_render_is_deterministic():
    assert render_unit(simple_module()) == render_unit(simple_module())


def test_config_validation():
    with pytest.raises(MigrationError):
        RenderConfig(indent_width=0)
    with pytest.raises(MigrationError):
        RenderConfig(max_line_length=40)


# --- templates --------------------------------------------------------------


def test_template_expansion_reindents():
    node = T.TemplateNode("if (n < 0) then\n  call fix(n)\nend if\n")
    assert expand_template(node, 2, RenderConfig()) == [
        "    if (n < 0) then",
        "      call fix(n)",
        "    end if",
    ]


def test_template_depth_shift_equivariance():
    node = T.TemplateNode("a = 1\nif (a > 0) then\n  b = a\nend if\n")
    cfg = RenderConfig()
    shallow = expand_template(node, 1, cfg)
    deep = expand_template(node, 3, cfg)
    shift = " " * (cfg.indent_width * 2)
    assert deep == [shift + line for line in shallow]


# --- line wrapping ----------------------------------------------------------


def free_form_tokens(text):
    """Crude token stream for wrap round-trips: merge `&` continuations,
    then split on whitespace."""
    logical = []
    for line in text.splitlines():
        line = line.strip()
        if logical and logical[-1].endswith("&"):
            logical[-1] = logical[-1][:-1].rstrip() + " " + line
        else:
            logical.append(line)
    return [l.split() for l in logical]


def test_long_lines_wrap_with_continuation():
    args = ", ".join(f"arg{i}" for i in range(40))
    tree = T.TargetNode(T.FILE, "", children=[stmt(f"call wide({args})")])
    text = render_unit(tree, RenderConfig(max_line_length=72))
    lines = text.splitlines()
    assert len(lines) > 1
    assert all(len(l) <= 72 for l in lines)
    assert all(l.endswith("&") for l in lines[:-1])
    # the wrapped statement re-reads as the original token stream
    assert free_form_tokens(text) == free_form_tokens(f"call wide({args})")


def test_wrapping_never_splits_string_literals():
    literal = "'" + "word " * 30 + "end'"
    tree = T.TargetNode(T.FILE, "", children=[stmt(f"msg = {literal} // tail")])
    text = render_unit(tree, RenderConfig(max_line_length=72))
    joined = "".join(l.rstrip("&").rstrip() for l in text.splitlines())
    assert re.search(r"'(word )+end'", joined)
    for line in text.splitlines():
        assert line.count("'") % 2 == 0 or line.rstrip().endswith("&") is False


def test_short_lines_stay_unwrapped():
    tree = T.TargetNode(T.FILE, "", children=[stmt("x = 1")])
    assert render_unit(tree, RenderConfig(max_line_length=72)) == "x = 1\n"


def test_wrap_is_equivariant_under_indent_depth():
    args = ", ".join(f"a{i}" for i in range(30))
    inner = T.TargetNode(
        T.PROCEDURE, "subroutine s()", footer="end subroutine s",
        children=[stmt(f"call wide({args})")],
    )
    text = render_unit(inner, RenderConfig(max_line_length=80))
    assert free_form_tokens(text)[1] == f"call wide({args})".split()


# --- file output ------------------------------------------------------------


def test_write_tree_round_trip_and_idempotence(tmp_path):
    outputs = [("a.f90", "module a\nend module a\n"), ("b.f90", "program b\nend\n")]
    report = write_tree(outputs, tmp_path)
    assert report.ok
    assert [(os.path.basename(p), n) for p, n in report.files] == [
        ("a.f90", 2), ("b.f90", 2),
    ]
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert write_tree(outputs, tmp_path).ok
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second
    assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())


def test_write_tree_reports_unwritable_target(tmp_path):
    # destination occupied by a non-empty directory: opening it must fail
    (tmp_path / "a.f90" / "inner").mkdir(parents=True)
    (tmp_path / "a.f90" / "inner" / "f").write_text("x")
    report = write_tree([("a.f90", "x\n")], tmp_path)
    assert not report.ok
    assert "a.f90" in report.errors[0]
    assert "1 error(s)" in report.format()


def test_write_report_format_lists_files(tmp_path):
    report = write_tree([("a.f90", "line\n")], tmp_path)
    out = report.format()
    assert "a.f90: 1 lines" in out
    assert "1 file(s) written, 0 error(s)" in out
