"""Byte-for-byte comparison of migrated fixtures against checked-in goldens.

Determinism tests compare one run with another; these compare a run with
stored output, so they also catch a change that alters the output the same
way on every run.  The goldens are the output of the tool on the fixtures;
regenerate them only for a change that is meant to alter the output.
"""

from pathlib import Path

import pytest

from segmigrate.cli import main

from helpers import BOOKSTORE, BOOKSTORE_INTENTS, FIXTURES, PLAIN77

GOLDEN = FIXTURES / "golden"


def tree_bytes(root: Path):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize(
    "src, extra",
    [(BOOKSTORE, ["--intent-catalog", str(BOOKSTORE_INTENTS)]), (PLAIN77, []),
     # a default pointer used bare, with no dotted access, is declared
     (FIXTURES / "handles", [])],
    ids=["bookstore", "plain77", "handles"],
)
def test_migrated_tree_matches_golden(tmp_path, capsys, src, extra):
    out = tmp_path / "out"
    assert main(["migrate", "--src", str(src), "--out", str(out)] + extra) == 0
    capsys.readouterr()
    expected = tree_bytes(GOLDEN / src.name)
    actual = tree_bytes(out)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_check_report_matches_golden(monkeypatch, capsys):
    # relative --src keeps file names in diagnostics independent of the checkout
    monkeypatch.chdir(FIXTURES)
    assert main(["check", "--src", BOOKSTORE.name]) == 0
    expected = (GOLDEN / "check_bookstore.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_check_warnings_match_golden(monkeypatch, capsys):
    # pointers set against negative literals: an assignment, a guard, a call
    # argument, an opaque IF, a subscript and a default pointer
    monkeypatch.chdir(FIXTURES)
    assert main(["check", "--src", "handles"]) == 0
    expected = (GOLDEN / "check_handles.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_check_diagnostics_match_golden(monkeypatch, capsys):
    # the located format every front-end error keeps, whichever range read it
    monkeypatch.chdir(FIXTURES)
    assert main(["check", "--src", "broken"]) == 1
    expected = (GOLDEN / "check_broken.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().err == expected


def test_dump_model_matches_golden(monkeypatch, capsys):
    # units, segments, call edges with their argument counts, include edges
    monkeypatch.chdir(FIXTURES)
    assert main(["dump-model", "--src", BOOKSTORE.name]) == 0
    expected = (GOLDEN / "dump_bookstore.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_module_clash_matches_golden(monkeypatch, capsys, tmp_path):
    # a routine and a segment that would both be module user_mod
    monkeypatch.chdir(FIXTURES)
    assert main(["migrate", "--src", "clash", "--out", str(tmp_path / "out")]) == 1
    expected = (GOLDEN / "migrate_clash.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().err == expected
    assert list(tmp_path.iterdir()) == []  # no output tree, no staging tree
