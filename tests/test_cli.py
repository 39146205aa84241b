"""End-to-end command line behaviour."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import segmigrate
from segmigrate import cli
from segmigrate.cli import main, parse_config_file
from segmigrate.errors import ConfigError

from helpers import BOOKSTORE, BOOKSTORE_INTENTS, FIXTURES, PLAIN77
from test_golden import GOLDEN, tree_bytes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def migrate_bookstore(tmp_path, capsys, *extra):
    return run(
        capsys,
        "migrate",
        "--src", str(BOOKSTORE),
        "--out", str(tmp_path / "out"),
        "--intent-catalog", str(BOOKSTORE_INTENTS),
        *extra,
    )


def test_migrate_bookstore_succeeds(tmp_path, capsys):
    code, out, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    assert "25 file(s) written, 0 error(s)" in out
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert "bookshop.f90" in written
    assert "user_mod.f90" in written
    assert "segment_mod.f90" in written
    assert "segment_registry_mod.f90" in written
    assert all(p.endswith(".f90") for p in written)


def test_migrate_verbose_prints_per_file_stats(tmp_path, capsys):
    code, out, _ = migrate_bookstore(tmp_path, capsys, "--verbose")
    assert code == 0
    assert "bookshop.f" in out


def test_migrate_rejects_same_src_and_out(capsys):
    code, _, err = run(
        capsys, "migrate", "--src", str(BOOKSTORE), "--out", str(BOOKSTORE)
    )
    assert code == 2
    assert "configuration error" in err


def test_migrate_requires_out(capsys):
    code, _, err = run(capsys, "migrate", "--src", str(BOOKSTORE))
    assert code == 2
    assert "--out" in err


def test_missing_source_directory(tmp_path, capsys):
    code, _, err = run(
        capsys, "migrate",
        "--src", str(tmp_path / "nowhere"), "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert "source directory not found" in err


def test_empty_source_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(
        capsys, "migrate", "--src", str(empty), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert "no source files" in err


def test_parse_failure_exits_one_and_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys, "migrate",
        "--src", str(FIXTURES / "broken"), "--out", str(out_dir),
    )
    assert code == 1
    assert "continuation" in err
    assert not out_dir.exists()


def test_two_sources_with_one_output_name_are_an_error(tmp_path, capsys):
    src, out_dir = tmp_path / "src", tmp_path / "out"
    for sub, name in (("a", "SA"), ("b", "SB")):
        (src / sub).mkdir(parents=True)
        (src / sub / "x.f").write_text(f"      SUBROUTINE {name}\n      END\n")
    (src / "y.f").write_text("      SUBROUTINE SY\n      END\n")
    code, _, err = run(capsys, "migrate", "--src", str(src), "--out", str(out_dir))
    assert code == 1
    errors = [l for l in err.splitlines() if l.startswith("error:")]
    assert errors == [
        f"error: x.f90 would be the output of each of {src / 'a' / 'x.f'}, {src / 'b' / 'x.f'}"]
    assert not out_dir.exists()


def test_a_source_named_like_a_generated_module_is_an_error(tmp_path, capsys):
    src, out_dir = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    (src / "user.seg").write_text((BOOKSTORE / "user.seg").read_text())
    (src / "user_mod.f").write_text("      SUBROUTINE S\n      include 'user.seg'\n      END\n")
    (src / "segment_mod.f").write_text("      SUBROUTINE T\n      END\n")
    code, _, err = run(capsys, "migrate", "--src", str(src), "--out", str(out_dir))
    assert code == 1
    errors = [l for l in err.splitlines() if l.startswith("error:")]
    assert errors == [
        f"error: segment_mod.f90 would be the output of each of {src / 'segment_mod.f'}, "
        "the segment runtime",
        f"error: user_mod.f90 would be the output of each of {src / 'user_mod.f'}, "
        f"{src / 'user.seg'}",
    ]
    assert not out_dir.exists()


def test_every_failing_source_gives_its_own_diagnostic(tmp_path, capsys):
    src, out_dir = tmp_path / "src", tmp_path / "new" / "out"
    src.mkdir()
    (src / "c.f").write_text("      SUBROUTINE C\n      Y = 2\n      X = 'AB\n      END\n")
    (src / "a.f").write_text("     &  X = 1\n      SUBROUTINE A\n      END\n")
    (src / "ok.f").write_text("      SUBROUTINE OK\n      END\n")
    (src / "b.f").write_text("      SUBROUTINE B\n      SEGINI\n      END\n")
    code, out, err = run(capsys, "migrate", "--src", str(src), "--out", str(out_dir))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert lines == [
        f"error: {src / 'a.f'}:1:1: continuation card with no preceding statement",
        f"error: {src / 'b.f'}:2:1: malformed Esope command: 'SEGINI'",
        f"error: {src / 'c.f'}:3:1: unterminated string literal",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["src"]


def output_tmps(out_dir):
    return sorted(p.name for p in out_dir.rglob("*.tmp"))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_temp_files_exist_before_write_tree_starts(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    predicted = sorted(p.stem + ".f90.tmp" for p in cli.discover_sources(BOOKSTORE))
    seen = []
    real_write_tree = cli.write_tree

    def spy(outputs, out):
        seen.append(output_tmps(out))
        return real_write_tree(outputs, out)

    monkeypatch.setattr(cli, "write_tree", spy)
    code, _, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    assert seen == [predicted]
    assert output_tmps(out_dir) == []


def test_no_temp_file_is_left_after_a_successful_migrate(tmp_path, capsys):
    src, out_dir = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    (src / "notes.f").write_text("C     only a comment: no unit, no output\n")
    (src / "main.f").write_text("      PROGRAM MAIN\n      N = 1\n      END\n")
    code, _, err = run(capsys, "migrate", "--src", str(src), "--out", str(out_dir))
    assert code == 0, err
    assert sorted(p.name for p in out_dir.iterdir()) == ["main.f90"]


def test_a_failed_run_leaves_an_existing_output_tree_as_it_was(tmp_path, capsys):
    src, out_dir = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    (src / "orphan.f").write_bytes((FIXTURES / "broken" / "orphan.f").read_bytes())
    (src / "good.f").write_text("      SUBROUTINE GOOD\n      END\n")
    out_dir.mkdir()
    old = b"! written by an earlier run\n"
    (out_dir / "orphan.f90").write_bytes(old)
    code, _, err = run(capsys, "migrate", "--src", str(src), "--out", str(out_dir))
    assert code == 1 and "continuation" in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["orphan.f90"]
    assert (out_dir / "orphan.f90").read_bytes() == old


def test_without_fork_the_output_is_the_same(tmp_path, capsys, monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    code, _, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    assert tree_bytes(tmp_path / "out") == tree_bytes(GOLDEN / "bookstore")


def test_plain_f77_migrates_without_catalog(tmp_path, capsys):
    code, out, err = run(
        capsys, "migrate", "--src", str(PLAIN77), "--out", str(tmp_path / "out")
    )
    assert code == 0, err
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["scale.f90", "stats.f90"]


def test_mutually_recursive_routines_migrate(tmp_path):
    # the intent fixpoint cycles here; it must end, in a subprocess so a
    # hang fails the test instead of stalling the suite
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    (src / "rec.f").write_text(
        "      SUBROUTINE A(X, Y)\n"
        "      INTEGER X, Y\n"
        "      CALL B(Y)\n"
        "      Y = 0\n"
        "      END\n"
        "      SUBROUTINE B(Z)\n"
        "      INTEGER Z, W\n"
        "      CALL A(1, Z)\n"
        "      W = Z\n"
        "      END\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(segmigrate.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "segmigrate.cli", "migrate", "--src", str(src), "--out", str(out)],
        env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    text = (out / "rec.f90").read_text()
    intents = re.findall(r"intent\((\w+)\) :: (\w+)", text)
    assert intents == [("inout", "x"), ("inout", "y"), ("inout", "z")]


def write_accented_project(src):
    src.mkdir()
    (src / "prog.f").write_bytes(
        "C     caf\u00e9 au lait\n"
        "      PROGRAM MAIN\n"
        "      INCLUDE 'defs.inc'\n"
        "      N = 1\n"
        "      END\n".encode("utf-8")
    )
    (src / "defs.inc").write_bytes(
        "C     d\u00e9finitions\n      INTEGER N\n".encode("utf-8")
    )


def test_inputs_are_read_as_utf8_whatever_the_locale(tmp_path):
    src, out = tmp_path / "src", tmp_path / "out"
    write_accented_project(src)
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = str(Path(segmigrate.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "segmigrate.cli", "migrate", "--src", str(src), "--out", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert "caf\u00e9 au lait".encode("utf-8") in (out / "prog.f90").read_bytes()


def test_config_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    root = tmp_path / "donn\u00e9es"
    write_accented_project(root)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("src = donn\u00e9es\nout = sortie\n".encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = str(Path(segmigrate.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "segmigrate.cli", "migrate", "--config", str(cfg)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert (tmp_path / "sortie" / "prog.f90").is_file()


def test_undecodable_config_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"src = donn\xe9es\n")
    code, _, err = run(capsys, "migrate", "--config", str(cfg))
    assert code == 2
    assert "configuration error" in err and "bad.cfg" in err and "utf-8" in err


def test_undecodable_source_names_the_file(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "bad.f").write_bytes(b"C     \xff\n      PROGRAM MAIN\n      END\n")
    code, _, err = run(capsys, "migrate", "--src", str(src), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "bad.f" in err and "utf-8" in err


# --- config files -----------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# migration settings\n"
        f"src = {BOOKSTORE}\n"
        f"out = {tmp_path / 'cfg_out'}\n"
        f"intent_catalog = {BOOKSTORE_INTENTS}\n"
        "indent_width = 4\n"
    )
    code, _, err = run(capsys, "migrate", "--config", str(cfg))
    assert code == 0, err
    text = (tmp_path / "cfg_out" / "user_mod.f90").read_text()
    assert "\n    implicit none\n" in text  # indent_width honoured

    flag_out = tmp_path / "flag_out"
    code, _, _ = run(capsys, "migrate", "--config", str(cfg), "--out", str(flag_out))
    assert code == 0
    assert (flag_out / "user_mod.f90").is_file()


def test_config_unknown_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("colour = blue\n")
    code, _, err = run(capsys, "migrate", "--config", str(cfg))
    assert code == 2
    assert "colour" in err


def test_config_parse_details(tmp_path):
    values = parse_config_file(
        "src = in  # trailing comment\ninclude_path = a\ninclude_path = b\nverbose = yes\n",
        tmp_path,
    )
    assert values["src"] == tmp_path / "in"
    assert values["include_paths"] == (tmp_path / "a", tmp_path / "b")
    assert values["verbose"] is True
    with pytest.raises(ConfigError):
        parse_config_file("just words\n", tmp_path)
    with pytest.raises(ConfigError):
        parse_config_file("indent_width = wide\n", tmp_path)


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "migrate", "--config", "/no/such/file.cfg")
    assert code == 2
    assert "config file not found" in err


def test_bad_render_setting_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"src = {BOOKSTORE}\nout = {tmp_path / 'out'}\nmax_line_length = 7\n"
    )
    code, _, err = run(capsys, "migrate", "--config", str(cfg))
    assert code == 2
    assert "max_line_length" in err


def test_missing_intent_catalog(tmp_path, capsys):
    code, _, err = run(
        capsys, "migrate",
        "--src", str(BOOKSTORE), "--out", str(tmp_path / "out"),
        "--intent-catalog", str(tmp_path / "none.intents"),
    )
    assert code == 2
    assert "intent catalog not found" in err


# --- check and dump-model ---------------------------------------------------


def test_check_census(capsys):
    code, out, _ = run(
        capsys, "check",
        "--src", str(BOOKSTORE), "--intent-catalog", str(BOOKSTORE_INTENTS),
    )
    assert code == 0
    assert "units[subroutine]: 16" in out
    assert "units[function]: 3" in out
    assert "units[program]: 1" in out
    assert "segments: 3" in out
    assert "commands[segini]:" in out
    assert "warnings: 0" in out


def test_check_writes_no_files(tmp_path, capsys):
    import shutil

    work = tmp_path / "copy"
    shutil.copytree(BOOKSTORE, work)
    before = sorted(p.name for p in work.rglob("*"))
    code, _, _ = run(capsys, "check", "--src", str(work))
    assert code == 0
    assert sorted(p.name for p in work.rglob("*")) == before


def test_check_flags_negative_pointer_comparisons(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "p.f").write_text(
        "      SUBROUTINE S(P)\n"
        "      SEGMENT, A\n      INTEGER V(N)\n      END SEGMENT\n"
        "      POINTEUR P.A\n"
        "      IF (P .EQ. -1) RETURN\n"
        "      END\n"
    )
    code, out, _ = run(capsys, "check", "--src", str(src))
    assert code == 0
    assert "warnings: 1" in out
    assert "'p'" in out


def test_dump_model_output(capsys):
    code, out, _ = run(capsys, "dump-model", "--src", str(BOOKSTORE))
    assert code == 0
    assert "unit\tprogram\tbookshop" in out
    assert any(l.startswith("segment\tuser") for l in out.splitlines())
    assert "call\t" in out


def test_a_segment_in_two_included_files_is_an_error(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    segment = "      SEGMENT, REC\n        INTEGER V(N)\n      END SEGMENT\n"
    (src / "a.seg").write_text(segment)
    (src / "b.seg").write_text(segment)
    (src / "a.inc").write_text("      include 'a.seg'\n")
    # a.seg is met twice, directly and through a.inc: one segment
    (src / "one.f").write_text("      SUBROUTINE ONE\n      include 'a.inc'\n      END\n")
    (src / "two.f").write_text("      SUBROUTINE TWO\n      include 'a.seg'\n      END\n")
    code, out, _ = run(capsys, "dump-model", "--src", str(src))
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("segment")] == [
        f"segment\trec\t{src / 'a.seg'}"]
    (src / "two.f").write_text("      SUBROUTINE TWO\n      include 'b.seg'\n      END\n")
    code, _, err = run(capsys, "dump-model", "--src", str(src))
    assert code == 1
    assert err == f"error: segment 'rec' defined in both {src / 'a.seg'} and {src / 'b.seg'}\n"


def test_bench_tracer_entry_points_exist():
    # the benchmark's traced run wraps these names; a rename must fail here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.ENTRY_POINTS
    for _layer, module_name, attr in tracer.ENTRY_POINTS:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"
