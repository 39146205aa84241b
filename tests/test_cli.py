"""End-to-end command line behaviour."""

import errno
import gc
import importlib
import importlib.util
import os
import re
import stat
import subprocess
import sys
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import assume, given, strategies as st

import segmigrate
from segmigrate import analysis, cli, target, workers
from segmigrate.cli import main, parse_config_file
from segmigrate.errors import ConfigError, MigrationError
from segmigrate.frontend.lexer import read_source
from segmigrate.model import UnitRecord, UnitSummary

from helpers import BOOKSTORE, BOOKSTORE_INTENTS, FIXTURES, PLAIN77, load_corpus_module
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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_outputs_are_precreated_in_staging_before_write_tree_starts(tmp_path, capsys,
                                                                     monkeypatch):
    predicted = sorted(Path(p).stem + ".f90" for p in cli.discover_sources(BOOKSTORE))
    seen = []
    real_write_tree = cli.write_tree

    def spy(outputs, out, shown):
        seen.append((out.name, sorted(p.name for p in out.iterdir())))
        return real_write_tree(outputs, out, shown)

    monkeypatch.setattr(cli, "write_tree", spy)
    code, _, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    assert seen == [("out.staging", predicted)]  # this process's call; a worker's is its own
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "src"]  # no out.staging


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


# --- the sources split into ranges, one process each -------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")

BAD_REWRITE = "      SUBROUTINE BAD(P)\n      SEGINI, P\n      END\n"


def force_ranges(monkeypatch, count):
    """Split the sources of the next runs into ``count`` ranges at most."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: count)


def count_workers(monkeypatch):
    started = []
    start = workers.Worker.start

    def counting(*args):
        worker = start(*args)
        started.append(worker.pid)
        return worker

    monkeypatch.setattr(workers.Worker, "start", counting)
    return started


def in_a_worker(parent_pid, effect, real):
    """A stand-in for a stage that has ``effect`` in workers only."""
    def stage(*args):
        if os.getpid() != parent_pid:
            effect()
        return real(*args)
    return stage


def assert_nothing_left(root):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child at all, running or unreaped
    assert sorted(root.rglob("*.staging")) == []
    assert sorted(root.rglob("*.old-*")) == []


def run_in_ranges(tmp_path, capsys, monkeypatch, count, *argv):
    """(exit code, stdout, stderr, output tree) of one run in ``count`` ranges."""
    force_ranges(monkeypatch, count)
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, *argv)
    tree = tree_bytes(out) if out.exists() else None
    if out.exists():
        for path in sorted(out.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        out.rmdir()
    return code, stdout, stderr, tree


def assert_split_changes_nothing(tmp_path, capsys, monkeypatch, src, *extra):
    argv = ["migrate", "--src", str(src), "--out", str(tmp_path / "out"), *extra]
    one = run_in_ranges(tmp_path, capsys, monkeypatch, 1, *argv)
    started = count_workers(monkeypatch) if hasattr(os, "fork") else []
    three = run_in_ranges(tmp_path, capsys, monkeypatch, 3, *argv)
    assert three == one
    if hasattr(os, "fork"):
        assert len(started) == min(3, len(cli.discover_sources(src))) - 1
    assert_nothing_left(tmp_path)
    return one


def test_split_sources_gives_contiguous_ranges_of_about_equal_bytes(tmp_path):
    sizes = [10, 10, 10, 70, 10, 10, 30, 50]
    paths = [tmp_path / f"s{i}.f" for i in range(len(sizes))]

    def split(start, end, count):
        return cli.split_sources(dict(zip(paths[start:end], sizes[start:end])), count)

    assert split(0, 8, 1) == [paths]
    assert split(0, 8, 2) == [paths[:4], paths[4:]]
    assert split(0, 8, 3) == [paths[:4], paths[4:6], paths[6:]]
    assert split(0, 2, 3) == [paths[:1], paths[1:2]]
    # every range keeps at least one source, however the bytes fall
    assert split(3, 6, 3) == [paths[3:4], paths[4:5], paths[5:6]]


def test_sources_are_found_in_one_walk_in_path_order(tmp_path):
    src, elsewhere = tmp_path / "src", tmp_path / "elsewhere"
    write_tree_of(src, {"a-b/x.f": "x" * 3, "a/x.f": "x" * 5, ".hidden.f": "", ".dot/y.F": "",
                        "z.eso": "", "notes.txt": "", ".f": "", "c.f/inner.txt": ""})
    write_tree_of(elsewhere, {"real.f": "x" * 7, "w.f": ""})
    (src / "link.f").symlink_to(elsewhere / "real.f")
    (src / "linked").symlink_to(elsewhere, target_is_directory=True)
    (src / "dangling.f").symlink_to(tmp_path / "nowhere.f")
    found = cli.discover_sources(src)
    # in path order, a/x.f comes before a-b/x.f, which string order reverses
    assert list(found.items()) == [
        (str(src / ".dot" / "y.F"), 0), (str(src / ".hidden.f"), 0), (str(src / "a" / "x.f"), 5),
        (str(src / "a-b" / "x.f"), 3), (str(src / "link.f"), 7), (str(src / "z.eso"), 0)]
    # the rule of a recursive glob, each path spelled as a string
    assert list(found) == [str(p) for p in sorted(
        p for p in src.rglob("*") if p.is_file() and p.suffix in cli.UNIT_EXTENSIONS)]


@given(st.text("ab./", min_size=1, max_size=12))
def test_an_output_is_named_after_the_stem_of_its_source(file_id):
    path = PurePosixPath(file_id)
    # spelled as a source path is: normalized, and ending in a file's name
    assume(str(path) == file_id and file_id.endswith(path.name) and path.name)
    assert target.output_name(file_id) == path.stem + ".f90"


def test_a_source_is_read_with_universal_newlines(tmp_path):
    path = tmp_path / "crlf.f"
    path.write_bytes(b"      X = 1\r\n      Y = 2\r      END\n\xc3\xa9")
    assert read_source(str(path)) == read_source(path) == path.read_text(encoding="utf-8")
    assert read_source(path) == "      X = 1\n      Y = 2\n      END\n\u00e9"


@pytest.mark.parametrize("src, extra", [
    (BOOKSTORE, ["--intent-catalog", str(BOOKSTORE_INTENTS)]), (PLAIN77, []),
], ids=["bookstore", "plain77"])
def test_split_runs_give_the_golden_bytes(tmp_path, capsys, monkeypatch, src, extra):
    code, out, err, tree = assert_split_changes_nothing(
        tmp_path, capsys, monkeypatch, src, "--verbose", *extra)
    assert code == 0, err
    assert tree == tree_bytes(GOLDEN / src.name)


@pytest.mark.parametrize("workload, units", [
    ("esope_tree", 12), ("forward_chain", 12), ("plain77_bulk", 3),
])
def test_split_runs_agree_on_generated_trees(tmp_path, capsys, monkeypatch, workload, units):
    corpus = load_corpus_module().generate(workload, 3, units=units)
    corpus.write(tmp_path / "src")
    (tmp_path / "external.intents").write_text(corpus.catalog)
    code, _, err, tree = assert_split_changes_nothing(
        tmp_path, capsys, monkeypatch, tmp_path / "src",
        "--intent-catalog", str(tmp_path / "external.intents"))
    assert code == 0, err
    assert sorted(tree) == corpus.expected_outputs()


@needs_fork
def test_no_other_unit_s_events_reach_a_worker(tmp_path, capsys, monkeypatch):
    """Only unit records cross a pipe, each way, and each process holds the
    summary of the units of its own range alone."""
    sent, received, migrated = [], [], []
    send, receive, migrate_project = workers.Pipe.send, workers.Pipe.receive, cli.migrate_project

    def spy(pipe, kind, payload):
        if kind == "model":  # in this process only: a worker's list is its own copy
            sent.append(payload)
        send(pipe, kind, payload)

    def receiving(pipe):
        message = receive(pipe)
        received.append(message)
        return message

    def migrating(units, model, *args, **kwargs):
        migrated.append((units, model))
        return migrate_project(units, model, *args, **kwargs)

    monkeypatch.setattr(workers.Pipe, "send", spy)
    monkeypatch.setattr(workers.Pipe, "receive", receiving)
    monkeypatch.setattr(cli, "migrate_project", migrating)
    force_ranges(monkeypatch, 3)
    code, _, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    assert len(sent) == 2
    for before, after, _segments, _catalog in sent:
        assert before and all(type(s) is UnitRecord for s in before + after)
    fronts = [payload for kind, payload in received if kind == "front"]
    assert len(fronts) == 2
    for front in fronts:
        assert front.records and all(type(s) is UnitRecord for s in front.records)
    # a slotted record holds no other field
    assert not any(hasattr(s, name) for front in fronts for s in front.records
                   for name in ("events", "pointers", "declared", "referenced"))
    [(units, model)] = migrated  # this process's; a worker's call is in its own memory
    summarized = {name for name, s in model.units.items() if isinstance(s, UnitSummary)}
    assert summarized == {unit.name for unit in units}
    assert len(model.units) > len(summarized)


@needs_fork
def test_a_sizing_marker_in_a_worker_s_range_sizes_the_dummy(tmp_path, capsys, monkeypatch):
    # C is in the third range: the first process solves its intents from its
    # record and events alone, and SEGINI, P passes N to an intent(in) dummy
    code, _, err, tree = assert_split_changes_nothing(
        tmp_path, capsys, monkeypatch, FIXTURES / "sized")
    assert code == 0, err
    assert "    integer, intent(in) :: n\n" in tree["c.f90"].decode()


def test_split_runs_keep_the_file_order_of_one_run(tmp_path, capsys, monkeypatch):
    # sorted as paths, a/c.f comes first; sorted as names, a-b.f does
    src = tmp_path / "src"
    write_tree_of(src, {name: f"      SUBROUTINE {unit}\n      END\n" for name, unit in
                        (("a/c.f", "C"), ("a-b.f", "B"), ("z.f", "Z"))})
    code, out, err, _ = assert_split_changes_nothing(tmp_path, capsys, monkeypatch, src,
                                                     "--verbose")
    assert code == 0, err
    assert out.index("a-b.f ->") < out.index("c.f ->")


def write_tree_of(src, files):
    for name, text in files.items():
        (src / name).parent.mkdir(parents=True, exist_ok=True)
        (src / name).write_text(text)


BROKEN_TREES = {
    "front end": {
        "a.f": "      SUBROUTINE A\n      include 'gone.inc'\n      END\n",
        "b.f": "      SUBROUTINE B\n      SEGINI\n      END\n",
        "c.f": "      SUBROUTINE C\n      include 'x.inc'\n      END\n",
        "d.f": "      SUBROUTINE D\n      END\n",
        "e.f": "      SUBROUTINE E\n      include 'y.inc'\n      include 'bad.inc'\n      END\n",
        "f.f": "      SUBROUTINE F\n      include 'lost.inc'\n      END\n",
        "x.inc": "      include 'y.inc'\n",
        "y.inc": "      INTEGER K\n      include 'x.inc'\n",
        "bad.inc": "     &  K = 1\n",
    },
    "unit defined twice": {
        "a.f": "      SUBROUTINE S\n      END\n",
        "b.f": "      SUBROUTINE T\n      END\n",
        "c.f": "      SUBROUTINE U\n      END\n      SUBROUTINE S\n      END\n",
        "d.f": "      SUBROUTINE S\n      END\n",
    },
    "segment defined twice": {
        "a.f": "      SUBROUTINE A\n      SEGMENT, REC\n      INTEGER V(N)\n      END SEGMENT\n"
               "      END\n",
        "b.f": "      SUBROUTINE B\n      END\n",
        "c.f": "      SUBROUTINE C\n      SEGMENT, REC\n      INTEGER W(N)\n      END SEGMENT\n"
               "      END\n",
    },
    "rewrite": {
        "a.f": "      SUBROUTINE A\n      END\n",
        "b.f": "      SUBROUTINE B\n      END\n",
        "c.f": BAD_REWRITE.replace("BAD", "C"),
        "d.f": BAD_REWRITE.replace("BAD", "D"),
    },
    "output name": {
        "a/x.f": "      SUBROUTINE SA\n      END\n",
        "b/x.f": "      SUBROUTINE SB\n      END\n",
        "y.f": "      SUBROUTINE SY\n      END\n",
    },
}


@pytest.mark.parametrize("name", sorted(BROKEN_TREES))
def test_split_runs_report_the_same_errors(tmp_path, capsys, monkeypatch, name):
    src = tmp_path / "src"
    write_tree_of(src, BROKEN_TREES[name])
    code, out, err, tree = assert_split_changes_nothing(tmp_path, capsys, monkeypatch, src)
    assert code == 1 and tree is None and "error: " in err


@pytest.mark.parametrize("files, origins", [
    ({"a.f": "      SUBROUTINE A\n      END\n",
      "b.f": "      SUBROUTINE USER\n      END\n",
      "c.f": "      SUBROUTINE C\n      include 'user.seg'\n      END\n",
      "user.seg": (BOOKSTORE / "user.seg").read_text()},
     "module user_mod would be defined by each of subroutine user at {src}/b.f:1:1, "
     "segment user in {src}/user.seg"),
    ({"a.f": "      SUBROUTINE SEGMENT\n      END\n",
      "b.f": "      SUBROUTINE B\n      SEGMENT, REC\n        INTEGER V\n      END SEGMENT\n"
             "      END\n",
      "c.f": "      SUBROUTINE C\n      END\n"},
     "module segment_mod would be defined by each of subroutine segment at {src}/a.f:1:1, "
     "the segment runtime"),
    ({"a.f": "      PROGRAM USER_MOD\n      CALL USER\n      END\n",
      "b.f": "      SUBROUTINE USER\n      END\n",
      "c.f": "      SUBROUTINE C\n      END\n"},
     "global name user_mod would name each of program user_mod at {src}/a.f:1:1, "
     "the module of subroutine user at {src}/b.f:1:1"),
], ids=["segment", "runtime", "program"])
def test_a_routine_named_like_a_generated_module_is_an_error(tmp_path, capsys, monkeypatch,
                                                              files, origins):
    src = tmp_path / "src"
    write_tree_of(src, files)
    code, out, err, tree = assert_split_changes_nothing(tmp_path, capsys, monkeypatch, src)
    assert (code, out, err, tree) == (1, "", f"error: {origins.format(src=src)}\n", None)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["src"]


def test_the_target_names_are_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    real = target.target_names

    def counting(model):
        built.append(model)
        return real(model)

    monkeypatch.setattr(cli, "target_names", counting)
    monkeypatch.setattr(target, "target_names", counting)
    force_ranges(monkeypatch, 3)
    code, _, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    assert len(built) == 1  # this process's; a worker counts in its own memory


@needs_fork
def test_a_name_clash_fails_before_any_process_rewrites(tmp_path, capsys, monkeypatch):
    src, log, solved = tmp_path / "src", tmp_path / "writes.log", []
    write_tree_of(src, BROKEN_TREES["output name"])
    real = Path.write_text

    def write_text(path, *args, **kwargs):
        with open(log, "a") as f:  # a worker's write shows here too
            f.write(f"{path}\n")
        return real(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    monkeypatch.setattr(analysis, "solve_intents", lambda *args: solved.append(args))
    force_ranges(monkeypatch, 3)
    started = count_workers(monkeypatch)
    code, _, err = run(capsys, "migrate", "--src", str(src), "--out", str(tmp_path / "out"))
    assert code == 1 and err.startswith("error: x.f90 would be the output of each of ")
    assert len(started) == 2 and not log.exists() and solved == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["src"]
    assert_nothing_left(tmp_path)


def test_split_runs_report_the_broken_fixture_the_same(tmp_path, capsys, monkeypatch):
    code, _, err, tree = assert_split_changes_nothing(
        tmp_path, capsys, monkeypatch, FIXTURES / "broken")
    assert code == 1 and tree is None and "continuation" in err


def test_split_front_end_errors_are_every_range_s_in_file_order(tmp_path, capsys, monkeypatch):
    src = tmp_path / "src"
    write_tree_of(src, BROKEN_TREES["front end"])
    code, _, err, _ = run_in_ranges(tmp_path, capsys, monkeypatch, 3, "migrate",
                                    "--src", str(src), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.splitlines() == [
        f"error: {src / 'a.f'}:2:1: include file 'gone.inc' not found; tried: {src / 'gone.inc'}",
        f"error: {src / 'b.f'}:2:1: malformed Esope command: 'SEGINI'",
        f"error: {src / 'bad.inc'}:1:1: continuation card with no preceding statement",
        f"error: {src / 'f.f'}:2:1: include file 'lost.inc' not found; tried: {src / 'lost.inc'}",
        f"error: {src / 'x.inc'}:1:1: include cycle: x.inc -> y.inc -> x.inc",
        f"error: {src / 'y.inc'}:2:1: include cycle: y.inc -> x.inc -> y.inc",
    ]


def test_split_model_errors_name_the_same_unit(tmp_path, capsys, monkeypatch):
    src = tmp_path / "src"
    write_tree_of(src, BROKEN_TREES["unit defined twice"])
    _, _, err, _ = run_in_ranges(tmp_path, capsys, monkeypatch, 3, "migrate",
                                 "--src", str(src), "--out", str(tmp_path / "out"))
    assert err == f"error: {src / 'c.f'}:3:1: unit 's' defined twice\n"
    write_tree_of(tmp_path / "seg", BROKEN_TREES["segment defined twice"])
    _, _, err, _ = run_in_ranges(tmp_path, capsys, monkeypatch, 3, "migrate",
                                 "--src", str(tmp_path / "seg"), "--out", str(tmp_path / "out"))
    assert err == "error: segment 'rec' defined twice\n"


@pytest.mark.parametrize("command", ["check", "dump-model"])
def test_split_leaves_check_and_dump_model_alone(tmp_path, capsys, monkeypatch, command):
    outputs = []
    for count in (1, 3):
        force_ranges(monkeypatch, count)
        outputs.append(run(capsys, command, "--src", str(BOOKSTORE)))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert_nothing_left(tmp_path)


@pytest.mark.parametrize("command", ["check", "migrate"])
def test_every_missing_include_is_located(tmp_path, capsys, command):
    src, out_dir = tmp_path / "src", tmp_path / "out"
    write_tree_of(src, {
        "a.f": "      SUBROUTINE A\n      include 'gone.inc'\n      END\n",
        "b.f": "      SUBROUTINE B\n      N = 1\n      include 'lost.inc'\n      END\n",
    })
    code, out, err = run(capsys, command, "--src", str(src), "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: {src / 'a.f'}:2:1: include file 'gone.inc' not found; tried: {src / 'gone.inc'}",
        f"error: {src / 'b.f'}:3:1: include file 'lost.inc' not found; tried: {src / 'lost.inc'}",
    ]
    assert not out_dir.exists()


def test_a_failed_fork_leaves_one_range(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    force_ranges(monkeypatch, 3)
    code, _, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    assert tree_bytes(tmp_path / "out") == tree_bytes(GOLDEN / "bookstore")


@needs_fork
def test_no_process_is_left_after_a_split_migrate(tmp_path, capsys, monkeypatch):
    force_ranges(monkeypatch, 3)
    code, _, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    assert_nothing_left(tmp_path)


@needs_fork
def test_no_process_is_left_after_a_front_end_failure(tmp_path, capsys, monkeypatch):
    src = tmp_path / "src"
    write_tree_of(src, {"a.f": "      SUBROUTINE A\n      END\n",
                        "b.f": "      SUBROUTINE B\n      END\n",
                        "c.f": "     &  X = 1\n      SUBROUTINE C\n      END\n"})
    force_ranges(monkeypatch, 3)
    code, _, err = run(capsys, "migrate", "--src", str(src), "--out", str(tmp_path / "out"))
    assert code == 1 and "continuation" in err
    assert not (tmp_path / "out").exists()
    assert_nothing_left(tmp_path)


@needs_fork
def test_no_process_is_left_after_a_rewrite_failure_in_a_worker(tmp_path, capsys, monkeypatch):
    src, out_dir = tmp_path / "src", tmp_path / "out"
    write_tree_of(src, {"a.f": "      SUBROUTINE A\n      END\n",
                        "z.f": BAD_REWRITE})
    force_ranges(monkeypatch, 2)
    started = count_workers(monkeypatch)
    code, _, err = run(capsys, "migrate", "--src", str(src), "--out", str(out_dir))
    assert code == 1 and f"{src / 'z.f'}" in err and len(started) == 1
    assert not out_dir.exists()
    assert_nothing_left(tmp_path)


@needs_fork
def test_no_process_is_left_after_an_interrupt(tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    real = cli.parse_units

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(cli, "parse_units", interrupted)
    force_ranges(monkeypatch, 3)
    assert migrate_bookstore(tmp_path, capsys) == (130, "", "error: interrupted\n")
    assert not (tmp_path / "out").exists()
    assert_nothing_left(tmp_path)


@needs_fork
def test_a_worker_s_exception_comes_up_with_its_traceback(tmp_path, capsys, monkeypatch):
    def boom():
        raise ValueError("boom in a worker")

    monkeypatch.setattr(cli, "parse_units", in_a_worker(os.getpid(), boom, cli.parse_units))
    force_ranges(monkeypatch, 2)
    with pytest.raises(RuntimeError) as err:
        migrate_bookstore(tmp_path, capsys)
    assert "Traceback" in str(err.value) and "ValueError: boom in a worker" in str(err.value)
    assert capsys.readouterr() == ("", "")
    assert not (tmp_path / "out").exists()
    assert_nothing_left(tmp_path)


@needs_fork
def test_a_worker_that_exits_without_replying_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "parse_units",
                        in_a_worker(os.getpid(), lambda: os._exit(7), cli.parse_units))
    force_ranges(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited with status 7 without replying"):
        migrate_bookstore(tmp_path, capsys)
    assert not (tmp_path / "out").exists()
    assert_nothing_left(tmp_path)


# --- the output tree, staged and swapped in whole ----------------------------


def fail_nth_write(monkeypatch, nth, in_worker, error):
    """Raise ``error`` from the ``nth`` output file write of this process, or
    with ``in_worker`` of each worker process."""
    parent, real, count = os.getpid(), Path.write_text, [0]

    def write_text(path, *args, **kwargs):
        if (os.getpid() != parent) == in_worker:
            count[0] += 1
            if count[0] == nth:
                raise error
        return real(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)


def migrated_tree_with_foreign_files(tmp_path, capsys, monkeypatch):
    """The bytes of a migrated bookstore tree holding foreign files, a
    foreign subdirectory and a stale output, once migrated in three ranges."""
    force_ranges(monkeypatch, 3)
    out = tmp_path / "out"
    code, stdout, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    (out / "notes.txt").write_bytes(b"mine\n")
    (out / "sub" / "deep").mkdir(parents=True)
    (out / "sub" / "deep" / "x.f90").write_bytes(b"! kept\n")
    (out / "empty").mkdir()
    (out / "gone.f90").write_bytes(b"! the output of a deleted source\n")
    (out / "addbook.f90").write_bytes(b"! stale\n")
    return stdout, tree_bytes(out)


NO_SPACE = OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("in_worker", [False, pytest.param(True, marks=needs_fork)],
                         ids=["parent", "worker"])
def test_a_failed_write_leaves_the_old_tree_as_it_was(tmp_path, capsys, monkeypatch, in_worker):
    _, before = migrated_tree_with_foreign_files(tmp_path, capsys, monkeypatch)
    fail_nth_write(monkeypatch, 3, in_worker, NO_SPACE)
    code, stdout, err = migrate_bookstore(tmp_path, capsys)
    assert code == 1 and stdout == ""
    errors = err.splitlines()
    # one failed file in each worker of three ranges, else in this process
    assert len(errors) == (2 if in_worker else 1)
    for line in errors:  # named by its final path
        assert re.fullmatch(rf"error: {re.escape(str(tmp_path / 'out'))}/\w+\.f90: "
                            "No space left on device", line), line
    assert tree_bytes(tmp_path / "out") == before and (tmp_path / "out" / "empty").is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert_nothing_left(tmp_path)


@needs_fork
def test_an_interrupted_write_leaves_the_old_tree_as_it_was(tmp_path, capsys, monkeypatch):
    _, before = migrated_tree_with_foreign_files(tmp_path, capsys, monkeypatch)
    fail_nth_write(monkeypatch, 3, False, KeyboardInterrupt())
    assert migrate_bookstore(tmp_path, capsys) == (130, "", "error: interrupted\n")
    assert tree_bytes(tmp_path / "out") == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert_nothing_left(tmp_path)


def test_a_failed_swap_leaves_the_old_tree_as_it_was(tmp_path, capsys, monkeypatch):
    _, before = migrated_tree_with_foreign_files(tmp_path, capsys, monkeypatch)
    rename = os.rename

    def refused(src, dst):
        if str(src).endswith(".staging"):
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        return rename(src, dst)

    monkeypatch.setattr(os, "rename", refused)
    code, stdout, err = migrate_bookstore(tmp_path, capsys)
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: cannot replace {os.path.realpath(tmp_path / 'out')}: ")
    assert tree_bytes(tmp_path / "out") == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert_nothing_left(tmp_path)


def test_foreign_files_survive_a_rerun_with_their_bytes(tmp_path, capsys, monkeypatch):
    stdout, before = migrated_tree_with_foreign_files(tmp_path, capsys, monkeypatch)
    out = tmp_path / "out"
    inode = (out / "notes.txt").stat().st_ino
    os.chmod(out / "sub", 0o750)
    code, rerun, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    assert rerun == stdout
    foreign = {name: before[name] for name in ("notes.txt", "sub/deep/x.f90", "gone.f90")}
    assert tree_bytes(out) == {**tree_bytes(GOLDEN / "bookstore"), **foreign}
    assert (out / "empty").is_dir() and (out / "notes.txt").stat().st_ino == inode
    assert stat.S_IMODE((out / "sub").stat().st_mode) == 0o750
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert_nothing_left(tmp_path)


def test_an_output_path_that_is_a_file_is_an_error(tmp_path, capsys):
    (tmp_path / "out").write_bytes(b"not a tree\n")
    code, _, err = migrate_bookstore(tmp_path, capsys)
    assert code == 1 and err.endswith(": not a directory\n")
    assert (tmp_path / "out").read_bytes() == b"not a tree\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


# --- statements repeated within a range --------------------------------------


@pytest.mark.parametrize("command", ["check", "migrate"])
def test_a_bad_statement_in_two_files_fails_at_each_line(tmp_path, capsys, monkeypatch, command):
    src, out_dir = tmp_path / "src", tmp_path / "out"
    write_tree_of(src, {
        "a.f": "      SUBROUTINE A(P)\n      SEGINI, P, Q\n      END\n",
        "b.f": "      SUBROUTINE B(P)\n      N = 1\n      SEGINI, P, Q\n      END\n",
    })
    force_ranges(monkeypatch, 1)  # one range: both files share one statement table
    code, out, err = run(capsys, command, "--src", str(src), "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: {src / 'a.f'}:2:1: malformed Esope command: 'SEGINI, P, Q'",
        f"error: {src / 'b.f'}:3:1: malformed Esope command: 'SEGINI, P, Q'",
    ]
    assert not out_dir.exists()


def test_repeated_statements_keep_their_own_labels(tmp_path, capsys, monkeypatch):
    src = tmp_path / "src"
    write_tree_of(src, {"p.f": "      PROGRAM P\n      DO 10 I = 1, 2\n   10 CONTINUE\n"
                                "      DO 20 I = 1, 2\n   20 CONTINUE\n      CONTINUE\n"
                                "      END\n"})
    force_ranges(monkeypatch, 1)
    code, _, err = run(capsys, "migrate", "--src", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    lines = [line.strip() for line in (tmp_path / "out" / "p.f90").read_text().splitlines()]
    assert [line for line in lines if line.endswith("continue")] == [
        "10 continue", "20 continue", "continue"]


def test_a_form_feed_shifts_no_line(tmp_path, capsys):
    src = tmp_path / "src"
    write_tree_of(src, {
        "a.f": "      SUBROUTINE A(X)\n\f\n      SEGINI, P, Q\n      END\n",
        "b.f": "      SUBROUTINE B(X)\n      X = 1\f\n      SEGINI, P, Q\n      END\n",
    })
    code, _, err = run(capsys, "check", "--src", str(src))
    assert code == 1
    assert err.splitlines() == [
        f"error: {src / 'a.f'}:3:1: malformed Esope command: 'SEGINI, P, Q'",
        f"error: {src / 'b.f'}:3:1: malformed Esope command: 'SEGINI, P, Q'",
    ]


def test_a_form_feed_card_migrates_as_a_blank_line(tmp_path, capsys):
    trees = []
    for blank in ("", "\f"):
        src, out = tmp_path / f"src{len(trees)}", tmp_path / f"out{len(trees)}"
        write_tree_of(src, {"a.f": f"      SUBROUTINE A(X)\n{blank}\n      X = 1\n      END\n"})
        assert run(capsys, "migrate", "--src", str(src), "--out", str(out))[0] == 0
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


def test_config_and_catalog_lines_end_only_at_a_newline(tmp_path):
    with pytest.raises(ConfigError, match="config line 2:"):
        parse_config_file("\f\nindent_width = wide\n", tmp_path)
    with pytest.raises(MigrationError, match="intent catalog line 2:"):
        analysis.load_intent_catalog("\f\nfoo(sideways)\n")


def test_a_migrate_leaves_no_cyclic_garbage(tmp_path, capsys):
    cfg = cli.RunConfig(src=BOOKSTORE, out=tmp_path / "out", intent_catalog=BOOKSTORE_INTENTS)
    gc.collect()
    gc.disable()  # so that no collection during the run hides a cycle
    try:
        assert cli.cmd_migrate(cfg) == 0
        assert gc.collect() == 0
        # through the command line, and over the tree the first run left
        assert main(["migrate", "--src", str(BOOKSTORE), "--out", str(tmp_path / "out"),
                     "--intent-catalog", str(BOOKSTORE_INTENTS)]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
