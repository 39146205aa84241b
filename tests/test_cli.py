"""End-to-end command line behaviour."""

import gc
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import segmigrate
from segmigrate import analysis, cli, workers
from segmigrate.cli import main, parse_config_file
from segmigrate.errors import ConfigError, MigrationError

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


# --- the sources split into ranges, one process each -------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")

BAD_REWRITE = "      SUBROUTINE BAD(P)\n      SEGINI, P\n      END\n"


def load_corpus_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # its dataclasses look their module up
    return module


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
    assert sorted(root.rglob("*.tmp")) == []


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
    paths = []
    for i, size in enumerate([10, 10, 10, 70, 10, 10, 30, 50]):
        paths.append(tmp_path / f"s{i}.f")
        paths[-1].write_bytes(b"x" * size)
    assert cli.split_sources(paths, 1) == [paths]
    assert cli.split_sources(paths, 2) == [paths[:4], paths[4:]]
    assert cli.split_sources(paths, 3) == [paths[:4], paths[4:6], paths[6:]]
    assert cli.split_sources(paths[:2], 3) == [paths[:1], paths[1:2]]
    # every range keeps at least one source, however the bytes fall
    assert cli.split_sources(paths[3:6], 3) == [paths[3:4], paths[4:5], paths[5:6]]


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
    sent = []
    send = workers.Pipe.send

    def spy(pipe, kind, payload):
        if kind == "model":  # in this process only: a worker's list is its own copy
            sent.append(payload)
        send(pipe, kind, payload)

    monkeypatch.setattr(workers.Pipe, "send", spy)
    force_ranges(monkeypatch, 3)
    code, _, err = migrate_bookstore(tmp_path, capsys)
    assert code == 0, err
    assert len(sent) == 2
    for before, after, _segments, _catalog in sent:
        assert before and all(s.events == () for s in before + after)


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
    with pytest.raises(KeyboardInterrupt):
        migrate_bookstore(tmp_path, capsys)
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
    finally:
        gc.enable()
    capsys.readouterr()
