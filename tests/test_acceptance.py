"""Acceptance gate: every release criterion, one test each.

Each test states its criterion in the docstring and fails (or skips, where
the environment lacks a prerequisite) independently of the others.
"""

import random
import re
import shutil
import subprocess
import time

import pytest

from segmigrate import analysis
from segmigrate.analysis import RoutineSpec, infer_intents, solve_intents
from segmigrate.cli import main
from segmigrate.emit import render_unit
from segmigrate.frontend.lexer import split_logical_lines, tokenize
from segmigrate.frontend.parser import parse_source
from segmigrate.model import build_project_model
from segmigrate.transform import migrate_project, migrate_segment

from helpers import (
    BOOKSTORE,
    BOOKSTORE_INTENTS,
    PLAIN77,
    esope_residue,
    logical_lines,
    oracle_intents,
    random_program,
    undeclared_references,
    use_cycle_modules,
    use_graph,
)

SEGMENT_SOURCE = """\
      SUBROUTINE NEWUSER(LIB)
      INTEGER UBBCNT
      SEGMENT, USER
        CHARACTER*40 UNAME
        INTEGER UBB(UBBCNT)
      END SEGMENT
      POINTEUR UR.USER
      UBBCNT = 0
      SEGINI, UR
      END
"""


def migrated_bookstore(tmp_path, extra=()):
    out = tmp_path / "out"
    code = main([
        "migrate",
        "--src", str(BOOKSTORE),
        "--out", str(out),
        "--intent-catalog", str(BOOKSTORE_INTENTS),
        *extra,
    ])
    assert code == 0
    return out


def read_outputs(out_dir):
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir())}


def test_criterion_1_segment_golden_translation(capsys):
    """A segment definition becomes a derived type with the expected field
    order, visibility, attributes, and initializers, in under a second."""
    start = time.monotonic()
    units = parse_source(SEGMENT_SOURCE, "newuser.f")
    model = build_project_model(units)
    text = render_unit(migrate_segment(model.segments["user"]))
    elapsed = time.monotonic() - start

    block = re.search(
        r"type, extends\(segment\) :: user\n(.*?)\n\s*contains", text, re.S
    )
    assert block is not None, text
    fields = [l.strip() for l in block.group(1).splitlines() if l.strip()]
    assert fields == [
        "integer, private :: ubbcnt = 0",
        "character(len=40), public :: uname = ''",
        "integer, pointer, public :: ubb(:) => null()",
    ]
    assert elapsed < 1.0


def test_criterion_2_rewrite_catalog_is_string_exact():
    """The five canonical rewrites reproduce their target strings exactly."""
    src = (
        "      SUBROUTINE NEWUSER(LIB, NAME)\n"
        "      CHARACTER*40 NAME\n"
        "      INTEGER UBBCNT\n"
        "      SEGMENT, USER\n"
        "        CHARACTER*40 UNAME\n"
        "        INTEGER UBB(UBBCNT)\n"
        "      END SEGMENT\n"
        "      POINTEUR UR.USER, P.USER, Q.USER\n"
        "      UBBCNT = 1\n"
        "      SEGINI, UR\n"
        "      SEGINI, Q\n"
        "      SEGACT, P=Q\n"
        "      UR.UNAME = NAME\n"
        "      LIB = UR.UBB(/1)\n"
        "      END\n"
    )
    units = parse_source(src, "newuser.f")
    model = build_project_model(units)
    intents = infer_intents(model)
    result = migrate_project(units, model, intents)
    assert result.ok
    body = dict(result.outputs)["newuser.f90"]
    lines = [l.strip() for l in body.splitlines()]
    assert "call segini(ur, ubbcnt)" in lines
    assert "call segmov(p, q)" in lines
    assert "ur%uname = name" in lines
    assert "lib = size(ur%ubb, dim=1)" in lines
    assert "type(user), pointer :: ur" in lines


def test_criterion_3_corpus_shape(tmp_path):
    """The 23-file fixture (3 segments, 16 subroutines, 3 functions, 1 main)
    migrates with exit 0 into 22 modules, 1 main program, 2 support files."""
    sources = [p for p in BOOKSTORE.iterdir() if p.is_file()]
    assert len(sources) == 23
    units = []
    for p in sorted(sources):
        if p.suffix in (".f", ".F", ".eso"):
            units.extend(parse_source(p.read_text(), p.name))
    kinds = [u.kind for u in units]
    assert kinds.count("subroutine") == 16
    assert kinds.count("function") == 3
    assert kinds.count("program") == 1

    out = migrated_bookstore(tmp_path)
    files = read_outputs(out)
    assert len(files) == 25
    module_count = sum(1 for t in files.values() if t.startswith("module "))
    program_count = sum(1 for t in files.values() if "\nprogram " in "\n" + t)
    support = {"segment_mod.f90", "segment_registry_mod.f90"}
    assert support <= set(files)
    assert module_count == 22 + len(support)  # support files are modules too
    assert module_count - len(support) == 22
    assert program_count == 1


def test_criterion_4_eradication_and_traceability(tmp_path):
    """No Esope keyword, dotted access, or slash-dim survives outside
    comments; removed commands and flattened includes leave markers."""
    out = migrated_bookstore(tmp_path)
    files = read_outputs(out)
    for name, text in files.items():
        assert esope_residue(text) == [], (name, esope_residue(text))

    whole = "\n".join(files.values())
    # every SEGACT/SEGDES without a source pointer became a marker comment
    removal_markers = re.findall(r"! \[seg-migrate\] removed \(activation[^)]*\): (\S+)", whole)
    source_acts = 0
    for p in sorted(BOOKSTORE.iterdir()):
        if p.suffix not in (".f", ".F", ".eso"):
            continue
        for line in logical_lines(p.read_text()):
            if re.match(r"\s*seg(act|des)\s*,\s*\w+\s*$", line, re.I):
                source_acts += 1
    assert source_acts > 0
    assert len(removal_markers) == source_acts

    # every include edge of the program sources has begin/end markers
    include_re = re.compile(
        r"^\s*(#include\s+\"([^\"]+)\"|include\s+'([^']+)'|[%-]inc\s+(\S+))\s*$",
        re.I | re.M,
    )
    include_paths = set()
    for p in sorted(BOOKSTORE.iterdir()):
        if p.suffix not in (".f", ".F", ".eso"):
            continue
        for m in include_re.finditer(p.read_text()):
            include_paths.add(m.group(2) or m.group(3) or m.group(4))
    assert include_paths
    for path in include_paths:
        assert f'! [seg-migrate] begin include "{path}"' in whole
        assert f'! [seg-migrate] end include "{path}"' in whole


def test_criterion_5_implicit_none_and_no_undeclared_symbols(tmp_path):
    """Each emitted program unit has exactly one `implicit none` and no
    referenced-but-undeclared symbols."""
    out = migrated_bookstore(tmp_path)
    files = read_outputs(out)
    for name, text in files.items():
        unit_count = len(re.findall(r"^(module|program) ", text, re.M))
        assert unit_count == 1, name
        stripped = [l.strip() for l in text.splitlines()]
        assert stripped.count("implicit none") == 1, name
    assert undeclared_references(files) == []


def test_bookstore_use_graph_is_acyclic(tmp_path):
    files = read_outputs(migrated_bookstore(tmp_path))
    assert any(use_graph(files).values())
    assert use_cycle_modules(files) == []


@pytest.mark.xfail(
    strict=True,
    reason="compute_unit_uses adds a `use` for every called project routine, "
    "so routines that call each other give modules that use each other",
)
@pytest.mark.parametrize("names", [["rec.f"], ["a.f", "b.f"]], ids=["one-file", "two-files"])
def test_mutually_recursive_routines_give_no_use_cycle(tmp_path, names):
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    units = [
        "      SUBROUTINE A(X, Y)\n      INTEGER X, Y\n      CALL B(Y)\n      Y = 0\n      END\n",
        "      SUBROUTINE B(Z)\n      INTEGER Z, W\n      CALL A(1, Z)\n      W = Z\n      END\n",
    ]
    if len(names) == 1:
        units = ["".join(units)]
    for name, text in zip(names, units):
        (src / name).write_text(text)
    assert main(["migrate", "--src", str(src), "--out", str(out)]) == 0
    assert use_cycle_modules(read_outputs(out)) == []


def test_criterion_6_intent_fixpoint_matches_simulation_oracle():
    """On 500 random programs the fixpoint solver equals the exhaustive
    interprocedural read/write simulation; must finish in under 30 s."""
    rng = random.Random(1611)
    start = time.monotonic()
    disagreements = 0
    for _ in range(500):
        routines, catalog = random_program(rng, RoutineSpec)
        if solve_intents(routines, catalog) != oracle_intents(routines, catalog):
            disagreements += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 30.0


def test_criterion_7_determinism(tmp_path):
    """Two full runs produce byte-identical trees and identical reports."""
    import io
    from contextlib import redirect_stdout

    trees, reports = [], []
    for run in ("one", "two"):
        out = tmp_path / run
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([
                "migrate", "--src", str(BOOKSTORE), "--out", str(out),
                "--intent-catalog", str(BOOKSTORE_INTENTS), "--verbose",
            ])
        assert code == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        reports.append(buf.getvalue().replace(str(out), "<out>"))
    assert trees[0] == trees[1]
    assert reports[0] == reports[1]


def test_criterion_8_passthrough_fidelity(tmp_path):
    """Pure F77 input: emitted statement token streams equal the input
    streams.  Allowed deltas: reindentation, comment prefix, the free-form
    `::`/intent declaration syntax, and generated scaffolding statements."""
    out = tmp_path / "out"
    assert main(["migrate", "--src", str(PLAIN77), "--out", str(out)]) == 0

    scaffold = re.compile(
        r"^(module |end module|program |end program|contains$|implicit none$"
        r"|use |private$|public )"
    )

    def statement_streams(text, fixed):
        streams = []
        if fixed:
            lines = [
                l for l in split_logical_lines(text, "in")
                if l.label or l.text.strip()
            ]
            raw = [
                f"{l.label} {l.text}" if l.label else l.text
                for l in lines
                if not l.text.lstrip().startswith("!")
            ]
        else:
            raw = [
                l for l in logical_lines(text)
                if l and not l.startswith("!") and not scaffold.match(l)
            ]
        for stmt in raw:
            toks = [t.value for t in tokenize(stmt)]
            # free-form declarations insert `::` and intent attributes
            while True:
                pair = next(
                    (i for i in range(len(toks) - 1)
                     if toks[i] == ":" and toks[i + 1] == ":"),
                    None,
                )
                if pair is None:
                    break
                del toks[pair:pair + 2]
            while "intent" in toks:
                i = toks.index("intent")
                del toks[i:i + 4]
                if i > 0 and toks[i - 1] == ",":
                    del toks[i - 1]
            streams.append(toks)
        return streams

    for src in sorted(PLAIN77.iterdir()):
        emitted = (out / (src.stem + ".f90")).read_text()
        # the original END card becomes `end subroutine X`; compare prefix-wise
        want = statement_streams(src.read_text(), fixed=True)
        got = statement_streams(emitted, fixed=False)
        assert len(want) == len(got), src.name
        for w, g in zip(want, got):
            if w and w[0] == "end":
                assert g[0] == "end"
            else:
                assert w == g, (src.name, w, g)


COMPILERS = ("gfortran", "f95", "flang-new", "flang")


def find_compiler():
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


PROBE_PROGRAM = """\
program acceptance_probe
  use user_mod
  use segment_registry_mod
  implicit none
  type(user), pointer :: ur
  integer :: idx, other, i
  ubbcnt = 3
  call segini(ur, ubbcnt)
  do i = 1, 3
    ur%ubb(i) = 10 * i
  end do
  idx = seg_register(ur)
  ubbcnt = 5
  call segadj(ur, ubbcnt)
  do i = 1, 3
    if (ur%ubb(i) /= 10 * i) error stop 3
  end do
  ubbcnt = 2
  call segadj(ur, ubbcnt)
  if (ur%ubb(1) /= 10 .or. ur%ubb(2) /= 20) error stop 4
  other = seg_register(ur)
  if (other == idx) error stop 5
  select type (p => seg_lookup(idx))
  type is (user)
    if (p%ubb(1) /= 10) error stop 6
  class default
    error stop 7
  end select
  call seg_release(other)
  if (seg_registry_count() /= 1) error stop 8
  write(*, *) 'probe ok'
end program acceptance_probe
"""


def test_criterion_9_compiled_behaviour(tmp_path):
    """With a Fortran 2008 compiler available, the migrated fixture compiles
    and segadj preserves surviving elements while registry indexes stay
    stable across resizes.  Skipped when no compiler is installed."""
    fc = find_compiler()
    if fc is None:
        pytest.skip("no Fortran compiler on PATH ({})".format(", ".join(COMPILERS)))

    out = migrated_bookstore(tmp_path)
    (out / "probe.f90").write_text(PROBE_PROGRAM)
    sources = sorted(p.name for p in out.iterdir() if p.suffix == ".f90")

    # modules depend on each other: compile in passes until stable
    remaining = [s for s in sources if s not in ("bookshop.f90", "probe.f90")]
    for _ in range(len(remaining)):
        failed = []
        for name in remaining:
            proc = subprocess.run(
                [fc, "-c", "-std=f2008", name],
                cwd=out, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                failed.append((name, proc.stderr))
        if not failed:
            break
        if len(failed) == len(remaining):
            pytest.fail("compilation stuck:\n" + failed[0][1])
        remaining = [n for n, _ in failed]
    objects = [s.replace(".f90", ".o") for s in sources if s not in ("bookshop.f90", "probe.f90")]

    for driver in ("bookshop.f90", "probe.f90"):
        exe = out / driver.replace(".f90", ".exe")
        proc = subprocess.run(
            [fc, "-std=f2008", driver, *objects, "-o", str(exe)],
            cwd=out, capture_output=True, text=True,
        )
        assert proc.returncode == 0, (driver, proc.stderr)

    proc = subprocess.run([str(out / "probe.exe")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "probe ok" in proc.stdout


def test_criterion_10_timing_comparison_out_of_scope():
    """Esope-vs-Fortran runtime comparisons need the original proprietary
    toolchain and corpus, which are unavailable; behavioural properties
    (criteria 4 to 9) stand in for them.  Recorded as a skip, not a pass."""
    pytest.skip(
        "runtime comparison against the original Esope toolchain is not "
        "reproducible here; see criteria 4-9 for the substituted properties"
    )
