"""Self-test of the benchmark.

Usage, from the root of the repository:  python3 perfbench/selftest.py

1. The generator is deterministic: one seed, one byte-identical tree.
2. An entry point that no longer exists is reported, not dropped.
3. A tiny tree of every workload runs untraced and traced with no failed
   operation, one output digest, and every metric BENCHMARK.json names.
4. Deliberately corrupted output trees fail the output checks.

Exits 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path
from typing import Callable, List

import run as bench

from corpus import WORKLOADS, generate
import checks

TINY_UNITS = {"esope_tree": 9, "forward_chain": 9, "plain77_bulk": 2}


def expect(failures: List[str], ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def test_generator(failures: List[str]) -> None:
    for w in WORKLOADS:
        a, b = generate(w, 7, TINY_UNITS[w]), generate(w, 7, TINY_UNITS[w])
        expect(failures, a.files == b.files and a.catalog == b.catalog,
               f"{w}: same seed gives the same tree")
        c = generate(w, 8, TINY_UNITS[w])
        expect(failures, a.files != c.files, f"{w}: another seed gives another tree")


def test_tiny_runs(failures: List[str]) -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in WORKLOADS:
        corpus = generate(w, 3, TINY_UNITS[w])
        for trace, names in ((False, end_to_end), (True, per_layer)):
            result, lines = bench.run(corpus, 0, trace)
            label = f"{w} trace={int(trace)}"
            expect(failures, result["correct"] and result["failed"] == 0,
                   f"{label}: failed_ops = 0 ({result['failed']}/{result['attempted']})")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(failures, got == names,
                   f"{label}: reports exactly the metrics and units BENCHMARK.json names "
                   f"(differ: {sorted(set(got.items()) ^ set(names.items()))})")
            if not result["correct"]:
                print("\n".join(lines))


def test_missing_entry_point(failures: List[str]) -> None:
    sys.path.insert(0, str(bench.SRC))
    import tracer

    gone = ("model", "segmigrate.cli", "no_such_entry_point")
    saved = tracer.ENTRY_POINTS
    tracer.ENTRY_POINTS = saved + (gone,)
    try:
        t = tracer.Tracer()
        t.install()
    finally:
        tracer.ENTRY_POINTS = saved
    expect(failures, t.missing == ["model:segmigrate.cli.no_such_entry_point"],
           f"a vanished entry point is reported as missing ({t.missing})")


Corruption = Callable[[Path], None]


def _edit(name: str, old: str, new: str) -> Corruption:
    def apply(out: Path) -> None:
        path = out / name
        text = path.read_text()
        if old not in text:
            raise ValueError(f"{old!r} not in {name}")
        path.write_text(text.replace(old, new, 1))
    return apply


def _drop_line(name: str, pattern: str) -> Corruption:
    def apply(out: Path) -> None:
        path = out / name
        lines = path.read_text().splitlines(keepends=True)
        hit = next(i for i, l in enumerate(lines) if re.search(pattern, l))
        del lines[hit]
        path.write_text("".join(lines))
    return apply


def _delete(name: str) -> Corruption:
    return lambda out: (out / name).unlink()


CORRUPTIONS = {
    "esope_tree": [
        ("a missing output file", _delete("user_mod.f90")),
        ("dotted access left in code", _edit("es0002.f90", "ur2%nloan", "ur2.nloan")),
        ("slash-dim left in code", _edit("es0002.f90", "size(ur%ubb, dim=1)", "ur%ubb(/1)")),
        ("a memory command left in code", _edit("es0002.f90", "call segprt(ur2)", "segprt, ur2")),
        ("a lost SEGDES removal marker", _drop_line("es0003.f90", r"removed .*SEGDES")),
        ("a lost include end marker", _drop_line("es0004.f90", r"end include \"library.seg\"")),
    ],
    "forward_chain": [
        ("a wrong intent", _edit("fw0005.f90", "intent(out) :: b", "intent(inout) :: b")),
        ("a lost routine", _edit("fw0001.f90", "subroutine fw0002(", "subroutine fx0002(")),
        ("an extra output file", lambda out: (out / "extra.f90").write_text("\n")),
    ],
    "plain77_bulk": [
        ("a blank lost inside a character literal", _edit("pb0001.f90", "-25 ", "-25")),
        ("an include directive in code", _edit("pb0002.f90", "implicit none",
                                               "implicit none\ninclude 'x.inc'")),
    ],
}


def test_corrupted_trees(failures: List[str]) -> None:
    bench.WORK.mkdir(exist_ok=True)
    for w, corruptions in CORRUPTIONS.items():
        corpus = generate(w, 5, TINY_UNITS[w])
        base = bench.WORK / f"selftest-{w}"
        shutil.rmtree(base, ignore_errors=True)
        try:
            ws = bench.Workspace(corpus, base)
            sample = bench.run_child(ws, "child.py", [], {})
            expect(failures, sample.ok, f"{w}: the tool's own output passes the checks")
            for what, corrupt in corruptions:
                bad = base / "bad"
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(ws.out, bad)
                corrupt(bad)
                problems = checks.check_tree(corpus, bad)
                expect(failures, bool(problems), f"{w}: {what} fails the checks"
                       + (f" ({problems[0][:70]})" if problems else ""))
        finally:
            shutil.rmtree(base, ignore_errors=True)


def main() -> int:
    if not (bench.SRC / "segmigrate" / "cli.py").is_file():
        sys.stderr.write(f"selftest: no segmigrate sources under {bench.SRC}\n")
        return 2
    failures: List[str] = []
    test_generator(failures)
    test_missing_entry_point(failures)
    test_corrupted_trees(failures)
    test_tiny_runs(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
