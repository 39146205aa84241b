"""Stage-timed benchmark of ``seg-migrate migrate`` on a generated legacy tree.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload esope_tree --seed 1 --seconds 30 --trace 0

The run generates the workload's tree from the seed, measures the import of
``segmigrate.cli`` in fresh interpreters (``setup_s``), then migrates the
tree again and again, one fresh child process at a time (a closed loop with
one client), until ``--seconds`` have passed.  Every output tree is checked
without the tool and hashed; all trees of a run must hash the same.

``--trace 0`` times the plain tool and reports the end-to-end metrics.
``--trace 1`` alternates plain and traced children and reports the
per-layer metrics of the traced ones; the spans of the last traced child
are kept in ``.perfbench_work/spans-<workload>.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import corpus as corpus_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: fresh interpreters timed for setup_s before the first migration, after one
#: that fills the bytecode cache; one more is timed after every migration
SETUP_IMPORTS = 7
#: a child that runs longer than this has hung
CHILD_TIMEOUT_S = 150
#: percentiles reported when at least ten samples lie beyond them
PERCENTILES = (99, 95, 90, 75, 50)

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import segmigrate.cli; "
    "print(time.perf_counter() - t)"
)

LAYERS = ("cli", "lexer", "parser", "includes", "model", "analysis", "transform", "emit")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same set iteration order in every child
    return env


def measure_setup() -> float:
    """Seconds a fresh interpreter spends importing segmigrate.cli."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout)


class Workspace:
    """The generated tree, its catalog and one output directory."""

    def __init__(self, corpus: corpus_mod.Corpus, base: Path) -> None:
        self.corpus = corpus
        self.src = base / "src"
        self.out = base / "out"
        self.catalog = base / "external.intents"
        corpus.write(self.src)
        self.catalog.write_text(corpus.catalog)

    def argv(self) -> List[str]:
        return ["migrate", "--src", str(self.src), "--out", str(self.out),
                "--intent-catalog", str(self.catalog)]


class Sample:
    def __init__(self, info: Optional[dict], problems: List[str], digest: str = "") -> None:
        self.info = info or {}
        self.problems = problems
        self.digest = digest

    @property
    def ok(self) -> bool:
        return not self.problems


def run_child(ws: Workspace, script: str, extra: List[str], verified: Dict[str, bool]) -> Sample:
    """Migrate once in a fresh child, then check and hash the output tree.

    The full checks run once per distinct digest: identical bytes pass or
    fail them identically.
    """
    shutil.rmtree(ws.out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / script), json.dumps(ws.argv())] + extra
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Sample(None, [f"{script} did not finish in {CHILD_TIMEOUT_S} s"])
    try:
        info = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return Sample(None, [f"{script} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
    if Path(info["module"]).resolve().parent.parent != SRC.resolve():
        return Sample(info, [f"imported segmigrate from {info['module']}, not {SRC}"])
    if info["rc"] != 0:
        return Sample(info, [f"migrate exited {info['rc']}: {proc.stderr.strip()[-500:]}"])
    digest = checks.digest(ws.out)
    if digest not in verified:
        problems = checks.check_tree(ws.corpus, ws.out)
        verified[digest] = not problems
        return Sample(info, problems[:20], digest)
    return Sample(info, [] if verified[digest] else ["output failed the checks"], digest)


def percentile_note(values: List[float]) -> str:
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for q in PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
            return f"p{q} {cut:.6g}"
    return "no percentile has ten samples beyond it"


def timing_line(name: str, unit: str, values: List[float]) -> str:
    med = statistics.median(values)
    return (f"{name}: median {med:.6g} {unit}, max {max(values):.6g} {unit}, "
            f"{percentile_note(values)} (n={len(values)})")


def self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: List[dict], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer times from the spans of one traced child, plus its counts."""
    own = self_times(spans)
    duration = [s["end"] - s["start"] for s in spans]

    def total(key: str, value: str, times: List[float] = own) -> float:
        return sum(t for s, t in zip(spans, times) if s[key] == value)

    m = {f"{layer}.busy_s": total("layer", layer)
         for layer in ("lexer", "parser", "includes", "model", "analysis")}
    m["analysis.solve_s"] = total("name", "solve_intents", duration)
    m["transform.self_s"] = total("layer", "transform")
    m["emit.render_s"] = total("name", "render_unit")
    m["emit.write_s"] = total("name", "write_tree")
    m["cli.discover_s"] = total("name", "discover_sources")
    m["cli.glue_s"] = total("name", "main")
    m["trace.wall_s"] = duration[0]
    for layer in LAYERS:
        rss = [s["maxrss_kb"] for s in spans if s["layer"] == layer]
        m[f"{layer}.maxrss_mb"] = max(rss) / 1024 if rss else 0.0
    m.update((key, float(value)) for key, value in counts.items())
    nodes_in = counts["includes.nodes_in"]
    m["includes.growth"] = counts["includes.nodes_out"] / nodes_in if nodes_in else 0.0
    return m


def unit_of(name: str) -> str:
    if name == "lines_per_s":
        return "1/s"
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), (".growth", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def run(corpus: corpus_mod.Corpus, seconds: float, trace: bool) -> Tuple[dict, List[str]]:
    """Measure one generated tree; returns the result object and report lines."""
    workload, seed = corpus.workload, corpus.seed
    WORK.mkdir(exist_ok=True)
    base = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    lines = [f"workload {workload} seed {seed}: {corpus.units} units, "
             f"{len(corpus.files)} files, {corpus.cards} cards, "
             f"{len(corpus.expected_outputs())} expected outputs"]
    try:
        ws = Workspace(corpus, base)
        setup: List[float] = []
        if not trace:
            measure_setup()
            setup += [measure_setup() for _ in range(SETUP_IMPORTS)]
        verified: Dict[str, bool] = {}
        plain: List[Sample] = []
        traced: List[Tuple[Sample, dict]] = []
        spans_file = base / "spans.json"
        start = time.monotonic()
        while not plain or time.monotonic() - start < seconds:
            plain.append(run_child(ws, "child.py", [], verified))
            if not trace:
                setup.append(measure_setup())
            else:
                sample = run_child(ws, "tracer.py", [str(spans_file)], verified)
                spans = json.loads(spans_file.read_text()) if sample.ok else []
                own = self_times(spans)
                if spans and (min(own) < -1e-6 or abs(sum(own) - sample.info["wall_s"]) > 1e-6):
                    sample.problems.append("layer self times do not add up to the wall time")
                traced.append((sample, layer_metrics(spans, sample.info["counts"])
                               if spans else {}))
                if spans:
                    shutil.copy(spans_file, WORK / f"spans-{workload}.json")
    finally:
        shutil.rmtree(base, ignore_errors=True)

    samples = plain + [s for s, _ in traced]
    failed = [s for s in samples if not s.ok]
    digests = sorted({s.digest for s in samples if s.digest})
    if len(digests) > 1:
        lines.append(f"NONDETERMINISTIC: {len(digests)} distinct output digests")
    for s in failed[:3]:
        lines.append("failed: " + "; ".join(s.problems[:5]))
    lines.append(f"digest {workload} seed {seed}: "
                 f"{digests[0] if len(digests) == 1 else 'MISMATCH ' + ' '.join(digests)}")
    lines.append(f"failed_ops: {len(failed)}/{len(samples)} = "
                 f"{len(failed) / len(samples):.4g} share")

    good = [s.info for s in plain if s.ok]
    metrics: Dict[str, float] = {}
    if not trace and good:
        walls = [i["wall_s"] for i in good]
        metrics["migrate_s"] = statistics.median(walls)
        metrics["lines_per_s"] = statistics.median(corpus.cards / w for w in walls)
        metrics["peak_rss_mb"] = statistics.median(i["maxrss_kb"] / 1024 for i in good)
        metrics["setup_s"] = statistics.median(setup)
        lines.append(timing_line("migrate_s", "s", walls))
        lines.append(timing_line("setup_s", "s", setup))
    elif trace:
        per_sample = [m for s, m in traced if s.ok and m]
        missing = sorted({x for s, _ in traced for x in s.info.get("missing", ())})
        for entry in missing:
            lines.append(f"MISSING entry point (layer reported as missing): {entry}")
        if per_sample:
            for key in per_sample[0]:
                metrics[key] = statistics.median(m.get(key, 0.0) for m in per_sample)
            if good:
                metrics["trace.overhead_s"] = (
                    metrics["trace.wall_s"] - statistics.median(i["wall_s"] for i in good)
                )
            lines.append(timing_line("trace.wall_s", "s", [m["trace.wall_s"] for m in per_sample]))
        metrics["trace.missing_entry_points"] = float(len(missing))
    for key, value in metrics.items():
        lines.append(f"  {key} = {value:.6g} {unit_of(key)}")

    correct = bool(metrics) and not failed and len(digests) == 1
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "segmigrate" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no segmigrate sources under {SRC}\n")
        return 2
    corpus = corpus_mod.generate(args.workload, args.seed)
    result, lines = run(corpus, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
