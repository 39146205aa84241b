"""One traced ``migrate`` in a fresh interpreter.

Usage: python3 tracer.py '<json list of seg-migrate arguments>' SPANS_JSON

Each layer's public entry point is replaced, at the module attribute
through which ``cli`` or ``transform.project`` looks it up, by a wrapper
that records a span (name, layer, start, end, parent, peak RSS at return)
and a few counts.  The spans stay in memory and are written to SPANS_JSON
when the run ends; the counts and the wall time are printed as one JSON
line.  Nothing under ``src/`` is edited: the wrappers exist only in this
process.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

from segmigrate import cli

#: (layer, module the caller looks the name up in, attribute)
ENTRY_POINTS = (
    ("cli", "segmigrate.cli", "discover_sources"),
    ("lexer", "segmigrate.cli", "split_logical_lines"),
    ("lexer", "segmigrate.frontend.includes", "split_logical_lines"),
    ("parser", "segmigrate.cli", "parse_units"),
    ("includes", "segmigrate.cli", "build_fragment_cache"),
    ("includes", "segmigrate.cli", "resolve_includes"),
    ("model", "segmigrate.cli", "build_project_model"),
    ("analysis", "segmigrate.analysis", "infer_intents"),
    ("analysis", "segmigrate.analysis", "solve_intents"),
    ("transform", "segmigrate.cli", "migrate_project"),
    ("emit", "segmigrate.transform.project", "render_unit"),
    ("emit", "segmigrate.cli", "write_tree"),
)

#: the Fortran 2008 limit on free-form line length
LINE_LIMIT = 132

#: every count reported, zero when its entry point never ran
COUNTS = (
    "lexer.cards", "lexer.logical_lines", "parser.nodes",
    "includes.nodes_in", "includes.nodes_out", "includes.splices",
    "model.units", "model.call_edges", "model.segments",
    "analysis.routines", "analysis.params", "analysis.events",
    "transform.rewritten", "transform.removed", "transform.passthrough", "transform.errors",
    "emit.files", "emit.output_bytes", "emit.output_lines", "emit.lines_over_limit",
    "emit.write_errors",
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter(dict.fromkeys(COUNTS, 0))
        self.missing: List[str] = []
        # results read once the run is over, when they are complete
        self.model = None
        self.result = None
        self.outputs = None
        self.origin = time.perf_counter()

    def span(self, name: str, layer: str, fn: Callable, count: Optional[Callable]):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            record = {"name": name, "layer": layer, "parent": parent}
            self.spans.append(record)
            self.stack.append(index)
            record["start"] = time.perf_counter() - self.origin
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter() - self.origin
                record["maxrss_kb"] = _maxrss_kb()
                self.stack.pop()
            if count is not None:
                count(result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        counters: Dict[str, Callable] = {
            "split_logical_lines": self._count_lexer,
            "parse_units": self._count_parser,
            "resolve_includes": self._count_includes,
            "build_project_model": self._keep_model,
            "solve_intents": self._count_solve,
            "migrate_project": self._keep_result,
            "write_tree": self._keep_outputs,
        }
        for layer, module_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{layer}:{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(attr, layer, fn, counters.get(attr)))

    def run(self, argv: List[str]) -> int:
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            return self.span("main", "cli", cli.main, None)(argv)

    # --- counts ----------------------------------------------------------

    def _count_lexer(self, lines, source, *_args, **_kw) -> None:
        self.counts["lexer.cards"] += len(source.splitlines())
        self.counts["lexer.logical_lines"] += len(lines)

    def _count_parser(self, units, *_args, **_kw) -> None:
        self.counts["parser.nodes"] += sum(len(u.body) for u in units)

    def _count_includes(self, resolved, unit, *_args, **_kw) -> None:
        self.counts["includes.nodes_in"] += len(unit.body)
        self.counts["includes.nodes_out"] += len(resolved.body)
        self.counts["includes.splices"] += sum(
            type(node).__name__ == "IncludeNode" for node in unit.body
        )

    def _keep_model(self, model, *_args, **_kw) -> None:
        self.model = model

    def _count_solve(self, _table, routines, *_args, **_kw) -> None:
        self.counts["analysis.routines"] += len(routines)
        self.counts["analysis.params"] += sum(len(s.params) for s in routines.values())
        self.counts["analysis.events"] += sum(len(s.events) for s in routines.values())

    def _keep_result(self, result, *_args, **_kw) -> None:
        self.result = result

    def _keep_outputs(self, report, outputs, *_args, **_kw) -> None:
        self.outputs = outputs
        self.counts["emit.files"] += len(report.files)
        self.counts["emit.write_errors"] += len(report.errors)

    def final_counts(self) -> Dict[str, int]:
        counts = Counter(self.counts)
        if self.model is not None:
            counts["model.units"] = len(self.model.units)
            counts["model.call_edges"] = len(self.model.call_graph)
            counts["model.segments"] = len(self.model.segments)
        if self.result is not None:
            counts["transform.rewritten"] = sum(s.rewritten for s in self.result.stats)
            counts["transform.removed"] = sum(s.removed for s in self.result.stats)
            counts["transform.passthrough"] = sum(s.passthrough for s in self.result.stats)
            counts["transform.errors"] = len(self.result.errors)
        for _name, text in self.outputs or ():
            lines = text.splitlines()
            counts["emit.output_bytes"] += len(text.encode("utf-8"))
            counts["emit.output_lines"] += len(lines)
            counts["emit.lines_over_limit"] += sum(len(l) > LINE_LIMIT for l in lines)
        return dict(counts)


def main() -> None:
    argv = json.loads(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    rc = tracer.run(argv)
    root = tracer.spans[0]
    with open(sys.argv[2], "w") as fh:
        json.dump(tracer.spans, fh)
    print(json.dumps({
        "wall_s": root["end"] - root["start"],
        "rc": rc,
        "maxrss_kb": _maxrss_kb(),
        "counts": tracer.final_counts(),
        "missing": tracer.missing,
        "module": cli.__file__,
    }), flush=True)
    os._exit(0)


if __name__ == "__main__":
    main()
