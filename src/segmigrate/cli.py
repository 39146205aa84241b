"""Command line driver: migrate, check, dump-model."""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import analysis
from .emit import RenderConfig, TempWarmup, write_tree
from .errors import ConfigError, MigrationError, MigrationErrors
from .frontend import ast_nodes as A
from .frontend.includes import build_fragment_cache, resolve_includes
from .frontend.lexer import SOURCE_ENCODING, read_source, split_logical_lines
from .frontend.parser import StatementTable, parse_units
from .model import (
    ProjectModel, SegmentDefinition, UnitSummary, build_project_model, dump_model, summarize_unit,
)
from .transform import MigrationResult, migrate_project, negative_pointer_uses, output_name

#: files parsed as program units
UNIT_EXTENSIONS = (".f", ".F", ".eso")


@dataclass(frozen=True)
class RunConfig:
    src: Optional[Path] = None
    out: Optional[Path] = None
    include_paths: Tuple[Path, ...] = ()
    intent_catalog: Optional[Path] = None
    indent_width: int = 2
    max_line_length: int = 132
    verbose: bool = False

    def validated_for_migrate(self) -> "RunConfig":
        if self.src is None or self.out is None:
            raise ConfigError("migrate needs both --src and --out")
        if self.src.resolve() == self.out.resolve():
            raise ConfigError("output directory must differ from the source directory")
        if not self.src.is_dir():
            raise ConfigError(f"source directory not found: {self.src}")
        return self

    def render_config(self) -> RenderConfig:
        try:
            return RenderConfig(
                indent_width=self.indent_width,
                max_line_length=self.max_line_length,
            )
        except MigrationError as exc:
            raise ConfigError(str(exc))


_CONFIG_KEYS = {
    "src", "out", "include_path", "intent_catalog",
    "indent_width", "max_line_length", "verbose",
}


def parse_config_file(text: str, base: Path) -> Dict[str, object]:
    """key = value lines, `#` comments; paths are relative to the file.  A
    path stands for the UTF-8 bytes of its text, as a command-line path
    stands for its bytes, so it names the same file whatever the locale."""
    values: Dict[str, object] = {}
    include_paths: List[Path] = []

    def path(value: str) -> Path:
        return base / os.fsdecode(value.encode(SOURCE_ENCODING))

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in ("src", "out", "intent_catalog"):
            values[key] = path(value)
        elif key == "include_path":
            include_paths.append(path(value))
        elif key in ("indent_width", "max_line_length"):
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"config line {lineno}: {key} must be an integer")
        else:  # verbose
            values[key] = value.lower() in ("1", "true", "yes", "on")
    if include_paths:
        values["include_paths"] = tuple(include_paths)
    return values


def load_config(args: argparse.Namespace) -> RunConfig:
    """Flags win over config file values, which win over the defaults."""
    cfg = RunConfig()
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = read_source(path)
        except MigrationError as exc:
            raise ConfigError(str(exc))
        cfg = replace(cfg, **parse_config_file(text, path.parent))
    updates: Dict[str, object] = {}
    if args.src:
        updates["src"] = Path(args.src)
    if args.out:
        updates["out"] = Path(args.out)
    if args.include_path:
        updates["include_paths"] = cfg.include_paths + tuple(
            Path(p) for p in args.include_path
        )
    if args.intent_catalog:
        updates["intent_catalog"] = Path(args.intent_catalog)
    if args.verbose:
        updates["verbose"] = True
    return replace(cfg, **updates)


# --- pipeline ---------------------------------------------------------------


def discover_sources(src: Path) -> List[Path]:
    return [p for p in sorted(src.rglob("*")) if p.is_file() and p.suffix in UNIT_EXTENSIONS]


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0)) or os.cpu_count() or 1
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def split_sources(sources: List[Path], count: int) -> List[List[Path]]:
    """``sources`` cut into at most ``count`` contiguous, non-empty ranges of
    about equal bytes."""
    count = min(count, len(sources))
    if count <= 1:
        return [sources]
    sizes = []
    for path in sources:
        try:
            sizes.append(path.stat().st_size)
        except OSError:
            sizes.append(0)  # reading it fails later, with a diagnostic
    total, done, start = sum(sizes), 0, 0
    ranges: List[List[Path]] = []
    for i, size in enumerate(sizes):
        done += size
        later = count - len(ranges) - 1  # ranges still to start after this one
        rest = len(sources) - i - 1
        # cut here if this lands nearer the end of the k-th range, k/count of
        # the bytes, than cutting after the next file would
        k = len(ranges) + 1
        nearer = (2 * done + (sizes[i + 1] if rest else 0)) * count >= 2 * total * k
        if later and rest >= later and (rest == later or nearer):
            ranges.append(sources[start:i + 1])
            start = i + 1
    ranges.append(sources[start:])
    return ranges


class RangeFront(NamedTuple):
    """What the front end found in one range of the sources, as plain data."""

    summaries: List[UnitSummary]  # of its units, in order
    # include path -> its segment definitions and nested include paths
    fragments: Dict[str, Tuple[List[SegmentDefinition], List[str]]]
    include_edges: List[Tuple[str, str]]  # (unit, include path), in unit order
    errors: List[Tuple[str, int, str]]  # (file, line, message)


def read_range(
    cfg: RunConfig, paths: Sequence[Path],
) -> Tuple[List[A.ProgramUnitAst], RangeFront]:
    """Lex and parse ``paths``, resolve the includes of their units and
    summarize them.  The sources and the files they include share one
    statement table, which lives as long as this call.

    Every failure is returned, not raised: each source that does not parse,
    each include that names a missing or unreadable file, and each include
    cycle.  The units are returned only if there is none.
    """
    if not paths:
        raise MigrationError(f"no source files under {cfg.src}")
    raw_units: List[A.ProgramUnitAst] = []
    requests: List[A.IncludeNode] = []
    edges: List[Tuple[str, str]] = []
    errors: List[Tuple[str, int, str]] = []
    table: StatementTable = {}
    for path in paths:
        try:
            file_units = parse_units(
                split_logical_lines(read_source(path), str(path)), str(path), table)
        except MigrationError as exc:
            errors.append((str(path), exc.span.start_line if exc.span else 0, str(exc)))
            continue
        for unit in file_units:
            raw_units.append(unit)
            for node in unit.body:
                if isinstance(node, A.IncludeNode):
                    requests.append(node)
                    edges.append((unit.name, node.directive.path))
    try:
        cache = build_fragment_cache(requests, [cfg.src, *cfg.include_paths], table)
    except MigrationErrors as exc:
        errors += ((e.span.file_id, e.span.start_line, str(e)) if e.span else ("", 0, str(e))
                   for e in exc.errors)
    if errors:
        return [], RangeFront([], {}, edges, errors)
    fragments = {path: (frag.segments, [node.directive.path for node in frag.includes])
                 for path, frag in cache.items()}
    units = [resolve_includes(u, cache) for u in raw_units]
    return units, RangeFront([summarize_unit(u) for u in units], fragments, edges, [])


def merge_ranges(cfg: RunConfig, fronts: Sequence[RangeFront]) -> ProjectModel:
    """The project model of the front end of every range, in range order.

    The front-end errors of all ranges are raised together, once each,
    sorted by file and then line; then the model's own errors.
    """
    errors = sorted({e for front in fronts for e in front.errors})
    if errors:
        raise MigrationErrors([MigrationError(message) for _, _, message in errors])
    fragments: Dict[str, Tuple[List[SegmentDefinition], List[str]]] = {}
    for front in fronts:
        for path, fragment in front.fragments.items():
            fragments.setdefault(path, fragment)  # the same file, whichever range read it
    model = build_project_model(
        [s for front in fronts for s in front.summaries],
        [s for path in sorted(fragments) for s in fragments[path][0]],
    )
    model.include_graph = [edge for front in fronts for edge in front.include_edges]
    model.include_graph += [(path, nested) for path in sorted(fragments)
                            for nested in fragments[path][1]]
    if cfg.intent_catalog:
        if not cfg.intent_catalog.is_file():
            raise ConfigError(f"intent catalog not found: {cfg.intent_catalog}")
        model.intent_catalog = analysis.load_intent_catalog(read_source(cfg.intent_catalog))
    return model


def load_units(
    cfg: RunConfig, sources: List[Path],
) -> Tuple[List[A.ProgramUnitAst], ProjectModel]:
    """Parse ``sources``, resolve includes, and build the project model, all
    in this process.

    Every source is lexed and parsed, and every include loaded, before any
    failure is raised: a MigrationErrors holds them all, sorted by file and
    then line.
    """
    units, front = read_range(cfg, sources)
    return units, merge_ranges(cfg, [front])


def migrate_range(
    cfg: RunConfig, render_cfg: RenderConfig, paths: Sequence[Path],
    exchange: Callable, modules: bool,
) -> MigrationResult:
    """The pipeline over one range of the sources.  ``exchange(units, front)``
    turns the range's units and front end into the whole project's model and
    intents; the range's own files are then rewritten and rendered, and with
    ``modules`` the generated modules too."""
    units, front = read_range(cfg, paths)
    model, intents = exchange(units, front)
    return migrate_project(units, model, intents, render_cfg, modules)


def migrate_sources(
    cfg: RunConfig, render_cfg: RenderConfig, sources: List[Path],
) -> MigrationResult:
    """Migrate ``sources``, one contiguous range per usable CPU.

    This process takes the first range and forks a worker for each other
    one.  Each process parses its range; the workers send up their unit
    summaries, fragment segments and include edges.  This process merges
    them into the project model, solves the intents and sends each worker
    what it lacks; each process then rewrites and renders its own files, and
    the workers send up their outputs.  Unit ASTs never leave the process
    that parsed them.  Every worker is reaped before this returns or raises.
    """
    ranges = split_sources(sources, usable_cpus() if hasattr(os, "fork") else 1)
    workers = []
    try:
        try:
            if len(ranges) > 1:
                from .workers import Worker

                for paths in ranges[1:]:
                    workers.append(Worker.start(
                        lambda pipe, paths=paths: _serve(cfg, render_cfg, paths, pipe), workers))
        except OSError:  # no process to spare: this one takes every range
            for worker in workers:
                worker.stop()
            workers, ranges = [], [sources]

        def exchange(units, front):
            # a worker gets the other ranges' summaries without their events,
            # which only the intent solve, here, reads.  This range's copies
            # are made while the workers finish their front ends; a worker's
            # range goes to the other workers only.
            thin = [_without_events(front.summaries)]
            fronts = [front, *(worker.receive() for worker in workers)]
            if len(workers) > 1:
                thin += [_without_events(f.summaries) for f in fronts[1:]]
            model = merge_ranges(cfg, fronts)
            segments = list(model.segments.values())
            for i, worker in enumerate(workers, start=1):
                worker.pipe.send("model", ([s for part in thin[:i] for s in part],
                                           [s for part in thin[i + 1:] for s in part],
                                           segments, model.intent_catalog))
            # the workers build their models while the intents are solved
            intents = analysis.infer_intents(model)
            for worker in workers:
                worker.pipe.send("intents", intents)
            return model, intents

        result = migrate_range(cfg, render_cfg, ranges[0], exchange, modules=True)
        if not result.conflicts:  # a name clash fails the run before any file counts
            for worker in workers:
                result.merge(worker.receive())
        return result
    finally:
        for worker in workers:
            worker.stop()


def _without_events(summaries: Sequence[UnitSummary]) -> List[UnitSummary]:
    return [replace(s, events=()) for s in summaries]


def _serve(cfg: RunConfig, render_cfg: RenderConfig, paths: Sequence[Path], parent) -> None:
    """The body of a worker, talking to the parent over the pipe ``parent``."""
    import gc

    def exchange(units, front):
        parent.send("front", front)
        _, (before, after, segments, catalog) = parent.receive()
        # all of it lives until this process ends, so no collection need scan it
        gc.freeze()
        model = build_project_model([*before, *front.summaries, *after], segments)
        model.intent_catalog = catalog
        _, intents = parent.receive()
        return model, intents

    result = migrate_range(cfg, render_cfg, paths, exchange, modules=False)
    parent.send("files", result.files)


def cmd_migrate(cfg: RunConfig) -> int:
    cfg = cfg.validated_for_migrate()
    render_cfg = cfg.render_config()
    sources = discover_sources(cfg.src)
    # a helper creates the temp files write_tree opens while the ranges are migrated
    with TempWarmup(cfg.out, (output_name(str(p)) for p in sources)) as warmup:
        result = migrate_sources(cfg, render_cfg, sources)
        del sources  # its paths, about 0.5 KB a source, would stay alive through the write
        if not result.ok:
            sys.stderr.write(result.format_report())
            return 1
        outputs = result.outputs
        warmup.wait()
        report = write_tree(outputs, cfg.out)
        warmup.consumed(name for name, _ in outputs)
    if cfg.verbose:
        sys.stdout.write(result.format_report())
    sys.stdout.write(report.format())
    return 0 if report.ok else 1


def _require_src(cfg: RunConfig, command: str) -> None:
    if cfg.src is None:
        raise ConfigError(f"{command} needs --src")
    if not cfg.src.is_dir():
        raise ConfigError(f"source directory not found: {cfg.src}")


def cmd_check(cfg: RunConfig) -> int:
    """Census of the project; writes nothing."""
    _require_src(cfg, "check")
    units, model = load_units(cfg, discover_sources(cfg.src))

    kinds = Counter(u.kind for u in model.units.values())
    commands = Counter(kind for u in model.units.values() for kind in u.esope_statements)

    lines = [f"units[{kind}]: {n}" for kind, n in sorted(kinds.items())]
    lines.append(f"segments: {len(model.segments)}")
    lines += [f"commands[{kind}]: {n}" for kind, n in sorted(commands.items())]
    lines.append(f"includes: {len(model.include_graph)}")
    warnings = [f"warning: {w}" for unit in units for w in negative_pointer_uses(unit, model)]
    lines += warnings + [f"warnings: {len(warnings)}"]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_dump_model(cfg: RunConfig) -> int:
    _require_src(cfg, "dump-model")
    _, model = load_units(cfg, discover_sources(cfg.src))
    sys.stdout.write(dump_model(model))
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seg-migrate",
        description="Migrate fixed-form Fortran with Esope segments to Fortran 2008.",
    )
    parser.add_argument("command", choices=["migrate", "check", "dump-model"])
    parser.add_argument("--src", help="source directory")
    parser.add_argument("--out", help="output directory (migrate only)")
    parser.add_argument(
        "--include-path", action="append", default=[], metavar="DIR",
        help="extra directory searched for included files (repeatable)",
    )
    parser.add_argument("--intent-catalog", metavar="FILE",
                        help="known intents of external routines")
    parser.add_argument("--config", metavar="FILE", help="key=value configuration file")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "migrate":
            return cmd_migrate(cfg)
        if args.command == "check":
            return cmd_check(cfg)
        return cmd_dump_model(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except MigrationError as exc:
        errors = exc.errors if isinstance(exc, MigrationErrors) else [exc]
        sys.stderr.write("".join(f"error: {e}\n" for e in errors))
        return 1


if __name__ == "__main__":
    sys.exit(main())
