"""Command line driver: migrate, check, dump-model."""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import analysis
from .emit import RenderConfig, StagedTree, WriteReport, write_tree
from .errors import ConfigError, MigrationError, MigrationErrors
from .frontend import ast_nodes as A
from .frontend.includes import build_fragment_cache, resolve_includes
from .frontend.lexer import SOURCE_ENCODING, read_source, split_logical_lines
from .frontend.parser import StatementTable, parse_units
from .model import (
    ProjectModel, SegmentDefinition, UnitSummary, build_project_model, dump_model, summarize_unit,
)
from .target import output_name, target_names
from .transform import MigrationResult, migrate_project, negative_pointer_uses

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


def discover_sources(src: Path) -> Dict[str, int]:
    """The path of each unit source under ``src``, as a string, in path
    order, with its size in bytes, from one walk with one ``stat`` a
    source.  A symlink to a file counts and a symlinked directory is not
    entered; hidden files and directories count."""
    found: List[Tuple[Tuple[str, ...], str, int]] = []
    pending: List[Tuple[str, Tuple[str, ...]]] = [(os.fspath(src), ())]
    while pending:
        directory, parts = pending.pop()
        try:
            with os.scandir(directory) as it:
                entries = list(it)
        except OSError:
            continue  # an unreadable directory holds no source
        for entry in entries:
            name = entry.name
            if entry.is_dir(follow_symlinks=False):
                pending.append((os.path.join(directory, name), (*parts, name)))
                continue
            dot = name.rfind(".")
            if dot <= 0 or name[dot:] not in UNIT_EXTENSIONS:
                continue
            try:
                info = entry.stat()
            except OSError:
                continue  # a dangling symlink
            if stat.S_ISREG(info.st_mode):
                found.append(((*parts, name), os.path.join(directory, name), info.st_size))
    found.sort(key=lambda source: source[0])  # by components, as paths sort
    return {path: size for _, path, size in found}


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0)) or os.cpu_count() or 1
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def split_sources(sources: Dict[str, int], count: int) -> List[List[str]]:
    """The paths of ``sources`` (path -> size in bytes, in order) cut into
    at most ``count`` contiguous, non-empty ranges of about equal bytes."""
    paths = list(sources)
    count = min(count, len(paths))
    if count <= 1:
        return [paths]
    sizes = list(sources.values())
    total, done, start = sum(sizes), 0, 0
    ranges: List[List[str]] = []
    for i, size in enumerate(sizes):
        done += size
        later = count - len(ranges) - 1  # ranges still to start after this one
        rest = len(paths) - i - 1
        # cut here if this lands nearer the end of the k-th range, k/count of
        # the bytes, than cutting after the next file would
        k = len(ranges) + 1
        nearer = (2 * done + (sizes[i + 1] if rest else 0)) * count >= 2 * total * k
        if later and rest >= later and (rest == later or nearer):
            ranges.append(paths[start:i + 1])
            start = i + 1
    ranges.append(paths[start:])
    return ranges


class RangeFront(NamedTuple):
    """What the front end found in one range of the sources, as plain data."""

    summaries: List[UnitSummary]  # of its units, in order, each without its events
    events: List[Tuple[Tuple, ...]]  # the events of each summary, beside it
    # include path -> its segment definitions and nested include paths
    fragments: Dict[str, Tuple[List[SegmentDefinition], List[str]]]
    include_edges: List[Tuple[str, str]]  # (unit, include path), in unit order
    errors: List[Tuple[str, int, str]]  # (file, line, message)


def read_range(
    cfg: RunConfig, paths: Collection[str],
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
            file_units = parse_units(split_logical_lines(read_source(path), path), path, table)
        except MigrationError as exc:
            errors.append((path, exc.span.start_line if exc.span else 0, str(exc)))
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
        return [], RangeFront([], [], {}, edges, errors)
    fragments = {path: (frag.segments, [node.directive.path for node in frag.includes])
                 for path, frag in cache.items()}
    units = [resolve_includes(u, cache) for u in raw_units]
    events: List[Tuple[Tuple, ...]] = []
    summaries = [summarize_unit(u, events) for u in units]
    return units, RangeFront(summaries, events, fragments, edges, [])


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
    model.events = {s.name: events for front in fronts
                    for s, events in zip(front.summaries, front.events)}
    model.include_graph = [edge for front in fronts for edge in front.include_edges]
    model.include_graph += [(path, nested) for path in sorted(fragments)
                            for nested in fragments[path][1]]
    if cfg.intent_catalog:
        if not cfg.intent_catalog.is_file():
            raise ConfigError(f"intent catalog not found: {cfg.intent_catalog}")
        model.intent_catalog = analysis.load_intent_catalog(read_source(cfg.intent_catalog))
    return model


def load_units(
    cfg: RunConfig, sources: Collection[str],
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
    cfg: RunConfig, render_cfg: RenderConfig, paths: Sequence[str],
    exchange: Callable, modules: bool,
) -> MigrationResult:
    """The pipeline over one range of the sources.  ``exchange(units, front)``
    turns the range's units and front end into the whole project's model,
    intents and target names; the range's own files are then rewritten and
    rendered, and with ``modules`` the generated modules too."""
    units, front = read_range(cfg, paths)
    model, intents, targets = exchange(units, front)
    return migrate_project(units, model, intents, render_cfg, modules, targets=targets)


def migrate_sources(
    cfg: RunConfig, render_cfg: RenderConfig, sources: Dict[str, int], staging: StagedTree,
) -> Tuple[MigrationResult, WriteReport]:
    """Migrate ``sources`` (path -> size in bytes), one contiguous range
    per usable CPU, writing the outputs into ``staging``.

    This process takes the first range and forks a worker for each other
    one.  Each process parses its range; the workers send up their unit
    summaries and their events beside them, fragment segments and include
    edges.  This process merges them into the project model, checks that
    no two outputs or modules would share a name, solves the intents and
    sends each worker what it lacks; each process then
    rewrites, renders and writes its own files, this one the generated
    modules too, and the workers send up their file outcomes without text
    and their write reports.  Unit ASTs and output text never leave the
    process that made them.  Every worker is reaped before this returns or
    raises.
    """
    ranges = split_sources(sources, usable_cpus() if hasattr(os, "fork") else 1)
    workers = []
    try:
        try:
            if len(ranges) > 1:
                from .workers import Worker

                for paths in ranges[1:]:
                    workers.append(Worker.start(
                        lambda pipe, paths=paths: _serve(cfg, render_cfg, paths, staging, pipe),
                        workers))
        except OSError:  # no process to spare: this one takes every range
            for worker in workers:
                worker.stop()
            workers, ranges = [], [list(sources)]

        def exchange(units, front):
            # the summaries hold no events, which only the intent solve, here,
            # reads; a worker's range goes to the other workers only
            fronts = [front, *(worker.receive() for worker in workers)]
            model = merge_ranges(cfg, fronts)
            # a name clash fails the run before any process rewrites
            targets = target_names(model)
            clashes = targets.clashes()
            if clashes:
                raise MigrationErrors([MigrationError(clash) for clash in clashes])
            segments = list(model.segments.values())
            for i, worker in enumerate(workers, start=1):
                worker.pipe.send("model", ([s for f in fronts[:i] for s in f.summaries],
                                           [s for f in fronts[i + 1:] for s in f.summaries],
                                           segments, model.intent_catalog))
            # the workers build their models while the intents are solved
            intents = analysis.infer_intents(model)
            for worker in workers:
                worker.pipe.send("intents", intents)
            return model, intents, targets

        result = migrate_range(cfg, render_cfg, ranges[0], exchange, modules=True)
        staging.wait()
        report = write_tree(result.outputs, staging.path, cfg.out)
        for worker in workers:
            files, part = worker.receive()
            result.merge(files)
            report.files += part.files
            report.errors += part.errors
        # the order of one range: the sources' files, then the modules (every
        # output name is a file name)
        rank = {o.name: i for i, o in enumerate(result.files + result.modules)}
        report.files.sort(key=lambda file: rank[os.path.basename(file[0])])
        report.errors.sort()
        return result, report
    finally:
        for worker in workers:
            worker.stop()


def _serve(
    cfg: RunConfig, render_cfg: RenderConfig, paths: Sequence[str], staging: StagedTree, parent,
) -> None:
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
        return model, intents, target_names(model)

    result = migrate_range(cfg, render_cfg, paths, exchange, modules=False)
    report = write_tree(result.outputs, staging.path, cfg.out)
    parent.send("files", ([o._replace(text=None) for o in result.files], report))


def cmd_migrate(cfg: RunConfig) -> int:
    """Migrate into a staging tree that replaces ``--out`` only once every
    process has written its files without error."""
    cfg = cfg.validated_for_migrate()
    render_cfg = cfg.render_config()
    sources = discover_sources(cfg.src)
    with StagedTree(cfg.out, map(output_name, sources)) as staging:
        result, report = migrate_sources(cfg, render_cfg, sources, staging)
        if not result.ok:
            sys.stderr.write(result.format_report())
            return 1
        if not report.ok:
            raise MigrationErrors([MigrationError(e) for e in report.errors])
        staging.commit(o.name for o in result.files + result.modules)
    if cfg.verbose:
        sys.stdout.write(result.format_report())
    sys.stdout.write(report.format())
    return 0


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


@functools.lru_cache(maxsize=None)
def build_arg_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call: a parser
    and its actions refer to each other, so each new one would be left to
    the cyclic collector, and building it at import would slow every
    import."""
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
    args = build_arg_parser().parse_args(argv)
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
    except KeyboardInterrupt:  # the processes and the staging tree are gone by now
        sys.stderr.write("error: interrupted\n")
        return 130


if __name__ == "__main__":
    sys.exit(main())
