"""Command line driver: migrate, check, dump-model."""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import analysis
from .emit import RenderConfig, TempWarmup, write_tree
from .errors import ConfigError, MigrationError, MigrationErrors
from .frontend import ast_nodes as A
from .frontend.includes import build_fragment_cache, resolve_includes
from .frontend.lexer import SOURCE_ENCODING, read_source, split_logical_lines
from .frontend.parser import parse_units
from .model import ProjectModel, build_project_model, dump_model
from .transform import migrate_project, negative_pointer_uses, output_name

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

    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def load_units(
    cfg: RunConfig, sources: List[Path],
) -> Tuple[List[A.ProgramUnitAst], ProjectModel]:
    """Parse ``sources``, resolve includes, and build the project model.

    Every source is lexed and parsed before any failure is raised: a
    MigrationErrors holds each failing file's error, sorted by file and then
    line.
    """
    if not sources:
        raise MigrationError(f"no source files under {cfg.src}")

    raw_units: List[A.ProgramUnitAst] = []
    include_edges: List[Tuple[str, str]] = []
    errors: List[Tuple[Tuple[str, int], MigrationError]] = []
    for path in sources:
        try:
            file_units = parse_units(split_logical_lines(read_source(path), str(path)), str(path))
        except MigrationError as exc:
            errors.append(((str(path), exc.span.start_line if exc.span else 0), exc))
            continue
        for unit in file_units:
            raw_units.append(unit)
            for node in unit.body:
                if isinstance(node, A.IncludeNode):
                    include_edges.append((unit.name, node.directive.path))
    if errors:
        raise MigrationErrors([exc for _, exc in sorted(errors, key=lambda e: e[0])])

    search_paths = [cfg.src] + list(cfg.include_paths)
    include_paths = list(dict.fromkeys(path for _, path in include_edges))
    cache = build_fragment_cache(include_paths, search_paths)
    units = [resolve_includes(u, cache) for u in raw_units]

    model = build_project_model(units, [s for p in sorted(cache) for s in cache[p].segments])
    model.include_graph.extend(include_edges)
    for frag in cache.values():
        for nested in frag.includes:
            model.include_graph.append((frag.path, nested))

    if cfg.intent_catalog:
        if not cfg.intent_catalog.is_file():
            raise ConfigError(f"intent catalog not found: {cfg.intent_catalog}")
        model.intent_catalog = analysis.load_intent_catalog(read_source(cfg.intent_catalog))
    return units, model


def cmd_migrate(cfg: RunConfig) -> int:
    cfg = cfg.validated_for_migrate()
    render_cfg = cfg.render_config()
    sources = discover_sources(cfg.src)
    # a helper creates the temp files write_tree opens while this process parses
    with TempWarmup(cfg.out, (output_name(str(p)) for p in sources)) as warmup:
        units, model = load_units(cfg, sources)
        del sources  # its paths, about 0.5 KB a source, would stay alive through the peak
        intents = analysis.infer_intents(model)
        result = migrate_project(units, model, intents, render_cfg)
        if not result.ok:
            sys.stderr.write(result.format_report())
            return 1
        warmup.wait()
        report = write_tree(result.outputs, cfg.out)
        warmup.consumed(name for name, _ in result.outputs)
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
