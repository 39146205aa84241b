"""Shared test utilities: independent oracles and output scanners.

Everything here is computed without going through the code under test, so
the assertions in the test modules compare two independent answers.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

FIXTURES = Path(__file__).parent / "fixtures"
BOOKSTORE = FIXTURES / "bookstore"
BOOKSTORE_INTENTS = FIXTURES / "bookstore.intents"
PLAIN77 = FIXTURES / "plain77"


# --- free-form source scanning ----------------------------------------------


def strip_comment(line: str) -> str:
    """Drop a trailing `!` comment, never inside a string literal."""
    in_string = None
    for i, c in enumerate(line):
        if in_string:
            if c == in_string:
                in_string = None
        elif c in "'\"":
            in_string = c
        elif c == "!":
            return line[:i]
    return line


def strip_strings(line: str) -> str:
    return re.sub(r"'[^']*'|\"[^\"]*\"", "''", line)


def logical_lines(text: str) -> List[str]:
    """Free-form statements with `&` continuations merged, comments dropped."""
    out: List[str] = []
    pending = ""
    for raw in text.splitlines():
        line = strip_comment(raw).rstrip()
        if not line.strip():
            continue
        if pending:
            line = line.lstrip()
            if line.startswith("&"):
                line = line[1:]
            pending = pending[:-1].rstrip() + " " + line.strip()
        else:
            pending = line.strip()
        if pending.endswith("&"):
            continue
        out.append(pending)
        pending = ""
    if pending:
        out.append(pending)
    return out


_IDENT_RE = re.compile(r"[a-z_][a-z0-9_]*", re.IGNORECASE)

#: words of the emitted free-form dialect that are never symbol references
FREE_FORM_KEYWORDS = {
    "module", "program", "subroutine", "function", "end", "contains",
    "use", "implicit", "none", "private", "public", "interface", "procedure",
    "type", "extends", "class", "abstract", "import", "deferred",
    "integer", "real", "character", "logical", "double", "precision",
    "len", "kind", "pointer", "allocatable", "dimension", "result",
    "intent", "in", "out", "inout", "assignment", "operator",
    "call", "if", "then", "else", "elseif", "endif", "select", "case",
    "default", "is", "do", "enddo", "while", "continue", "goto", "go", "to",
    "return", "stop", "error", "exit", "cycle",
    "allocate", "deallocate", "nullify", "write", "read", "print", "format",
    "and", "or", "not", "eq", "ne", "lt", "le", "gt", "ge", "eqv", "neqv",
    "true", "false",
}

INTRINSICS = {
    "associated", "allocated", "size", "min", "max", "int", "nint", "null",
    "trim", "adjustl", "abs", "mod", "sqrt", "move_alloc", "len_trim",
}


def identifiers(line: str) -> List[str]:
    return [m.group(0).lower() for m in _IDENT_RE.finditer(strip_strings(line))]


# --- Esope residue scanner (eradication property) ---------------------------

_ESOPE_COMMAND_RE = re.compile(
    r"^\s*\d*\s*(segini|segact|segadj|segsup|segprt|segdes|segcop|segmov)\b\s*[,a-z]",
    re.IGNORECASE,
)
_POINTEUR_RE = re.compile(r"^\s*pointeur\b", re.IGNORECASE)
_SEGMENT_DECL_RE = re.compile(r"^\s*segment\b", re.IGNORECASE)
_DOTTED_RE = re.compile(r"(?<![.\w])[a-z_][a-z0-9_]*\.[a-z_]", re.IGNORECASE)
_SLASH_DIM_RE = re.compile(r"\(\s*/")


def esope_residue(text: str) -> List[str]:
    """Lines of free-form output still carrying Esope statement syntax."""
    hits: List[str] = []
    for line in logical_lines(text):
        bare = strip_strings(line)
        if _POINTEUR_RE.match(bare) or _SEGMENT_DECL_RE.match(bare):
            hits.append(line)
            continue
        if _ESOPE_COMMAND_RE.match(bare) and not re.match(
            r"^\s*\d*\s*call\b", bare, re.IGNORECASE
        ):
            hits.append(line)
            continue
        if _DOTTED_RE.search(bare) or _SLASH_DIM_RE.search(bare):
            hits.append(line)
    return hits


# --- referenced-but-undeclared scanner --------------------------------------

_DECL_HEAD_RE = re.compile(
    r"^\s*(integer|real|character|logical|double\s+precision|type\s*\(|class\s*\()",
    re.IGNORECASE,
)
_UNIT_HEAD_RE = re.compile(
    r"^\s*(?:module|program)\s+([a-z][a-z0-9_]*)\s*$", re.IGNORECASE
)
_PROC_HEAD_RE = re.compile(
    r"^\s*(subroutine|function)\s+([a-z][a-z0-9_]*)\s*\(([^)]*)\)", re.IGNORECASE
)
_USE_RE = re.compile(r"^\s*use\s+([a-z][a-z0-9_]*)", re.IGNORECASE)
_TYPE_DEF_RE = re.compile(r"^\s*type\b[^(]*::\s*([a-z][a-z0-9_]*)", re.IGNORECASE)
_INTERFACE_RE = re.compile(r"^\s*interface\s+([a-z][a-z0-9_]*)\s*$", re.IGNORECASE)


def _decl_entity_names(line: str) -> List[str]:
    if "::" not in line:
        return []
    rhs = line.split("::", 1)[1]
    names = []
    for part in _split_outside_parens(rhs, ","):
        part = part.split("=", 1)[0].strip()
        m = _IDENT_RE.match(part)
        if m:
            names.append(m.group(0).lower())
    return names


def _split_outside_parens(text: str, sep: str) -> List[str]:
    parts, depth, cur = [], 0, ""
    for c in text:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == sep and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += c
    parts.append(cur)
    return parts


def module_exports(files: Dict[str, str]) -> Dict[str, Set[str]]:
    """Names reachable through `use` of each module in the output tree."""
    exports: Dict[str, Set[str]] = {}
    for text in files.values():
        current: Optional[str] = None
        for line in logical_lines(text):
            m = _UNIT_HEAD_RE.match(line)
            if m and not line.lower().startswith("program"):
                current = m.group(1).lower()
                exports[current] = set()
                continue
            if current is None:
                continue
            if re.match(r"^\s*end\s+module\b", line, re.IGNORECASE):
                current = None
                continue
            m = _TYPE_DEF_RE.match(line)
            if m:
                exports[current].add(m.group(1).lower())
            m = _INTERFACE_RE.match(line)
            if m:
                exports[current].add(m.group(1).lower())
            m = _PROC_HEAD_RE.match(line)
            if m:
                exports[current].add(m.group(2).lower())
            if _DECL_HEAD_RE.match(line):
                exports[current].update(_decl_entity_names(line))
            if re.match(r"^\s*public\s*::", line, re.IGNORECASE):
                exports[current].update(_decl_entity_names(line))
    return exports


def undeclared_references(files: Dict[str, str]) -> List[str]:
    """(file, symbol) findings for symbols used without any declaration."""
    exports = module_exports(files)
    findings: List[str] = []
    for name, text in files.items():
        findings.extend(f"{name}: {sym}" for sym in _undeclared_in_file(text, exports))
    return findings


def _undeclared_in_file(text: str, exports: Dict[str, Set[str]]) -> List[str]:
    declared: Set[str] = set()
    referenced: List[str] = []
    used_modules: List[str] = []
    for line in logical_lines(text):
        m = _USE_RE.match(line)
        if m:
            used_modules.append(m.group(1).lower())
            declared.add(m.group(1).lower())
            continue
        m = _UNIT_HEAD_RE.match(line)
        if m:
            declared.add(m.group(1).lower())
            continue
        m = _PROC_HEAD_RE.match(line)
        if m:
            declared.add(m.group(2).lower())
            declared.update(
                a.strip().lower() for a in m.group(3).split(",") if a.strip()
            )
            continue
        m = _INTERFACE_RE.match(line)
        if m:
            declared.add(m.group(1).lower())
            continue
        m = _TYPE_DEF_RE.match(line)
        if m:
            declared.add(m.group(1).lower())
        if _DECL_HEAD_RE.match(line) or re.match(
            r"^\s*(public|private|procedure)\b", line, re.IGNORECASE
        ):
            declared.update(_decl_entity_names(line))
            # the type name inside type(...)/class(...) is a reference
            tm = re.match(r"^\s*(?:type|class)\s*\(\s*([a-z][a-z0-9_]*)\s*\)", line, re.IGNORECASE)
            if tm:
                referenced.append(tm.group(1).lower())
            continue
        if re.match(r"^\s*(end|contains|implicit|abstract\s+interface|interface)\b",
                    line, re.IGNORECASE):
            continue
        # keyword-argument names (`dim=` in size calls) are not references
        line = re.sub(r"([(,]\s*)[a-z_]\w*\s*=(?!=)", r"\1", line, flags=re.IGNORECASE)
        referenced.extend(identifiers(line))

    imported: Set[str] = set()
    for mod in used_modules:
        imported |= exports.get(mod, set())
    out = []
    for sym in referenced:
        if sym in FREE_FORM_KEYWORDS or sym in INTRINSICS:
            continue
        if sym in declared or sym in imported:
            continue
        if sym not in out:
            out.append(sym)
    return out


# --- intent oracle ----------------------------------------------------------


def oracle_intents(routines: Dict[str, object], catalog: Dict[str, List[str]]):
    """Exhaustive interprocedural read/write simulation on an acyclic
    program: forwarding is fully inlined instead of iterated."""
    memo: Dict[Tuple[str, int], Tuple[Optional[str], bool]] = {}

    def summary(routine: str, pos: int) -> Tuple[Optional[str], bool]:
        key = (routine, pos)
        if key in memo:
            return memo[key]
        spec = routines[routine]
        param = spec.params[pos]
        first: Optional[str] = None
        has_write = False

        def apply(f: Optional[str], w: bool):
            nonlocal first, has_write
            if first is None:
                first = f
            has_write = has_write or w

        for ev in spec.events:
            if ev[0] == "r" and ev[1] == param:
                apply("r", False)
            elif ev[0] == "w" and ev[1] == param:
                apply("w", True)
            elif ev[0] == "f" and ev[3] == param:
                _, callee, cpos, _ = ev
                if callee in routines:
                    if cpos < len(routines[callee].params):
                        apply(*summary(callee, cpos))
                    else:
                        apply("r", True)
                elif callee in catalog and cpos < len(catalog[callee]):
                    intent = catalog[callee][cpos]
                    apply({"in": "r", "out": "w", "inout": "r"}[intent], intent != "in")
                else:
                    apply("r", True)
        memo[key] = (first, has_write)
        return memo[key]

    table: Dict[Tuple[str, int], str] = {}
    for name, spec in routines.items():
        for i in range(len(spec.params)):
            first, has_write = summary(name, i)
            if first is None:
                table[(name, i)] = "inout"
            elif first == "w":
                table[(name, i)] = "out"
            elif has_write:
                table[(name, i)] = "inout"
            else:
                table[(name, i)] = "in"
    return table


#: the 4-state first-access machine of the intent solver
_READ = {"unknown": "in", "in": "in", "out": "out", "inout": "inout"}
_WRITE = {"unknown": "out", "in": "inout", "out": "out", "inout": "inout"}


def jacobi_intents(routines: Dict[str, object], catalog: Dict[str, List[str]],
                   max_sweeps: int = 100):
    """The full-sweep Jacobi intent solver as it stood before the solver
    became change-driven, frozen as the reference for its schedule: every
    sweep re-runs every routine against the previous sweep's state.  Returns
    None when the state has not settled after ``max_sweeps`` sweeps (it
    cycles on some recursive programs)."""
    state = {
        (name, i): "unknown" for name, spec in routines.items() for i in range(len(spec.params))
    }
    changed = True
    sweeps = 0
    while changed:
        if sweeps == max_sweeps:
            return None
        sweeps += 1
        changed = False
        snapshot = dict(state)
        for name, spec in routines.items():
            local = _jacobi_run_events(spec, snapshot, routines, catalog)
            for i, value in enumerate(local):
                if value != state[(name, i)]:
                    state[(name, i)] = value
                    changed = True
    return {key: ("inout" if v == "unknown" else v) for key, v in state.items()}


def _jacobi_run_events(spec, table, routines, catalog) -> List[str]:
    pos = {p: i for i, p in enumerate(spec.params)}
    states = ["unknown"] * len(spec.params)

    def read(name):
        if name in pos:
            states[pos[name]] = _READ[states[pos[name]]]

    def write(name):
        if name in pos:
            states[pos[name]] = _WRITE[states[pos[name]]]

    for ev in spec.events:
        if ev[0] == "r":
            read(ev[1])
        elif ev[0] == "w":
            write(ev[1])
        else:
            _, callee, cpos, name = ev
            intent = _jacobi_callee_intent(callee, cpos, table, routines, catalog)
            if intent == "in":
                read(name)
            elif intent == "out":
                write(name)
            elif intent == "inout":
                read(name)
                write(name)
    return states


def _jacobi_callee_intent(callee, cpos, table, routines, catalog) -> str:
    if callee in routines:
        if cpos >= len(routines[callee].params):
            return "inout"
        return table[(callee, cpos)]
    if callee in catalog:
        intents = catalog[callee]
        if cpos < len(intents):
            return intents[cpos]
    return "inout"


def random_program(rng: random.Random, spec_cls, cyclic: bool = False):
    """A random program.  Routines only forward to later routines, so the
    call graph is acyclic, unless ``cyclic`` lets them call any routine,
    themselves included.  ``cyclic`` changes only which callees are
    eligible, so the acyclic program drawn from a seed stays the same."""
    n_routines = rng.randint(1, 8)
    catalog: Dict[str, List[str]] = {}
    if rng.random() < 0.5:
        catalog["ext0"] = [rng.choice(["in", "out", "inout"])
                           for _ in range(rng.randint(1, 3))]
    names = [f"r{i}" for i in range(n_routines)]
    routines: Dict[str, object] = {}
    for i, name in enumerate(names):
        params = [f"p{j}" for j in range(rng.randint(0, 4))]
        events: List[Tuple] = []
        for _ in range(rng.randint(0, 10)):
            kind = rng.random()
            if not params:
                break
            param = rng.choice(params)
            if kind < 0.35:
                events.append(("r", param))
            elif kind < 0.65:
                events.append(("w", param))
            else:
                callees = (names if cyclic else names[i + 1 :]) + list(catalog)
                if not callees:
                    continue
                callee = rng.choice(callees)
                if callee in catalog:
                    arity = len(catalog[callee])
                else:
                    arity = 4  # may exceed the callee's arity on purpose
                events.append(("f", callee, rng.randint(0, max(arity - 1, 0)), param))
        routines[name] = spec_cls(params=params, events=events)
    return routines, catalog
