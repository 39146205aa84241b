"""Shared test utilities: independent oracles and output scanners.

Everything here is computed without going through the code under test, so
the assertions in the test modules compare two independent answers.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
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


# --- acyclic `use` checker --------------------------------------------------


def use_graph(files: Dict[str, str]) -> Dict[str, Set[str]]:
    """Module -> the modules named by a `use` anywhere inside it."""
    graph: Dict[str, Set[str]] = {}
    for text in files.values():
        current: Optional[str] = None
        for line in logical_lines(text):
            m = _UNIT_HEAD_RE.match(line)
            if m and not line.lower().startswith("program"):
                current = m.group(1).lower()
                graph.setdefault(current, set())
            elif re.match(r"^\s*end\s+module\b", line, re.IGNORECASE):
                current = None
            elif current is not None:
                m = _USE_RE.match(line)
                if m:
                    graph[current].add(m.group(1).lower())
    return graph


def use_cycle_modules(files: Dict[str, str]) -> List[str]:
    """Modules of an output tree that no compile order can place: each is on
    a cycle of `use`, which Fortran forbids, or uses such a module.  Empty
    when the `use` graph is acyclic."""
    graph = use_graph(files)
    pending = {mod: deps & graph.keys() for mod, deps in graph.items()}
    users: Dict[str, Set[str]] = {mod: set() for mod in graph}
    for mod, deps in pending.items():
        for dep in deps:
            users[dep].add(mod)
    ready = [mod for mod, deps in pending.items() if not deps]
    while ready:
        mod = ready.pop()
        del pending[mod]
        for user in users[mod]:
            pending[user].discard(mod)
            if not pending[user]:
                ready.append(user)
    return sorted(pending)


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


# --- frozen statement lexer -------------------------------------------------
#
# The character-at-a-time tokenizer and the island folder as they stood
# before the tokenizer became one master regex with interned tokens, frozen
# as the reference for the token streams.  Its tokens are frozen dataclasses
# with the same ``repr`` as the live ones, so streams compare by ``repr``.


class OracleLexError(Exception):
    """What the frozen lexer raises where the live one raises MigrationError."""


@dataclass(frozen=True)
class OracleToken:
    kind: str
    value: str

    def __repr__(self):
        return f"Token(kind={self.kind!r}, value={self.value!r})"


@dataclass(frozen=True)
class OracleDottedAccess:
    pointer: Optional[str]
    field: str
    subscripts: tuple = ()

    def __repr__(self):
        return (f"DottedAccess(pointer={self.pointer!r}, field={self.field!r}, "
                f"subscripts={self.subscripts!r})")


@dataclass(frozen=True)
class OracleSlashDim:
    base: object
    dim: int

    def __repr__(self):
        return f"SlashDim(base={self.base!r}, dim={self.dim!r})"


_ORACLE_LOGICAL_WORDS = {
    "eq", "ne", "lt", "le", "gt", "ge",
    "and", "or", "not", "eqv", "neqv", "xor",
    "true", "false",
}
_ORACLE_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*", re.IGNORECASE)
_ORACLE_DOTWORD_RE = re.compile(r"\.([a-z]+)\.", re.IGNORECASE)


def oracle_tokenize(text: str) -> List[OracleToken]:
    T = OracleToken
    toks: List[OracleToken] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "'" or c == '"':
            j = i + 1
            quote = c
            while j < n:
                if text[j] == quote:
                    if j + 1 < n and text[j + 1] == quote:  # doubled quote escape
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                raise OracleLexError("unterminated string literal")
            toks.append(T("string", text[i : j + 1]))
            i = j + 1
            continue
        m = _ORACLE_NAME_RE.match(text, i)
        if m:
            toks.append(T("name", m.group(0).lower()))
            i = m.end()
            continue
        if c.isdigit():
            i = _oracle_scan_number(text, i, toks)
            continue
        if c == ".":
            m = _ORACLE_DOTWORD_RE.match(text, i)
            if m and m.group(1).lower() in _ORACLE_LOGICAL_WORDS:
                toks.append(T("op", m.group(0).lower()))
                i = m.end()
                continue
            if i + 1 < n and text[i + 1].isdigit() and not _oracle_prev_is_value(toks):
                i = _oracle_scan_number(text, i, toks)
                continue
            toks.append(T("punct", "."))
            i += 1
            continue
        if text.startswith("**", i) or text.startswith("//", i) or text.startswith("=>", i):
            toks.append(T("op", text[i : i + 2]))
            i += 2
            continue
        if c in "+-*/=":
            toks.append(T("op", c))
            i += 1
            continue
        if c in "(),:%$":
            toks.append(T("punct", c))
            i += 1
            continue
        raise OracleLexError(f"unexpected character {c!r} in statement")
    return toks


def _oracle_prev_is_value(toks: List[OracleToken]) -> bool:
    if not toks:
        return False
    t = toks[-1]
    return t.kind in ("name", "int", "real") or (t.kind == "punct" and t.value == ")")


def _oracle_scan_number(text: str, i: int, toks: List[OracleToken]) -> int:
    n = len(text)
    j = i
    while j < n and text[j].isdigit():
        j += 1
    is_real = False
    if j < n and text[j] == ".":
        # do not swallow the dot of `1.eq.2`
        m = _ORACLE_DOTWORD_RE.match(text, j)
        if not (m and m.group(1).lower() in _ORACLE_LOGICAL_WORDS):
            is_real = True
            j += 1
            while j < n and text[j].isdigit():
                j += 1
    if j < n and text[j] in "eEdD":
        k = j + 1
        if k < n and text[k] in "+-":
            k += 1
        if k < n and text[k].isdigit():
            is_real = True
            j = k
            while j < n and text[j].isdigit():
                j += 1
    value = text[i:j].lower()
    toks.append(OracleToken("real" if is_real else "int", value))
    return j


_O_LPAREN = OracleToken("punct", "(")
_O_RPAREN = OracleToken("punct", ")")
_O_COMMA = OracleToken("punct", ",")
_O_DOT = OracleToken("punct", ".")
_O_SLASH = OracleToken("op", "/")


def oracle_scan_expression(tokens: Sequence[OracleToken]) -> list:
    out: list = []
    i = 0
    toks = list(tokens)
    n = len(toks)
    while i < n:
        t = toks[i]
        if isinstance(t, OracleToken) and t.kind == "name":
            if (
                i + 2 < n
                and isinstance(toks[i + 1], OracleToken)
                and toks[i + 1] == _O_DOT
                and isinstance(toks[i + 2], OracleToken)
                and toks[i + 2].kind == "name"
            ):
                access = OracleDottedAccess(t.value, toks[i + 2].value)
                i += 3
                access, i = _oracle_fold_paren_suffix(access, toks, i)
                out.append(access)
                continue
            slash = _oracle_try_plain_slash(t, toks, i)
            if slash is not None:
                out.append(slash[0])
                i = slash[1]
                continue
        out.append(t)
        i += 1
    return out


def _oracle_try_plain_slash(t, toks, i):
    # name ( / k )
    if i + 3 < len(toks) and toks[i + 1] == _O_LPAREN and toks[i + 2] == _O_SLASH:
        if not (isinstance(toks[i + 3], OracleToken) and toks[i + 3].kind == "int"):
            raise OracleLexError("slash-dim index must be an integer literal")
        if i + 4 >= len(toks) or toks[i + 4] != _O_RPAREN:
            raise OracleLexError("malformed slash-dim")
        return OracleSlashDim(t, int(toks[i + 3].value)), i + 5
    return None


def _oracle_fold_paren_suffix(access, toks, i):
    n = len(toks)
    if i >= n or toks[i] != _O_LPAREN:
        return access, i
    if i + 1 < n and toks[i + 1] == _O_SLASH:
        if not (i + 2 < n and isinstance(toks[i + 2], OracleToken) and toks[i + 2].kind == "int"):
            raise OracleLexError("slash-dim index must be an integer literal")
        if i + 3 >= n or toks[i + 3] != _O_RPAREN:
            raise OracleLexError("malformed slash-dim")
        return OracleSlashDim(access, int(toks[i + 2].value)), i + 4
    inner, j = _oracle_collect_group(toks, i)
    subs = tuple(tuple(oracle_scan_expression(part)) for part in _oracle_split_top_commas(inner))
    return OracleDottedAccess(access.pointer, access.field, subs), j


def _oracle_collect_group(toks, i):
    depth = 0
    inner = []
    j = i
    while j < len(toks):
        t = toks[j]
        if t == _O_LPAREN:
            depth += 1
            if depth > 1:
                inner.append(t)
        elif t == _O_RPAREN:
            depth -= 1
            if depth == 0:
                return inner, j + 1
            inner.append(t)
        else:
            inner.append(t)
        j += 1
    raise OracleLexError("unbalanced parentheses")


def _oracle_split_top_commas(toks):
    parts: list = [[]]
    depth = 0
    for t in toks:
        if t == _O_LPAREN:
            depth += 1
        elif t == _O_RPAREN:
            depth -= 1
        if depth == 0 and t == _O_COMMA:
            parts.append([])
        else:
            parts[-1].append(t)
    if parts == [[]]:
        return []
    return parts


# --- frozen statement walkers -----------------------------------------------
#
# The walkers that each read a statement's token streams again, as they stood
# before every statement node carried one record of facts, frozen as the
# reference for that record: the names a statement references, the names a
# unit invokes, the events of a unit, the default pointers of a statement and
# whether the rewriter counts it as touched by Esope.
# They take live AST nodes as input and compare tokens with plain tuples.

from segmigrate.frontend import ast_nodes as _A  # noqa: E402
from segmigrate.frontend.lexer import DottedAccess as _Dotted, SlashDim as _Slash, Token as _Token  # noqa: E402

_LP, _RP, _COMMA = ("punct", "("), ("punct", ")"), ("punct", ",")


def _frozen_walk_tokens(stream):
    for t in stream:
        yield t
        if isinstance(t, _Dotted):
            for sub in t.subscripts:
                yield from _frozen_walk_tokens(sub)
        elif isinstance(t, _Slash):
            yield from _frozen_walk_tokens((t.base,))


def _frozen_stream_names(stream):
    for t in _frozen_walk_tokens(stream):
        if isinstance(t, _Token):
            if t.kind == "name":
                yield t.value
        elif isinstance(t, _Dotted) and t.pointer:
            yield t.pointer


def _frozen_node_streams(node):
    if isinstance(node, _A.OpaqueNode):
        return [node.tokens]
    if isinstance(node, _A.AssignmentNode):
        streams = [node.lhs, node.rhs]
    elif isinstance(node, _A.CallNode):
        streams = list(node.args)
    else:
        return []
    if node.guard:
        streams.append(node.guard)
    return streams


def frozen_statement_reference_names(node) -> Set[str]:
    if isinstance(node, _A.OpaqueNode):
        return _frozen_opaque_reference_names(node.tokens)
    if isinstance(node, _A.TypeDeclNode):
        streams = [dim for ent in node.entities for dim in ent.dims]
    else:
        streams = _frozen_node_streams(node)
    names: Set[str] = set()
    for stream in streams:
        names.update(_frozen_stream_names(stream))
    return names - _A.INTRINSIC_FUNCTIONS


def _frozen_opaque_reference_names(tokens) -> Set[str]:
    names = set(_frozen_stream_names(tokens))
    skip = set()
    for t in tokens:
        if not (isinstance(t, _Token) and t.kind == "name"):
            break
        if t.value in _A.STATEMENT_KEYWORDS:
            skip.add(t.value)
        else:
            break
    for t in tokens:
        if isinstance(t, _Token) and t.kind == "name" and t.value in ("then", "to"):
            skip.add(t.value)
    first = tokens[0] if tokens else None
    if isinstance(first, _Token) and first.kind == "name" and first.value == "common":
        inside = False
        for t in tokens[1:]:
            if isinstance(t, _Token) and t.value == "/":
                inside = not inside
            elif inside and isinstance(t, _Token) and t.kind == "name":
                skip.add(t.value)
    return (names - skip - _A.STATEMENT_KEYWORDS) - _A.INTRINSIC_FUNCTIONS


def frozen_invoked_names(unit) -> Set[str]:
    found: Set[str] = set()

    def scan(stream):
        for i, t in enumerate(stream):
            if isinstance(t, _Token) and t.kind == "name":
                nxt = stream[i + 1] if i + 1 < len(stream) else None
                if nxt == _LP:
                    found.add(t.value)
            elif isinstance(t, _Dotted):
                for sub in t.subscripts:
                    scan(sub)
            elif isinstance(t, _Slash):
                scan([t.base])

    for node in unit.body:
        streams = _frozen_node_streams(node)
        if isinstance(node, _A.AssignmentNode):
            streams[0] = node.lhs[1:]
        for stream in streams:
            scan(stream)
    return found


def frozen_unit_events(unit, model) -> List[Tuple]:
    seg_by_pointer = {
        p: seg for node in unit.body if isinstance(node, _A.PointerDeclNode) for p, seg in node.entries
    }
    for name in frozen_segments_in_scope(unit):
        seg_by_pointer.setdefault(name, name)  # a default pointer
    return [ev for node in unit.body
            for ev in _frozen_statement_events(node, unit, model, seg_by_pointer)]


def frozen_usable_events(events: Sequence[Tuple], params: Sequence[str]) -> List[Tuple]:
    """The events of a routine the intent solver can use, as a test on each
    event's prefix: an event on a dummy that no earlier event writes, unless
    it is a read that an earlier event repeats."""
    kept = []
    for k, ev in enumerate(events):
        before = events[:k]
        if ev[-1] not in params or ("w", ev[-1]) in before:
            continue
        if ev[0] == "r" and ev in before:
            continue
        kept.append(ev)
    return kept


def _frozen_reads(stream):
    for n in _frozen_stream_names(stream):
        if n not in _A.INTRINSIC_FUNCTIONS:
            yield ("r", n)


def _frozen_statement_events(node, unit, model, seg_by_pointer):
    if isinstance(node, _A.TypeDeclNode):
        for ent in node.entities:
            for dim in ent.dims:
                yield from _frozen_reads(dim)
    elif isinstance(node, _A.AssignmentNode):
        if node.guard:
            yield from _frozen_reads(node.guard)
        yield from _frozen_reads(node.rhs)
        head, rest = (node.lhs[0], node.lhs[1:]) if node.lhs else (None, [])
        yield from _frozen_reads(rest)
        if isinstance(head, _Token) and head.kind == "name":
            if head.value != unit.name:
                yield ("w", head.value)
        elif isinstance(head, _Dotted):
            for sub in head.subscripts:
                yield from _frozen_reads(sub)
            if head.pointer:
                yield ("r", head.pointer)
    elif isinstance(node, _A.CallNode):
        if node.guard:
            yield from _frozen_reads(node.guard)
        for i, arg in enumerate(node.args):
            if len(arg) == 1 and isinstance(arg[0], _Token) and arg[0].kind == "name":
                yield ("f", node.callee, i, arg[0].value)
            else:
                yield from _frozen_reads(arg)
    elif isinstance(node, _A.EsopeCommandNode):
        seg = None
        if model is not None and seg_by_pointer.get(node.target) in model.segments:
            seg = model.segments[seg_by_pointer[node.target]]
        dim_vars = seg.dimensioning_vars if seg else []
        if node.kind == _A.SEGINI:
            for v in dim_vars:
                yield ("r", v)
            yield ("w", node.target)
        elif node.kind == _A.SEGINI_COPY:
            yield ("r", node.source)
            yield ("w", node.target)
        elif node.kind == _A.SEGACT_MOVE:
            yield ("r", node.source)
            yield ("r", node.target)
            yield ("w", node.target)
        elif node.kind == _A.SEGADJ:
            for v in dim_vars:
                yield ("r", v)
            yield ("r", node.target)
            yield ("w", node.target)
        elif node.kind == _A.SEGSUP:
            yield ("r", node.target)
            yield ("w", node.target)
        else:
            yield ("r", node.target)
    elif isinstance(node, _A.OpaqueNode):
        yield from _frozen_opaque_events(node.tokens)


def _frozen_opaque_events(tokens):
    head = tokens[0] if tokens else None
    if not (isinstance(head, _Token) and head.kind == "name"):
        yield from _frozen_reads(tokens)
        return
    kw = head.value
    if kw in ("write", "print"):
        yield from _frozen_reads(tokens[1:])
    elif kw == "read":
        control, rest = _frozen_split_control(tokens[1:])
        yield from _frozen_reads(control)
        for item in _frozen_split_top_commas(rest):
            base = item[0] if item else None
            yield from _frozen_reads(item[1:])
            if isinstance(base, _Token) and base.kind == "name":
                yield ("w", base.value)
    elif kw == "do":
        k = next((i for i, t in enumerate(tokens)
                  if isinstance(t, _Token) and t.kind == "op" and t.value == "="), None)
        if k is not None and k >= 1:
            var = tokens[k - 1]
            yield from _frozen_reads(tokens[k + 1:])
            if isinstance(var, _Token) and var.kind == "name":
                yield ("w", var.value)
        else:
            yield from _frozen_reads(tokens[1:])
    else:
        for ev in _frozen_reads(tokens):
            if ev[1] not in _A.STATEMENT_KEYWORDS:
                yield ev


def _frozen_split_control(tokens):
    if tokens and tokens[0] == _LP:
        depth = 0
        for i, t in enumerate(tokens):
            if t == _LP:
                depth += 1
            elif t == _RP:
                depth -= 1
                if depth == 0:
                    return tokens[1:i], tokens[i + 1:]
    return [], tokens


def _frozen_split_top_commas(toks):
    parts: list = [[]]
    depth = 0
    for t in toks:
        if t == _LP:
            depth += 1
        elif t == _RP:
            depth -= 1
        if depth == 0 and t == _COMMA:
            parts.append([])
        else:
            parts[-1].append(t)
    if parts == [[]]:
        return []
    return parts


def frozen_esope_touch(node) -> bool:
    return any(isinstance(t, (_Dotted, _Slash)) for stream in _frozen_node_streams(node) for t in stream)


def frozen_default_pointer_uses(node, scope_names: Set[str], pointers: Dict[str, str]):
    if isinstance(node, _A.EsopeCommandNode):
        for name in (node.target, node.source):
            if name in scope_names and name not in pointers:
                yield name
        return
    for stream in _frozen_node_streams(node):
        for t in _frozen_walk_tokens(stream):
            if isinstance(t, _Dotted) and t.pointer in scope_names and t.pointer not in pointers:
                yield t.pointer


# --- the frozen negative-literal scan ---------------------------------------
#
# ``check``'s scan for pointers met with a negative integer literal, as it
# stood before the statement record held the names: it flattens each stream
# of a statement, a dotted access standing for its pointer and a slash-dim
# for its base, and looks for ``name op - int`` and ``- int op name``.  On
# code with no dotted access and no slash-dim it is the reference for the
# record's ``negated`` names.

_F_COMPARE_OPS = {"=", ".eq.", ".ne.", ".lt.", ".le.", ".gt.", ".ge."}
_F_MINUS = ("op", "-")


def frozen_negative_pointer_uses(unit, model) -> List[str]:
    summary = model.units[unit.name]
    pointers = set(summary.pointers)
    pointers |= {n for n in summary.segments_in_scope if n in model.segments}
    if not pointers:
        return []
    warnings: List[str] = []
    for node in unit.body:
        for stream in _frozen_negative_streams(node):
            flat = [
                _Token("name", t.pointer) if isinstance(t, _Dotted) else t
                for t in _frozen_walk_tokens(stream)
                if isinstance(t, _Token) or isinstance(t, _Dotted) and t.pointer
            ]
            for hit in _frozen_scan_negative(flat, pointers):
                warnings.append(f"{node.span.label()}: pointer {hit!r} used with a negative literal")
    return warnings


def _frozen_negative_streams(node):
    if isinstance(node, _A.OpaqueNode):
        return [node.tokens]
    if isinstance(node, _A.AssignmentNode):
        # one `lhs = rhs` stream: the negative-literal pattern spans the `=`
        streams = [list(node.lhs) + [_Token("op", "=")] + list(node.rhs)]
    elif isinstance(node, _A.CallNode):
        streams = list(node.args)
    else:
        return []
    return streams + [node.guard] if node.guard else streams


def _frozen_scan_negative(toks, pointers) -> List[str]:
    hits: List[str] = []
    for i, t in enumerate(toks):
        if not (t.kind == "name" and t.value in pointers):
            continue
        if (
            i + 2 < len(toks)
            and toks[i + 1].kind == "op" and toks[i + 1].value in _F_COMPARE_OPS
            and toks[i + 2] == _F_MINUS
            and i + 3 < len(toks) and toks[i + 3].kind == "int"
        ):
            hits.append(t.value)
        elif (
            i >= 3
            and toks[i - 1].kind == "op" and toks[i - 1].value in _F_COMPARE_OPS
            and toks[i - 2].kind == "int"
            and toks[i - 3] == _F_MINUS
        ):
            hits.append(t.value)
    return hits


# --- frozen unit scanners ---------------------------------------------------
#
# The functions that each scanned a unit's body again, as they stood before
# the project model kept one summary per unit, frozen as the reference for
# that summary: the POINTEUR map, the declared types, the implicit table, the
# referenced and defined names, the names the external-name classification
# looked at, and what the model builder collected from the body.


def frozen_pointer_segments(unit) -> Dict[str, str]:
    return {
        p: seg
        for node in unit.body
        if isinstance(node, _A.PointerDeclNode)
        for p, seg in node.entries
    }


def _frozen_format_type(base, char_len) -> str:
    if base == "character":
        return f"character(len={1 if char_len is None else char_len})"
    return base


def frozen_declared_types(unit) -> Dict[str, str]:
    types: Dict[str, str] = {}
    dims_only: Set[str] = set()
    for node in unit.body:
        if isinstance(node, _A.TypeDeclNode):
            for ent in node.entities:
                if node.base_type is None:
                    dims_only.add(ent.name)
                    continue
                types[ent.name] = _frozen_format_type(node.base_type, node.char_len)
    for node in unit.body:
        if isinstance(node, _A.PointerDeclNode):
            for pname, seg in node.entries:
                types[pname] = f"type({seg}), pointer"
    for name in dims_only:
        types.setdefault(name, "")
    return types


def _frozen_expand_letters(spec: str) -> List[str]:
    out: List[str] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(chr(c) for c in range(ord(lo), ord(hi) + 1))
        elif part:
            out.append(part)
    return out


def frozen_implicit_rule_table(unit) -> Dict[str, str]:
    table = {letter: "integer" if letter in "ijklmn" else "real"
             for letter in "abcdefghijklmnopqrstuvwxyz"}
    for node in unit.body:
        if isinstance(node, _A.ImplicitDeclNode) and not node.none:
            for type_name, letters in node.rules:
                m = re.match(r"character\s*\*\s*(\d+)", type_name)
                if m:
                    type_name = _frozen_format_type("character", m.group(1))
                for letter in _frozen_expand_letters(letters):
                    table[letter] = type_name
    return table


def frozen_referenced_symbols(unit) -> Set[str]:
    names: Set[str] = set()
    for node in unit.body:
        names |= frozen_statement_reference_names(node)
        if isinstance(node, _A.CallNode):
            names.add(node.callee)
    return names


def frozen_defined_symbols(unit) -> Set[str]:
    names: Set[str] = set(unit.params)
    names.add(unit.name)
    for node in unit.body:
        if isinstance(node, _A.TypeDeclNode):
            names |= {e.name for e in node.entities}
        elif isinstance(node, _A.PointerDeclNode):
            names |= {p for p, _ in node.entries}
        elif isinstance(node, _A.ExternalDeclNode):
            names |= set(node.names)
        elif isinstance(node, _A.SegmentDefNode):
            names.add(node.definition.name)
            names |= node.definition.field_names()
    return names


def frozen_segments_in_scope(unit) -> List[str]:
    scope = [n.definition.name for n in unit.body if isinstance(n, _A.SegmentDefNode)]
    for name in unit.extra_segments_in_scope:
        if name not in scope:
            scope.append(name)
    return scope


def frozen_unit_summary(unit) -> Dict[str, object]:
    """Every field of the unit's summary, each from its own scan."""
    external: Set[str] = set()
    typed: Set[str] = set()
    for node in unit.body:
        if isinstance(node, _A.ExternalDeclNode):
            external |= set(node.names)
        elif isinstance(node, _A.TypeDeclNode) and node.base_type is not None:
            typed |= {e.name for e in node.entities}
    arrays = {e.name for node in unit.body if isinstance(node, _A.TypeDeclNode)
              for e in node.entities if e.dims}
    assigned = {ev[1] for ev in frozen_unit_events(unit, None) if ev[0] == "w"}
    return {
        "name": unit.name, "kind": unit.kind, "parameters": list(unit.params),
        "file_id": unit.file_id, "span": unit.span, "return_type": unit.return_type,
        "pointers": frozen_pointer_segments(unit),
        "declared": frozen_declared_types(unit),
        "implicit_table": frozen_implicit_rule_table(unit),
        "external": tuple(sorted(external)),
        "typed": tuple(sorted(typed)),
        "arrays": tuple(sorted(arrays)),
        "invoked": tuple(sorted(frozen_invoked_names(unit))),
        "assigned": tuple(sorted(assigned)),
        "referenced": tuple(sorted(frozen_referenced_symbols(unit))),
        "defined": tuple(sorted(frozen_defined_symbols(unit))),
        "esope_statements": [n.kind for n in unit.body if isinstance(n, _A.EsopeCommandNode)],
        "definitions": tuple(n.definition for n in unit.body if isinstance(n, _A.SegmentDefNode)),
        "segments_in_scope": frozen_segments_in_scope(unit),
        "calls": tuple((n.callee, len(n.args)) for n in unit.body if isinstance(n, _A.CallNode)),
    }


def frozen_call_edges(units) -> List[Tuple[str, str, int, bool]]:
    """(caller, callee, argument count, external) of every call statement."""
    names = {u.name for u in units}
    return [(u.name, n.callee, len(n.args), n.callee not in names)
            for u in units for n in u.body if isinstance(n, _A.CallNode)]


# --- frozen renderer ----------------------------------------------------------
#
# The token renderer as it stood before its spacing decisions were kept in a
# gap table: every gap is decided afresh from the two tokens around it.  It
# carries the rule that a group after an operator, `=` or a comma stands
# apart.  It takes live folded streams as input.

_ORACLE_SPACED_KEYWORDS = {"if", "elseif", "while", "where", "then", "case"}
_ORACLE_TIGHT_OPS = {"**", "//"}


def oracle_render_tokens(stream, resolve_field) -> str:
    out: List[str] = []
    prev = None
    prev_unary = False
    for t in stream:
        piece = _oracle_render_one(t, resolve_field)
        if out and _oracle_space_before(prev, t, prev_unary):
            out.append(" ")
        out.append(piece)
        prev_unary = _oracle_is_unary(prev, t)
        prev = t
    return "".join(out)


def _oracle_render_one(t, resolve_field) -> str:
    if isinstance(t, _Token):
        return t.value
    if isinstance(t, _Dotted):
        pointer = t.pointer if t.pointer else resolve_field(t.field)
        base = f"{pointer}%{t.field}"
        if t.subscripts:
            subs = ", ".join(oracle_render_tokens(s, resolve_field) for s in t.subscripts)
            return f"{base}({subs})"
        return base
    inner = _oracle_render_one(t.base, resolve_field)
    return f"size({inner}, dim={t.dim})"


def _oracle_text(t) -> str:
    return t.value if isinstance(t, _Token) else ""


def _oracle_is_unary(prev, t) -> bool:
    if not (isinstance(t, _Token) and t.kind == "op" and t.value in ("+", "-")):
        return False
    if prev is None:
        return True
    p = _oracle_text(prev)
    return p in ("(", ",", "=", ":") or (isinstance(prev, _Token) and prev.kind == "op")


def _oracle_space_before(prev, t, prev_unary: bool) -> bool:
    p = _oracle_text(prev)
    if prev_unary:
        return False
    if isinstance(t, _Token):
        if t.kind == "punct":
            if t.value == "(":
                return (p in _ORACLE_SPACED_KEYWORDS or p == ","
                        or isinstance(prev, _Token) and prev.kind == "op"
                        and p not in _ORACLE_TIGHT_OPS)
            return t.value not in (")", ",", ":", ".", "%")
        if t.kind == "op":
            if t.value in _ORACLE_TIGHT_OPS:
                return False
            if t.value == "*" and p in ("(", ","):
                return False
            return p != "("
    if p in ("(", ":", ".", "%"):
        return False
    if isinstance(prev, _Token):
        if prev.kind == "op":
            return prev.value not in _ORACLE_TIGHT_OPS
        if prev.kind == "punct":
            return prev.value in (",", ")")
    return True


# --- frozen statement classifier --------------------------------------------
#
# The statement classifier as it stood when a CALL had two parsers (a
# pattern for the bare form, a token walk for the form under a logical IF)
# and a type statement took any ``*len`` after any type name.  It takes text
# and builds live AST nodes with the live lexer, so it checks the rules that
# pick a node, not the lexer.

from segmigrate.errors import MigrationError as _MigrationError  # noqa: E402
from segmigrate.frontend.lexer import (  # noqa: E402
    _collect_group as _live_collect_group,
    scan_expression as _live_scan_expression,
    split_top_commas as _live_split_top_commas,
    tokenize as _live_tokenize,
)

_F_FUNCTION_RE = re.compile(
    r"^(?:(integer|real|logical|double\s+precision|character(?:\s*\*\s*\d+)?)\s+)?"
    r"function\s+([a-z][a-z0-9_]*)\s*\(([^)]*)\)\s*$",
    re.IGNORECASE,
)
_F_POINTEUR_RE = re.compile(r"^pointeur\s+(.+)$", re.IGNORECASE)
_F_ESOPE_CMD_RE = re.compile(
    r"^(segini|segact|segadj|segsup|segprt|segdes)\s*,?\s*"
    r"([a-z][a-z0-9_]*)\s*(?:=\s*([a-z][a-z0-9_]*))?\s*$",
    re.IGNORECASE,
)
_F_ESOPE_CMD_HEAD_RE = re.compile(r"^(segini|segact|segadj|segsup|segprt|segdes)\b", re.IGNORECASE)
_F_TYPE_DECL_RE = re.compile(
    r"^(integer|real|logical|double\s+precision|character)"
    r"(\s*\*\s*(\d+|\(\s*\*\s*\)))?\s+([a-z].*)$",
    re.IGNORECASE,
)
_F_DIMENSION_RE = re.compile(r"^dimension\s+(.+)$", re.IGNORECASE)
_F_EXTERNAL_RE = re.compile(r"^external\s+(.+)$", re.IGNORECASE)
_F_IMPLICIT_RE = re.compile(r"^implicit\s+(.+)$", re.IGNORECASE)
_F_CALL_RE = re.compile(r"^call\s+([a-z][a-z0-9_]*)\s*(\(.*\))?\s*$", re.IGNORECASE)
_F_IMPLICIT_RULE_RE = re.compile(
    r"(integer|real|logical|double\s+precision|character(?:\s*\*\s*\d+)?)\s*\(([^)]*)\)",
    re.IGNORECASE,
)
_F_LETTER_RANGE_RE = re.compile(r"[^-]-[^-]")
_F_POINTER_ENTRY_RE = re.compile(r"^([a-z][a-z0-9_]*)\.([a-z][a-z0-9_]*)$")
_F_BLANKS_RE = re.compile(r"\s+")
_F_IF = _Token("name", "if")
_F_EQUALS = _Token("op", "=")


def oracle_classify(text: str, span, label=None):
    """The node of one stripped statement text, as the frozen rules pick it."""
    m = _F_POINTEUR_RE.match(text)
    if m:
        return _A.PointerDeclNode(span=span, label=label,
                                  entries=_oracle_pointer_list(m.group(1), span))

    if _F_ESOPE_CMD_HEAD_RE.match(text):
        m = _F_ESOPE_CMD_RE.match(text)
        if not m:
            raise _MigrationError(f"malformed Esope command: {text!r}", span)
        keyword = m.group(1).lower()
        target = m.group(2).lower()
        source = m.group(3).lower() if m.group(3) else None
        kind = keyword
        if source is not None:
            if keyword == "segini":
                kind = _A.SEGINI_COPY
            elif keyword == "segact":
                kind = _A.SEGACT_MOVE
            else:
                raise _MigrationError(f"{keyword} does not take a source operand", span)
        return _A.EsopeCommandNode(
            span=span, label=label, kind=kind, target=target, source=source, original=text)

    m = _F_IMPLICIT_RE.match(text)
    if m:
        return _oracle_implicit(m.group(1), text, span, label)

    m = _F_EXTERNAL_RE.match(text)
    if m:
        names = [n.strip().lower() for n in m.group(1).split(",")]
        return _A.ExternalDeclNode(span=span, label=label, names=names)

    m = _F_DIMENSION_RE.match(text)
    if m:
        entities = _oracle_decl_entities(m.group(1), span)
        return _A.TypeDeclNode(span=span, label=label, base_type=None, entities=entities)

    m = _F_TYPE_DECL_RE.match(text)
    if m and not _F_FUNCTION_RE.match(text):
        base = _F_BLANKS_RE.sub(" ", m.group(1).lower())
        char_len = None
        if m.group(3):
            char_len = "*" if "*" in m.group(3) and not m.group(3).isdigit() else int(m.group(3))
        entities = _oracle_decl_entities(m.group(4), span)
        return _A.TypeDeclNode(span=span, label=label, base_type=base, char_len=char_len,
                               entities=entities)

    m = _F_CALL_RE.match(text)
    if m:
        args = []
        if m.group(2):
            inner = _live_tokenize(m.group(2)[1:-1], span)
            args = [list(_live_scan_expression(p, span)) for p in _live_split_top_commas(inner)]
        return _A.CallNode(span=span, label=label, callee=m.group(1).lower(), args=args)

    tokens = _live_scan_expression(_live_tokenize(text, span), span)

    if tokens and tokens[0] == _F_IF and len(tokens) > 1 and tokens[1] == _LP:
        guard, j = _live_collect_group(tokens, 1, span)
        rest = tokens[j:]
        if rest and not (isinstance(rest[0], _Token) and rest[0].kind == "name"
                         and rest[0].value == "then"):
            inner = _oracle_if_body(rest, span, label, guard)
            if inner is not None:
                return inner

    k = _oracle_assign_index(tokens)
    if k is not None:
        head = tokens[0]
        if (isinstance(head, _Token) and head.kind == "name"
                and head.value in _A.STATEMENT_KEYWORDS):
            return _A.OpaqueNode(span=span, label=label, tokens=tokens)
        return _A.AssignmentNode(span=span, label=label, lhs=tokens[:k], rhs=tokens[k + 1:])

    return _A.OpaqueNode(span=span, label=label, tokens=tokens)


def _oracle_if_body(rest, span, label, guard):
    head = rest[0]
    if isinstance(head, _Token) and head.kind == "name" and head.value == "call":
        if len(rest) >= 2 and isinstance(rest[1], _Token) and rest[1].kind == "name":
            args = []
            if len(rest) >= 3 and rest[2] == _LP:
                inner, _ = _live_collect_group(rest, 2, span)
                args = _live_split_top_commas(inner)
            return _A.CallNode(span=span, label=label, callee=rest[1].value, args=args,
                               guard=guard)
        return None
    k = _oracle_assign_index(rest)
    if k is not None:
        if (isinstance(head, _Token) and head.kind == "name"
                and head.value in _A.STATEMENT_KEYWORDS):
            return None
        return _A.AssignmentNode(span=span, label=label, lhs=rest[:k], rhs=rest[k + 1:],
                                 guard=guard)
    return None


def _oracle_assign_index(tokens):
    depth = 0
    for idx, t in enumerate(tokens):
        if isinstance(t, _Token):
            if t == _LP:
                depth += 1
            elif t == _RP:
                depth -= 1
            elif depth == 0 and t == _F_EQUALS:
                return idx
    return None


def _oracle_pointer_list(raw, span):
    entries = []
    for item in raw.split(","):
        item = item.strip().lower()
        m = _F_POINTER_ENTRY_RE.match(item)
        if not m:
            raise _MigrationError(f"malformed POINTEUR entry {item!r}", span)
        entries.append((m.group(1), m.group(2)))
    return entries


def _oracle_implicit(rest, original, span, label):
    rest = rest.strip()
    if rest.lower() == "none":
        return _A.ImplicitDeclNode(span=span, label=label, none=True, original=original)
    rules = [(_F_BLANKS_RE.sub(" ", m.group(1).lower()), m.group(2).replace(" ", "").lower())
             for m in _F_IMPLICIT_RULE_RE.finditer(rest)]
    ranges = [part for _, letters in rules for part in letters.split(",") if "-" in part]
    if not rules or not all(_F_LETTER_RANGE_RE.fullmatch(part) for part in ranges):
        raise _MigrationError(f"unparseable implicit statement: {original!r}", span)
    return _A.ImplicitDeclNode(span=span, label=label, rules=rules, original=original)


def _oracle_decl_entities(raw, span):
    entities = []
    for part in _live_split_top_commas(_live_tokenize(raw, span)):
        if not part or part[0].kind != "name":
            raise _MigrationError(f"malformed declaration entity in {raw!r}", span)
        name = part[0].value
        dims = ()
        if len(part) > 1:
            if part[1] != _LP:
                raise _MigrationError(f"malformed declaration entity in {raw!r}", span)
            inner, j = _live_collect_group(part, 1, span)
            if j != len(part):
                raise _MigrationError(f"trailing junk after declaration entity {name!r}", span)
            dims = tuple(tuple(_live_scan_expression(p, span))
                         for p in _live_split_top_commas(inner))
        entities.append(_A.DeclEntity(name=name, dims=dims))
    return entities


# --- the frozen name resolution ---------------------------------------------
#
# The helpers that decided, each on its own, where a unit's names get their
# type and module, as they stood before one name record per unit held those
# facts: the typing pass, the classification of typed names, the module
# imports of a unit with the model's index of the module defining each
# symbol, and the owner of a bare field.  They read the live unit summary
# and the data of the project model, and call none of its methods.
# ``frozen_name_resolution`` gives what the rewrite read of them, or the
# first error they raised.

_F_DECLARED = "declared"
_F_IMPLICIT_RULE = "implicit-rule"
_F_POINTEUR_DECL = "pointeur-decl"
_F_FUNCTION_RETURN = "function-return"
_F_EXTERNAL_ROUTINE_DECL = "externalRoutineDecl"
_F_RETURN_TYPE_DECL = "returnTypeDecl"
_F_PLAIN_VARIABLE_DECL = "plainVariableDecl"


def _frozen_functions(model):
    return {n: u for n, u in model.units.items() if u.kind == "function"}


def _frozen_calls_from(model, caller):
    return [e for e in model.call_graph if e.caller == caller]


def frozen_infer_implicit_types(unit, model, scope) -> List[Tuple[str, str, str]]:
    """(symbol, type, origin) of every referenced symbol of the unit."""
    called = {e.callee for e in _frozen_calls_from(model, unit.name)}
    functions = _frozen_functions(model)
    summary = model.units[unit.name]
    pointers, declared, table = summary.pointers, summary.declared, summary.implicit_table

    referenced = set(summary.referenced).union(unit.params)
    segment_names = {seg.name for seg in scope}
    field_owner: Dict[str, str] = {}
    for seg in scope:
        for f in seg.fields:
            field_owner.setdefault(f.name, seg.name)

    out: List[Tuple[str, str, str]] = []
    for sym in sorted(referenced):
        if sym == unit.name:
            continue
        if sym in called:
            if sym in declared and declared[sym]:
                raise _MigrationError(
                    f"symbol {sym!r} used as both variable and called routine in {unit.name}"
                )
            continue
        if sym in pointers:
            out.append((sym, declared[sym], _F_POINTEUR_DECL))
        elif sym in declared and declared[sym]:
            out.append((sym, declared[sym], _F_DECLARED))
        elif sym in declared:
            out.append((sym, table[sym[0]], _F_IMPLICIT_RULE))
        elif sym in functions:
            rt = functions[sym].return_type or table[sym[0]]
            out.append((sym, rt, _F_FUNCTION_RETURN))
        elif sym in segment_names or sym in field_owner:
            continue
        else:
            out.append((sym, table[sym[0]], _F_IMPLICIT_RULE))
    return out


def frozen_classify_external_names(unit, model) -> Dict[str, str]:
    summary = model.units[unit.name]
    out = dict.fromkeys(summary.external, _F_EXTERNAL_ROUTINE_DECL)
    for name in summary.typed:
        if name in out:
            continue
        invoked = name in summary.invoked
        calls_like = invoked and name not in summary.arrays
        is_function = (calls_like or name in _frozen_functions(model)
                       or name in model.intent_catalog)
        if is_function and name in summary.assigned:
            raise _MigrationError(f"name {name!r} is both assigned and invoked in {unit.name}")
        out[name] = _F_RETURN_TYPE_DECL if is_function and invoked else _F_PLAIN_VARIABLE_DECL
    return out


def _frozen_typed_by_use(name, unit, model, classification) -> bool:
    return (name in _frozen_functions(model) and name != unit.name and name not in unit.params
            and classification.get(name) in (_F_RETURN_TYPE_DECL, _F_EXTERNAL_ROUTINE_DECL))


def _frozen_compute_uses(required, defined, module_of, external_ok) -> List[str]:
    modules: Set[str] = set()
    for sym in sorted(required - defined):
        if sym in module_of:
            modules.add(module_of[sym])
        elif sym in external_ok or sym in _A.INTRINSIC_FUNCTIONS:
            continue
        else:
            raise _MigrationError(f"required symbol {sym!r} is defined by no module")
    return sorted(modules)


def frozen_modules_seen_from(model, unit_name, symbols) -> Dict[str, str]:
    """The migrated module defining each of ``symbols`` that has one, as
    seen from unit ``unit_name``: a segment's own module, else that of
    another non-program unit, else that of the first segment owning a
    field of that name.  A unit never resolves to its own module."""
    fields: Dict[str, str] = {}
    for seg in model.segments.values():
        for f in seg.fields:
            fields.setdefault(f.name, f"{seg.name}_mod")
    segments = {name: f"{name}_mod" for name in model.segments}
    units = {n: f"{n}_mod" for n, u in model.units.items() if u.kind != "program"}
    every, without_units = {**fields, **units, **segments}, {**fields, **segments}
    found = {s: every[s] for s in symbols if s in every and s != unit_name}
    if unit_name in symbols and unit_name in without_units:
        found[unit_name] = without_units[unit_name]
    return found


def frozen_compute_unit_uses(unit, model, scope, classification, types) -> List[str]:
    summary = model.units[unit.name]
    required = set(summary.referenced)
    defined = set(summary.defined)
    defined |= {sym for sym, _, origin in types if origin != _F_FUNCTION_RETURN}
    defined -= {name for name in classification
                if _frozen_typed_by_use(name, unit, model, classification)}
    for seg in scope:
        defined.discard(seg.name)
        defined -= seg.field_names()
    external_ok = set(model.intent_catalog)
    for name in summary.external:
        if name in model.units:
            defined.discard(name)
        else:
            external_ok.add(name)
    for edge in _frozen_calls_from(model, unit.name):
        if edge.external:
            external_ok.add(edge.callee)
    module_of = frozen_modules_seen_from(model, unit.name, required - defined)
    uses = set(_frozen_compute_uses(required, defined, module_of, external_ok))
    uses.update(f"{seg_name}_mod" for seg_name in summary.pointers.values())
    for seg in scope:
        if seg.name in required or not seg.field_names().isdisjoint(required):
            uses.add(f"{seg.name}_mod")
    return sorted(uses)


def frozen_segment_for_field(model, field_name, unit_scope):
    """The unique in-scope segment owning ``field_name``, or None."""
    owners = [
        model.segments[s]
        for s in unit_scope
        if s in model.segments and field_name in model.segments[s].field_names()
    ]
    if not owners:
        return None
    if len(owners) > 1:
        names = ", ".join(sorted(o.name for o in owners))
        raise _MigrationError(
            f"field {field_name!r} is owned by several in-scope segments: {names}"
        )
    return owners[0]


def frozen_name_resolution(unit, model):
    """The inferred declarations (symbol, type), the names typed by use and
    the module imports of ``unit``, or ``("error", message)`` of the first
    error the frozen helpers raised, in the order the rewrite called them."""
    summary = model.units[unit.name]
    scope = [model.segments[n] for n in summary.segments_in_scope if n in model.segments]
    try:
        classification = frozen_classify_external_names(unit, model)
        types = frozen_infer_implicit_types(unit, model, scope)
        uses = frozen_compute_unit_uses(unit, model, scope, classification, types)
    except _MigrationError as exc:
        return ("error", str(exc))
    declarations = [(sym, t) for sym, t, origin in types
                    if origin == _F_IMPLICIT_RULE and sym not in summary.declared]
    typed_by_use = {name for name in classification
                    if _frozen_typed_by_use(name, unit, model, classification)}
    return (declarations, typed_by_use, uses)
