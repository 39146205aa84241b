"""Facts the transformation needs: explicit types for implicitly typed
symbols, external-name classification, parameter intents, module imports."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import MigrationError
from .frontend import ast_nodes as A
from .model import ProjectModel, SegmentDefinition

# --- implicit typing --------------------------------------------------------

DECLARED = "declared"
IMPLICIT_RULE = "implicit-rule"
POINTEUR_DECL = "pointeur-decl"
FUNCTION_RETURN = "function-return"


@dataclass(frozen=True)
class TypeAssignment:
    symbol: str
    inferred_type: str
    origin: str


def default_implicit_type(name: str) -> str:
    """The standard naming rule: `i` through `n` are integers, the rest reals."""
    return "integer" if name[0].lower() in "ijklmn" else "real"


def implicit_rule_table(unit: A.ProgramUnitAst) -> Dict[str, str]:
    """Per-letter type map after applying the unit's implicit statements on
    top of the default rule."""
    table = {letter: default_implicit_type(letter) for letter in "abcdefghijklmnopqrstuvwxyz"}
    for node in unit.body:
        if isinstance(node, A.ImplicitDeclNode) and not node.none:
            for type_name, letters in node.rules:
                m = re.match(r"character\s*\*\s*(\d+)", type_name)
                if m:
                    type_name = format_type("character", m.group(1))
                for letter in _expand_letters(letters):
                    table[letter] = type_name
    return table


def _expand_letters(spec: str) -> List[str]:
    out: List[str] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(chr(c) for c in range(ord(lo), ord(hi) + 1))
        elif part:
            out.append(part)
    return out


def declared_types(unit: A.ProgramUnitAst) -> Dict[str, str]:
    """Explicitly declared symbol types, POINTEUR declarations winning over
    plain ``integer`` declarations of the same name (the Esope pointer-as-
    integer idiom)."""
    types: Dict[str, str] = {}
    dims_only: Set[str] = set()
    for node in unit.body:
        if isinstance(node, A.TypeDeclNode):
            for ent in node.entities:
                if node.base_type is None:
                    dims_only.add(ent.name)
                    continue
                types[ent.name] = format_type(node.base_type, node.char_len)
    for node in unit.body:
        if isinstance(node, A.PointerDeclNode):
            for pname, seg in node.entries:
                types[pname] = f"type({seg}), pointer"
    for name in dims_only:
        types.setdefault(name, "")  # typed by implicit rule, dimensioned here
    return types


def format_type(base: str, char_len) -> str:
    """Free-form spelling of a type; a CHARACTER without length has length 1."""
    if base == "character":
        return f"character(len={1 if char_len is None else char_len})"
    return base


def pointer_segments(unit: A.ProgramUnitAst) -> Dict[str, str]:
    """POINTEUR declarations of the unit: pointer name to segment name."""
    return {
        p: seg
        for node in unit.body
        if isinstance(node, A.PointerDeclNode)
        for p, seg in node.entries
    }


def segments_in_scope(unit: A.ProgramUnitAst, model: ProjectModel) -> List[SegmentDefinition]:
    """Segments the unit sees: its own definitions, then included ones."""
    return [model.segments[n] for n in model.units[unit.name].segments_in_scope
            if n in model.segments]


def infer_implicit_types(
    unit: A.ProgramUnitAst,
    model: ProjectModel,
    pointers: Dict[str, str],
    scope: Sequence[SegmentDefinition],
    declared: Dict[str, str],
    table: Dict[str, str],
) -> List[TypeAssignment]:
    """Give every referenced symbol of the unit exactly one type."""
    called = {e.callee for e in model.calls_from(unit.name)}
    functions = model.functions()

    referenced = model.units[unit.name].referenced | set(unit.params)
    segment_names = {seg.name for seg in scope}
    field_owner: Dict[str, str] = {}
    for seg in scope:
        for f in seg.fields:
            field_owner.setdefault(f.name, seg.name)

    out: List[TypeAssignment] = []
    for sym in sorted(referenced):
        if sym == unit.name:
            continue
        if sym in called:
            if sym in declared and declared[sym]:
                raise MigrationError(
                    f"symbol {sym!r} used as both variable and called routine in {unit.name}"
                )
            continue  # plain subroutine reference, not a variable
        if sym in pointers:
            out.append(TypeAssignment(sym, declared[sym], POINTEUR_DECL))
        elif sym in declared and declared[sym]:
            out.append(TypeAssignment(sym, declared[sym], DECLARED))
        elif sym in declared:
            # dimensioned (DIMENSION stmt) but typed by the implicit rule
            out.append(TypeAssignment(sym, table[sym[0]], IMPLICIT_RULE))
        elif sym in functions:
            rt = functions[sym].return_type or table[sym[0]]
            out.append(TypeAssignment(sym, rt, FUNCTION_RETURN))
        elif sym in segment_names or sym in field_owner:
            # segment default pointer or bare field access; typed by rewrite
            continue
        else:
            out.append(TypeAssignment(sym, table[sym[0]], IMPLICIT_RULE))
    return out


# --- external-name classification ------------------------------------------

EXTERNAL_ROUTINE_DECL = "externalRoutineDecl"
RETURN_TYPE_DECL = "returnTypeDecl"
PLAIN_VARIABLE_DECL = "plainVariableDecl"


def classify_external_names(unit: A.ProgramUnitAst, model: ProjectModel) -> Dict[str, str]:
    """Partition explicitly typed names into external routine declarations,
    function return-type declarations, and plain variables."""
    external: Set[str] = set()
    typed: Set[str] = set()
    for node in unit.body:
        if isinstance(node, A.ExternalDeclNode):
            external |= set(node.names)
        elif isinstance(node, A.TypeDeclNode) and node.base_type is not None:
            typed |= {e.name for e in node.entities}

    invoked = {n for node in unit.body for n in node.facts.invoked}
    assigned = {ev[1] for ev in routine_events(unit, None) if ev[0] == "w"}
    arrays = {
        e.name
        for node in unit.body
        if isinstance(node, A.TypeDeclNode)
        for e in node.entities
        if e.dims
    }

    out: Dict[str, str] = {}
    for name in sorted(external):
        out[name] = EXTERNAL_ROUTINE_DECL
    for name in sorted(typed):
        if name in out:
            continue
        calls_like = name in invoked and name not in arrays
        is_function = calls_like or name in model.functions() or name in model.intent_catalog
        if is_function and name in assigned:
            raise MigrationError(
                f"name {name!r} is both assigned and invoked in {unit.name}"
            )
        if is_function and name in invoked:
            out[name] = RETURN_TYPE_DECL
        else:
            out[name] = PLAIN_VARIABLE_DECL
    return out


# --- facts of one unit ------------------------------------------------------


@dataclass(frozen=True)
class UnitFacts:
    """What the rewriter knows about one unit, each fact computed once.

    Built per unit and dropped with that unit's rewrite context; never held
    for the whole project.
    """

    pointers: Dict[str, str]  # POINTEUR name -> segment name
    scope: List[SegmentDefinition]
    declared: Dict[str, str]
    implicit_table: Dict[str, str]
    types: List[TypeAssignment]
    classification: Dict[str, str]


def unit_facts(unit: A.ProgramUnitAst, model: ProjectModel) -> UnitFacts:
    """Compute every fact of the record, each from its one definition."""
    pointers = pointer_segments(unit)
    scope = segments_in_scope(unit, model)
    declared = declared_types(unit)
    table = implicit_rule_table(unit)
    # classification first: its errors were reported before typing errors
    classification = classify_external_names(unit, model)
    types = infer_implicit_types(unit, model, pointers, scope, declared, table)
    return UnitFacts(pointers, scope, declared, table, types, classification)


# --- parameter intent inference --------------------------------------------

IN = "in"
OUT = "out"
INOUT = "inout"
UNKNOWN = "unknown"

#: 4-state machine over first-access character
_READ = {UNKNOWN: IN, IN: IN, OUT: OUT, INOUT: INOUT}
_WRITE = {UNKNOWN: OUT, IN: INOUT, OUT: OUT, INOUT: INOUT}


@dataclass
class RoutineSpec:
    """Events of one routine, in textual order, restricted to what the
    intent solver needs."""

    params: List[str]
    # ('r', name) | ('w', name) | ('f', callee, position, name)
    events: List[Tuple]


IntentTable = Dict[Tuple[str, int], str]


def solve_intents(routines: Dict[str, RoutineSpec], catalog: Dict[str, List[str]]) -> IntentTable:
    """Jacobi fixpoint over the call graph, re-running only what can change.

    Each sweep runs routines against the state the previous sweep left and
    applies their updates together.  That schedule is part of the answer:
    the transfer function is not monotone (learning that an earlier callee
    writes turns ``in`` into ``out``), so an in-place worklist settles on a
    different fixpoint for some recursive programs.  Sweep 1 runs every
    routine; a later sweep runs only the callers of routines that changed,
    as any other routine would recompute the value it holds.

    On some recursive programs the sweeps never settle but cycle.  A
    repeated state is found exactly (Brent's method: a snapshot re-taken at
    sweeps 1, 2, 4, ...); every parameter that changes during one more
    period becomes inout.  Externals are seeded from the catalog; anything
    still untouched at the end defaults to inout (the FORTRAN 77
    by-reference behavior).
    """
    state: IntentTable = {
        (name, i): UNKNOWN for name, spec in routines.items() for i in range(len(spec.params))
    }
    callers: Dict[str, Dict[str, None]] = {}
    for name, spec in routines.items():
        for ev in spec.events:
            if ev[0] == "f" and ev[1] in routines:
                callers.setdefault(ev[1], {})[name] = None
    # values at the snapshot of the keys changed since, and how many differ
    snapshot: IntentTable = {}
    differing = snapshot_sweep = sweep = period_end = 0
    oscillating: Set[Tuple[str, int]] = set()
    dirty: Dict[str, None] = dict.fromkeys(routines)
    while dirty:
        sweep += 1
        updates = [
            ((name, i), value)
            for name in dirty
            for i, value in enumerate(_run_events(routines[name], state, routines, catalog))
            if value != state[(name, i)]
        ]
        dirty = {}
        for key, value in updates:
            old = snapshot.setdefault(key, state[key])
            differing += (value != old) - (state[key] != old)
            state[key] = value
            dirty.update(callers.get(key[0], {}))
        if period_end:
            oscillating.update(key for key, _ in updates)
            if sweep == period_end:
                break
        elif updates and not differing:
            period_end = 2 * sweep - snapshot_sweep
        elif sweep & (sweep - 1) == 0:
            snapshot, differing, snapshot_sweep = {}, 0, sweep
    for key in oscillating:
        state[key] = INOUT
    return {key: (INOUT if v == UNKNOWN else v) for key, v in state.items()}


def _run_events(spec: RoutineSpec, table: IntentTable, routines, catalog) -> List[str]:
    pos = {p: i for i, p in enumerate(spec.params)}
    states = [UNKNOWN] * len(spec.params)

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
            intent = _callee_intent(callee, cpos, table, routines, catalog)
            if intent == IN:
                read(name)
            elif intent == OUT:
                write(name)
            elif intent == INOUT:
                read(name)
                write(name)
            # UNKNOWN: no effect yet; the fixpoint will revisit
    return states


def _callee_intent(callee, cpos, table, routines, catalog) -> str:
    if callee in routines:
        if cpos >= len(routines[callee].params):
            return INOUT  # arity mismatch: stay safe
        return table[(callee, cpos)]
    if callee in catalog:
        intents = catalog[callee]
        if cpos < len(intents):
            return intents[cpos]
    return INOUT  # unknown external: safe over-approximation


def infer_intents(model: ProjectModel, units: Sequence[A.ProgramUnitAst]) -> IntentTable:
    """Intent table for every routine of the project."""
    routines = {
        unit.name: RoutineSpec(params=list(unit.params), events=routine_events(unit, model))
        for unit in units
        if unit.kind in ("subroutine", "function")
    }
    return solve_intents(routines, model.intent_catalog)


def routine_events(unit: A.ProgramUnitAst, model: Optional[ProjectModel]) -> List[Tuple]:
    """Read/write/forward events of one routine, in textual order: those of
    its statements, less the write of a function result, with a SEGINI or
    SEGADJ first reading the dimensioning variables of its segment (known
    only from ``model``)."""
    seg_by_pointer = pointer_segments(unit)
    events: List[Tuple] = []
    for node in unit.body:
        own = node.facts.events
        if isinstance(node, A.AssignmentNode) and own and own[-1] == ("w", unit.name):
            own = own[:-1]  # function-result assignment is not a param
        elif isinstance(node, A.EsopeCommandNode) and node.kind in (A.SEGINI, A.SEGADJ) and model:
            seg = model.segments.get(seg_by_pointer.get(node.target))
            if seg is not None:
                events.extend(("r", v) for v in seg.dimensioning_vars)
        events.extend(own)
    return events


# --- module imports ---------------------------------------------------------


def compute_uses(
    required: Set[str],
    defined: Set[str],
    module_of: Dict[str, str],
    external_ok: Set[str],
) -> List[str]:
    """Modules to import: one per migrated module defining a required symbol,
    alphabetically.  A symbol defined nowhere and not known external is an
    error."""
    modules: Set[str] = set()
    for sym in sorted(required - defined):
        if sym in module_of:
            modules.add(module_of[sym])
        elif sym in external_ok or sym in A.INTRINSIC_FUNCTIONS:
            continue
        else:
            raise MigrationError(f"required symbol {sym!r} is defined by no module")
    return sorted(modules)


# --- intent catalog file ----------------------------------------------------

_CATALOG_LINE_RE = re.compile(r"^([a-z][a-z0-9_]*)\(([a-z, ]*)\)$", re.IGNORECASE)


def load_intent_catalog(text: str) -> Dict[str, List[str]]:
    """Plain text, one line per routine: ``name(intent,intent,...)``."""
    catalog: Dict[str, List[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _CATALOG_LINE_RE.match(line)
        if not m:
            raise MigrationError(f"intent catalog line {lineno}: cannot parse {raw!r}")
        intents = [p.strip().lower() for p in m.group(2).split(",") if p.strip()]
        for intent in intents:
            if intent not in (IN, OUT, INOUT):
                raise MigrationError(f"intent catalog line {lineno}: bad intent {intent!r}")
        catalog[m.group(1).lower()] = intents
    return catalog
