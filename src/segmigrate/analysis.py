"""Facts the transformation needs: explicit types for implicitly typed
symbols, external-name classification, parameter intents, module imports."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .errors import MigrationError
from .frontend import ast_nodes as A
from .model import SIZED, ProjectModel, SegmentDefinition, UnitSummary

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


def segments_in_scope(unit: A.ProgramUnitAst, model: ProjectModel) -> List[SegmentDefinition]:
    """Segments the unit sees: its own definitions, then included ones."""
    return [model.segments[n] for n in model.units[unit.name].segments_in_scope
            if n in model.segments]


def infer_implicit_types(
    unit: A.ProgramUnitAst, model: ProjectModel, scope: Sequence[SegmentDefinition]
) -> List[TypeAssignment]:
    """Give every referenced symbol of the unit exactly one type."""
    called = {e.callee for e in model.calls_from(unit.name)}
    functions = model.functions()
    summary = model.units[unit.name]
    pointers, declared, table = summary.pointers, summary.declared, summary.implicit_table

    referenced = set(summary.referenced).union(unit.params)
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
    summary = model.units[unit.name]
    out = dict.fromkeys(summary.external, EXTERNAL_ROUTINE_DECL)
    for name in summary.typed:
        if name in out:
            continue
        invoked = name in summary.invoked
        calls_like = invoked and name not in summary.arrays
        is_function = calls_like or name in model.functions() or name in model.intent_catalog
        if is_function and name in summary.assigned:
            raise MigrationError(
                f"name {name!r} is both assigned and invoked in {unit.name}"
            )
        out[name] = RETURN_TYPE_DECL if is_function and invoked else PLAIN_VARIABLE_DECL
    return out


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
    events: Sequence[Tuple]


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


def infer_intents(model: ProjectModel) -> IntentTable:
    """Intent table for every routine of the project, from the unit
    summaries alone.  A SEGINI or SEGADJ reads the dimensioning variables of
    its segment: the generated call passes them to intent(in) dummies."""
    routines = {}
    for name, summary in model.units.items():
        if summary.kind in ("subroutine", "function"):
            events = summary.events
            if any(ev[0] == SIZED for ev in events):
                events = [read for ev in events for read in _sized_reads(ev, summary, model)]
            routines[name] = RoutineSpec(params=list(summary.parameters), events=events)
    return solve_intents(routines, model.intent_catalog)


def _sized_reads(event: Tuple, summary: UnitSummary, model: ProjectModel) -> Sequence[Tuple]:
    """The event, or for a SEGINI/SEGADJ marker, the reads it stands for."""
    if event[0] != SIZED:
        return (event,)
    seg = model.segments.get(summary.segment_of(event[1]))
    return [("r", v) for v in seg.dimensioning_vars] if seg else ()


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
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
