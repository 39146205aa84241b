"""Facts the transformation needs that depend on the whole model: one name
record per unit, which says where each of its names gets its type and its
module, and the intents of every routine's dummies."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from .errors import MigrationError
from .frontend import ast_nodes as A
from .model import SIZED, ProjectModel, SegmentDefinition, usable_events

# --- name resolution --------------------------------------------------------


@dataclass(frozen=True)
class NameRecord:
    """Where the names of one unit get their type and module: the facts that
    need the whole model, decided once per unit by :func:`resolve_names`."""

    scope: Tuple[SegmentDefinition, ...]  # its own segments, then included ones
    owners: Dict[str, Tuple[str, ...]]  # in-scope field -> its owning segments, in scope order
    # name -> type of each name only the implicit rule types; the rewrite declares it
    implicit: Dict[str, str]
    # project functions typed here (by a type statement or EXTERNAL) whose
    # type comes with the use of their module
    typed_by_use: FrozenSet[str]


def resolve_names(unit: A.ProgramUnitAst, model: ProjectModel) -> NameRecord:
    """The name record of ``unit``.  A typed name both assigned and invoked is
    an error, then a typed name also called, then a POINTEUR to a segment the
    project does not define."""
    summary = model.units[unit.name]
    functions = model.functions()
    for name in summary.typed:
        if name in summary.external or name not in summary.assigned:
            continue
        if ((name in summary.invoked and name not in summary.arrays)
                or name in functions or name in model.intent_catalog):
            raise MigrationError(f"name {name!r} is both assigned and invoked in {unit.name}")

    scope = tuple(model.segments[n] for n in summary.segments_in_scope)
    owners: Dict[str, Tuple[str, ...]] = {}
    for seg in scope:
        for f in seg.fields:  # a segment names each field once
            owners[f.name] = owners.get(f.name, ()) + (seg.name,)
    called = {callee for callee, _ in summary.calls}
    declared = summary.declared
    implicit: Dict[str, str] = {}
    for name in sorted(set(summary.referenced).union(summary.parameters)):
        if name == unit.name:
            continue
        if name in called:
            if declared.get(name):
                raise MigrationError(
                    f"symbol {name!r} used as both variable and called routine in {unit.name}")
        # a segment's default pointer and a bare field are typed by the rewrite
        elif not (name in declared or name in functions or name in owners
                  or name in summary.segments_in_scope):
            implicit[name] = summary.implicit_table[name[0]]

    for pointer, seg_name in sorted(summary.pointers.items()):
        if seg_name not in model.segments:
            raise MigrationError(
                f"pointer {pointer!r} targets unknown segment {seg_name!r}", unit.span)
    typed_by_use = frozenset(
        name for name in set(summary.typed).intersection(summary.invoked).union(summary.external)
        if name in functions and name != unit.name and name not in summary.parameters)
    return NameRecord(scope, owners, implicit, typed_by_use)


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
    """Events of one routine, in textual order; those that cannot change
    the solver's state may be left out (see ``model.usable_events``)."""

    params: List[str]
    # ('r', name) | ('w', name) | ('f', callee, position, name)
    events: Sequence[Tuple]


IntentTable = Dict[Tuple[str, int], str]
#: the solver's state: routine -> the intent of each of its dummies
Rows = Dict[str, List[str]]


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
    by-reference behavior).  The state holds one row per routine, the
    intent of each of its dummies, and a sweep replaces whole rows.
    """
    state: Rows = {name: [UNKNOWN] * len(spec.params) for name, spec in routines.items()}
    callers: Dict[str, Dict[str, None]] = {}
    for name, spec in routines.items():
        for ev in spec.events:
            if ev[0] == "f" and ev[1] in routines:
                callers.setdefault(ev[1], {})[name] = None
    # the row at the snapshot of each routine changed since, and how many differ
    snapshot: Rows = {}
    differing = snapshot_sweep = sweep = period_end = 0
    oscillating: Dict[str, Set[int]] = {}  # routine -> the dummies that changed in the period
    dirty: Dict[str, None] = dict.fromkeys(routines)
    while dirty:
        sweep += 1
        updates = [(name, row) for name in dirty
                   for row in [_run_events(routines[name], state, routines, catalog)]
                   if row != state[name]]
        dirty = {}
        for name, row in updates:
            old = snapshot.setdefault(name, state[name])
            differing += (row != old) - (state[name] != old)
            if period_end:
                oscillating.setdefault(name, set()).update(
                    i for i, value in enumerate(row) if value != state[name][i])
            state[name] = row
            dirty.update(callers.get(name, {}))
        if period_end:
            if sweep == period_end:
                break
        elif updates and not differing:
            period_end = 2 * sweep - snapshot_sweep
        elif sweep & (sweep - 1) == 0:
            snapshot, differing, snapshot_sweep = {}, 0, sweep
    return {(name, i): INOUT if value == UNKNOWN or i in oscillating.get(name, ()) else value
            for name, row in state.items() for i, value in enumerate(row)}


def _run_events(spec: RoutineSpec, table: Rows, routines, catalog) -> List[str]:
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
        return table[callee][cpos]
    if callee in catalog:
        intents = catalog[callee]
        if cpos < len(intents):
            return intents[cpos]
    return INOUT  # unknown external: safe over-approximation


def infer_intents(model: ProjectModel) -> IntentTable:
    """Intent table for every routine of the project, from the model alone:
    the unit records and their stored events, which the solver takes as
    they are.  A SEGINI or SEGADJ reads the dimensioning variables of its
    segment: the generated call passes them to intent(in) dummies."""
    routines = {}
    for name, unit in model.units.items():
        if unit.kind in ("subroutine", "function"):
            events = model.events[name]
            if any(ev[0] == SIZED for ev in events):
                events = tuple(usable_events(_sized_reads(events, model), unit.parameters))
            routines[name] = RoutineSpec(params=unit.parameters, events=events)
    return solve_intents(routines, model.intent_catalog)


def _sized_reads(events: Sequence[Tuple], model: ProjectModel) -> Iterator[Tuple]:
    """The events, each SEGINI/SEGADJ marker replaced by the reads of the
    dimensioning variables of the segment it names."""
    for ev in events:
        if ev[0] != SIZED:
            yield ev
            continue
        seg = model.segments.get(ev[1])
        if seg:
            yield from (("r", var) for var in seg.dimensioning_vars)


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
