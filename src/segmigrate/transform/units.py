"""Per-unit rewriting: statement catalog plus module wrapping.

Every source statement maps to free-form statements, a traceability
comment, or both; nothing is dropped silently.  Where a name gets its type
and its module is read from the unit's name record
(:func:`analysis.resolve_names`), never decided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import analysis
from .. import target as T
from ..errors import MigrationError
from ..frontend import ast_nodes as A
from ..frontend.lexer import ExprToken, Token
from ..model import (ProjectModel, SegmentDefinition, UnitSummary, default_implicit_type,
                     format_type)
from .tokens import GapTable, render_tokens

MARK = "[seg-migrate]"


@dataclass
class RewriteContext:
    """A unit's summary plus its name record, the facts that need the whole
    model, computed once for the unit's rewrite."""

    unit: A.ProgramUnitAst
    model: ProjectModel
    intents: Dict[Tuple[str, int], str]
    summary: UnitSummary
    names: analysis.NameRecord
    gaps: GapTable  # shared by the units of one migrate
    targets: T.TargetNames  # the project's global names, shared likewise
    rewritten: int = 0
    removed: int = 0
    passthrough: int = 0

    def segment_of(self, name: str) -> Optional[SegmentDefinition]:
        seg_name = self.summary.segment_of(name)
        return None if seg_name is None else self.model.segments[seg_name]

    def resolve_field(self, field_name: str) -> str:
        """The pointer of a bare field: its one in-scope owner's default pointer."""
        owners = self.names.owners.get(field_name)
        if not owners:
            raise MigrationError(
                f"bare field {field_name!r} matches no in-scope segment", self.unit.span
            )
        # two owners make the default-pointer rewrite unsound
        if len(owners) > 1:
            raise MigrationError(
                f"field {field_name!r} is owned by several in-scope segments: "
                f"{', '.join(sorted(owners))}"
            )
        return self.model.segments[owners[0]].default_pointer

    def intent_of(self, name: str) -> Optional[str]:
        """The intent of dummy ``name``; None for a name that is no dummy."""
        if name not in self.unit.params:
            return None
        return self.intents.get((self.unit.name, self.unit.params.index(name)), analysis.INOUT)

    def render(self, stream: Sequence[ExprToken]) -> str:
        return render_tokens(stream, self.resolve_field, self.gaps)


def make_context(
    unit: A.ProgramUnitAst,
    model: ProjectModel,
    intents: Dict[Tuple[str, int], str],
    gaps: Optional[GapTable] = None,
    targets: Optional[T.TargetNames] = None,
) -> RewriteContext:
    return RewriteContext(unit, model, intents, model.units[unit.name],
                          analysis.resolve_names(unit, model), {} if gaps is None else gaps,
                          T.target_names(model) if targets is None else targets)


def _stmt(text: str, label: Optional[int]) -> T.TargetNode:
    if label is not None:
        text = f"{label} {text}"
    return T.statement(text)


def _removed(original: str, reason: str) -> T.TargetNode:
    return T.comment(f"{MARK} removed ({reason}): {original}")


def rewrite_statement(node: A.Node, ctx: RewriteContext) -> List[T.OutputNode]:
    """One source statement to its free-form replacement."""
    if isinstance(node, A.CommentNode):
        ctx.passthrough += 1
        return [T.blank() if not node.text else T.comment(node.text)]
    if isinstance(node, A.DirectiveNode):
        ctx.passthrough += 1
        return [T.TargetNode(T.DIRECTIVE, node.text)]
    if isinstance(node, A.SegmentDefNode):
        ctx.rewritten += 1
        seg = node.definition
        return [T.comment(f"{MARK} segment {seg.name} moved to module {T.module_name(seg.name)}")]
    if isinstance(node, A.PointerDeclNode):
        ctx.rewritten += 1
        return [
            T.declaration(f"type({seg}), pointer :: {ptr}") for ptr, seg in node.entries
        ]
    if isinstance(node, A.EsopeCommandNode):
        return _rewrite_command(node, ctx)
    if isinstance(node, A.ImplicitDeclNode):
        ctx.removed += 1
        return [_removed(node.original, "implicit typing replaced by implicit none")]
    if isinstance(node, A.ExternalDeclNode):
        return _rewrite_external(node, ctx)
    if isinstance(node, A.TypeDeclNode):
        return _rewrite_type_decl(node, ctx)
    if isinstance(node, A.CallNode):
        return _rewrite_call(node, ctx)
    if isinstance(node, A.AssignmentNode):
        return _rewrite_assignment(node, ctx)
    if isinstance(node, A.OpaqueNode):
        _count_esope_touch(node, ctx)
        text = ctx.render(node.tokens)
        return [_stmt(text, node.label)]
    if isinstance(node, A.IncludeNode):
        raise MigrationError("unresolved include reached the rewriter", node.span)
    raise MigrationError(f"unhandled statement node {type(node).__name__}", node.span)


def _count_esope_touch(node: A.Node, ctx: RewriteContext) -> None:
    """A statement with a dotted access or slash-dim at the top level of
    one of its streams is rewritten; any other passes through."""
    if node.facts.esope:
        ctx.rewritten += 1
    else:
        ctx.passthrough += 1


def _rewrite_command(node: A.EsopeCommandNode, ctx: RewriteContext) -> List[T.OutputNode]:
    seg = ctx.segment_of(node.target)
    if seg is None:
        raise MigrationError(
            f"{node.kind} target {node.target!r} is not a declared pointer", node.span
        )
    if node.kind in (A.SEGACT, A.SEGDES):
        ctx.removed += 1
        return [_removed(node.original, "activation is implicit in migrated code")]
    ctx.rewritten += 1
    if node.kind == A.SEGINI_COPY:
        text = f"call segcop({node.target}, {node.source})"
    elif node.kind == A.SEGACT_MOVE:
        text = f"call segmov({node.target}, {node.source})"
    elif node.kind in (A.SEGINI, A.SEGADJ):
        args = ", ".join([node.target] + seg.dimensioning_vars)
        text = f"call {node.kind}({args})"
    elif node.kind in (A.SEGSUP, A.SEGPRT):
        text = f"call {node.kind}({node.target})"
    else:
        raise MigrationError(f"unknown command kind {node.kind!r}", node.span)
    return [_stmt(text, node.label)]


def _rewrite_external(node: A.ExternalDeclNode, ctx: RewriteContext) -> List[T.OutputNode]:
    out: List[T.OutputNode] = []
    internal = [n for n in node.names if n in ctx.model.units]
    true_external = [n for n in node.names if n not in ctx.model.units]
    if internal:
        ctx.removed += 1
        out.append(_removed("external " + ", ".join(internal), "routine is module-resident"))
    for name in true_external:
        block = _interface_block(name, ctx)
        if block is None:
            ctx.removed += 1
            out.append(_removed(f"external {name}", "no call signature available"))
        else:
            ctx.rewritten += 1
            out.append(block)
    return out


def _interface_block(name: str, ctx: RewriteContext) -> Optional[T.TargetNode]:
    """Explicit interface for a routine outside the migrated project."""
    catalog = ctx.model.intent_catalog
    arity: Optional[int] = None
    if name in catalog:
        arity = len(catalog[name])
    else:
        counts = ctx.model.arg_counts(name)
        if len(counts) == 1:
            (arity,) = counts
    if arity is None:
        return None
    node = T.TargetNode(T.INTERFACE, "interface", footer="end interface")
    args = [f"arg{i}" for i in range(1, arity + 1)]
    proc = T.TargetNode(
        T.PROCEDURE,
        f"subroutine {name}({', '.join(args)})",
        footer=f"end subroutine {name}",
    )
    for i, arg in enumerate(args):
        intent = analysis.INOUT
        if name in catalog and i < len(catalog[name]):
            intent = catalog[name][i]
        # dummy names are generated, so the default implicit rule types them
        proc.add(T.declaration(
            f"{default_implicit_type(arg)}, intent({intent}) :: {arg}"
        ))
    node.add(proc)
    return node


def _entity_text(ent: A.DeclEntity, ctx: RewriteContext) -> str:
    if not ent.dims:
        return ent.name
    dims = ", ".join(ctx.render(d) for d in ent.dims)
    return f"{ent.name}({dims})"


def _rewrite_type_decl(node: A.TypeDeclNode, ctx: RewriteContext) -> List[T.OutputNode]:
    base = node.base_type  # None for a `dimension` statement
    out: List[T.OutputNode] = []
    plain: List[Tuple[str, A.DeclEntity]] = []
    ctx.rewritten += 1
    for ent in node.entities:
        type_text = (format_type(base, node.char_len) if base
                     else ctx.summary.implicit_table[ent.name[0]])
        if ent.name in ctx.summary.pointers:
            out.append(_removed(
                f"{type_text} {ent.name}", "superseded by pointer declaration"))
            continue
        intent = ctx.intent_of(ent.name)
        if intent is not None:
            out.append(T.declaration(
                f"{type_text}, intent({intent}) :: {_entity_text(ent, ctx)}"))
            continue
        if ent.name in ctx.names.typed_by_use:
            module = ctx.targets.routines[ent.name]
            out.append(_removed(f"{type_text} {ent.name}", f"type provided by use of {module}"))
            continue
        plain.append((type_text, ent))
    by_type: Dict[str, List[A.DeclEntity]] = {}  # in order of first use
    for type_text, ent in plain:
        by_type.setdefault(type_text, []).append(ent)
    for type_text, ents in by_type.items():
        names = ", ".join(_entity_text(e, ctx) for e in ents)
        out.append(T.declaration(f"{type_text} :: {names}"))
    return out


def _guard_prefix(guard: Optional[List[ExprToken]], ctx: RewriteContext) -> str:
    if not guard:
        return ""
    return f"if ({ctx.render(guard)}) "


def _rewrite_call(node: A.CallNode, ctx: RewriteContext) -> List[T.OutputNode]:
    _count_esope_touch(node, ctx)
    args = ", ".join(ctx.render(a) for a in node.args)
    text = f"{_guard_prefix(node.guard, ctx)}call {node.callee}({args})"
    return [_stmt(text, node.label)]


def _rewrite_assignment(node: A.AssignmentNode, ctx: RewriteContext) -> List[T.OutputNode]:
    _count_esope_touch(node, ctx)
    lhs = ctx.render(node.lhs)
    rhs = ctx.render(node.rhs)
    text = f"{_guard_prefix(node.guard, ctx)}{lhs} = {rhs}"
    return [_stmt(text, node.label)]


# --- module wrapping --------------------------------------------------------

#: opaque statements that still belong to the declaration part
_DECL_KEYWORDS = {
    "data", "save", "parameter", "common", "equivalence", "intrinsic", "format",
}


def _is_executable(node: A.Node) -> bool:
    if isinstance(node, (A.AssignmentNode, A.CallNode, A.EsopeCommandNode)):
        return True
    if isinstance(node, A.OpaqueNode):
        head = node.tokens[0] if node.tokens else None
        if isinstance(head, Token) and head.value in _DECL_KEYWORDS:
            return False
        return True
    return False


def _inferred_declarations(ctx: RewriteContext) -> List[T.OutputNode]:
    if not ctx.names.implicit:
        return []
    out: List[T.OutputNode] = [T.comment(f"{MARK} declarations inferred from implicit typing")]
    for name, type_text in ctx.names.implicit.items():
        intent = ctx.intent_of(name)
        attributes = type_text if intent is None else f"{type_text}, intent({intent})"
        out.append(T.declaration(f"{attributes} :: {name}"))
    return out


def compute_unit_uses(ctx: RewriteContext) -> List[str]:
    """Module imports of one migrated unit, alphabetically: the module of
    each other project routine it needs, from the project's target names,
    and of each segment in its scope that it names, or whose field it
    names, and of each segment a POINTEUR names.  A symbol defined nowhere
    and not known external is an error."""
    model, summary, names = ctx.model, ctx.summary, ctx.names
    required = set(summary.referenced)
    # segment names and fields in scope resolve through use, as does a
    # function typed here and a project routine named EXTERNAL; implicitly
    # typed locals get a generated declaration, so they count
    scoped = {seg.name for seg in names.scope}.union(names.owners)
    defined = set(summary.defined).union(names.implicit) - names.typed_by_use - scoped
    defined -= model.units.keys() & set(summary.external)
    external_ok = {name for name in (*summary.external, *(callee for callee, _ in summary.calls))
                   if name not in model.units}

    missing = required - defined
    imported = {name for name in missing if name in ctx.targets.routines} - {ctx.unit.name}
    unknown = sorted(missing - imported - scoped - external_ok
                     - model.intent_catalog.keys() - A.INTRINSIC_FUNCTIONS)
    if unknown:
        raise MigrationError(f"required symbol {unknown[0]!r} is defined by no module")
    uses = {ctx.targets.routines[name] for name in imported}
    uses.update(T.module_name(seg_name) for seg_name in summary.pointers.values())
    uses.update(T.module_name(seg.name) for seg in names.scope
                if seg.name in required or any(f.name in required for f in seg.fields))
    return sorted(uses)


def wrap_in_module(ctx: RewriteContext) -> T.TargetNode:
    """Rewrite the whole unit and wrap it in a module (or program)."""
    unit = ctx.unit
    # Fortran 2008 allows an assumed-length result only for an external function
    if (unit.kind == "function" and (ctx.summary.declared.get(unit.name) or unit.return_type)
            == format_type("character", "*")):
        raise MigrationError(f"assumed-length result of function {unit.name!r}", unit.span)
    uses = compute_unit_uses(ctx)

    # generated declarations go ahead of the first executable statement;
    # pointers named after a segment exist without any POINTEUR line
    decls = _inferred_declarations(ctx) + [
        T.declaration(f"type({n}), pointer :: {n}") for n in ctx.summary.default_pointers]
    body: List[T.OutputNode] = []
    for node in unit.body:
        if decls and _is_executable(node):
            body += decls
            decls = []
        body += rewrite_statement(node, ctx)
    body += decls

    head = [*(T.use(m) for m in uses), T.statement("implicit none")]
    if unit.kind == "program":
        return T.program_node(unit.name).add(*head, *body)

    # a subroutine or function, alone in its module
    proc = T.TargetNode(T.PROCEDURE, f"{unit.kind} {unit.name}({', '.join(unit.params)})",
                        footer=f"end {unit.kind} {unit.name}")
    if unit.kind == "function" and unit.return_type and not ctx.summary.declared.get(unit.name):
        proc.add(T.declaration(f"{unit.return_type} :: {unit.name}"))
    proc.add(*body)
    return T.module_node(ctx.targets.routines[unit.name]).add(
        *head, T.statement("private"), T.statement(f"public :: {unit.name}"),
        T.TargetNode(T.CONTAINS), proc)
