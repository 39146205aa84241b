"""Per-unit rewriting: statement catalog plus module wrapping.

Every source statement maps to free-form statements, a traceability
comment, or both; nothing is dropped silently.
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
                     format_type, segment_for_field)
from .tokens import GapTable, render_tokens

MARK = "[seg-migrate]"


@dataclass
class RewriteContext:
    """A unit's summary plus the facts that need the whole model, each
    computed once for the unit's rewrite."""

    unit: A.ProgramUnitAst
    model: ProjectModel
    intents: Dict[Tuple[str, int], str]
    summary: UnitSummary
    scope: List[SegmentDefinition]
    classification: Dict[str, str]
    types: List[analysis.TypeAssignment]
    gaps: GapTable  # shared by the units of one migrate
    rewritten: int = 0
    removed: int = 0
    passthrough: int = 0

    def segment_of(self, name: str) -> Optional[SegmentDefinition]:
        seg_name = self.summary.segment_of(name)
        if seg_name is None:
            return None
        if seg_name not in self.model.segments:
            raise MigrationError(
                f"pointer {name!r} targets unknown segment {seg_name!r}", self.unit.span
            )
        return self.model.segments[seg_name]

    def resolve_field(self, field_name: str) -> str:
        seg = segment_for_field(self.model, field_name, [s.name for s in self.scope])
        if seg is None:
            raise MigrationError(
                f"bare field {field_name!r} matches no in-scope segment", self.unit.span
            )
        return seg.default_pointer

    def render(self, stream: Sequence[ExprToken]) -> str:
        return render_tokens(stream, self.resolve_field, self.gaps)


def make_context(
    unit: A.ProgramUnitAst,
    model: ProjectModel,
    intents: Dict[Tuple[str, int], str],
    gaps: Optional[GapTable] = None,
) -> RewriteContext:
    scope = analysis.segments_in_scope(unit, model)
    # classification first: its errors were reported before typing errors
    classification = analysis.classify_external_names(unit, model)
    types = analysis.infer_implicit_types(unit, model, scope)
    return RewriteContext(unit, model, intents, model.units[unit.name], scope,
                          classification, types, {} if gaps is None else gaps)


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
        return [T.comment(f"{MARK} segment {seg.name} moved to module {seg.name}_mod")]
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
    unit = ctx.unit
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
        if ent.name in unit.params:
            pos = unit.params.index(ent.name)
            intent = ctx.intents.get((unit.name, pos), analysis.INOUT)
            out.append(T.declaration(
                f"{type_text}, intent({intent}) :: {_entity_text(ent, ctx)}"))
            continue
        if (
            ctx.classification.get(ent.name) == analysis.RETURN_TYPE_DECL
            and ent.name in ctx.model.functions()
        ):
            out.append(_removed(
                f"{type_text} {ent.name}", f"type provided by use of {ent.name}_mod"))
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
    unit = ctx.unit
    todo = [
        a for a in ctx.types
        if a.origin == analysis.IMPLICIT_RULE and a.symbol not in ctx.summary.declared
    ]
    out: List[T.OutputNode] = []
    if todo:
        out.append(T.comment(f"{MARK} declarations inferred from implicit typing"))
        for a in sorted(todo, key=lambda a: a.symbol):
            if a.symbol in unit.params:
                pos = unit.params.index(a.symbol)
                intent = ctx.intents.get((unit.name, pos), analysis.INOUT)
                out.append(T.declaration(f"{a.inferred_type}, intent({intent}) :: {a.symbol}"))
            else:
                out.append(T.declaration(f"{a.inferred_type} :: {a.symbol}"))
    return out


def compute_unit_uses(ctx: RewriteContext) -> List[str]:
    """Module imports of one migrated unit, alphabetically."""
    model = ctx.model
    unit = ctx.unit
    required = set(ctx.summary.referenced)
    defined = set(ctx.summary.defined)
    # implicitly typed locals get a generated declaration, so they count;
    # module functions do not, their type comes with the use
    defined |= {a.symbol for a in ctx.types if a.origin != analysis.FUNCTION_RETURN}
    # segment names and fields resolve through use, not local definitions
    for seg in ctx.scope:
        defined.discard(seg.name)
        defined -= seg.field_names()

    # project-internal routines resolve through use, not interfaces
    external_ok = set(model.intent_catalog)
    for name in ctx.summary.external:
        if name in model.units:
            defined.discard(name)
        else:
            external_ok.add(name)
    for edge in model.calls_from(unit.name):
        if edge.external:
            external_ok.add(edge.callee)

    module_of = model.modules_seen_from(unit.name, required - defined)
    uses = set(analysis.compute_uses(required, defined, module_of, external_ok))
    uses.update(f"{seg_name}_mod" for seg_name in ctx.summary.pointers.values())
    for seg in ctx.scope:
        if seg.name in required or not seg.field_names().isdisjoint(required):
            uses.add(f"{seg.name}_mod")
    return sorted(uses)


def wrap_in_module(ctx: RewriteContext) -> T.TargetNode:
    """Rewrite the whole unit and wrap it in a module (or program)."""
    unit = ctx.unit
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

    if unit.kind == "program":
        top = T.program_node(unit.name)
        for mod in uses:
            top.add(T.use(mod))
        top.add(T.statement("implicit none"))
        top.add(*body)
        return top

    params = ", ".join(unit.params)
    if unit.kind == "function":
        header = f"function {unit.name}({params})"
        footer = f"end function {unit.name}"
    else:
        header = f"subroutine {unit.name}({params})"
        footer = f"end subroutine {unit.name}"
    proc = T.TargetNode(T.PROCEDURE, header, footer=footer)
    if unit.kind == "function" and unit.return_type and not ctx.summary.declared.get(unit.name):
        proc.add(T.declaration(f"{unit.return_type} :: {unit.name}"))
    proc.add(*body)

    mod = T.module_node(f"{unit.name}_mod")
    for m in uses:
        mod.add(T.use(m))
    mod.add(T.statement("implicit none"))
    mod.add(T.statement("private"))
    mod.add(T.statement(f"public :: {unit.name}"))
    mod.add(T.TargetNode(T.CONTAINS))
    mod.add(proc)
    return mod
