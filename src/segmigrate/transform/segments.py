"""Synthesis of per-segment modules and the two support modules.

Each segment becomes a module holding the derived type, one private
dimensioning-expression function per dynamic array dimension, and the full
command set.  The command bodies are formatted straight to Fortran text
(template nodes): large, similar chunks of code with only the segment name
and field lists varying.
"""

from __future__ import annotations

from typing import List, Tuple

from .. import target as T
from ..errors import MigrationError
from ..model import FieldDef, SegmentDefinition, format_type
from .tokens import render_tokens

_ZERO = {"integer": "0", "real": "0.0", "double precision": "0.0d0", "logical": ".false.",
         "character": "''"}


def zero_value(f: FieldDef) -> str:
    if f.base_type not in _ZERO:
        raise MigrationError(f"no zero value for field type {f.base_type!r}")
    return _ZERO[f.base_type]


def field_type(f: FieldDef) -> str:
    if f.base_type == "pointer":
        return f"type({f.segment})"
    return format_type(f.base_type, f.char_len)


def extent_function_name(seg: SegmentDefinition, f: FieldDef, dim_index: int) -> str:
    return f"{seg.name}_{f.name}_dim{dim_index}"


def dim_args(seg: SegmentDefinition) -> str:
    return ", ".join(seg.dimensioning_vars)


def migrate_segment(seg: SegmentDefinition) -> T.TargetNode:
    """Build the whole module for one segment."""
    mod = T.module_node(T.module_name(seg.name))
    mod.add(T.use(T.module_name("segment")))  # the abstract base type
    for f in seg.fields:
        if f.base_type == "pointer":
            mod.add(T.use(T.module_name(f.segment)))
    mod.add(T.statement("implicit none"), T.statement("private"))
    exported = ["segini", "segadj", "segsup", "segprt", "segcop", "segmov"]
    mod.add(T.statement(f"public :: {seg.name}, " + ", ".join(exported)))
    mod.add(T.statement("public :: assignment(=)"))
    mod.add(T.blank())
    for text in seg.comments:
        mod.add(T.comment(text))

    mod.add(_derived_type(seg))
    mod.add(T.blank())
    for generic, specific in _generic_map(seg):
        mod.add(T.TemplateNode(f"interface {generic}\n  module procedure {specific}\nend interface"))
    mod.add(T.TargetNode(T.CONTAINS))
    mod.add(T.blank())
    for body in synthesize_command_bodies(seg):
        mod.add(body)
        mod.add(T.blank())
    return mod


def _generic_map(seg: SegmentDefinition) -> List[Tuple[str, str]]:
    s = seg.name
    return [
        ("segini", f"{s}_segini"),
        ("segadj", f"{s}_segadj"),
        ("segsup", f"{s}_segsup_ptr"),
        ("segprt", f"{s}_segprt_ptr"),
        ("segcop", f"{s}_segcop_ptr"),
        ("segmov", f"{s}_segmov_ptr"),
        ("assignment(=)", f"{s}_assign"),
    ]


def _derived_type(seg: SegmentDefinition) -> T.TargetNode:
    node = T.TargetNode(
        T.DERIVED_TYPE,
        f"type, extends(segment) :: {seg.name}",
        footer=f"end type {seg.name}",
    )
    for v in seg.dimensioning_vars:
        node.add(T.declaration(f"integer, private :: {v} = 0"))
    for f in seg.fields:
        node.add(T.declaration(_field_decl(seg, f)))
    node.add(T.TargetNode(T.CONTAINS))
    for binding in ("segsup", "segcop", "segmov", "segprt", "seg_store", "seg_type"):
        node.add(T.declaration(f"procedure :: {binding} => {seg.name}_{binding}"))
    return node


def _field_decl(seg: SegmentDefinition, f: FieldDef) -> str:
    if f.base_type == "pointer":
        return f"type({f.segment}), pointer, public :: {f.name} => null()"
    if f.is_dynamic:
        shape = ", ".join(":" for _ in f.dims)
        return f"{field_type(f)}, pointer, public :: {f.name}({shape}) => null()"
    if f.is_array:
        dims = ", ".join(render_tokens(d) for d in f.dims)
        return f"{field_type(f)}, public :: {f.name}({dims}) = {zero_value(f)}"
    return f"{field_type(f)}, public :: {f.name} = {zero_value(f)}"


def synthesize_command_bodies(seg: SegmentDefinition) -> List[T.OutputNode]:
    """All generated procedures of a segment module, as template nodes."""
    out: List[T.OutputNode] = []
    out.extend(_extent_functions(seg))
    out.append(_segini(seg))
    out.append(_segadj(seg))
    out.append(_segsup(seg))
    out.append(_segprt(seg))
    out.append(_segcop(seg))
    out.append(_segmov(seg))
    out.append(_seg_store(seg))
    out.append(_seg_type(seg))
    out.append(_assign_guard(seg))
    return out


def _dimvar_param_decl(seg: SegmentDefinition, indent: str = "  ") -> str:
    if not seg.dimensioning_vars:
        return ""
    return indent + "integer, intent(in) :: " + ", ".join(seg.dimensioning_vars) + "\n"


def _extent_functions(seg: SegmentDefinition) -> List[T.OutputNode]:
    """One private function per dynamic array dimension; each takes every
    dimensioning variable and returns the extent, rejecting negatives."""
    out: List[T.OutputNode] = []
    for f in seg.dynamic_fields():
        for j, dim in enumerate(f.dims, start=1):
            name = extent_function_name(seg, f, j)
            expr = render_tokens(dim)
            text = (
                f"function {name}({dim_args(seg)}) result(extent)\n"
                + _dimvar_param_decl(seg)
                + "  integer :: extent\n"
                + f"  extent = int({expr})\n"
                + "  if (extent < 0) then\n"
                + f"    write(*, *) 'segment {seg.name}: negative extent for {f.name}'\n"
                + "    error stop 1\n"
                + "  end if\n"
                + f"end function {name}"
            )
            out.append(T.TemplateNode(text))
    return out


def _alloc_shape(seg: SegmentDefinition, f: FieldDef, args: str) -> str:
    return ", ".join(
        f"{extent_function_name(seg, f, j)}({args})" for j in range(1, len(f.dims) + 1)
    )


def _segini(seg: SegmentDefinition) -> T.OutputNode:
    args = dim_args(seg)
    arglist = f"p, {args}" if args else "p"
    lines = [
        f"subroutine {seg.name}_segini({arglist})",
        f"  type({seg.name}), pointer, intent(inout) :: p",
    ]
    if seg.dimensioning_vars:
        lines.append(_dimvar_param_decl(seg).rstrip("\n"))
    lines.append("  allocate(p)")
    for v in seg.dimensioning_vars:
        lines.append(f"  p%{v} = {v}")
    for f in seg.dynamic_fields():
        lines.append(f"  allocate(p%{f.name}({_alloc_shape(seg, f, args)}))")
        lines.append(f"  p%{f.name} = {zero_value(f)}")
    lines.append(f"end subroutine {seg.name}_segini")
    return T.TemplateNode("\n".join(lines))


def _segadj(seg: SegmentDefinition) -> T.OutputNode:
    args = dim_args(seg)
    arglist = f"p, {args}" if args else "p"
    lines = [
        f"subroutine {seg.name}_segadj({arglist})",
        f"  type({seg.name}), pointer, intent(inout) :: p",
    ]
    if seg.dimensioning_vars:
        lines.append(_dimvar_param_decl(seg).rstrip("\n"))
    dyn = seg.dynamic_fields()
    for f in dyn:
        shape = ", ".join(":" for _ in f.dims)
        lines.append(f"  {field_type(f)}, pointer :: new_{f.name}({shape})")
    if dyn:
        lines.append("  integer :: " + ", ".join(f"n{j}" for j in range(1, _max_rank(dyn) + 1)))
    for f in dyn:
        # allocate at the new extent, copy the surviving elements, repoint;
        # the instance p points to is never reallocated (handle stability)
        lines.append(f"  allocate(new_{f.name}({_alloc_shape(seg, f, args)}))")
        lines.append(f"  new_{f.name} = {zero_value(f)}")
        for j in range(1, len(f.dims) + 1):
            lines.append(
                f"  n{j} = min(size(p%{f.name}, dim={j}), size(new_{f.name}, dim={j}))"
            )
        section = ", ".join(f"1:n{j}" for j in range(1, len(f.dims) + 1))
        lines.append(f"  new_{f.name}({section}) = p%{f.name}({section})")
        lines.append(f"  deallocate(p%{f.name})")
        lines.append(f"  p%{f.name} => new_{f.name}")
    for v in seg.dimensioning_vars:
        lines.append(f"  p%{v} = {v}")
    lines.append(f"end subroutine {seg.name}_segadj")
    return T.TemplateNode("\n".join(lines))


def _max_rank(fields: List[FieldDef]) -> int:
    return max(len(f.dims) for f in fields)


def _segsup(seg: SegmentDefinition) -> T.OutputNode:
    lines = [
        f"subroutine {seg.name}_segsup_ptr(p)",
        f"  type({seg.name}), pointer, intent(inout) :: p",
        "  if (.not. associated(p)) return",
        "  call p%segsup()",
        "  deallocate(p)",
        "  nullify(p)",
        f"end subroutine {seg.name}_segsup_ptr",
        "",
        f"subroutine {seg.name}_segsup(self)",
        f"  class({seg.name}), intent(inout) :: self",
    ]
    for f in seg.dynamic_fields():
        lines.append(f"  if (associated(self%{f.name})) deallocate(self%{f.name})")
        lines.append(f"  nullify(self%{f.name})")
    for v in seg.dimensioning_vars:
        lines.append(f"  self%{v} = 0")
    lines.append(f"end subroutine {seg.name}_segsup")
    return T.TemplateNode("\n".join(lines))


def _segprt(seg: SegmentDefinition) -> T.OutputNode:
    lines = [
        f"subroutine {seg.name}_segprt_ptr(p)",
        f"  type({seg.name}), pointer, intent(in) :: p",
        "  if (.not. associated(p)) then",
        f"    write(*, *) '{seg.name}: <null>'",
        "    return",
        "  end if",
        "  call p%segprt()",
        f"end subroutine {seg.name}_segprt_ptr",
        "",
        f"subroutine {seg.name}_segprt(self)",
        f"  class({seg.name}), intent(in) :: self",
        f"  write(*, *) 'segment {seg.name}'",
    ]
    for v in seg.dimensioning_vars:
        lines.append(f"  write(*, *) '  {v} = ', self%{v}")
    for f in seg.fields:
        if f.base_type == "pointer":
            lines.append(f"  write(*, *) '  {f.name} => ', associated(self%{f.name})")
        elif f.is_dynamic:
            sizes = ", ".join(
                f"size(self%{f.name}, dim={j})" for j in range(1, len(f.dims) + 1)
            )
            lines.append(f"  if (associated(self%{f.name})) then")
            lines.append(f"    write(*, *) '  {f.name}(', {sizes}, ') = ', self%{f.name}")
            lines.append("  else")
            lines.append(f"    write(*, *) '  {f.name} = <unallocated>'")
            lines.append("  end if")
        else:
            lines.append(f"  write(*, *) '  {f.name} = ', self%{f.name}")
    lines.append(f"end subroutine {seg.name}_segprt")
    return T.TemplateNode("\n".join(lines))


def _copy_fields(seg: SegmentDefinition, check_target: bool) -> List[str]:
    lines: List[str] = []
    for v in seg.dimensioning_vars:
        lines.append(f"      self%{v} = source%{v}")
    for f in seg.fields:
        if f.base_type == "pointer":
            lines.append(f"      self%{f.name} => source%{f.name}")
        elif f.is_dynamic:
            if check_target:
                lines.append(f"      if (.not. associated(self%{f.name})) then")
                lines.append(f"        write(*, *) 'segmov: target field {f.name} not allocated'")
                lines.append("        error stop 1")
                lines.append("      end if")
                lines.append(
                    f"      if (size(self%{f.name}) /= size(source%{f.name})) then"
                )
                lines.append(f"        write(*, *) 'segmov: field {f.name} size mismatch'")
                lines.append("        error stop 1")
                lines.append("      end if")
            else:
                shape = ", ".join(
                    f"size(source%{f.name}, dim={j})" for j in range(1, len(f.dims) + 1)
                )
                lines.append(f"      allocate(self%{f.name}({shape}))")
            lines.append(f"      self%{f.name} = source%{f.name}")
        else:
            lines.append(f"      self%{f.name} = source%{f.name}")
    return lines


def _segcop(seg: SegmentDefinition) -> T.OutputNode:
    lines = [
        f"subroutine {seg.name}_segcop_ptr(p, q)",
        f"  type({seg.name}), pointer, intent(inout) :: p",
        f"  type({seg.name}), pointer, intent(in) :: q",
        "  if (.not. associated(q)) then",
        "    write(*, *) 'segcop: source not allocated'",
        "    error stop 1",
        "  end if",
        "  allocate(p)",
        "  call p%segcop(q)",
        f"end subroutine {seg.name}_segcop_ptr",
        "",
        f"subroutine {seg.name}_segcop(self, source)",
        f"  class({seg.name}), intent(inout) :: self",
        "  class(segment), intent(in) :: source",
        "  select type (source)",
        f"  type is ({seg.name})",
    ]
    lines += _copy_fields(seg, check_target=False)
    lines += [
        "  class default",
        f"    write(*, *) 'segcop: source is not a {seg.name}'",
        "    error stop 1",
        "  end select",
        f"end subroutine {seg.name}_segcop",
    ]
    return T.TemplateNode("\n".join(lines))


def _segmov(seg: SegmentDefinition) -> T.OutputNode:
    lines = [
        f"subroutine {seg.name}_segmov_ptr(p, q)",
        f"  type({seg.name}), pointer, intent(inout) :: p",
        f"  type({seg.name}), pointer, intent(in) :: q",
        "  if (.not. associated(p)) then",
        "    write(*, *) 'segmov: target not allocated'",
        "    error stop 1",
        "  end if",
        "  if (.not. associated(q)) then",
        "    write(*, *) 'segmov: source not allocated'",
        "    error stop 1",
        "  end if",
        "  call p%segmov(q)",
        f"end subroutine {seg.name}_segmov_ptr",
        "",
        f"subroutine {seg.name}_segmov(self, source)",
        f"  class({seg.name}), intent(inout) :: self",
        "  class(segment), intent(in) :: source",
        "  select type (source)",
        f"  type is ({seg.name})",
    ]
    lines += _copy_fields(seg, check_target=True)
    lines += [
        "  class default",
        f"    write(*, *) 'segmov: source is not a {seg.name}'",
        "    error stop 1",
        "  end select",
        f"end subroutine {seg.name}_segmov",
    ]
    return T.TemplateNode("\n".join(lines))


def _seg_store(seg: SegmentDefinition) -> T.OutputNode:
    # archived-segment storage is a stub: the legacy archive format is out of
    # scope, the procedure halts when reached
    text = (
        f"subroutine {seg.name}_seg_store(self, unit_number)\n"
        f"  class({seg.name}), intent(in) :: self\n"
        "  integer, intent(in) :: unit_number\n"
        f"  write(*, *) '{seg.name}: seg_store not implemented'\n"
        "  error stop 1\n"
        f"end subroutine {seg.name}_seg_store"
    )
    return T.TemplateNode(text)


def _seg_type(seg: SegmentDefinition) -> T.OutputNode:
    text = (
        f"function {seg.name}_seg_type(self) result(type_name)\n"
        f"  class({seg.name}), intent(in) :: self\n"
        "  character(len=32) :: type_name\n"
        f"  type_name = '{seg.name}'\n"
        f"end function {seg.name}_seg_type"
    )
    return T.TemplateNode(text)


def _assign_guard(seg: SegmentDefinition) -> T.OutputNode:
    # value assignment between segments is forbidden; only => is allowed
    text = (
        f"subroutine {seg.name}_assign(lhs, rhs)\n"
        f"  type({seg.name}), intent(inout) :: lhs\n"
        f"  type({seg.name}), intent(in) :: rhs\n"
        "  write(*, *) 'use => for segment pointers'\n"
        "  error stop 1\n"
        f"end subroutine {seg.name}_assign"
    )
    return T.TemplateNode(text)


# --- support modules --------------------------------------------------------

_ABSTRACT_SEGMENT = """\
module segment_mod
  implicit none
  private
  public :: segment

  type, abstract :: segment
  contains
    procedure(abstract_segsup), deferred :: segsup
    procedure(abstract_segcop), deferred :: segcop
    procedure(abstract_segmov), deferred :: segmov
    procedure(abstract_segprt), deferred :: segprt
    procedure(abstract_seg_store), deferred :: seg_store
    procedure(abstract_seg_type), deferred :: seg_type
  end type segment

  abstract interface
    subroutine abstract_segsup(self)
      import :: segment
      class(segment), intent(inout) :: self
    end subroutine abstract_segsup

    subroutine abstract_segcop(self, source)
      import :: segment
      class(segment), intent(inout) :: self
      class(segment), intent(in) :: source
    end subroutine abstract_segcop

    subroutine abstract_segmov(self, source)
      import :: segment
      class(segment), intent(inout) :: self
      class(segment), intent(in) :: source
    end subroutine abstract_segmov

    subroutine abstract_segprt(self)
      import :: segment
      class(segment), intent(in) :: self
    end subroutine abstract_segprt

    subroutine abstract_seg_store(self, unit_number)
      import :: segment
      class(segment), intent(in) :: self
      integer, intent(in) :: unit_number
    end subroutine abstract_seg_store

    function abstract_seg_type(self) result(type_name)
      import :: segment
      class(segment), intent(in) :: self
      character(len=32) :: type_name
    end function abstract_seg_type
  end interface
end module segment_mod
"""

_REGISTRY = """\
module segment_registry_mod
  use segment_mod
  implicit none
  private
  public :: seg_register, seg_lookup, seg_release, seg_registry_count

  ! Fortran 2008 has no arrays of pointers, so each slot is a record
  ! holding a single class-wide reference.  Handles are slot indexes and
  ! stay valid for the lifetime of the registered segment: the table only
  ! grows, and freed slots are recycled lowest-first without moving
  ! anything else.
  type :: registry_slot
    class(segment), pointer :: ref => null()
    logical :: in_use = .false.
  end type registry_slot

  type(registry_slot), allocatable :: slots(:)

contains

  subroutine ensure_capacity(wanted)
    integer, intent(in) :: wanted
    type(registry_slot), allocatable :: bigger(:)
    integer :: current
    current = 0
    if (allocated(slots)) current = size(slots)
    if (wanted <= current) return
    allocate(bigger(max(wanted, 2 * current, 8)))
    if (current > 0) bigger(1:current) = slots
    call move_alloc(bigger, slots)
  end subroutine ensure_capacity

  function seg_register(p) result(idx)
    class(segment), pointer, intent(in) :: p
    integer :: idx
    integer :: i
    idx = 0
    if (allocated(slots)) then
      do i = 1, size(slots)
        if (.not. slots(i)%in_use) then
          idx = i
          exit
        end if
      end do
    end if
    if (idx == 0) then
      idx = 1
      if (allocated(slots)) idx = size(slots) + 1
      call ensure_capacity(idx)
    end if
    slots(idx)%ref => p
    slots(idx)%in_use = .true.
  end function seg_register

  function seg_lookup(idx) result(p)
    integer, intent(in) :: idx
    class(segment), pointer :: p
    if (.not. allocated(slots) .or. idx < 1 .or. idx > size(slots)) then
      write(*, *) 'segment registry: index out of range:', idx
      error stop 1
    end if
    if (.not. slots(idx)%in_use) then
      write(*, *) 'segment registry: index was released:', idx
      error stop 1
    end if
    p => slots(idx)%ref
  end function seg_lookup

  subroutine seg_release(idx)
    integer, intent(in) :: idx
    if (.not. allocated(slots) .or. idx < 1 .or. idx > size(slots)) then
      write(*, *) 'segment registry: index out of range:', idx
      error stop 1
    end if
    slots(idx)%ref => null()
    slots(idx)%in_use = .false.
  end subroutine seg_release

  function seg_registry_count() result(n)
    integer :: n
    integer :: i
    n = 0
    if (.not. allocated(slots)) return
    do i = 1, size(slots)
      if (slots(i)%in_use) n = n + 1
    end do
  end function seg_registry_count
end module segment_registry_mod
"""


def generate_support_modules() -> List[Tuple[str, T.TemplateNode]]:
    """The abstract segment module and the index-stable segment registry."""
    return [(T.output_name(module), T.TemplateNode(text))
            for module, text in zip(T.RUNTIME_MODULES, (_ABSTRACT_SEGMENT, _REGISTRY))]
