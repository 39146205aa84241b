module node_mod
  use segment_mod
  implicit none
  private
  public :: node, segini, segadj, segsup, segprt, segcop, segmov
  public :: assignment(=)

  type, extends(segment) :: node
    integer, private :: n = 0
    integer, public :: next = 0
    integer, pointer, public :: v(:) => null()
  contains
    procedure :: segsup => node_segsup
    procedure :: segcop => node_segcop
    procedure :: segmov => node_segmov
    procedure :: segprt => node_segprt
    procedure :: seg_store => node_seg_store
    procedure :: seg_type => node_seg_type
  end type node

  interface segini
    module procedure node_segini
  end interface
  interface segadj
    module procedure node_segadj
  end interface
  interface segsup
    module procedure node_segsup_ptr
  end interface
  interface segprt
    module procedure node_segprt_ptr
  end interface
  interface segcop
    module procedure node_segcop_ptr
  end interface
  interface segmov
    module procedure node_segmov_ptr
  end interface
  interface assignment(=)
    module procedure node_assign
  end interface
contains

  function node_v_dim1(n) result(extent)
    integer, intent(in) :: n
    integer :: extent
    extent = int(n)
    if (extent < 0) then
      write(*, *) 'segment node: negative extent for v'
      error stop 1
    end if
  end function node_v_dim1

  subroutine node_segini(p, n)
    type(node), pointer, intent(inout) :: p
    integer, intent(in) :: n
    allocate(p)
    p%n = n
    allocate(p%v(node_v_dim1(n)))
    p%v = 0
  end subroutine node_segini

  subroutine node_segadj(p, n)
    type(node), pointer, intent(inout) :: p
    integer, intent(in) :: n
    integer, pointer :: new_v(:)
    integer :: n1
    allocate(new_v(node_v_dim1(n)))
    new_v = 0
    n1 = min(size(p%v, dim=1), size(new_v, dim=1))
    new_v(1:n1) = p%v(1:n1)
    deallocate(p%v)
    p%v => new_v
    p%n = n
  end subroutine node_segadj

  subroutine node_segsup_ptr(p)
    type(node), pointer, intent(inout) :: p
    if (.not. associated(p)) return
    call p%segsup()
    deallocate(p)
    nullify(p)
  end subroutine node_segsup_ptr

  subroutine node_segsup(self)
    class(node), intent(inout) :: self
    if (associated(self%v)) deallocate(self%v)
    nullify(self%v)
    self%n = 0
  end subroutine node_segsup

  subroutine node_segprt_ptr(p)
    type(node), pointer, intent(in) :: p
    if (.not. associated(p)) then
      write(*, *) 'node: <null>'
      return
    end if
    call p%segprt()
  end subroutine node_segprt_ptr

  subroutine node_segprt(self)
    class(node), intent(in) :: self
    write(*, *) 'segment node'
    write(*, *) '  n = ', self%n
    write(*, *) '  next = ', self%next
    if (associated(self%v)) then
      write(*, *) '  v(', size(self%v, dim=1), ') = ', self%v
    else
      write(*, *) '  v = <unallocated>'
    end if
  end subroutine node_segprt

  subroutine node_segcop_ptr(p, q)
    type(node), pointer, intent(inout) :: p
    type(node), pointer, intent(in) :: q
    if (.not. associated(q)) then
      write(*, *) 'segcop: source not allocated'
      error stop 1
    end if
    allocate(p)
    call p%segcop(q)
  end subroutine node_segcop_ptr

  subroutine node_segcop(self, source)
    class(node), intent(inout) :: self
    class(segment), intent(in) :: source
    select type (source)
    type is (node)
        self%n = source%n
        self%next = source%next
        allocate(self%v(size(source%v, dim=1)))
        self%v = source%v
    class default
      write(*, *) 'segcop: source is not a node'
      error stop 1
    end select
  end subroutine node_segcop

  subroutine node_segmov_ptr(p, q)
    type(node), pointer, intent(inout) :: p
    type(node), pointer, intent(in) :: q
    if (.not. associated(p)) then
      write(*, *) 'segmov: target not allocated'
      error stop 1
    end if
    if (.not. associated(q)) then
      write(*, *) 'segmov: source not allocated'
      error stop 1
    end if
    call p%segmov(q)
  end subroutine node_segmov_ptr

  subroutine node_segmov(self, source)
    class(node), intent(inout) :: self
    class(segment), intent(in) :: source
    select type (source)
    type is (node)
        self%n = source%n
        self%next = source%next
        if (.not. associated(self%v)) then
          write(*, *) 'segmov: target field v not allocated'
          error stop 1
        end if
        if (size(self%v) /= size(source%v)) then
          write(*, *) 'segmov: field v size mismatch'
          error stop 1
        end if
        self%v = source%v
    class default
      write(*, *) 'segmov: source is not a node'
      error stop 1
    end select
  end subroutine node_segmov

  subroutine node_seg_store(self, unit_number)
    class(node), intent(in) :: self
    integer, intent(in) :: unit_number
    write(*, *) 'node: seg_store not implemented'
    error stop 1
  end subroutine node_seg_store

  function node_seg_type(self) result(type_name)
    class(node), intent(in) :: self
    character(len=32) :: type_name
    type_name = 'node'
  end function node_seg_type

  subroutine node_assign(lhs, rhs)
    type(node), intent(inout) :: lhs
    type(node), intent(in) :: rhs
    write(*, *) 'use => for segment pointers'
    error stop 1
  end subroutine node_assign

end module node_mod
