module rec_mod
  use segment_mod
  implicit none
  private
  public :: rec, segini, segadj, segsup, segprt, segcop, segmov
  public :: assignment(=)

  type, extends(segment) :: rec
    integer, private :: n = 0
    integer, pointer, public :: v(:) => null()
  contains
    procedure :: segsup => rec_segsup
    procedure :: segcop => rec_segcop
    procedure :: segmov => rec_segmov
    procedure :: segprt => rec_segprt
    procedure :: seg_store => rec_seg_store
    procedure :: seg_type => rec_seg_type
  end type rec

  interface segini
    module procedure rec_segini
  end interface
  interface segadj
    module procedure rec_segadj
  end interface
  interface segsup
    module procedure rec_segsup_ptr
  end interface
  interface segprt
    module procedure rec_segprt_ptr
  end interface
  interface segcop
    module procedure rec_segcop_ptr
  end interface
  interface segmov
    module procedure rec_segmov_ptr
  end interface
  interface assignment(=)
    module procedure rec_assign
  end interface
contains

  function rec_v_dim1(n) result(extent)
    integer, intent(in) :: n
    integer :: extent
    extent = int(n)
    if (extent < 0) then
      write(*, *) 'segment rec: negative extent for v'
      error stop 1
    end if
  end function rec_v_dim1

  subroutine rec_segini(p, n)
    type(rec), pointer, intent(inout) :: p
    integer, intent(in) :: n
    allocate(p)
    p%n = n
    allocate(p%v(rec_v_dim1(n)))
    p%v = 0
  end subroutine rec_segini

  subroutine rec_segadj(p, n)
    type(rec), pointer, intent(inout) :: p
    integer, intent(in) :: n
    integer, pointer :: new_v(:)
    integer :: n1
    allocate(new_v(rec_v_dim1(n)))
    new_v = 0
    n1 = min(size(p%v, dim=1), size(new_v, dim=1))
    new_v(1:n1) = p%v(1:n1)
    deallocate(p%v)
    p%v => new_v
    p%n = n
  end subroutine rec_segadj

  subroutine rec_segsup_ptr(p)
    type(rec), pointer, intent(inout) :: p
    if (.not. associated(p)) return
    call p%segsup()
    deallocate(p)
    nullify(p)
  end subroutine rec_segsup_ptr

  subroutine rec_segsup(self)
    class(rec), intent(inout) :: self
    if (associated(self%v)) deallocate(self%v)
    nullify(self%v)
    self%n = 0
  end subroutine rec_segsup

  subroutine rec_segprt_ptr(p)
    type(rec), pointer, intent(in) :: p
    if (.not. associated(p)) then
      write(*, *) 'rec: <null>'
      return
    end if
    call p%segprt()
  end subroutine rec_segprt_ptr

  subroutine rec_segprt(self)
    class(rec), intent(in) :: self
    write(*, *) 'segment rec'
    write(*, *) '  n = ', self%n
    if (associated(self%v)) then
      write(*, *) '  v(', size(self%v, dim=1), ') = ', self%v
    else
      write(*, *) '  v = <unallocated>'
    end if
  end subroutine rec_segprt

  subroutine rec_segcop_ptr(p, q)
    type(rec), pointer, intent(inout) :: p
    type(rec), pointer, intent(in) :: q
    if (.not. associated(q)) then
      write(*, *) 'segcop: source not allocated'
      error stop 1
    end if
    allocate(p)
    call p%segcop(q)
  end subroutine rec_segcop_ptr

  subroutine rec_segcop(self, source)
    class(rec), intent(inout) :: self
    class(segment), intent(in) :: source
    select type (source)
    type is (rec)
        self%n = source%n
        allocate(self%v(size(source%v, dim=1)))
        self%v = source%v
    class default
      write(*, *) 'segcop: source is not a rec'
      error stop 1
    end select
  end subroutine rec_segcop

  subroutine rec_segmov_ptr(p, q)
    type(rec), pointer, intent(inout) :: p
    type(rec), pointer, intent(in) :: q
    if (.not. associated(p)) then
      write(*, *) 'segmov: target not allocated'
      error stop 1
    end if
    if (.not. associated(q)) then
      write(*, *) 'segmov: source not allocated'
      error stop 1
    end if
    call p%segmov(q)
  end subroutine rec_segmov_ptr

  subroutine rec_segmov(self, source)
    class(rec), intent(inout) :: self
    class(segment), intent(in) :: source
    select type (source)
    type is (rec)
        self%n = source%n
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
      write(*, *) 'segmov: source is not a rec'
      error stop 1
    end select
  end subroutine rec_segmov

  subroutine rec_seg_store(self, unit_number)
    class(rec), intent(in) :: self
    integer, intent(in) :: unit_number
    write(*, *) 'rec: seg_store not implemented'
    error stop 1
  end subroutine rec_seg_store

  function rec_seg_type(self) result(type_name)
    class(rec), intent(in) :: self
    character(len=32) :: type_name
    type_name = 'rec'
  end function rec_seg_type

  subroutine rec_assign(lhs, rhs)
    type(rec), intent(inout) :: lhs
    type(rec), intent(in) :: rhs
    write(*, *) 'use => for segment pointers'
    error stop 1
  end subroutine rec_assign

end module rec_mod
