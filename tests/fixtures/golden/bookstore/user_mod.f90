module user_mod
  use segment_mod
  implicit none
  private
  public :: user, segini, segadj, segsup, segprt, segcop, segmov
  public :: assignment(=)

  !       name, balance history, open loan count
  type, extends(segment) :: user
    integer, private :: ubbcnt = 0
    character(len=40), public :: uname = ''
    integer, pointer, public :: ubb(:) => null()
    integer, public :: nloan = 0
  contains
    procedure :: segsup => user_segsup
    procedure :: segcop => user_segcop
    procedure :: segmov => user_segmov
    procedure :: segprt => user_segprt
    procedure :: seg_store => user_seg_store
    procedure :: seg_type => user_seg_type
  end type user

  interface segini
    module procedure user_segini
  end interface
  interface segadj
    module procedure user_segadj
  end interface
  interface segsup
    module procedure user_segsup_ptr
  end interface
  interface segprt
    module procedure user_segprt_ptr
  end interface
  interface segcop
    module procedure user_segcop_ptr
  end interface
  interface segmov
    module procedure user_segmov_ptr
  end interface
  interface assignment(=)
    module procedure user_assign
  end interface
contains

  function user_ubb_dim1(ubbcnt) result(extent)
    integer, intent(in) :: ubbcnt
    integer :: extent
    extent = int(ubbcnt)
    if (extent < 0) then
      write(*, *) 'segment user: negative extent for ubb'
      error stop 1
    end if
  end function user_ubb_dim1

  subroutine user_segini(p, ubbcnt)
    type(user), pointer, intent(inout) :: p
    integer, intent(in) :: ubbcnt
    allocate(p)
    p%ubbcnt = ubbcnt
    allocate(p%ubb(user_ubb_dim1(ubbcnt)))
    p%ubb = 0
  end subroutine user_segini

  subroutine user_segadj(p, ubbcnt)
    type(user), pointer, intent(inout) :: p
    integer, intent(in) :: ubbcnt
    integer, pointer :: new_ubb(:)
    integer :: n1
    allocate(new_ubb(user_ubb_dim1(ubbcnt)))
    new_ubb = 0
    n1 = min(size(p%ubb, dim=1), size(new_ubb, dim=1))
    new_ubb(1:n1) = p%ubb(1:n1)
    deallocate(p%ubb)
    p%ubb => new_ubb
    p%ubbcnt = ubbcnt
  end subroutine user_segadj

  subroutine user_segsup_ptr(p)
    type(user), pointer, intent(inout) :: p
    if (.not. associated(p)) return
    call p%segsup()
    deallocate(p)
    nullify(p)
  end subroutine user_segsup_ptr

  subroutine user_segsup(self)
    class(user), intent(inout) :: self
    if (associated(self%ubb)) deallocate(self%ubb)
    nullify(self%ubb)
    self%ubbcnt = 0
  end subroutine user_segsup

  subroutine user_segprt_ptr(p)
    type(user), pointer, intent(in) :: p
    if (.not. associated(p)) then
      write(*, *) 'user: <null>'
      return
    end if
    call p%segprt()
  end subroutine user_segprt_ptr

  subroutine user_segprt(self)
    class(user), intent(in) :: self
    write(*, *) 'segment user'
    write(*, *) '  ubbcnt = ', self%ubbcnt
    write(*, *) '  uname = ', self%uname
    if (associated(self%ubb)) then
      write(*, *) '  ubb(', size(self%ubb, dim=1), ') = ', self%ubb
    else
      write(*, *) '  ubb = <unallocated>'
    end if
    write(*, *) '  nloan = ', self%nloan
  end subroutine user_segprt

  subroutine user_segcop_ptr(p, q)
    type(user), pointer, intent(inout) :: p
    type(user), pointer, intent(in) :: q
    if (.not. associated(q)) then
      write(*, *) 'segcop: source not allocated'
      error stop 1
    end if
    allocate(p)
    call p%segcop(q)
  end subroutine user_segcop_ptr

  subroutine user_segcop(self, source)
    class(user), intent(inout) :: self
    class(segment), intent(in) :: source
    select type (source)
    type is (user)
        self%ubbcnt = source%ubbcnt
        self%uname = source%uname
        allocate(self%ubb(size(source%ubb, dim=1)))
        self%ubb = source%ubb
        self%nloan = source%nloan
    class default
      write(*, *) 'segcop: source is not a user'
      error stop 1
    end select
  end subroutine user_segcop

  subroutine user_segmov_ptr(p, q)
    type(user), pointer, intent(inout) :: p
    type(user), pointer, intent(in) :: q
    if (.not. associated(p)) then
      write(*, *) 'segmov: target not allocated'
      error stop 1
    end if
    if (.not. associated(q)) then
      write(*, *) 'segmov: source not allocated'
      error stop 1
    end if
    call p%segmov(q)
  end subroutine user_segmov_ptr

  subroutine user_segmov(self, source)
    class(user), intent(inout) :: self
    class(segment), intent(in) :: source
    select type (source)
    type is (user)
        self%ubbcnt = source%ubbcnt
        self%uname = source%uname
        if (.not. associated(self%ubb)) then
          write(*, *) 'segmov: target field ubb not allocated'
          error stop 1
        end if
        if (size(self%ubb) /= size(source%ubb)) then
          write(*, *) 'segmov: field ubb size mismatch'
          error stop 1
        end if
        self%ubb = source%ubb
        self%nloan = source%nloan
    class default
      write(*, *) 'segmov: source is not a user'
      error stop 1
    end select
  end subroutine user_segmov

  subroutine user_seg_store(self, unit_number)
    class(user), intent(in) :: self
    integer, intent(in) :: unit_number
    write(*, *) 'user: seg_store not implemented'
    error stop 1
  end subroutine user_seg_store

  function user_seg_type(self) result(type_name)
    class(user), intent(in) :: self
    character(len=32) :: type_name
    type_name = 'user'
  end function user_seg_type

  subroutine user_assign(lhs, rhs)
    type(user), intent(inout) :: lhs
    type(user), intent(in) :: rhs
    write(*, *) 'use => for segment pointers'
    error stop 1
  end subroutine user_assign

end module user_mod
