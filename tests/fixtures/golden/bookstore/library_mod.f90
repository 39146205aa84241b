module library_mod
  use segment_mod
  implicit none
  private
  public :: library, segini, segadj, segsup, segprt, segcop, segmov
  public :: assignment(=)

  !       the catalogue holds registry indexes, never raw pointers
  type, extends(segment) :: library
    integer, private :: bkcnt = 0
    integer, private :: uscnt = 0
    character(len=40), public :: lname = ''
    integer, pointer, public :: cat(:) => null()
    integer, pointer, public :: usrs(:) => null()
    integer, public :: nbk = 0
    integer, public :: nus = 0
  contains
    procedure :: segsup => library_segsup
    procedure :: segcop => library_segcop
    procedure :: segmov => library_segmov
    procedure :: segprt => library_segprt
    procedure :: seg_store => library_seg_store
    procedure :: seg_type => library_seg_type
  end type library

  interface segini
    module procedure library_segini
  end interface
  interface segadj
    module procedure library_segadj
  end interface
  interface segsup
    module procedure library_segsup_ptr
  end interface
  interface segprt
    module procedure library_segprt_ptr
  end interface
  interface segcop
    module procedure library_segcop_ptr
  end interface
  interface segmov
    module procedure library_segmov_ptr
  end interface
  interface assignment(=)
    module procedure library_assign
  end interface
contains

  function library_cat_dim1(bkcnt, uscnt) result(extent)
    integer, intent(in) :: bkcnt, uscnt
    integer :: extent
    extent = int(bkcnt * 2)
    if (extent < 0) then
      write(*, *) 'segment library: negative extent for cat'
      error stop 1
    end if
  end function library_cat_dim1

  function library_usrs_dim1(bkcnt, uscnt) result(extent)
    integer, intent(in) :: bkcnt, uscnt
    integer :: extent
    extent = int(uscnt)
    if (extent < 0) then
      write(*, *) 'segment library: negative extent for usrs'
      error stop 1
    end if
  end function library_usrs_dim1

  subroutine library_segini(p, bkcnt, uscnt)
    type(library), pointer, intent(inout) :: p
    integer, intent(in) :: bkcnt, uscnt
    allocate(p)
    p%bkcnt = bkcnt
    p%uscnt = uscnt
    allocate(p%cat(library_cat_dim1(bkcnt, uscnt)))
    p%cat = 0
    allocate(p%usrs(library_usrs_dim1(bkcnt, uscnt)))
    p%usrs = 0
  end subroutine library_segini

  subroutine library_segadj(p, bkcnt, uscnt)
    type(library), pointer, intent(inout) :: p
    integer, intent(in) :: bkcnt, uscnt
    integer, pointer :: new_cat(:)
    integer, pointer :: new_usrs(:)
    integer :: n1
    allocate(new_cat(library_cat_dim1(bkcnt, uscnt)))
    new_cat = 0
    n1 = min(size(p%cat, dim=1), size(new_cat, dim=1))
    new_cat(1:n1) = p%cat(1:n1)
    deallocate(p%cat)
    p%cat => new_cat
    allocate(new_usrs(library_usrs_dim1(bkcnt, uscnt)))
    new_usrs = 0
    n1 = min(size(p%usrs, dim=1), size(new_usrs, dim=1))
    new_usrs(1:n1) = p%usrs(1:n1)
    deallocate(p%usrs)
    p%usrs => new_usrs
    p%bkcnt = bkcnt
    p%uscnt = uscnt
  end subroutine library_segadj

  subroutine library_segsup_ptr(p)
    type(library), pointer, intent(inout) :: p
    if (.not. associated(p)) return
    call p%segsup()
    deallocate(p)
    nullify(p)
  end subroutine library_segsup_ptr

  subroutine library_segsup(self)
    class(library), intent(inout) :: self
    if (associated(self%cat)) deallocate(self%cat)
    nullify(self%cat)
    if (associated(self%usrs)) deallocate(self%usrs)
    nullify(self%usrs)
    self%bkcnt = 0
    self%uscnt = 0
  end subroutine library_segsup

  subroutine library_segprt_ptr(p)
    type(library), pointer, intent(in) :: p
    if (.not. associated(p)) then
      write(*, *) 'library: <null>'
      return
    end if
    call p%segprt()
  end subroutine library_segprt_ptr

  subroutine library_segprt(self)
    class(library), intent(in) :: self
    write(*, *) 'segment library'
    write(*, *) '  bkcnt = ', self%bkcnt
    write(*, *) '  uscnt = ', self%uscnt
    write(*, *) '  lname = ', self%lname
    if (associated(self%cat)) then
      write(*, *) '  cat(', size(self%cat, dim=1), ') = ', self%cat
    else
      write(*, *) '  cat = <unallocated>'
    end if
    if (associated(self%usrs)) then
      write(*, *) '  usrs(', size(self%usrs, dim=1), ') = ', self%usrs
    else
      write(*, *) '  usrs = <unallocated>'
    end if
    write(*, *) '  nbk = ', self%nbk
    write(*, *) '  nus = ', self%nus
  end subroutine library_segprt

  subroutine library_segcop_ptr(p, q)
    type(library), pointer, intent(inout) :: p
    type(library), pointer, intent(in) :: q
    if (.not. associated(q)) then
      write(*, *) 'segcop: source not allocated'
      error stop 1
    end if
    allocate(p)
    call p%segcop(q)
  end subroutine library_segcop_ptr

  subroutine library_segcop(self, source)
    class(library), intent(inout) :: self
    class(segment), intent(in) :: source
    select type (source)
    type is (library)
        self%bkcnt = source%bkcnt
        self%uscnt = source%uscnt
        self%lname = source%lname
        allocate(self%cat(size(source%cat, dim=1)))
        self%cat = source%cat
        allocate(self%usrs(size(source%usrs, dim=1)))
        self%usrs = source%usrs
        self%nbk = source%nbk
        self%nus = source%nus
    class default
      write(*, *) 'segcop: source is not a library'
      error stop 1
    end select
  end subroutine library_segcop

  subroutine library_segmov_ptr(p, q)
    type(library), pointer, intent(inout) :: p
    type(library), pointer, intent(in) :: q
    if (.not. associated(p)) then
      write(*, *) 'segmov: target not allocated'
      error stop 1
    end if
    if (.not. associated(q)) then
      write(*, *) 'segmov: source not allocated'
      error stop 1
    end if
    call p%segmov(q)
  end subroutine library_segmov_ptr

  subroutine library_segmov(self, source)
    class(library), intent(inout) :: self
    class(segment), intent(in) :: source
    select type (source)
    type is (library)
        self%bkcnt = source%bkcnt
        self%uscnt = source%uscnt
        self%lname = source%lname
        if (.not. associated(self%cat)) then
          write(*, *) 'segmov: target field cat not allocated'
          error stop 1
        end if
        if (size(self%cat) /= size(source%cat)) then
          write(*, *) 'segmov: field cat size mismatch'
          error stop 1
        end if
        self%cat = source%cat
        if (.not. associated(self%usrs)) then
          write(*, *) 'segmov: target field usrs not allocated'
          error stop 1
        end if
        if (size(self%usrs) /= size(source%usrs)) then
          write(*, *) 'segmov: field usrs size mismatch'
          error stop 1
        end if
        self%usrs = source%usrs
        self%nbk = source%nbk
        self%nus = source%nus
    class default
      write(*, *) 'segmov: source is not a library'
      error stop 1
    end select
  end subroutine library_segmov

  subroutine library_seg_store(self, unit_number)
    class(library), intent(in) :: self
    integer, intent(in) :: unit_number
    write(*, *) 'library: seg_store not implemented'
    error stop 1
  end subroutine library_seg_store

  function library_seg_type(self) result(type_name)
    class(library), intent(in) :: self
    character(len=32) :: type_name
    type_name = 'library'
  end function library_seg_type

  subroutine library_assign(lhs, rhs)
    type(library), intent(inout) :: lhs
    type(library), intent(in) :: rhs
    write(*, *) 'use => for segment pointers'
    error stop 1
  end subroutine library_assign

end module library_mod
