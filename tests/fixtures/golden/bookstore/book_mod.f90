module book_mod
  use segment_mod
  implicit none
  private
  public :: book, segini, segadj, segsup, segprt, segcop, segmov
  public :: assignment(=)

  type, extends(segment) :: book
    integer, private :: rcnt = 0
    character(len=40), public :: title = ''
    real, public :: price = 0.0
    integer, public :: stock = 0
    real, pointer, public :: rates(:) => null()
  contains
    procedure :: segsup => book_segsup
    procedure :: segcop => book_segcop
    procedure :: segmov => book_segmov
    procedure :: segprt => book_segprt
    procedure :: seg_store => book_seg_store
    procedure :: seg_type => book_seg_type
  end type book

  interface segini
    module procedure book_segini
  end interface
  interface segadj
    module procedure book_segadj
  end interface
  interface segsup
    module procedure book_segsup_ptr
  end interface
  interface segprt
    module procedure book_segprt_ptr
  end interface
  interface segcop
    module procedure book_segcop_ptr
  end interface
  interface segmov
    module procedure book_segmov_ptr
  end interface
  interface assignment(=)
    module procedure book_assign
  end interface
contains

  function book_rates_dim1(rcnt) result(extent)
    integer, intent(in) :: rcnt
    integer :: extent
    extent = int(rcnt * 1.1)
    if (extent < 0) then
      write(*, *) 'segment book: negative extent for rates'
      error stop 1
    end if
  end function book_rates_dim1

  subroutine book_segini(p, rcnt)
    type(book), pointer, intent(inout) :: p
    integer, intent(in) :: rcnt
    allocate(p)
    p%rcnt = rcnt
    allocate(p%rates(book_rates_dim1(rcnt)))
    p%rates = 0.0
  end subroutine book_segini

  subroutine book_segadj(p, rcnt)
    type(book), pointer, intent(inout) :: p
    integer, intent(in) :: rcnt
    real, pointer :: new_rates(:)
    integer :: n1
    allocate(new_rates(book_rates_dim1(rcnt)))
    new_rates = 0.0
    n1 = min(size(p%rates, dim=1), size(new_rates, dim=1))
    new_rates(1:n1) = p%rates(1:n1)
    deallocate(p%rates)
    p%rates => new_rates
    p%rcnt = rcnt
  end subroutine book_segadj

  subroutine book_segsup_ptr(p)
    type(book), pointer, intent(inout) :: p
    if (.not. associated(p)) return
    call p%segsup()
    deallocate(p)
    nullify(p)
  end subroutine book_segsup_ptr

  subroutine book_segsup(self)
    class(book), intent(inout) :: self
    if (associated(self%rates)) deallocate(self%rates)
    nullify(self%rates)
    self%rcnt = 0
  end subroutine book_segsup

  subroutine book_segprt_ptr(p)
    type(book), pointer, intent(in) :: p
    if (.not. associated(p)) then
      write(*, *) 'book: <null>'
      return
    end if
    call p%segprt()
  end subroutine book_segprt_ptr

  subroutine book_segprt(self)
    class(book), intent(in) :: self
    write(*, *) 'segment book'
    write(*, *) '  rcnt = ', self%rcnt
    write(*, *) '  title = ', self%title
    write(*, *) '  price = ', self%price
    write(*, *) '  stock = ', self%stock
    if (associated(self%rates)) then
      write(*, *) '  rates(', size(self%rates, dim=1), ') = ', self%rates
    else
      write(*, *) '  rates = <unallocated>'
    end if
  end subroutine book_segprt

  subroutine book_segcop_ptr(p, q)
    type(book), pointer, intent(inout) :: p
    type(book), pointer, intent(in) :: q
    if (.not. associated(q)) then
      write(*, *) 'segcop: source not allocated'
      error stop 1
    end if
    allocate(p)
    call p%segcop(q)
  end subroutine book_segcop_ptr

  subroutine book_segcop(self, source)
    class(book), intent(inout) :: self
    class(segment), intent(in) :: source
    select type (source)
    type is (book)
        self%rcnt = source%rcnt
        self%title = source%title
        self%price = source%price
        self%stock = source%stock
        allocate(self%rates(size(source%rates, dim=1)))
        self%rates = source%rates
    class default
      write(*, *) 'segcop: source is not a book'
      error stop 1
    end select
  end subroutine book_segcop

  subroutine book_segmov_ptr(p, q)
    type(book), pointer, intent(inout) :: p
    type(book), pointer, intent(in) :: q
    if (.not. associated(p)) then
      write(*, *) 'segmov: target not allocated'
      error stop 1
    end if
    if (.not. associated(q)) then
      write(*, *) 'segmov: source not allocated'
      error stop 1
    end if
    call p%segmov(q)
  end subroutine book_segmov_ptr

  subroutine book_segmov(self, source)
    class(book), intent(inout) :: self
    class(segment), intent(in) :: source
    select type (source)
    type is (book)
        self%rcnt = source%rcnt
        self%title = source%title
        self%price = source%price
        self%stock = source%stock
        if (.not. associated(self%rates)) then
          write(*, *) 'segmov: target field rates not allocated'
          error stop 1
        end if
        if (size(self%rates) /= size(source%rates)) then
          write(*, *) 'segmov: field rates size mismatch'
          error stop 1
        end if
        self%rates = source%rates
    class default
      write(*, *) 'segmov: source is not a book'
      error stop 1
    end select
  end subroutine book_segmov

  subroutine book_seg_store(self, unit_number)
    class(book), intent(in) :: self
    integer, intent(in) :: unit_number
    write(*, *) 'book: seg_store not implemented'
    error stop 1
  end subroutine book_seg_store

  function book_seg_type(self) result(type_name)
    class(book), intent(in) :: self
    character(len=32) :: type_name
    type_name = 'book'
  end function book_seg_type

  subroutine book_assign(lhs, rhs)
    type(book), intent(inout) :: lhs
    type(book), intent(in) :: rhs
    write(*, *) 'use => for segment pointers'
    error stop 1
  end subroutine book_assign

end module book_mod
