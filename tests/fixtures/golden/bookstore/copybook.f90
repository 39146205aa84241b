module copybook_mod
  use book_mod
  implicit none
  private
  public :: copybook
contains
  subroutine copybook(bk, bk2)
    ! [seg-migrate] begin include "book.seg"
    ! [seg-migrate] end include "book.seg"
    type(book), pointer :: bk
    type(book), pointer :: bk2
    call segcop(bk2, bk)
  end subroutine copybook
end module copybook_mod
