module prtbook_mod
  use book_mod
  implicit none
  private
  public :: prtbook
contains
  subroutine prtbook(bk)
    ! [seg-migrate] begin include "book.seg"
    ! [seg-migrate] end include "book.seg"
    type(book), pointer :: bk
    call segprt(bk)
  end subroutine prtbook
end module prtbook_mod
