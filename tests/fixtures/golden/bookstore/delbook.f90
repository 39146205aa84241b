module delbook_mod
  use book_mod
  implicit none
  private
  public :: delbook
contains
  subroutine delbook(bk)
    ! [seg-migrate] begin include "book.seg"
    ! [seg-migrate] end include "book.seg"
    type(book), pointer :: bk
    call segsup(bk)
  end subroutine delbook
end module delbook_mod
