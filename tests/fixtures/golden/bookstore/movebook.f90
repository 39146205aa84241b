module movebook_mod
  use book_mod
  implicit none
  private
  public :: movebook
contains
  subroutine movebook(bk, bk2)
    ! [seg-migrate] begin include "book.seg"
    ! [seg-migrate] end include "book.seg"
    type(book), pointer :: bk
    type(book), pointer :: bk2
    call segmov(bk2, bk)
  end subroutine movebook
end module movebook_mod
