module addbook_mod
  use book_mod
  use library_mod
  implicit none
  private
  public :: addbook
contains
  subroutine addbook(lib, bk, title, price)
    ! [seg-migrate] removed (implicit typing replaced by implicit none): IMPLICIT INTEGER(A-T), REAL(U-Z)
    ! [seg-migrate] begin include "book.seg"
    ! [seg-migrate] end include "book.seg"
    ! [seg-migrate] begin include "library.seg"
    ! [seg-migrate] end include "library.seg"
    type(book), pointer :: bk
    type(library), pointer :: lib
    character(len=40), intent(in) :: title
    real, intent(in) :: price
    ! [seg-migrate] declarations inferred from implicit typing
    integer :: rcnt
    rcnt = 4
    call segini(bk, rcnt)
    bk%title = title
    bk%price = price
    bk%stock = 0
    lib%nbk = lib%nbk + 1
  end subroutine addbook
end module addbook_mod
