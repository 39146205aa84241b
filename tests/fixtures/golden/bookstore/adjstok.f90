module adjstok_mod
  use book_mod
  implicit none
  private
  public :: adjstok
contains
  subroutine adjstok(bk, extra)
    ! [seg-migrate] removed (implicit typing replaced by implicit none): IMPLICIT INTEGER(A-Z)
    ! [seg-migrate] begin include "book.seg"
    ! [seg-migrate] end include "book.seg"
    type(book), pointer :: bk
    ! [seg-migrate] declarations inferred from implicit typing
    integer, intent(in) :: extra
    integer :: rcnt
    rcnt = size(bk%rates, dim=1) + extra
    call segadj(bk, rcnt)
  end subroutine adjstok
end module adjstok_mod
