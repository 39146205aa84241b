module restock_mod
  use book_mod
  implicit none
  private
  public :: restock
contains
  subroutine restock(bk, n)
    ! [seg-migrate] begin include "book.seg"
    ! [seg-migrate] end include "book.seg"
    type(book), pointer :: bk
    interface
      subroutine logmsg(arg1)
        real, intent(in) :: arg1
      end subroutine logmsg
    end interface
    ! [seg-migrate] declarations inferred from implicit typing
    integer, intent(in) :: n
    bk%stock = bk%stock + n
    if (bk%stock .gt. 100) call logmsg(bk%stock)
  end subroutine restock
end module restock_mod
