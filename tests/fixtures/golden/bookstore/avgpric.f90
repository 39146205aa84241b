module avgpric_mod
  use book_mod
  implicit none
  private
  public :: avgpric
contains
  function avgpric(bk)
    real :: avgpric
    ! [seg-migrate] begin include "book.seg"
    ! [seg-migrate] end include "book.seg"
    type(book), pointer :: bk
    real :: s
    integer :: i, n
    n = size(bk%rates, dim=1)
    s = 0.0
    do 10 i = 1, n
    s = s + bk%rates(i)
    10 continue
    if (n .gt. 0) avgpric = s / n
    if (n .eq. 0) avgpric = bk%price
  end function avgpric
end module avgpric_mod
