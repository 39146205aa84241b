module c_mod
  use rec_mod
  implicit none
  private
  public :: c
contains
  subroutine c(n)
    ! [seg-migrate] begin include "rec.seg"
    ! [seg-migrate] end include "rec.seg"
    type(rec), pointer :: p
    integer, intent(in) :: n
    call segini(p, n)
  end subroutine c
end module c_mod
