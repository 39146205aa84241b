module retbk_mod
  use library_mod
  use user_mod
  implicit none
  private
  public :: retbk
contains
  subroutine retbk(lib, ur, bkidx)
    ! [seg-migrate] begin include "library.seg"
    ! [seg-migrate] end include "library.seg"
    ! [seg-migrate] begin include "user.seg"
    ! [seg-migrate] end include "user.seg"
    type(library), pointer :: lib
    type(user), pointer :: ur
    integer, intent(in) :: bkidx
    ! [seg-migrate] removed (activation is implicit in migrated code): SEGACT, UR
    ur%nloan = ur%nloan - 1
    lib%cat(bkidx) = lib%cat(bkidx) + 1
  end subroutine retbk
end module retbk_mod
