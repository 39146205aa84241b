module lendbk_mod
  use library_mod
  use user_mod
  implicit none
  private
  public :: lendbk
contains
  subroutine lendbk(lib, ur, bkidx)
    ! [seg-migrate] begin include "library.seg"
    ! [seg-migrate] end include "library.seg"
    ! [seg-migrate] begin include "user.seg"
    ! [seg-migrate] end include "user.seg"
    type(library), pointer :: lib
    type(user), pointer :: ur
    integer, intent(in) :: bkidx
    ur%nloan = ur%nloan + 1
    if (ur%nloan .gt. 5) goto 20
    lib%cat(bkidx) = lib%cat(bkidx) - 1
    ! [seg-migrate] removed (activation is implicit in migrated code): SEGDES, UR
    return
    20 continue
    ur%nloan = 5
    ! [seg-migrate] removed (activation is implicit in migrated code): SEGDES, UR
  end subroutine lendbk
end module lendbk_mod
