module deluser_mod
  use user_mod
  implicit none
  private
  public :: deluser
contains
  subroutine deluser(ur)
    ! [seg-migrate] begin include "user.seg"
    ! [seg-migrate] end include "user.seg"
    type(user), pointer :: ur
    call segsup(ur)
  end subroutine deluser
end module deluser_mod
