module prtuser_mod
  use user_mod
  implicit none
  private
  public :: prtuser
contains
  subroutine prtuser(ur)
    ! [seg-migrate] begin include "user.seg"
    ! [seg-migrate] end include "user.seg"
    type(user), pointer :: ur
    call segprt(ur)
  end subroutine prtuser
end module prtuser_mod
