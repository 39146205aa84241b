module renameu_mod
  use user_mod
  implicit none
  private
  public :: renameu
contains
  subroutine renameu(ur, newnam)
    ! [seg-migrate] begin include "user.seg"
    ! [seg-migrate] end include "user.seg"
    type(user), pointer :: ur
    character(len=40), intent(in) :: newnam
    ur%uname = newnam
  end subroutine renameu
end module renameu_mod
