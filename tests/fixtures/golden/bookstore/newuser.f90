module newuser_mod
  use library_mod
  use user_mod
  implicit none
  private
  public :: newuser
contains
  subroutine newuser(lib, ur, name)
    ! [seg-migrate] removed (implicit typing replaced by implicit none): IMPLICIT INTEGER(A-Z)
    ! [seg-migrate] begin include "user.seg"
    ! [seg-migrate] end include "user.seg"
    ! [seg-migrate] begin include "library.seg"
    ! [seg-migrate] end include "library.seg"
    type(user), pointer :: ur
    type(library), pointer :: lib
    character(len=40), intent(in) :: name
    ! [seg-migrate] declarations inferred from implicit typing
    integer :: ubbcnt
    ubbcnt = 8
    call segini(ur, ubbcnt)
    ur%uname = name
    ur%nloan = 0
    lib%nus = lib%nus + 1
    lib%usrs(lib%nus) = lib%nus
  end subroutine newuser
end module newuser_mod
