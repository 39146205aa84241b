module initlib_mod
  use library_mod
  implicit none
  private
  public :: initlib
contains
  subroutine initlib(lib, name)
    ! [seg-migrate] begin include "library.seg"
    ! [seg-migrate] end include "library.seg"
    type(library), pointer :: lib
    character(len=40), intent(in) :: name
    ! [seg-migrate] declarations inferred from implicit typing
    real :: bkcnt
    real :: uscnt
    bkcnt = 16
    uscnt = 8
    call segini(lib, bkcnt, uscnt)
    lib%lname = name
    lib%nbk = 0
    lib%nus = 0
  end subroutine initlib
end module initlib_mod
