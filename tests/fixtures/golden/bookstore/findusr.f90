module findusr_mod
  use library_mod
  implicit none
  private
  public :: findusr
contains
  function findusr(lib, target)
    integer :: findusr
    ! [seg-migrate] begin include "library.seg"
    ! [seg-migrate] end include "library.seg"
    type(library), pointer :: lib
    integer, intent(in) :: target
    integer :: i
    findusr = 0
    do 10 i = 1, lib%nus
    if (lib%usrs(i) .eq. target) findusr = i
    10 continue
  end function findusr
end module findusr_mod
