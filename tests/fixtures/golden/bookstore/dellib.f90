module dellib_mod
  use library_mod
  implicit none
  private
  public :: dellib
contains
  subroutine dellib(lib)
    ! [seg-migrate] begin include "library.seg"
    ! [seg-migrate] end include "library.seg"
    type(library), pointer :: lib
    call segsup(lib)
  end subroutine dellib
end module dellib_mod
