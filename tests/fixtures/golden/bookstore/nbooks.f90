module nbooks_mod
  use library_mod
  implicit none
  private
  public :: nbooks
contains
  function nbooks(lib)
    integer :: nbooks
    ! [seg-migrate] begin include "library.seg"
    ! [seg-migrate] end include "library.seg"
    type(library), pointer :: lib
    nbooks = lib%nbk
  end function nbooks
end module nbooks_mod
