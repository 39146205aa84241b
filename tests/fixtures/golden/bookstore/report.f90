module report_mod
  use library_mod
  use user_mod
  implicit none
  private
  public :: report
contains
  subroutine report(lib)
    ! [seg-migrate] removed (implicit typing replaced by implicit none): IMPLICIT INTEGER(A-Z)
    ! [seg-migrate] begin include "library.seg"
    ! [seg-migrate] end include "library.seg"
    ! [seg-migrate] begin include "user.seg"
    ! [seg-migrate] end include "user.seg"
    type(library), pointer :: lib
    ! [seg-migrate] declarations inferred from implicit typing
    integer :: ubbcnt
    type(user), pointer :: user
    write(*,*) lib%lname
    write(*,*) size(lib%cat, dim=1)
    write(*,*) size(lib%usrs, dim=1)
    ubbcnt = 2
    call segini(user, ubbcnt)
    user%uname = 'VISITOR'
    call segprt(user)
    call segsup(user)
  end subroutine report
end module report_mod
