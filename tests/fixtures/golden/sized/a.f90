module a_mod
  implicit none
  private
  public :: a
contains
  subroutine a()
  end subroutine a
end module a_mod
