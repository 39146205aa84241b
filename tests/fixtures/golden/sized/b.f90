module b_mod
  implicit none
  private
  public :: b
contains
  subroutine b()
  end subroutine b
end module b_mod
