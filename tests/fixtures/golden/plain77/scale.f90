module scale_mod
  implicit none
  private
  public :: scale
contains
  subroutine scale(x, n, f)
    real, intent(inout) :: x(n)
    integer, intent(in) :: n
    real, intent(in) :: f
    integer :: i
    do 10 i = 1, n
    x(i) = x(i) * f
    10 continue
  end subroutine scale
end module scale_mod
