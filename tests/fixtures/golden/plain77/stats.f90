module stats_mod
  implicit none
  private
  public :: stats
contains
  subroutine stats(x, n, mean)
    real, intent(in) :: x(n)
    integer, intent(in) :: n
    real, intent(out) :: mean
    real :: s
    integer :: i
    s = 0.0
    do 10 i = 1, n
    s = s + x(i)
    10 continue
    mean = s / n
  end subroutine stats
end module stats_mod
