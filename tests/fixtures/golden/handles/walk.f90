module walk_mod
  use node_mod
  implicit none
  private
  public :: walk
contains
  subroutine walk(p, q, x)
    !     Negative integers used as sentinel handles: each comparison or
    !     assignment of a pointer with one is reported by check.
    ! [seg-migrate] begin include "node.seg"
    ! [seg-migrate] end include "node.seg"
    type(node), pointer :: p
    type(node), pointer :: q
    integer, intent(inout) :: x
    type(node), pointer :: node
    p = -1
    if (p .eq. -1) call logmsg(x)
    call logmsg(-1 .ne. q)
    if (q .lt. -1) then
    x = p%v(q .eq. -1)
    end if
    if (node .gt. -2) return
    x = -1
  end subroutine walk
end module walk_mod
