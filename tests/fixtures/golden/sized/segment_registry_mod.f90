module segment_registry_mod
  use segment_mod
  implicit none
  private
  public :: seg_register, seg_lookup, seg_release, seg_registry_count

  ! Fortran 2008 has no arrays of pointers, so each slot is a record
  ! holding a single class-wide reference.  Handles are slot indexes and
  ! stay valid for the lifetime of the registered segment: the table only
  ! grows, and freed slots are recycled lowest-first without moving
  ! anything else.
  type :: registry_slot
    class(segment), pointer :: ref => null()
    logical :: in_use = .false.
  end type registry_slot

  type(registry_slot), allocatable :: slots(:)

contains

  subroutine ensure_capacity(wanted)
    integer, intent(in) :: wanted
    type(registry_slot), allocatable :: bigger(:)
    integer :: current
    current = 0
    if (allocated(slots)) current = size(slots)
    if (wanted <= current) return
    allocate(bigger(max(wanted, 2 * current, 8)))
    if (current > 0) bigger(1:current) = slots
    call move_alloc(bigger, slots)
  end subroutine ensure_capacity

  function seg_register(p) result(idx)
    class(segment), pointer, intent(in) :: p
    integer :: idx
    integer :: i
    idx = 0
    if (allocated(slots)) then
      do i = 1, size(slots)
        if (.not. slots(i)%in_use) then
          idx = i
          exit
        end if
      end do
    end if
    if (idx == 0) then
      idx = 1
      if (allocated(slots)) idx = size(slots) + 1
      call ensure_capacity(idx)
    end if
    slots(idx)%ref => p
    slots(idx)%in_use = .true.
  end function seg_register

  function seg_lookup(idx) result(p)
    integer, intent(in) :: idx
    class(segment), pointer :: p
    if (.not. allocated(slots) .or. idx < 1 .or. idx > size(slots)) then
      write(*, *) 'segment registry: index out of range:', idx
      error stop 1
    end if
    if (.not. slots(idx)%in_use) then
      write(*, *) 'segment registry: index was released:', idx
      error stop 1
    end if
    p => slots(idx)%ref
  end function seg_lookup

  subroutine seg_release(idx)
    integer, intent(in) :: idx
    if (.not. allocated(slots) .or. idx < 1 .or. idx > size(slots)) then
      write(*, *) 'segment registry: index out of range:', idx
      error stop 1
    end if
    slots(idx)%ref => null()
    slots(idx)%in_use = .false.
  end subroutine seg_release

  function seg_registry_count() result(n)
    integer :: n
    integer :: i
    n = 0
    if (.not. allocated(slots)) return
    do i = 1, size(slots)
      if (slots(i)%in_use) n = n + 1
    end do
  end function seg_registry_count
end module segment_registry_mod
