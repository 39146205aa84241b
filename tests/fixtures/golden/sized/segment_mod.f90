module segment_mod
  implicit none
  private
  public :: segment

  type, abstract :: segment
  contains
    procedure(abstract_segsup), deferred :: segsup
    procedure(abstract_segcop), deferred :: segcop
    procedure(abstract_segmov), deferred :: segmov
    procedure(abstract_segprt), deferred :: segprt
    procedure(abstract_seg_store), deferred :: seg_store
    procedure(abstract_seg_type), deferred :: seg_type
  end type segment

  abstract interface
    subroutine abstract_segsup(self)
      import :: segment
      class(segment), intent(inout) :: self
    end subroutine abstract_segsup

    subroutine abstract_segcop(self, source)
      import :: segment
      class(segment), intent(inout) :: self
      class(segment), intent(in) :: source
    end subroutine abstract_segcop

    subroutine abstract_segmov(self, source)
      import :: segment
      class(segment), intent(inout) :: self
      class(segment), intent(in) :: source
    end subroutine abstract_segmov

    subroutine abstract_segprt(self)
      import :: segment
      class(segment), intent(in) :: self
    end subroutine abstract_segprt

    subroutine abstract_seg_store(self, unit_number)
      import :: segment
      class(segment), intent(in) :: self
      integer, intent(in) :: unit_number
    end subroutine abstract_seg_store

    function abstract_seg_type(self) result(type_name)
      import :: segment
      class(segment), intent(in) :: self
      character(len=32) :: type_name
    end function abstract_seg_type
  end interface
end module segment_mod
