program bookshop
  use addbook_mod
  use adjstok_mod
  use avgpric_mod
  use book_mod
  use copybook_mod
  use delbook_mod
  use dellib_mod
  use deluser_mod
  use findusr_mod
  use initlib_mod
  use lendbk_mod
  use library_mod
  use movebook_mod
  use nbooks_mod
  use newuser_mod
  use prtbook_mod
  use prtuser_mod
  use renameu_mod
  use report_mod
  use restock_mod
  use retbk_mod
  use user_mod
  implicit none
  ! [seg-migrate] begin include "user.seg"
  ! [seg-migrate] end include "user.seg"
  ! [seg-migrate] begin include "book.seg"
  ! [seg-migrate] end include "book.seg"
  ! [seg-migrate] begin include "library.seg"
  ! [seg-migrate] end include "library.seg"
  type(library), pointer :: lib
  type(user), pointer :: ur
  type(user), pointer :: ur2
  type(book), pointer :: bk
  type(book), pointer :: bk2
  character(len=40) :: ltitle
  integer :: idx
  real :: avg
  ltitle = 'CENTRAL LIBRARY'
  call initlib(lib, ltitle)
  call newuser(lib, ur, 'ALICE')
  call newuser(lib, ur2, 'BOB')
  call addbook(lib, bk, 'MOBY DICK', 12.5)
  call restock(bk, 3)
  call copybook(bk, bk2)
  call adjstok(bk2, 4)
  call movebook(bk, bk2)
  idx = findusr(lib, 1)
  call lendbk(lib, ur, 1)
  call retbk(lib, ur, 1)
  avg = avgpric(bk)
  write(*,*) avg, idx, nbooks(lib)
  call report(lib)
  call prtuser(ur)
  call prtbook(bk)
  call renameu(ur2, 'ROBERT')
  call deluser(ur)
  call deluser(ur2)
  call delbook(bk)
  call delbook(bk2)
  call dellib(lib)
end program bookshop
