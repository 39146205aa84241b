      SUBROUTINE DEEP(X)
      include 'outer.inc'
      END
