      SUBROUTINE C(N)
      include 'rec.seg'
      POINTEUR P.REC
      INTEGER N
      SEGINI, P
      END
