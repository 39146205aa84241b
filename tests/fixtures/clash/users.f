C     a routine named like a segment: both would be module user_mod
      SUBROUTINE USER(N)
      INTEGER N
      N = 0
      END
      SUBROUTINE OPENU(UR)
      include 'user.seg'
      POINTEUR UR.USER
      SEGINI, UR
      UR.NLOAN = 0
      END
