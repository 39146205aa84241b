      SUBROUTINE TWICE(X)
C     the bad statement of again.f, two lines further down
      X = 2
      Y = X
      SEGINI, P
      END
