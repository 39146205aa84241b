      SUBROUTINE AGAIN(X)
      X = 1
      SEGINI, P
      END
