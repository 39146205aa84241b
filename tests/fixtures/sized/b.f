      SUBROUTINE B
      END
