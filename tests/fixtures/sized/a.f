      SUBROUTINE A
      END
