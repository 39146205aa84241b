      SUBROUTINE WALK(P, Q, X)
C     Negative integers used as sentinel handles: each comparison or
C     assignment of a pointer with one is reported by check.
      -inc node.seg
      POINTEUR P.NODE, Q.NODE
      INTEGER X
      P = -1
      IF (P .EQ. -1) CALL LOGMSG(X)
      CALL LOGMSG(-1 .NE. Q)
      IF (Q .LT. -1) THEN
        X = P.V(Q .EQ. -1)
      END IF
      IF (NODE .GT. -2) RETURN
      X = -1
      END
