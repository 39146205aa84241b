"""Seeded generator of the three legacy source trees the benchmark migrates.

``generate(workload, seed)`` returns the files to write plus the facts the
output checks need (expected output names, include directives, bare
activation commands, intents, character literals).  The facts come from
the generator itself, never from the tool under test.  The same seed gives
byte-identical trees; the seed only changes names of locals, constants,
include spellings and literal text, never the amount of work, so every seed
of one workload costs the tool about the same.

Two inputs the tool mishandles today are deliberately absent: inline ``!``
comments (rejected by the lexer) and character literals continued across
cards with significant trailing blanks (the blanks are dropped).  Literals
here are split only after a non-blank character.  See README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("esope_tree", "forward_chain", "plain77_bulk")

#: default size of each workload, in program units
DEFAULT_UNITS = {"esope_tree": 1000, "forward_chain": 700, "plain77_bulk": 20}

#: DO loops per plain77_bulk unit
PLAIN77_LOOPS = 150

SUPPORT_MODULES = ("segment_mod.f90", "segment_registry_mod.f90")

# the four include spellings accepted by the tool
INCLUDE_SPELLINGS = (
    '#include "{path}"',
    "      include '{path}'",
    "      %inc {path}",
    "      -inc {path}",
)

USER_SEG = """\
      SEGMENT, USER
C       name, balance history, open loan count
        CHARACTER*40 UNAME
        INTEGER UBB(UBBCNT)
        INTEGER NLOAN
      END SEGMENT
"""

LIBRARY_SEG = """\
      SEGMENT, LIBRARY
C       catalogue of registry indexes
        CHARACTER*40 LNAME
        INTEGER CAT(BKCNT*2)
        INTEGER USRS(USCNT)
        INTEGER NBK
        INTEGER NUS
      END SEGMENT
"""

CATALOG = "# routines living outside the migrated project\nlogmsg(in)\n"

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass
class Corpus:
    workload: str
    seed: int
    #: relative path under the source root -> file text
    files: Dict[str, str] = field(default_factory=dict)
    catalog: str = CATALOG
    #: fixed-form cards of the program unit sources (include files excluded)
    cards: int = 0
    units: int = 0
    #: output file name -> include paths, one entry per directive
    includes: Dict[str, List[str]] = field(default_factory=dict)
    #: output file name -> number of bare SEGACT/SEGDES commands, if any
    removals: Dict[str, int] = field(default_factory=dict)
    #: output file name -> character literals that must survive verbatim
    literals: Dict[str, List[str]] = field(default_factory=dict)
    #: routine name (lower case) -> expected intent of each dummy argument
    intents: Dict[str, Dict[str, str]] = field(default_factory=dict)
    segments: List[str] = field(default_factory=list)

    def expected_outputs(self) -> List[str]:
        names = {output_name(p) for p in self.files if p.endswith(".f")}
        names |= {f"{s}_mod.f90" for s in self.segments}
        if self.segments:
            names |= set(SUPPORT_MODULES)
        return sorted(names)

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


def output_name(rel_path: str) -> str:
    return Path(rel_path).stem + ".f90"


def card(body: str) -> List[str]:
    """Fixed-form cards for one statement, continued in column 6 with ``&``.

    A card never ends in a blank, so no blank inside a literal is lost when
    the lexer strips the card.
    """
    width = 66  # columns 7-72
    cards: List[str] = []
    rest = body
    while rest:
        cut = min(width, len(rest))
        while 1 < cut < len(rest) and rest[cut - 1] == " ":
            cut -= 1
        cards.append(("      " if not cards else "     &") + rest[:cut])
        rest = rest[cut:]
    return cards


def generate(workload: str, seed: int, units: Optional[int] = None) -> Corpus:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    corpus = Corpus(workload=workload, seed=seed)
    corpus.units = units if units is not None else DEFAULT_UNITS[workload]
    {"esope_tree": _esope_tree, "forward_chain": _forward_chain,
     "plain77_bulk": _plain77_bulk}[workload](corpus, rng)
    corpus.cards = sum(
        text.count("\n") for rel, text in corpus.files.items() if rel.endswith(".f")
    )
    return corpus


def _local(rng: random.Random, taken: set) -> str:
    """A fresh local name that cannot clash with a segment field or dummy."""
    while True:
        name = "W" + "".join(rng.choice(_LETTERS) for _ in range(4))
        if name not in taken:
            taken.add(name)
            return name


def _esope_tree(corpus: Corpus, rng: random.Random) -> None:
    """A call chain of Esope subroutines, each including both segments."""
    corpus.files["user.seg"] = USER_SEG
    corpus.files["library.seg"] = LIBRARY_SEG
    corpus.segments = ["library", "user"]
    offset = rng.randrange(4)
    for k in range(1, corpus.units + 1):
        name = f"ES{k:04d}"
        rel = f"lib{(k - 1) // 100:02d}/{name.lower()}.f"
        tmp = _local(rng, set())
        c = [rng.randrange(1, 90) for _ in range(3)]
        user_spelling = (k + offset) % 4
        lib_spelling = (user_spelling + 1 + rng.randrange(3)) % 4
        lines = [f"      SUBROUTINE {name}(LIB, UR, N)", "      IMPLICIT INTEGER(A-Z)"]
        lines.append(INCLUDE_SPELLINGS[user_spelling].format(path="user.seg"))
        lines.append(INCLUDE_SPELLINGS[lib_spelling].format(path="library.seg"))
        lines += [
            "      POINTEUR LIB.LIBRARY",
            "      POINTEUR UR.USER, UR2.USER",
            "      INTEGER N",
            "      EXTERNAL LOGMSG",
            f"C     unit {k} of the chain",
            "      SEGACT, UR",
            f"      {tmp} = N + {c[0]}",
            f"      UBBCNT = {tmp} + UR.UBB(/1)",
            "      SEGINI, UR2",
            f"      UR2.NLOAN = UR.NLOAN + LIB.CAT(/1) * {c[1]}",
            "      SEGADJ, UR2",
            "      SEGPRT, UR2",
            "      SEGINI, UR2=UR",
            "      SEGACT, UR2=UR",
            f"      IF (LIB.NUS .GT. {c[2]}) CALL LOGMSG(LIB.NUS)",
        ]
        if k > 1:
            lines.append(f"      CALL ES{k - 1:04d}(LIB, UR, N - 1)")
        lines += ["      SEGDES, UR", "      SEGSUP, UR2", "      END"]
        corpus.files[rel] = "\n".join(lines) + "\n"
        out = output_name(rel)
        corpus.includes[out] = ["user.seg", "library.seg"]
        corpus.removals[out] = 2


def _forward_chain(corpus: Corpus, rng: random.Random) -> None:
    """Routines that forward all dummies to the previous routine; only the
    first one touches them.  Expected intents: a=in, b=out, c=inout."""
    per_file = 4
    for first in range(1, corpus.units + 1, per_file):
        rel = f"chain{(first - 1) // 100:02d}/fw{first:04d}.f"
        lines: List[str] = []
        for k in range(first, min(first + per_file, corpus.units + 1)):
            name = f"FW{k:04d}"
            local = _local(rng, {"A", "B", "C"})
            lines += [f"      SUBROUTINE {name}(A, B, C)", "      INTEGER A, B, C"]
            lines.append(f"      INTEGER {local}")
            lines.append(f"      {local} = {rng.randrange(1, 1000)}")
            if k == 1:
                lines += [f"      B = A + {local}", "      C = C + B"]
            else:
                lines.append(f"      CALL FW{k - 1:04d}(A, B, C)")
            lines.append("      END")
            corpus.intents[name.lower()] = {"a": "in", "b": "out", "c": "inout"}
        corpus.files[rel] = "\n".join(lines) + "\n"


def _literal(rng: random.Random, tag: str, length: int) -> str:
    words = []
    size = len(tag)
    while size < length:
        word = "".join(rng.choice(_LETTERS) for _ in range(rng.randrange(3, 9)))
        words.append(word)
        size += len(word) + 1
    return (tag + " " + " ".join(words))[:length].rstrip() + "."


def _plain77_bulk(corpus: Corpus, rng: random.Random) -> None:
    """Large pure FORTRAN 77 units: labelled DO loops with continuation
    cards, and three long character literals each."""
    for k in range(1, corpus.units + 1):
        name = f"PB{k:04d}"
        rel = f"bulk/{name.lower()}.f"
        lines = [
            f"      SUBROUTINE {name}(X, Y, Z, N)",
            "      INTEGER N",
            "      REAL X(N), Y(N), Z(N)",
            "      REAL S, T",
            "      CHARACTER*200 MSG",
            "      S = 0.0",
            "      T = 1.0",
        ]
        literals = []
        for j in range(PLAIN77_LOOPS):
            label = 10 * (j + 1)
            a, b = rng.randrange(1, 99), rng.randrange(1, 99)
            lines += [
                f"      DO {label} I = 1, N",
                f"        X(I) = Y(I) * {a}.0 + Z(I) * T",
                f"     &         - S / {b}.0",
                f"{label:<5d} CONTINUE",
            ]
            if j % 50 == 25:
                text = _literal(rng, f"{name}-{j}", 170)
                literals.append(text)
                lines += card(f"MSG = '{text}'")
                lines.append("      WRITE(*,*) MSG, S")
        lines += ["      T = S", "      END"]
        corpus.files[rel] = "\n".join(lines) + "\n"
        corpus.literals[output_name(rel)] = literals
