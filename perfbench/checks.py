"""Output checks that do not use the tool under test.

Each check compares the migrated tree with facts the generator recorded
when it wrote the sources (see ``corpus.Corpus``).  ``check_tree`` returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Dict, List

from corpus import Corpus

REMOVAL_MARK = "[seg-migrate] removed (activation is implicit in migrated code): "
BEGIN_MARK = '[seg-migrate] begin include "{path}"'
END_MARK = '[seg-migrate] end include "{path}"'

_STRING_RE = re.compile(r"'[^']*'|\"[^\"]*\"")
_OPERATOR_RE = re.compile(
    r"\.(eq|ne|lt|le|gt|ge|and|or|not|eqv|neqv|true|false)\.", re.IGNORECASE
)
#: Esope constructs that must not survive outside comments and strings
_RESIDUE = {
    "segment definition": re.compile(r"^\s*(end\s+)?segment\b", re.IGNORECASE),
    "pointeur declaration": re.compile(r"\bpointeur\b", re.IGNORECASE),
    "memory command": re.compile(r"^\s*(\d+\s+)?seg(ini|adj|sup|prt|act|des)\s*,", re.IGNORECASE),
    "dotted access": re.compile(r"\b[a-z_][a-z0-9_]*\.[a-z_]", re.IGNORECASE),
    "slash-dim": re.compile(r"\(\s*/\s*\d+\s*\)"),
    "include directive": re.compile(r"^\s*(#\s*include|include\s*['\"]|[%-]inc\b)", re.IGNORECASE),
}
_ROUTINE_RE = re.compile(r"^\s*subroutine\s+(\w+)\s*\(", re.IGNORECASE)
_INTENT_RE = re.compile(r"intent\((in|out|inout)\)\s*::\s*(\w+)", re.IGNORECASE)


def code_part(line: str) -> str:
    """The line without its comment and with every string literal emptied."""
    in_string = None
    for i, c in enumerate(line):
        if in_string:
            if c == in_string:
                in_string = None
        elif c in "'\"":
            in_string = c
        elif c == "!":
            line = line[:i]
            break
    return _STRING_RE.sub("''", line)


def digest(out_dir: Path) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def check_tree(corpus: Corpus, out_dir: Path) -> List[str]:
    problems: List[str] = []
    found = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())
    expected = corpus.expected_outputs()
    if found != expected:
        missing = sorted(set(expected) - set(found))[:5]
        extra = sorted(set(found) - set(expected))[:5]
        problems.append(f"output file set differs: missing {missing}, extra {extra}")
    intents: Dict[str, Dict[str, str]] = {}
    for name in sorted(set(found) & set(expected)):
        text = (out_dir / name).read_text()
        problems += [f"{name}: {p}" for p in _check_file(corpus, name, text)]
        intents.update(_intents(text))
    if corpus.intents and intents != corpus.intents:
        wrong = sorted(r for r in set(intents) | set(corpus.intents)
                       if intents.get(r) != corpus.intents.get(r))
        problems.append(f"{len(wrong)} routine(s) with unexpected intents, first {wrong[:3]}: "
                        f"{[intents.get(r) for r in wrong[:3]]}")
    return problems


def _check_file(corpus: Corpus, name: str, text: str) -> List[str]:
    problems: List[str] = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        code = _OPERATOR_RE.sub(" ", code_part(line))
        for what, pattern in _RESIDUE.items():
            if pattern.search(code):
                problems.append(f"line {lineno}: Esope residue ({what}): {line.strip()}")
    comments = [l.strip()[1:].strip() for l in lines if l.strip().startswith("!")]
    removals = sum(c.startswith(REMOVAL_MARK) for c in comments)
    if removals != corpus.removals.get(name, 0):
        problems.append(
            f"{removals} SEGACT/SEGDES removal markers, expected {corpus.removals.get(name, 0)}"
        )
    for path in set(corpus.includes.get(name, ())):
        wanted = corpus.includes[name].count(path)
        begins = [i for i, c in enumerate(comments) if c == BEGIN_MARK.format(path=path)]
        ends = [i for i, c in enumerate(comments) if c == END_MARK.format(path=path)]
        if len(begins) != wanted or len(ends) != wanted:
            problems.append(
                f"include {path!r}: {len(begins)} begin and {len(ends)} end markers, expected {wanted}"
            )
        elif any(b > e for b, e in zip(begins, ends)):
            problems.append(f"include {path!r}: end marker before begin marker")
    for literal in corpus.literals.get(name, ()):
        if f"'{literal}'" not in text:
            problems.append(f"character literal changed or lost: {literal[:40]!r}...")
    return problems


def _intents(text: str) -> Dict[str, Dict[str, str]]:
    """routine -> {dummy: intent} as declared in one output file."""
    seen: Dict[str, Dict[str, str]] = {}
    routine = None
    for line in text.splitlines():
        m = _ROUTINE_RE.match(line)
        if m:
            routine = m.group(1).lower()
            seen[routine] = {}
            continue
        m = _INTENT_RE.search(code_part(line))
        if m and routine is not None:
            seen[routine][m.group(2).lower()] = m.group(1).lower()
    return seen
