"""Digit report of two CLI output directories.

    python3 scripts/cli_digits.py OLD_DIR NEW_DIR

prints one line per file found under either directory: ``identical``,
``only in OLD`` or ``only in NEW``, the first place where NEW breaks the rule
of :func:`compare_texts`, or else NEW's largest numeric change relative to
OLD's largest non-integer magnitude.  ``tests/test_golden.py`` applies the
same rule to the committed reference outputs.
"""

import re
import sys
from pathlib import Path

_SEP = re.compile(r"[,\s]+")
_INTEGER = re.compile(r"[+-]?\d+")


def _rows(text: str) -> list:
    """Per line: the line itself for ``#`` lines, else its fields."""
    return [ln if ln.startswith("#") else _SEP.split(ln.strip()) for ln in text.splitlines()]


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def compare_texts(old: str, new: str) -> tuple:
    """NEW against OLD: (problem, change, scale, where).

    The rule: the line count, ``#`` lines, the field count of each line,
    non-numeric fields and fields that are integers on both sides must be
    equal; ``problem`` names the first place where they are not, else None.
    Every other number may move: ``scale`` is OLD's largest non-integer
    magnitude, so index columns do not swamp it, and ``change`` the largest
    |new - old| of those numbers, at ``where`` = (line, field, old token, new
    token), None when no number moved.
    """
    a, b = _rows(old), _rows(new)
    if len(a) != len(b):
        return f"line count {len(a)} -> {len(b)}", 0.0, 0.0, None
    scale = max((abs(_number(t)) for row in a if not isinstance(row, str) for t in row
                 if _number(t) is not None and not _INTEGER.fullmatch(t)), default=0.0)
    change, where = 0.0, None
    for line, (x, y) in enumerate(zip(a, b), 1):
        if isinstance(x, str) or isinstance(y, str) or len(x) != len(y):
            if x != y:
                return f"line {line} differs beyond its numbers", 0.0, scale, None
            continue
        for field, (s, t) in enumerate(zip(x, y), 1):
            u, v = _number(s), _number(t)
            if u is None or v is None or _INTEGER.fullmatch(s) and _INTEGER.fullmatch(t):
                if s != t:
                    return f"line {line} field {field}: {s!r} -> {t!r}", 0.0, scale, None
            elif abs(v - u) > change:
                change, where = abs(v - u), (line, field, s, t)
    return None, change, scale, where


def compare(old: Path, new: Path) -> str:
    """One file's report."""
    if old.read_bytes() == new.read_bytes():
        return "identical"
    problem, change, scale, where = compare_texts(old.read_text(), new.read_text())
    if problem is not None:
        return problem
    if where is None:
        return "numbers equal, text differs"
    line, field, s, t = where
    relative = change / scale if scale else float("inf")
    return (f"largest change {relative:.3e} of OLD's max non-integer |value| {scale:.6g} "
            f"(line {line} field {field}: {s} -> {t})")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (Path(p) for p in argv)
    names = sorted({p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()})
    for name in names:
        if not (old / name).is_file():
            report = "only in NEW"
        elif not (new / name).is_file():
            report = "only in OLD"
        else:
            report = compare(old / name, new / name)
        print(f"{name}: {report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
