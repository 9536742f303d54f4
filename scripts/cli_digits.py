"""Digit report of two CLI output directories.

    python3 scripts/cli_digits.py OLD_DIR NEW_DIR

prints one line per file found under either directory: ``identical``,
``only in OLD`` or ``only in NEW``, or the largest change of any numeric
field relative to the largest magnitude of any numeric field in the file.
Lines starting with ``#`` and non-numeric fields are compared verbatim; a
file whose text or shape differs beyond its numbers says so.
"""

import re
import sys
from pathlib import Path

_SEP = re.compile(r"[,\s]+")


def _fields(text: str) -> list:
    """Per line: the line itself for ``#`` lines, else its fields."""
    return [ln if ln.startswith("#") else _SEP.split(ln.strip()) for ln in text.splitlines()]


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def compare(old: Path, new: Path) -> str:
    """One file's report."""
    if old.read_bytes() == new.read_bytes():
        return "identical"
    a, b = _fields(old.read_text()), _fields(new.read_text())
    if len(a) != len(b):
        return f"line count {len(a)} -> {len(b)}"
    worst, where, scale = 0.0, None, 0.0
    for line, (x, y) in enumerate(zip(a, b), 1):
        if isinstance(x, str) or isinstance(y, str) or len(x) != len(y):
            if x != y:
                return f"line {line} differs beyond its numbers"
            continue
        for field, (s, t) in enumerate(zip(x, y), 1):
            u, v = _number(s), _number(t)
            if u is None or v is None:
                if s != t:
                    return f"line {line} field {field}: {s!r} -> {t!r}"
                continue
            scale = max(scale, abs(u), abs(v))
            if abs(v - u) > worst:
                worst, where = abs(v - u), (line, field, s, t)
    if where is None:
        return "numbers equal, text differs"
    line, field, s, t = where
    return (f"largest change {worst / scale:.3e} of max |value| {scale:.6g} "
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
