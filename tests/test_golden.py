"""Committed reference outputs of three small CLI runs (``tests/golden/``).

Each run is repeated in-process and compared file by file with its
reference: ``#`` lines (the config hash among them), column headers,
non-numeric fields and fields that are integers on both sides must be
identical, and every other number must lie within ``RTOL`` of the largest
magnitude of any non-integer number in the reference file.  The bound, not
byte identity, is the test, because another BLAS may round differently;
CI prints ``scripts/cli_digits.py``'s report of the same runs to show how
far apart they are.

The references were written by the CLI (the commands below, with
``--out tests/golden/<name>``), never edited by hand.
"""

import re
from pathlib import Path

import pytest

from msforch.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Largest change of a number, relative to its reference file's largest
#: non-integer magnitude.
RTOL = 1e-9

RUNS = {
    "fine": ["fine", "--nx", "16", "--ny", "16", "--field", "channel:7:100",
             "--scheme", "newton", "--beta0", "0,100"],
    "offline": ["offline", "--nx", "16", "--ny", "16", "--coarse-nx", "2", "--coarse-ny", "2",
                "--field", "blobs:2:100", "--dof-per-t", "2"],
    "online": ["online", "--nx", "16", "--ny", "16", "--coarse-nx", "2", "--coarse-ny", "2",
               "--field", "blobs:2:100", "--dof-per-t", "2", "--sweeps", "1"],
}

_SEP = re.compile(r"[,\s]+")
_INTEGER = re.compile(r"[+-]?\d+")


def _rows(path: Path) -> list:
    """Per line: the line itself for ``#`` lines, else its fields."""
    return [ln if ln.startswith("#") else _SEP.split(ln.strip())
            for ln in path.read_text().splitlines()]


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _mismatches(ref: Path, new: Path) -> list:
    """Where new departs from ref beyond the rule of this module."""
    a, b = _rows(ref), _rows(new)
    if len(a) != len(b):
        return [f"{len(a)} lines, now {len(b)}"]
    scale = max((abs(_number(t)) for row in a if not isinstance(row, str) for t in row
                 if _number(t) is not None and not _INTEGER.fullmatch(t)), default=0.0)
    bad = []
    for line, (x, y) in enumerate(zip(a, b), 1):
        if isinstance(x, str) or isinstance(y, str) or len(x) != len(y):
            if x != y:
                bad.append(f"line {line}: {x!r} -> {y!r}")
            continue
        for s, t in zip(x, y):
            u, v = _number(s), _number(t)
            exact = u is None or v is None or _INTEGER.fullmatch(s) and _INTEGER.fullmatch(t)
            if s != t if exact else abs(u - v) > RTOL * scale:
                bad.append(f"line {line}: {s} -> {t}")
    return bad


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_run_reproduces_its_reference(tmp_path, name):
    assert main(RUNS[name] + ["--out", str(tmp_path)]) == 0
    reference = GOLDEN / name
    files = sorted(p.relative_to(reference) for p in reference.rglob("*") if p.is_file())
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()) == files
    for path in files:
        assert _mismatches(reference / path, tmp_path / path) == [], path
