"""Committed reference outputs of three small CLI runs (``tests/golden/``).

Each run is repeated in-process and compared file by file with its
reference by ``scripts/cli_digits.py``'s rule: ``#`` lines (the config hash
among them), column headers, non-numeric fields and fields that are integers
on both sides must be identical, and every other number must lie within
``RTOL`` of the largest magnitude of any non-integer number in the reference
file.  The bound, not byte identity, is the test, because another BLAS may
round differently; CI prints the script's report of the same runs to show
how far apart they are.

The references were written by the CLI (the commands below, with
``--out tests/golden/<name>``), never edited by hand.
"""

import importlib.util
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

_spec = importlib.util.spec_from_file_location(
    "cli_digits", Path(__file__).resolve().parents[1] / "scripts" / "cli_digits.py")
cli_digits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digits)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_run_reproduces_its_reference(tmp_path, name):
    assert main(RUNS[name] + ["--out", str(tmp_path)]) == 0
    reference = GOLDEN / name
    files = sorted(p.relative_to(reference) for p in reference.rglob("*") if p.is_file())
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()) == files
    for path in files:
        problem, change, scale, where = cli_digits.compare_texts(
            (reference / path).read_text(), (tmp_path / path).read_text())
        assert problem is None and change <= RTOL * scale, (path, problem, where)
