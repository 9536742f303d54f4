#!/bin/sh
# Run each CLI command of CI's smoke and determinism check once, with the
# sources of the checkout this script sits in and RuntimeWarnings raised as
# errors, writing command NAME's outputs to OUT/NAME.
#
#     scripts/ci_cli.sh OUT
#
# Two runs into different directories must agree byte for byte
# (`diff -r OUT1 OUT2`).  Runs of two checkouts compare the same way, and
# `python3 scripts/cli_digits.py OUT1 OUT2` prints the largest change per
# file where they differ.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
PYTHONWARNINGS=error::RuntimeWarning
export PYTHONPATH PYTHONWARNINGS

run() {
    name=$1
    shift
    python3 -m msforch.cli "$@" --out "$out/$name"
}

run field gen-field --nx 12 --ny 7 --field blobs:5:1000
run fine fine --nx 8 --ny 8 --field blobs:2:100
run far fine --nx 8 --ny 8 --domain 1e6,1000000.08,1e6,1000000.08 --field blobs:2:100 --bc preset:five-spot
run offline offline --nx 16 --ny 16 --coarse-nx 2 --coarse-ny 2 --field blobs:2:100 --dof-per-t 2
run onecell offline --nx 4 --ny 4 --coarse-nx 4 --coarse-ny 4 --field blobs:1:10 --dof-per-t 1
run oversample offline --nx 16 --ny 16 --coarse-nx 4 --coarse-ny 4 --field blobs:2:100 --dof-per-t 2,3 --oversample 1
run online online --nx 16 --ny 16 --coarse-nx 2 --coarse-ny 2 --field blobs:2:100 --dof-per-t 2 --sweeps 1
run adaptive online --nx 16 --ny 16 --coarse-nx 2 --coarse-ny 2 --field blobs:2:100 --dof-per-t 2 --variant fixed --mode adaptive --sweeps 1
run study offline --nx 16 --ny 16 --coarse-nx 4 --coarse-ny 4 --field blobs:2:100 --beta0 0,100 --dof-per-t 2,3 --theta 0.5
run shared online --nx 16 --ny 16 --coarse-nx 4 --coarse-ny 4 --field blobs:2:100 --dof-per-t 2,3 --oversample 1 --sweeps 2
run plateau online --nx 16 --ny 16 --coarse-nx 2 --coarse-ny 2 --field blobs:2:100 --dof-per-t 2 --variant fixed --sweeps 3
run picard fine --nx 16 --ny 16 --field channel:7:100 --scheme picard,newton --beta0 0,100
run band fine --nx 100 --ny 30 --field blobs:2:100 --beta0 100 --scheme newton
run reuse fine --nx 120 --ny 110 --field blobs:2:100 --beta0 100 --scheme newton
run forcing fine --nx 120 --ny 110 --field blobs:3:100 --beta0 100 --scheme newton --bc preset:five-spot
run warm fine --nx 101 --ny 101 --field blobs:2:100 --beta0 10 --scheme picard
