"""Run one msforch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  A run
starts four fresh worker processes one after another (``worker.py``); process
k works on input seed 4 N + k, so a run covers four fields and run seed 0
starts with the acceptance-suite fields.  Each process sets the workload up,
which is timed as set-up, and then repeats it in a closed loop for a quarter
of ``--seconds``.  BLAS runs single-threaded.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics named in ``BENCHMARK.json``, each the median over the
run's processes or repetitions; with ``--trace 1`` it carries the per-layer
metrics of traced repetitions instead.  Every repetition's output is checked;
a failed check makes the result ``"correct": false`` and the exit code 1.  A
checkout without ``src/msforch`` exits with code 2 and prints no result.
Records of the last run of each workload, seed and mode go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes per run, each on its own input seed; set-up time is their median.
N_PROCESSES = 4
#: BLAS threads of the worker processes: a plain single-threaded baseline.
BLAS_THREADS = 1
#: Wall-clock limit of a whole run, in seconds.
RUN_LIMIT = 170.0


def _git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_bytes(level: int) -> int | None:
    """Size of the level-2 or level-3 cache as the C library reports it."""
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        return int(out) if out and int(out) > 0 else None
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def _environment(root: Path, worker_env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **worker_env,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(root),
        "l2_cache_bytes": _cache_bytes(2),
        "l3_cache_bytes": _cache_bytes(3),
        "src_lines": _src_lines(root),
    }


def _end_to_end(records: list) -> dict:
    reps = [r for rec in records for r in rec["reps"]]
    return {
        "setup_s": statistics.median([rec["setup_s"] for rec in records]),
        "solve_s": statistics.median([r["seconds"] for r in reps]),
        "ms_per_iteration": statistics.median([r["ms_per_iteration"] for r in reps]),
        "nl_iterations": statistics.median([r["nl_iterations"] for r in reps]),
        "peak_rss_mb": statistics.median([rec["peak_rss_mb"] for rec in records]),
    }


def _per_layer(records: list) -> dict:
    traced = [t["layers"] for rec in records for t in rec["traced"]]
    out = {name: statistics.median([t[name] for t in traced]) for name in traced[0]}
    for name in records[0]["setup_layers"]:
        out[name] = statistics.median([rec["setup_layers"][name] for rec in records])
    out["trace.overhead_s"] = statistics.median([t["layers"]["trace.root_s"] - r["seconds"]
                                       for rec in records
                                       for r, t in zip(rec["reps"], rec["traced"])])
    return out


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "msforch" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"perfbench: error: {ROOT} is not an msforch source checkout "
              "(needs src/msforch and BENCHMARK.json)", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured seconds of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")

    started = time.monotonic()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **{k: str(BLAS_THREADS) for k in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    records = []
    for k in range(N_PROCESSES):
        record = outdir / f"process{k}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(N_PROCESSES * args.seed + k),
               "--budget", str(args.seconds / N_PROCESSES),
               "--trace", str(args.trace), "--workdir", str(outdir / f"work{k}"),
               "--record", str(record)]
        remaining = RUN_LIMIT - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            print(f"perfbench: error: process {k} exceeded the {RUN_LIMIT:g} s run limit",
                  file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"perfbench: error: process {k} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        records.append(json.loads(record.read_text()))

    reps = [r for rec in records for r in rec["reps"] + rec["traced"]]
    attempted = sum(r["solves"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    for f in failures:
        print(f"check failed: {f}")

    if args.trace:
        values = _per_layer(records)
        declared = bench["per_layer"]
    else:
        values = _end_to_end(records)
        declared = bench["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print("perfbench: error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ {m['name'] for m in declared})}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    environment = _environment(ROOT, records[0]["env"])
    samples = {"processes": len(records),
               "repetitions": sum(len(rec["reps"]) for rec in records),
               "traced_repetitions": sum(len(rec["traced"]) for rec in records)}
    stages = {}
    for rec in records:
        for r in rec["reps"]:
            for stage, seconds in r["stages"].items():
                stages.setdefault(stage, []).append(seconds)
    summary = {"workload": args.workload, "seed": args.seed,
               "input_seeds": [N_PROCESSES * args.seed + k for k in range(N_PROCESSES)],
               "seconds": args.seconds,
               "trace": args.trace, "environment": environment, "samples": samples,
               "computed_bytes": records[0]["computed_bytes"],
               "stages_s": {stage: statistics.median(v) for stage, v in stages.items()},
               "fail_share": len(failures) / max(attempted, 1), "metrics": metrics}
    (outdir / "result.json").write_text(json.dumps(summary, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {samples}")
    print("environment: " + json.dumps(environment))
    print("computed bytes: " + json.dumps(records[0]["computed_bytes"]))
    if stages:
        print("stages (s, median): " + json.dumps(summary["stages_s"]))
    print(f"fail_share {summary['fail_share']:g} ({len(failures)} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
