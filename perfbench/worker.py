"""One fresh benchmark process: set up one workload, then repeat it for a time budget.

Started by ``run.py`` with ``PYTHONPATH`` holding the checkout's ``src``; it
writes one JSON record to ``--record``.  Set-up time runs from before
``import msforch`` through input generation and the warm-up solve.  With
``--trace 1`` every untraced repetition is followed by a traced one on the
same inputs; the per-layer metrics come from the traced repetitions' spans,
which are written next to the record when the process ends.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_stats, percentile_ms  # noqa: E402


def _traced(tracer, name: str):
    """A block traced under root span ``name``, or untraced without a tracer."""
    return contextlib.nullcontext() if tracer is None else tracer.root(name)


def _timed(wl, tracer):
    """One repetition, traced when a tracer is given: (seconds, outcome)."""
    with _traced(tracer, "bench.repetition"):
        t0 = time.perf_counter()
        out = wl.run()
        return time.perf_counter() - t0, out


def _layer_metrics(tracer, run: int, out) -> dict:
    """Per-layer metrics of one traced repetition (zero for layers it bypassed)."""
    stats = layer_stats(tracer, run)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "attrs": []}
    m = {}

    def get(name):
        return stats.get(name, empty)

    def basic(name, *percentiles):
        st = get(name)
        m[f"{name}.calls"] = st["calls"]
        m[f"{name}.self_s"] = st["self_s"]
        for q in percentiles:
            m[f"{name}.p{q}_ms"] = percentile_ms(st["durations"], q)

    basic("mfmfe.assemble_velocity_matrix", 50, 99)
    asm = get("mfmfe.assemble_velocity_matrix")
    m["mfmfe.assemble_velocity_matrix.cells_per_s"] = (
        sum(a["cells"] for a in asm["attrs"]) / asm["s"] if asm["s"] > 0 else 0.0)
    for name in ("mfmfe.VertexBlockMatrix.inverse_sparse",
                 "mfmfe.VertexBlockMatrix.check_positive_definite",
                 "mfmfe.VertexBlockMatrix.matvec", "mfmfe.corner_velocities",
                 "mfmfe.assemble_divergence", "solve.reduced_schur_solve",
                 "solve.LinearizedSystem.init", "online.ms_solve",
                 "online.EnrichmentState.velocity_matrix"):
        basic(name)
    basic("solve.schur_solve", 50, 99)
    basic("solve.factor", 50)
    nl = get("solve.nonlinear_solve")
    m["solve.nonlinear_solve.calls"] = nl["calls"]
    m["solve.nonlinear_solve.iterations"] = sum(a["iterations"] for a in nl["attrs"])
    basic("grid.subgrid")
    m["grid.subgrid.distinct_shapes"] = len({a["shape"] for a in get("grid.subgrid")["attrs"]})
    for name in ("offline.build_offline_space", "offline.update_offline",
                 "offline.solve_offline", "online.enrich_uniform"):
        m[f"{name}.s"] = get(name)["s"]
    basic("offline.build_snapshots", 50)
    basic("offline.spectral_decompose", 50)
    m["offline.update_offline.elements"] = sum(
        a["elements"] for a in get("offline.update_offline")["attrs"])
    basic("online.online_basis", 50, 95)
    ob = get("online.online_basis")
    accepted = sum(a["accepted"] for a in ob["attrs"])
    m["online.online_basis.accepted"] = accepted
    m["online.online_basis.accept_ratio"] = accepted / ob["calls"] if ob["calls"] else 0.0
    state = out.data.get("state")
    m["online.eru_final"] = float(state.history[-1].Eru) if state is not None else 0.0
    m["cli.main.self_s"] = get("cli.main")["self_s"]
    m["cli.bytes_written"] = out.data.get("bytes_written", 0)
    m["trace.root_s"] = get("bench.repetition")["s"]
    return m


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name}


def _setup_metrics(tracer) -> dict:
    stats = layer_stats(tracer, 0)
    return {f"{name}.s": stats[name]["s"] if name in stats else 0.0
            for name in ("fields.gen_synthetic", "grid.build_fine_grid")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True, help="seconds of repetitions")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--record", type=Path, required=True)
    args = p.parse_args(argv)

    import msforch  # noqa: F401  (timed as part of set-up)
    import workloads

    tracer = Tracer() if args.trace else None
    args.workdir.mkdir(parents=True, exist_ok=True)
    record = {"reps": [], "traced": []}
    try:
        with _traced(tracer, "bench.setup"):
            wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
            wl.warm_up()
        record["setup_s"] = time.perf_counter() - _T0
        if tracer is not None:
            record["setup_layers"] = _setup_metrics(tracer)

        start = time.perf_counter()
        while True:
            seconds, out = _timed(wl, None)
            solves, failures = wl.check(out)
            if not record["reps"]:
                record["computed_bytes"] = wl.computed_bytes(out)
            record["reps"].append({
                "seconds": seconds, "nl_iterations": out.nl_iterations,
                "ms_per_iteration": 1000.0 * out.fine_seconds / max(out.fine_iterations, 1),
                "stages": out.data.get("stages", {}), "solves": solves, "failures": failures})
            if tracer is not None:
                seconds, out = _timed(wl, tracer)
                solves, failures = wl.check(out)
                record["traced"].append({
                    "seconds": seconds, "solves": solves, "failures": failures,
                    "layers": _layer_metrics(tracer, tracer.last_run, out)})
            # Stop unless another repetition would end within half a
            # repetition of the budget.
            elapsed = time.perf_counter() - start
            per_rep = elapsed / len(record["reps"])
            if elapsed + 0.5 * per_rep > args.budget:
                break
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    record["env"] = _versions()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.record.write_text(json.dumps(record))
    if tracer is not None:
        args.record.with_suffix(".spans.json").write_text(json.dumps(tracer.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
