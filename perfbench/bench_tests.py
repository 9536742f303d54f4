"""Tests of the benchmark itself: span accounting and undoing the tracer's rebinding.

Not part of the package's test suite (the file name keeps pytest's default
discovery away from it).  Run from the checkout root:

    python3 -m pytest -q perfbench/bench_tests.py

Each workload runs once untraced and once traced at full size, about a minute
in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import msforch  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

#: Traced minus untraced repetition time, as a share of the untraced time,
#: beyond which the root span no longer accounts for the repetition.  Loose,
#: because consecutive repetitions on a shared 2-core machine differ by up to
#: a quarter from noise alone.
MAX_OVERHEAD_SHARE = 0.5

#: Metric-name prefixes whose layer each workload never calls.
BYPASSED = {
    "fine_picard_16": ("online.", "offline.", "grid.subgrid.", "cli.",
                       "solve.reduced_schur_solve."),
    "fine_newton_160": ("online.", "offline.", "grid.subgrid.", "solve.reduced_schur_solve."),
    "multiscale_160x60": ("cli.",),
}


def _bindings() -> dict:
    """Every attribute of the msforch modules and of the traced classes, by identity."""
    snap = {}
    for name in spans._MODULES:
        mod = sys.modules.get(name) or __import__(name, fromlist=["_"])
        snap.update({(name, attr): value for attr, value in vars(mod).items()})
    for mod_name, path, _, _ in spans.FUNCTIONS:
        if "." in path:
            cls = getattr(sys.modules[mod_name], path.split(".")[0])
            snap.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return snap


def _assert_restored(before: dict) -> None:
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed, f"not restored: {changed[:5]}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_span_tree_accounts_for_each_workload(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, tmp_path)
    wl.warm_up()
    before = _bindings()

    t0 = time.perf_counter()
    wl.run()
    untraced = time.perf_counter() - t0

    tracer = spans.Tracer()
    with tracer.root("bench.repetition"):
        t0 = time.perf_counter()
        out = wl.run()
        timed = time.perf_counter() - t0
    _assert_restored(before)
    solves, failures = wl.check(out)
    assert solves >= 1 and not failures

    run = tracer.last_run
    ids = tracer.runs()[run]
    root = tracer.spans[ids[0]]
    root_s = root[2] - root[1]
    assert root[0] == "bench.repetition" and root[3] == -1
    assert 0.0 <= root_s - timed < 1e-3
    assert abs(root_s - untraced) <= MAX_OVERHEAD_SHARE * untraced

    # The tree is well formed: children lie inside their parents, and the
    # self times of the run's spans add up to the root.
    for i in ids[1:]:
        _, start, end, parent, span_run, _ = tracer.spans[i]
        assert span_run == run and parent in ids
        assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2]
    own = tracer.self_times()
    assert min(own[i] for i in ids) >= -1e-6
    assert sum(own[i] for i in ids) == pytest.approx(root_s, rel=1e-9)

    m = worker._layer_metrics(tracer, run, out)
    assert m["mfmfe.assemble_velocity_matrix.calls"] > 0
    assert m["solve.factor.calls"] > 0
    assert m["solve.nonlinear_solve.iterations"] == (
        out.nl_iterations if name != "multiscale_160x60" else
        sum(out.data[k].iterations for k in ("ref", "off", "upd")))
    for key, value in m.items():
        if key.startswith(BYPASSED[name]):
            assert value == 0, f"{key} = {value} on {name}"
        else:
            assert value == value  # no NaN


def test_rebinding_is_undone_after_an_error():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            assert msforch.build_fine_grid is not before[("msforch", "build_fine_grid")]
            assert msforch.solve.la is not before[("msforch.solve", "la")]
            msforch.build_fine_grid(0, 1)
    _assert_restored(before)
    assert [s[0] for s in tracer.spans] == ["grid.build_fine_grid"]


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*bench["command"], "--workload", bench["workloads"][0]["name"], "--seed", "0",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
