"""The benchmark's span tracer still finds every msforch name it rebinds.

``perfbench/spans.py`` records spans by rebinding msforch functions and
methods by name, so deleting or renaming one of them breaks the benchmark.
This test installs the tracer once and checks that leaving it restores the
package; it only reads ``perfbench/``.
"""

import importlib
from pathlib import Path

import msforch
import msforch.solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = (msforch.nonlinear_solve, msforch.VertexBlockMatrix.__dict__["matvec"],
              msforch.solve.la)
    tracer = spans.Tracer()
    with tracer.installed():
        assert msforch.nonlinear_solve is not before[0]
    after = (msforch.nonlinear_solve, msforch.VertexBlockMatrix.__dict__["matvec"],
             msforch.solve.la)
    assert all(a is b for a, b in zip(after, before))
    assert tracer.spans == []
