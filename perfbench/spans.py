"""In-memory span tracing of msforch's public functions, from outside the package.

Nothing in ``msforch`` knows about tracing.  :class:`Tracer` rebinds each
traced function in every ``msforch`` module that holds it (the defining module,
the package namespace and each module that imported the name), wraps traced
methods on their class, and shows ``msforch.solve`` a view of SciPy whose
``splu`` and ``cho_factor`` are wrapped.  Every rebinding is undone when the
``installed()`` block exits, also on error.

A span is ``(name, start, end, parent, run, attrs)``; ``parent`` is the index
of the enclosing span (-1 at a root) and ``run`` groups the spans of one root.
A span's self time is its duration minus the durations of its children, which
are nested and sequential because the traced code is single-threaded.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
import types

_MODULES = ("msforch", "msforch.grid", "msforch.fields", "msforch.mfmfe", "msforch.solve",
            "msforch.offline", "msforch.online", "msforch.cli")


def _cells(args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    return {"cells": grid.n_cells}


def _shape(args, kwargs, result):
    return {"shape": tuple(int(v) for v in args[3:5])}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _elements(args, kwargs, result):
    selected = args[5] if len(args) > 5 else kwargs["selected"]
    return {"elements": len(selected)}


def _accepted(args, kwargs, result):
    return {"accepted": int(result is not None)}


#: Traced functions: (defining module, attribute path, span name, attrs of a call).
FUNCTIONS = (
    ("msforch.grid", "build_fine_grid", "grid.build_fine_grid", None),
    ("msforch.grid", "subgrid", "grid.subgrid", _shape),
    ("msforch.fields", "gen_synthetic", "fields.gen_synthetic", None),
    ("msforch.mfmfe", "assemble_velocity_matrix", "mfmfe.assemble_velocity_matrix", _cells),
    ("msforch.mfmfe", "assemble_divergence", "mfmfe.assemble_divergence", None),
    ("msforch.mfmfe", "corner_velocities", "mfmfe.corner_velocities", None),
    ("msforch.mfmfe", "VertexBlockMatrix.inverse_sparse",
     "mfmfe.VertexBlockMatrix.inverse_sparse", None),
    ("msforch.mfmfe", "VertexBlockMatrix.check_positive_definite",
     "mfmfe.VertexBlockMatrix.check_positive_definite", None),
    ("msforch.mfmfe", "VertexBlockMatrix.matvec", "mfmfe.VertexBlockMatrix.matvec", None),
    ("msforch.solve", "schur_solve", "solve.schur_solve", None),
    ("msforch.solve", "reduced_schur_solve", "solve.reduced_schur_solve", None),
    ("msforch.solve", "nonlinear_solve", "solve.nonlinear_solve", _iterations),
    ("msforch.solve", "LinearizedSystem.__init__", "solve.LinearizedSystem.init", None),
    ("msforch.offline", "build_offline_space", "offline.build_offline_space", None),
    ("msforch.offline", "update_offline", "offline.update_offline", _elements),
    ("msforch.offline", "solve_offline", "offline.solve_offline", None),
    ("msforch.offline", "build_snapshots", "offline.build_snapshots", None),
    ("msforch.offline", "spectral_decompose", "offline.spectral_decompose", None),
    ("msforch.online", "enrich_uniform", "online.enrich_uniform", None),
    ("msforch.online", "online_basis", "online.online_basis", _accepted),
    ("msforch.online", "ms_solve", "online.ms_solve", None),
    ("msforch.online", "EnrichmentState.velocity_matrix",
     "online.EnrichmentState.velocity_matrix", None),
    ("msforch.cli", "main", "cli.main", None),
)

#: SciPy factorizations timed as ``solve.factor`` where ``msforch.solve`` calls them:
#: (module global in msforch.solve, function name).
FACTORIZATIONS = (("la", "cho_factor"), ("spla", "splu"))


class _ModuleView(types.ModuleType):
    """A module whose listed attributes are replaced; all others come from ``base``."""

    def __init__(self, base: types.ModuleType, overrides: dict):
        super().__init__(base.__name__)
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    """Records spans around msforch calls while :meth:`installed` is active."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, run, attrs]
        self._stack = []
        self._run = -1
        self._undo = []        # (owner, attribute, original), in rebinding order

    @property
    def last_run(self) -> int:
        """Id of the most recent root span's run (-1 before any)."""
        return self._run

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._run += 1
        self.spans.append([name, time.perf_counter(), None, parent, self._run, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, attrs=None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = attrs
        self._stack.pop()

    def _wrap(self, name: str, fn, attrs_of):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, kwargs, result)
                return result
            finally:
                self._exit(idx, attrs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install(self) -> None:
        modules = [importlib.import_module(m) for m in _MODULES]
        for mod_name, path, name, attrs_of in FUNCTIONS:
            home = sys.modules[mod_name]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(home, cls_name)
                self._rebind(cls, meth, self._wrap(name, cls.__dict__[meth], attrs_of))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original, attrs_of)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)
        solve = sys.modules["msforch.solve"]
        for alias, fn_name in FACTORIZATIONS:
            base = getattr(solve, alias)
            wrapper = self._wrap("solve.factor", getattr(base, fn_name), None)
            self._rebind(solve, alias, _ModuleView(base, {fn_name: wrapper}))

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Trace msforch inside the block; restore every rebinding on exit."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    @contextlib.contextmanager
    def root(self, name: str):
        """Trace msforch inside the block, under a root span of its own (a new run)."""
        with self.installed():
            idx = self._enter(name)
            try:
                yield self
            finally:
                self._exit(idx)

    # -- analysis ----------------------------------------------------------

    def runs(self) -> dict:
        """Span indices grouped by run id."""
        out = {}
        for i, s in enumerate(self.spans):
            out.setdefault(s[4], []).append(i)
        return out

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's durations."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def to_json(self) -> list:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "run": s[4],
                 **({"attrs": s[5]} if s[5] else {})} for s in self.spans]


def layer_stats(tracer: Tracer, run: int) -> dict:
    """Per span name within one run: calls, inclusive and self seconds, durations, attrs."""
    own = tracer.self_times()
    stats = {}
    for i in tracer.runs()[run]:
        name, start, end, _, _, attrs = tracer.spans[i]
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                                     "attrs": []})
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += own[i]
        st["durations"].append(end - start)
        if attrs:
            st["attrs"].append(attrs)
    return stats


def percentile_ms(durations: list, q: int) -> float:
    """The q-th percentile of durations in milliseconds (0 without samples)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1000.0 * durations[0]
    return 1000.0 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]
