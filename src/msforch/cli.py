"""Batch driver for fine, offline and online flow studies.

Commands
--------
``fine``       reference solves over a beta0 x scheme sweep; writes per-run
               pressure/velocity tables, a shared iteration-count table and
               pressure rasters.
``offline``    coarse-space error study over beta0 x basis-count; writes one
               row per combination with plain, partially updated
               (theta-selected) and fully updated space errors.
``online``     enrichment runs (uniform or adaptive schedule, updating or
               fixed-coefficient linearization); writes one history CSV per
               combination plus the final pressure raster.
``gen-field``  generates a synthetic permeability raster.

Every setting is one ``_SETTINGS`` entry: default, parser and help text.  A
``--config`` file holds flat ``key = value`` lines whose keys are the flag
names (with ``-`` or ``_``) or ``out``; an unknown key is an input error, and
flags override the file.  Every CSV and raster starts with a ``# config-hash``
comment over the command and every setting but ``out`` and ``config``, and
identical configurations produce byte-identical outputs.

Exit codes: 0 success, 1 solver non-convergence or numerical failure,
2 invalid input.  Failures print a single-line ``msforch: error: ...``
message to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import AssemblyError, ConfigurationError, SingularSystemError
from .fields import (
    SYNTHETIC_KINDS,
    ScalarCellField,
    forchheimer_coeff,
    gen_synthetic,
    load_raster,
    save_raster,
)
from .grid import build_coarse_grid, build_fine_grid
from .mfmfe import five_spot, left_right_spec
from .offline import (
    assemble_reduction,
    build_offline_space,
    conservation_residuals,
    save_triplets,
    select_by_fraction,
    solve_offline,
    update_offline,
)
from .online import (
    detect_plateau,
    enrich_adaptive,
    enrich_uniform,
    error_metrics,
    init_enrichment,
    sweep_final_errors,
)
from .solve import NonlinearConfig, nonlinear_solve

#: Float format used in every CSV cell and file-name fragment.
_G = ".12g"

_VARIANT_NAMES = {"updating": "updating", "fixed": "fixed_offline"}


class _SolverFailure(RuntimeError):
    """A nonlinear solve ran out of iterations (exit code 1)."""


def _g(x) -> str:
    return format(float(x), _G)


def _oneline(exc: BaseException) -> str:
    return " ".join(str(exc).split()) or exc.__class__.__name__


# ---------------------------------------------------------------------------
# settings: each parser maps the raw text to a value or raises
# ValueError("must ...")


def _valid(convert, ok, rule: str):
    """Parser that converts the raw text and requires ``ok(value)``."""
    def parse(raw: str):
        try:
            val = convert(raw)
            if ok(val):
                return val
        except ValueError:
            pass
        raise ValueError(f"must be {rule}")
    return parse


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError("must be a boolean")


def _numbers(raw: str) -> list:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _counts(raw: str) -> list:
    vals = _numbers(raw)
    if not vals or not all(m.is_integer() and m >= 1 for m in vals):
        raise ValueError("must be a list of integers >= 1")
    return [int(m) for m in vals]


class _FieldSpec(NamedTuple):
    kind: str
    seed: int
    contrast: float

    def __str__(self) -> str:
        return f"{self.kind}:{self.seed}:{_g(self.contrast)}"


def _field(raw: str):
    if not raw:
        return None
    kind, seed, contrast = raw.split(":")
    return _FieldSpec(kind, int(seed), float(contrast))


def _choice(*names: str):
    return _valid(str, lambda v: v in names, f"one of {', '.join(names)}")


_COUNT = _valid(int, lambda n: n >= 1, "an integer >= 1")
_KINDS = ", ".join(SYNTHETIC_KINDS)

#: name -> (default, parser, help).  The order is the config-hash order.
_SETTINGS = {
    "nx": (None, _COUNT, "fine cells in x"),
    "ny": (None, _COUNT, "fine cells in y"),
    "coarse_nx": (None, _COUNT, "coarse elements in x"),
    "coarse_ny": (None, _COUNT, "coarse elements in y"),
    "domain": ("0,1,0,1", _valid(
        _numbers, lambda d: len(d) == 4 and np.isfinite(d).all() and d[0] < d[1] and d[2] < d[3],
        "x0,x1,y0,y1 with x1 > x0 and y1 > y0"), "rectangle bounds x0,x1,y0,y1"),
    "perm": (None, str, "permeability raster file"),
    "log10": ("false", _bool, "raster stores log10 of the permeability"),
    "field": (None, _valid(_field, lambda f: f is None or (
        f.kind in SYNTHETIC_KINDS and f.seed >= 0 and f.contrast >= 1),
        f"kind:seed:contrast with kind in {_KINDS}, seed >= 0, contrast >= 1"),
        f"synthetic generator kind:seed:contrast; kinds: {_KINDS}"),
    "beta0": ("100", _valid(_numbers, lambda b: b and all(0 <= x < np.inf for x in b),
                            "a list of finite numbers >= 0"),
              "comma-separated Forchheimer strengths"),
    "scheme": ("newton", _valid(
        lambda raw: [s.strip().lower() for s in raw.split(",") if s.strip()],
        lambda s: s and set(s) <= {"picard", "newton"}, "picard, newton or a list of them"),
        "picard or newton (fine accepts a comma list)"),
    "dof_per_t": ("4", _counts, "offline basis counts per coarse element"),
    "theta": ("0.75", _valid(float, lambda v: 0 < v <= 1, "a number in (0, 1]"),
              "offline update residual fraction"),
    "xi": ("0.75", _valid(float, lambda v: 0 < v < 1, "a number in (0, 1)"),
           "adaptive enrichment residual fraction"),
    "variant": ("updating", _choice(*_VARIANT_NAMES), "online coefficient: updating or fixed"),
    "mode": ("uniform", _choice("uniform", "adaptive"), "enrichment schedule: uniform or adaptive"),
    "sweeps": ("3", _COUNT, "full four-color enrichment sweeps"),
    "tol": ("1e-8", _valid(float, lambda v: 0 < v < np.inf, "a positive finite number"),
            "nonlinear stopping tolerance"),
    "max_iter": ("30000", _COUNT, "nonlinear iteration cap"),
    "oversample": ("0", _valid(int, lambda n: n >= 0, "an integer >= 0"),
                   "snapshot oversampling layers"),
    "bc": ("preset:left-right", _choice("preset:left-right", "preset:five-spot"),
           "preset:left-right or preset:five-spot"),
}


def _canon(value) -> str:
    """The text of a parsed setting that the config hash covers; a field
    spec's is its kind:seed:contrast str()."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(_canon(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _g(value)
    return str(value)


def _read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    found = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
            name, value = (part.strip() for part in body.split("=", 1))
            key = name.lower().replace("-", "_")
            if key not in _SETTINGS and key != "out":
                raise ConfigurationError(f"{path}:{lineno}: unknown setting {name!r}")
            found[key] = value
    return found


class RunConfig:
    """Effective settings of one CLI invocation, parsed and cross-checked.

    Each ``_SETTINGS`` entry becomes an attribute holding its parsed value
    (None when it is unset and has no default).
    """

    def __init__(self, command: str, raw: dict):
        self.out = Path(raw["out"])
        canon = [f"command={command}"]
        for key, (_, parse, _) in _SETTINGS.items():
            value = raw[key]
            if value is not None:
                try:
                    value = parse(value)
                except ValueError as exc:
                    raise ConfigurationError(f"{key} {exc}, got {raw[key]!r}") from None
            setattr(self, key, value)
            canon.append(f"{key}={_canon(value)}")
            # A repeated sweep value would write its outputs twice to one name.
            if key in ("beta0", "scheme", "dof_per_t") and len(set(map(_canon, value))) < len(value):
                raise ConfigurationError(f"{key} repeats a value, got {raw[key]!r}")
        self.hash = hashlib.sha256("\n".join(canon).encode()).hexdigest()

        if self.nx is None or self.ny is None:
            raise ConfigurationError("the fine grid size is required: --nx and --ny")
        if command in ("offline", "online"):
            if self.coarse_nx is None or self.coarse_ny is None:
                raise ConfigurationError(f"{command} needs --coarse-nx and --coarse-ny")
            if self.nx % self.coarse_nx or self.ny % self.coarse_ny:
                raise ConfigurationError(f"coarse grid {self.coarse_nx}x{self.coarse_ny} "
                                         f"must divide the fine grid {self.nx}x{self.ny}")
            if len(self.scheme) != 1:
                raise ConfigurationError(f"{command} expects a single scheme, got {self.scheme}")
        if command == "gen-field":
            if self.field is None:
                raise ConfigurationError("gen-field needs --field kind:seed:contrast")
        elif bool(self.perm) == (self.field is not None):
            raise ConfigurationError("give exactly one of --perm PATH and --field kind:seed:contrast")

    # -- derived objects -------------------------------------------------

    def solver_config(self, scheme: str) -> NonlinearConfig:
        return NonlinearConfig(scheme=scheme, tol_nl=self.tol, max_iter=self.max_iter)

    def permeability(self) -> ScalarCellField:
        if self.perm:
            return load_raster(self.perm, self.nx, self.ny, log10=self.log10, positive=True)
        return gen_synthetic(*self.field, self.nx, self.ny)

    def boundary(self, fine):
        """(BoundarySpec, source per cell) for the configured preset."""
        if self.bc == "preset:left-right":
            return left_right_spec(fine, 1.0, 0.0), np.zeros(fine.n_cells)
        return five_spot(fine)


def _table(fmt: str, *columns) -> list:
    """``fmt`` rows of ``columns`` as one :func:`_write_csv` row, by one ``%``."""
    return ["\n".join([fmt] * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))]


def _write_csv(path: Path, comments: list, header: str, rows: list) -> None:
    lines = [f"# {c}" for c in comments] + [header] + rows
    path.write_text("\n".join(lines) + "\n")


def _require_converged(sol, what: str):
    if not sol.converged:
        raise _SolverFailure(f"{what} did not converge within {sol.iterations} iterations")
    return sol


def _save_pressure_raster(rc: RunConfig, pressure: np.ndarray, name: str) -> None:
    field = ScalarCellField(rc.nx, rc.ny, pressure)
    save_raster(field, rc.out / name, comment=f"config-hash {rc.hash}")


# ---------------------------------------------------------------------------
# commands


def cmd_fine(rc: RunConfig) -> int:
    fine = build_fine_grid(rc.nx, rc.ny, rc.domain)
    kappa = rc.permeability()
    bc, f_cells = rc.boundary(fine)
    combos = [(b0, s) for b0 in rc.beta0 for s in rc.scheme]
    comments = [f"config-hash {rc.hash}"]
    iter_rows = []
    for b0, scheme in combos:
        beta = forchheimer_coeff(kappa, b0)
        sol = nonlinear_solve(fine, kappa, beta, bc, f_cells, rc.solver_config(scheme))
        _require_converged(sol, f"fine solve (beta0={_g(b0)}, scheme={scheme})")
        iter_rows.append(f"{_g(b0)},{scheme},{sol.iterations}")
        sfx = "" if len(combos) == 1 else f"_b{_g(b0)}_{scheme}"
        xs, ys = fine.cell_centers[:, 0], fine.cell_centers[:, 1]
        _write_csv(
            rc.out / f"fine_solution{sfx}.csv", comments, "cell,x,y,p",
            _table(f"%d,%{_G},%{_G},%{_G}", range(fine.n_cells), xs.tolist(), ys.tolist(),
                   sol.pressure.tolist()),
        )
        _write_csv(
            rc.out / f"fine_velocity{sfx}.csv", comments, "dof,value",
            _table(f"%d,%{_G}", range(fine.n_dofs), sol.velocity.tolist()),
        )
        _save_pressure_raster(rc, sol.pressure, f"pressure{sfx}.txt")
    _write_csv(rc.out / "iterations.csv", comments, "beta0,scheme,iterations", iter_rows)
    return 0


def cmd_offline(rc: RunConfig) -> int:
    fine = build_fine_grid(rc.nx, rc.ny, rc.domain)
    coarse = build_coarse_grid(fine, rc.coarse_nx, rc.coarse_ny)
    kappa = rc.permeability()
    bc, f_cells = rc.boundary(fine)
    cfg = rc.solver_config(rc.scheme[0])
    spaces, _ = build_offline_space(
        fine, coarse, kappa, max(rc.dof_per_t), oversample_layers=rc.oversample
    )
    maps = {m: assemble_reduction(fine, spaces, m) for m in rc.dof_per_t}
    for m, rmap in maps.items():
        save_triplets(rmap, rc.out / f"rmap_dof{m}.txt", f"config-hash {rc.hash}")

    rows = []
    for b0 in rc.beta0:
        beta = forchheimer_coeff(kappa, b0)
        ref = nonlinear_solve(fine, kappa, beta, bc, f_cells, cfg)
        _require_converged(ref, f"fine reference (beta0={_g(b0)})")
        for m in rc.dof_per_t:
            rmap = maps[m]
            off = solve_offline(fine, kappa, beta, bc, f_cells, rmap, cfg)
            _require_converged(off, f"offline solve (beta0={_g(b0)}, dof_per_T={m})")
            erp_o, eru_o = error_metrics(fine, off, ref)
            if b0 == 0:
                rows.append(f"{_g(b0)},{m},{_g(erp_o)},{_g(eru_o)},,,,,")
                continue
            residuals = conservation_residuals(fine, coarse, off.velocity, f_cells)
            selected = select_by_fraction(residuals, rc.theta)
            errors = []
            for name, elements in (("updated", selected),
                                   ("fully updated", np.arange(coarse.n_elements))):
                new_map, _ = update_offline(fine, coarse, rmap, spaces, off.velocity, elements,
                                            kappa, beta)
                sol = solve_offline(fine, kappa, beta, bc, f_cells, new_map, cfg)
                _require_converged(sol, f"{name} offline solve (beta0={_g(b0)}, dof_per_T={m})")
                errors += error_metrics(fine, sol, ref)
            erp_h, eru_h, erp_t, eru_t = errors
            rows.append(
                f"{_g(b0)},{m},{_g(erp_o)},{_g(eru_o)},{_g(erp_h)},{_g(eru_h)},"
                f"{len(selected)},{_g(erp_t)},{_g(eru_t)}"
            )
    _write_csv(
        rc.out / "offline_errors.csv",
        [f"config-hash {rc.hash}", f"theta={_g(rc.theta)}"],
        "beta0,dof_per_T,Erp_off,Eru_off,Erp_hat,Eru_hat,N_update,Erp_tilde,Eru_tilde",
        rows,
    )
    return 0


def cmd_online(rc: RunConfig) -> int:
    fine = build_fine_grid(rc.nx, rc.ny, rc.domain)
    coarse = build_coarse_grid(fine, rc.coarse_nx, rc.coarse_ny)
    kappa = rc.permeability()
    bc, f_cells = rc.boundary(fine)
    cfg = rc.solver_config(rc.scheme[0])
    spaces, _ = build_offline_space(
        fine, coarse, kappa, max(rc.dof_per_t), oversample_layers=rc.oversample
    )
    for b0 in rc.beta0:
        beta = forchheimer_coeff(kappa, b0)
        ref = nonlinear_solve(fine, kappa, beta, bc, f_cells, cfg)
        _require_converged(ref, f"fine reference (beta0={_g(b0)})")
        for m in rc.dof_per_t:
            rmap = assemble_reduction(fine, spaces, m)
            off = solve_offline(fine, kappa, beta, bc, f_cells, rmap, cfg)
            _require_converged(off, f"offline solve (beta0={_g(b0)}, dof_per_T={m})")
            state = init_enrichment(
                fine, coarse, kappa, beta, bc, f_cells, rmap, cfg, ref, off,
                variant=_VARIANT_NAMES[rc.variant],
            )
            if rc.mode == "uniform":
                enrich_uniform(state, rc.sweeps)
            else:
                enrich_adaptive(state, rc.xi, rc.sweeps)
            comments = [f"config-hash {rc.hash}"]
            if rc.variant == "fixed":
                plateau = detect_plateau(sweep_final_errors(state))
                comments.append(
                    f"plateau=true sweep={plateau}" if plateau else "plateau=false"
                )
            sfx = f"_b{_g(b0)}_m{m}_{rc.mode}_{rc.variant}"
            _write_csv(
                rc.out / f"history{sfx}.csv", comments,
                "level,subiter,dim_Wms,n_added,Erp,Eru,total_residual",
                [f"{r.level},{r.subiter},{r.dim_Wms},{r.n_added},"
                 f"{_g(r.Erp)},{_g(r.Eru)},{_g(r.total_residual)}"
                 for r in state.history],
            )
            _save_pressure_raster(rc, state.solution.pressure, f"pressure{sfx}.txt")
    return 0


def cmd_gen_field(rc: RunConfig) -> int:
    kind, seed, contrast = rc.field
    field = gen_synthetic(kind, seed, contrast, rc.nx, rc.ny)
    name = f"field_{kind}_s{seed}_c{_g(contrast)}_{rc.nx}x{rc.ny}.txt"
    save_raster(field, rc.out / name, comment=f"config-hash {rc.hash}")
    print(rc.out / name)
    return 0


_DISPATCH = {
    "fine": cmd_fine,
    "offline": cmd_offline,
    "online": cmd_online,
    "gen-field": cmd_gen_field,
}


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors are single-line and exit with code 2."""

    def error(self, message):
        self.exit(2, f"msforch: error: {' '.join(message.split())}\n")


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key = value settings file")
    common.add_argument("--out", metavar="DIR", help="output directory (default '.')")
    for key, (default, parse, text) in _SETTINGS.items():
        switch = {"action": "store_const", "const": "true"} if parse is _bool else {}
        common.add_argument("--" + key.replace("_", "-"), **switch,
                            help=text if default is None else f"{text} (default {default})")

    parser = _Parser(prog="msforch", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub.add_parser("fine", parents=[common], help="fine-grid reference solves")
    sub.add_parser("offline", parents=[common], help="offline/updated-offline error study")
    sub.add_parser("online", parents=[common], help="online enrichment runs")
    sub.add_parser("gen-field", parents=[common], help="write a synthetic permeability raster")
    return parser


def _merge_settings(args: argparse.Namespace) -> dict:
    """Table defaults, overridden by the --config file, overridden by flags."""
    merged = {"out": ".", **{key: entry[0] for key, entry in _SETTINGS.items()}}
    if args.config:
        merged.update(_read_config_file(args.config))
    # Every flag not given on the command line is None (--log10 included).
    merged.update({k: v for k, v in vars(args).items()
                   if k not in ("command", "config") and v is not None})
    return merged


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = RunConfig(args.command, _merge_settings(args))
        rc.out.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[args.command](rc)
    except (_SolverFailure, SingularSystemError, AssemblyError,
            np.linalg.LinAlgError) as exc:
        print(f"msforch: error: {_oneline(exc)}", file=sys.stderr)
        return 1
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"msforch: error: {_oneline(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
