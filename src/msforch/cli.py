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

Configuration is a flat ``key = value`` text file (``--config``) with
command-line flags overriding file values.  Every CSV starts with a
``# config-hash`` comment derived from the effective configuration, and
identical configurations produce byte-identical outputs.

Exit codes: 0 success, 1 solver non-convergence or numerical failure,
2 invalid input.  Failures print a single-line ``msforch: error: ...``
message to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

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

_SCHEMES = ("picard", "newton")
_BC_PRESETS = ("preset:left-right", "preset:five-spot")
_MODES = ("uniform", "adaptive")
_VARIANT_NAMES = {"updating": "updating", "fixed": "fixed_offline"}

_DEFAULTS = {
    "domain": "0,1,0,1",
    "log10": "false",
    "beta0": "100",
    "scheme": "newton",
    "dof_per_t": "4",
    "theta": "0.75",
    "xi": "0.75",
    "variant": "updating",
    "mode": "uniform",
    "sweeps": "3",
    "tol": "1e-8",
    "max_iter": "30000",
    "oversample": "0",
    "bc": "preset:left-right",
    "out": ".",
}

class _SolverFailure(RuntimeError):
    """A nonlinear solve ran out of iterations (exit code 1)."""


def _g(x) -> str:
    return format(float(x), _G)


def _oneline(exc: BaseException) -> str:
    return " ".join(str(exc).split()) or exc.__class__.__name__


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigurationError(f"{key} must be a boolean, got {raw!r}")


def _parse_floats(key: str, raw: str) -> list:
    try:
        vals = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigurationError(f"{key} must be a comma-separated number list: {exc}")
    if not vals:
        raise ConfigurationError(f"{key} must not be empty")
    if not np.isfinite(vals).all():
        raise ConfigurationError(f"{key} must hold finite numbers, got {raw!r}")
    return vals


def _parse_ints(key: str, raw: str) -> list:
    vals = _parse_floats(key, raw)
    out = [int(v) for v in vals]
    if any(v != int(v) for v in vals):
        raise ConfigurationError(f"{key} must hold integers, got {raw!r}")
    return out


def _read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    found = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'key = value', got {body!r}"
                )
            key, value = body.split("=", 1)
            found[key.strip().lower().replace("-", "_")] = value.strip()
    return found


class RunConfig:
    """Effective settings of one CLI invocation, merged and validated."""

    def __init__(self, command: str, raw: dict):
        self.command = command
        self.raw = raw
        self.out = Path(raw["out"])

        need_grid = command in ("fine", "offline", "online", "gen-field")
        self.nx = self._int("nx", required=need_grid, minimum=1)
        self.ny = self._int("ny", required=need_grid, minimum=1)

        need_coarse = command in ("offline", "online")
        self.coarse_nx = self._int("coarse_nx", required=need_coarse, minimum=1)
        self.coarse_ny = self._int("coarse_ny", required=need_coarse, minimum=1)
        if need_coarse:
            if self.nx % self.coarse_nx or self.ny % self.coarse_ny:
                raise ConfigurationError(
                    f"coarse grid {self.coarse_nx}x{self.coarse_ny} must divide "
                    f"the fine grid {self.nx}x{self.ny}"
                )

        dom = _parse_floats("domain", raw["domain"])
        if len(dom) != 4 or dom[1] <= dom[0] or dom[3] <= dom[2]:
            raise ConfigurationError(f"domain must be x0,x1,y0,y1 with x1>x0, y1>y0, got {raw['domain']!r}")
        self.domain = tuple(dom)

        self.perm = raw.get("perm")
        self.log10 = _parse_bool("log10", raw["log10"])
        self.field_spec = self._field_spec(raw.get("field"))
        if command == "gen-field":
            if self.field_spec is None:
                raise ConfigurationError("gen-field needs a generator spec: --field kind:seed:contrast")
        elif self.perm and self.field_spec:
            raise ConfigurationError("give either --perm or --field, not both")
        elif not self.perm and not self.field_spec:
            raise ConfigurationError("a permeability source is required: --perm PATH or --field kind:seed:contrast")

        self.beta0 = _parse_floats("beta0", raw["beta0"])
        if any(b < 0 for b in self.beta0):
            raise ConfigurationError("beta0 values must be >= 0")

        self.schemes = [s.strip().lower() for s in raw["scheme"].split(",") if s.strip()]
        for s in self.schemes:
            if s not in _SCHEMES:
                raise ConfigurationError(f"scheme must be picard or newton, got {s!r}")
        if not self.schemes:
            raise ConfigurationError("scheme must not be empty")
        if command in ("offline", "online") and len(self.schemes) != 1:
            raise ConfigurationError(f"{command} expects a single scheme, got {raw['scheme']!r}")

        self.dof_per_t = _parse_ints("dof_per_t", raw["dof_per_t"])
        if any(m < 1 for m in self.dof_per_t):
            raise ConfigurationError("dof_per_t entries must be >= 1")

        self.theta = self._float("theta")
        if not (0 < self.theta <= 1):
            raise ConfigurationError(f"theta must be in (0, 1], got {self.theta}")
        self.xi = self._float("xi")
        if not (0 < self.xi < 1):
            raise ConfigurationError(f"xi must be in (0, 1), got {self.xi}")

        if raw["variant"] not in _VARIANT_NAMES:
            raise ConfigurationError(f"variant must be updating or fixed, got {raw['variant']!r}")
        self.variant_name = raw["variant"]
        self.variant = _VARIANT_NAMES[raw["variant"]]

        if raw["mode"] not in _MODES:
            raise ConfigurationError(f"mode must be uniform or adaptive, got {raw['mode']!r}")
        self.mode = raw["mode"]

        self.sweeps = self._int("sweeps", required=True, minimum=1)
        self.tol = self._float("tol")
        if self.tol <= 0:
            raise ConfigurationError("tol must be positive")
        self.max_iter = self._int("max_iter", required=True, minimum=1)
        self.oversample = self._int("oversample", required=True, minimum=0)

        if raw["bc"] not in _BC_PRESETS:
            raise ConfigurationError(f"bc must be one of {', '.join(_BC_PRESETS)}, got {raw['bc']!r}")
        self.bc_name = raw["bc"]

        self.hash = self._config_hash()

    def _int(self, key: str, required: bool, minimum: int):
        raw = self.raw.get(key)
        if raw is None:
            if required:
                raise ConfigurationError(f"missing required setting {key!r}")
            return None
        try:
            val = int(str(raw).strip())
        except ValueError:
            raise ConfigurationError(f"{key} must be an integer, got {raw!r}")
        if val < minimum:
            raise ConfigurationError(f"{key} must be >= {minimum}, got {val}")
        return val

    def _float(self, key: str) -> float:
        try:
            val = float(self.raw[key])
        except ValueError:
            raise ConfigurationError(f"{key} must be a number, got {self.raw[key]!r}")
        if not np.isfinite(val):
            raise ConfigurationError(f"{key} must be finite, got {self.raw[key]!r}")
        return val

    @staticmethod
    def _field_spec(raw):
        if raw is None or raw == "":
            return None
        parts = str(raw).split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"field spec must be kind:seed:contrast, got {raw!r}")
        kind, seed_s, contrast_s = parts
        if kind not in SYNTHETIC_KINDS:
            raise ConfigurationError(f"field kind must be one of {', '.join(SYNTHETIC_KINDS)}, got {kind!r}")
        try:
            seed = int(seed_s)
            contrast = float(contrast_s)
        except ValueError:
            raise ConfigurationError(f"field spec must be kind:seed:contrast, got {raw!r}")
        if seed < 0:
            raise ConfigurationError("field seed must be >= 0")
        if contrast < 1:
            raise ConfigurationError(f"field contrast must be >= 1, got {contrast}")
        return kind, seed, contrast

    def _config_hash(self) -> str:
        """SHA-256 over the canonicalized numerics-affecting settings (every
        setting that can change the numbers; the output directory cannot)."""
        parts = [f"command={self.command}"]
        canon = {
            "nx": self.nx, "ny": self.ny,
            "coarse_nx": self.coarse_nx, "coarse_ny": self.coarse_ny,
            "domain": ",".join(_g(v) for v in self.domain),
            "perm": self.perm or "",
            "log10": str(self.log10).lower(),
            "field": "" if self.field_spec is None else
                     f"{self.field_spec[0]}:{self.field_spec[1]}:{_g(self.field_spec[2])}",
            "beta0": ",".join(_g(b) for b in self.beta0),
            "scheme": ",".join(self.schemes),
            "dof_per_t": ",".join(str(m) for m in self.dof_per_t),
            "theta": _g(self.theta), "xi": _g(self.xi),
            "variant": self.variant_name, "mode": self.mode,
            "sweeps": str(self.sweeps), "tol": _g(self.tol),
            "max_iter": str(self.max_iter), "oversample": str(self.oversample),
            "bc": self.bc_name,
        }
        parts += [f"{k}={'' if v is None else v}" for k, v in canon.items()]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    # -- derived objects -------------------------------------------------

    def solver_config(self, scheme: str) -> NonlinearConfig:
        return NonlinearConfig(scheme=scheme, tol_nl=self.tol, max_iter=self.max_iter)

    def permeability(self) -> ScalarCellField:
        if self.perm:
            return load_raster(self.perm, self.nx, self.ny, log10=self.log10, positive=True)
        kind, seed, contrast = self.field_spec
        return gen_synthetic(kind, seed, contrast, self.nx, self.ny)

    def boundary(self, fine):
        """(BoundarySpec, source per cell) for the configured preset."""
        if self.bc_name == "preset:left-right":
            return left_right_spec(fine, 1.0, 0.0), np.zeros(fine.n_cells)
        return five_spot(fine)


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
    combos = [(b0, s) for b0 in rc.beta0 for s in rc.schemes]
    comments = [f"config-hash {rc.hash}"]
    iter_rows = []
    for b0, scheme in combos:
        beta = forchheimer_coeff(kappa, b0)
        sol = nonlinear_solve(fine, kappa, beta, bc, f_cells, rc.solver_config(scheme))
        _require_converged(sol, f"fine solve (beta0={b0:g}, scheme={scheme})")
        iter_rows.append(f"{_g(b0)},{scheme},{sol.iterations}")
        sfx = "" if len(combos) == 1 else f"_b{b0:g}_{scheme}"
        xs, ys = fine.cell_centers[:, 0], fine.cell_centers[:, 1]
        _write_csv(
            rc.out / f"fine_solution{sfx}.csv", comments, "cell,x,y,p",
            [f"{i},{_g(x)},{_g(y)},{_g(p)}"
             for i, (x, y, p) in enumerate(zip(xs, ys, sol.pressure))],
        )
        _write_csv(
            rc.out / f"fine_velocity{sfx}.csv", comments, "dof,value",
            [f"{i},{_g(v)}" for i, v in enumerate(sol.velocity)],
        )
        _save_pressure_raster(rc, sol.pressure, f"pressure{sfx}.txt")
    _write_csv(rc.out / "iterations.csv", comments, "beta0,scheme,iterations", iter_rows)
    return 0


def cmd_offline(rc: RunConfig) -> int:
    fine = build_fine_grid(rc.nx, rc.ny, rc.domain)
    coarse = build_coarse_grid(fine, rc.coarse_nx, rc.coarse_ny)
    kappa = rc.permeability()
    bc, f_cells = rc.boundary(fine)
    cfg = rc.solver_config(rc.schemes[0])
    spaces, _ = build_offline_space(
        fine, coarse, kappa, max(rc.dof_per_t), oversample_layers=rc.oversample
    )
    maps = {m: assemble_reduction(fine, spaces, m) for m in rc.dof_per_t}
    for m, rmap in maps.items():
        save_triplets(rmap, rc.out / f"rmap_dof{m}.txt")

    rows = []
    for b0 in rc.beta0:
        beta = forchheimer_coeff(kappa, b0)
        ref = nonlinear_solve(fine, kappa, beta, bc, f_cells, cfg)
        _require_converged(ref, f"fine reference (beta0={b0:g})")
        for m in rc.dof_per_t:
            rmap = maps[m]
            off = solve_offline(fine, kappa, beta, bc, f_cells, rmap, cfg)
            _require_converged(off, f"offline solve (beta0={b0:g}, dof_per_T={m})")
            erp_o, eru_o = error_metrics(fine, off, ref)
            if b0 == 0:
                rows.append(f"{_g(b0)},{m},{_g(erp_o)},{_g(eru_o)},,,,,")
                continue
            residuals = conservation_residuals(fine, coarse, off.velocity, f_cells)
            selected = select_by_fraction(residuals, rc.theta)
            rmap_hat, _ = update_offline(
                fine, coarse, rmap, spaces, off.velocity, selected, kappa, beta
            )
            hat = solve_offline(fine, kappa, beta, bc, f_cells, rmap_hat, cfg)
            _require_converged(hat, f"updated offline solve (beta0={b0:g}, dof_per_T={m})")
            erp_h, eru_h = error_metrics(fine, hat, ref)
            rmap_til, _ = update_offline(
                fine, coarse, rmap, spaces, off.velocity,
                np.arange(coarse.n_elements), kappa, beta,
            )
            til = solve_offline(fine, kappa, beta, bc, f_cells, rmap_til, cfg)
            _require_converged(til, f"fully updated offline solve (beta0={b0:g}, dof_per_T={m})")
            erp_t, eru_t = error_metrics(fine, til, ref)
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
    cfg = rc.solver_config(rc.schemes[0])
    spaces, _ = build_offline_space(
        fine, coarse, kappa, max(rc.dof_per_t), oversample_layers=rc.oversample
    )
    for b0 in rc.beta0:
        beta = forchheimer_coeff(kappa, b0)
        ref = nonlinear_solve(fine, kappa, beta, bc, f_cells, cfg)
        _require_converged(ref, f"fine reference (beta0={b0:g})")
        for m in rc.dof_per_t:
            rmap = assemble_reduction(fine, spaces, m)
            off = solve_offline(fine, kappa, beta, bc, f_cells, rmap, cfg)
            _require_converged(off, f"offline solve (beta0={b0:g}, dof_per_T={m})")
            state = init_enrichment(
                fine, coarse, kappa, beta, bc, f_cells, rmap, cfg, ref, off,
                variant=rc.variant,
            )
            if rc.mode == "uniform":
                enrich_uniform(state, rc.sweeps)
            else:
                enrich_adaptive(state, rc.xi, rc.sweeps)
            comments = [f"config-hash {rc.hash}"]
            if rc.variant == "fixed_offline":
                plateau = detect_plateau(sweep_final_errors(state))
                comments.append(
                    f"plateau=true sweep={plateau}" if plateau else "plateau=false"
                )
            sfx = f"_b{b0:g}_m{m}_{rc.mode}_{rc.variant_name}"
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
    kind, seed, contrast = rc.field_spec
    field = gen_synthetic(kind, seed, contrast, rc.nx, rc.ny)
    name = f"field_{kind}_s{seed}_c{contrast:g}_{rc.nx}x{rc.ny}.txt"
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
    common.add_argument("--nx", type=int, help="fine cells in x")
    common.add_argument("--ny", type=int, help="fine cells in y")
    common.add_argument("--coarse-nx", type=int, help="coarse elements in x")
    common.add_argument("--coarse-ny", type=int, help="coarse elements in y")
    common.add_argument("--domain", metavar="X0,X1,Y0,Y1", help="rectangle bounds (default unit square)")
    common.add_argument("--perm", metavar="PATH", help="permeability raster file")
    common.add_argument("--log10", action="store_true", default=None,
                        help="raster stores log10 of the permeability")
    common.add_argument("--field", metavar="KIND:SEED:CONTRAST",
                        help=f"synthetic generator spec; kinds: {', '.join(SYNTHETIC_KINDS)}")
    common.add_argument("--beta0", metavar="LIST", help="comma-separated Forchheimer strengths")
    common.add_argument("--scheme", metavar="NAME", help="picard or newton (fine accepts a comma list)")
    common.add_argument("--dof-per-t", metavar="LIST", help="offline basis counts per coarse element")
    common.add_argument("--theta", type=float, help="offline update residual fraction in (0,1]")
    common.add_argument("--xi", type=float, help="adaptive enrichment residual fraction in (0,1)")
    common.add_argument("--variant", choices=sorted(_VARIANT_NAMES),
                        help="online linearization coefficient")
    common.add_argument("--mode", choices=_MODES, help="enrichment schedule")
    common.add_argument("--sweeps", type=int, help="full four-color enrichment sweeps")
    common.add_argument("--bc", metavar="PRESET", help=" or ".join(_BC_PRESETS))
    common.add_argument("--tol", type=float, help="nonlinear stopping tolerance")
    common.add_argument("--max-iter", type=int, help="nonlinear iteration cap")
    common.add_argument("--oversample", type=int, help="snapshot oversampling layers")

    parser = _Parser(prog="msforch", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub.add_parser("fine", parents=[common], help="fine-grid reference solves")
    sub.add_parser("offline", parents=[common], help="offline/updated-offline error study")
    sub.add_parser("online", parents=[common], help="online enrichment runs")
    sub.add_parser("gen-field", parents=[common], help="write a synthetic permeability raster")
    return parser


def _merge_settings(args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS)
    if args.config:
        merged.update(_read_config_file(args.config))
    # Every flag not given on the command line is None (--log10 included).
    merged.update({k: str(v) for k, v in vars(args).items()
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
