"""Cellwise material fields: permeability rasters and synthetic generators.

The synthetic generators smooth white noise with :func:`_smooth_periodic`, a
periodic separable Gaussian equal bit for bit to scipy's wrap-mode
``gaussian_filter``, so the package imports no scipy image filters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYNTHETIC_KINDS = ("layered", "channel", "blobs")


@dataclass
class ScalarCellField:
    """One scalar value per fine cell, row-major with the bottom row first."""

    nx: int
    ny: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.nx * self.ny,):
            raise ValueError(
                f"field needs {self.nx * self.ny} values for a "
                f"{self.nx}x{self.ny} grid, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        self.values = values

    def require_positive(self, name: str = "field") -> "ScalarCellField":
        if np.any(self.values <= 0):
            raise ValueError(f"{name} must be strictly positive everywhere")
        return self

    def as_array2d(self) -> np.ndarray:
        """Values reshaped to (ny, nx), bottom row first."""
        return self.values.reshape(self.ny, self.nx)


def load_raster(path, nx: int, ny: int, log10: bool = False,
                positive: bool = False) -> ScalarCellField:
    """Read a whitespace-separated raster with '#' comments.

    Values are row-major with the bottom row first.  With ``log10`` the file
    holds log10 of the field and is exponentiated on load.
    """
    numbers = []
    with open(path) as fh:
        for line in fh:
            body = line.split("#", 1)[0]
            numbers.extend(float(tok) for tok in body.split())
    if len(numbers) != nx * ny:
        raise ValueError(
            f"raster {path} holds {len(numbers)} values, expected {nx * ny} "
            f"for a {nx}x{ny} grid"
        )
    values = np.array(numbers)
    if log10:
        values = 10.0 ** values
    field = ScalarCellField(nx, ny, values)
    if positive:
        field.require_positive(str(path))
    return field


def save_raster(field: ScalarCellField, path, comment: str | None = None) -> None:
    """Write a field in the raster format read by :func:`load_raster`."""
    head = f"# {comment}\n" if comment else ""
    head += f"# {field.nx} x {field.ny}, row-major, bottom row first\n"
    row = " ".join(["%.17g"] * field.nx) + "\n"
    with open(path, "w") as fh:
        fh.write(head + "".join(row % tuple(r) for r in field.as_array2d().tolist()))


def _smooth_periodic(a: np.ndarray, sigma) -> np.ndarray:
    """Periodic Gaussian smoothing with per-axis widths ``sigma``.

    Equals scipy's ``gaussian_filter(a, sigma, mode="wrap")`` (truncate 4)
    bit for bit: axis 0 first, scipy's normalized weights, and its
    symmetric accumulation ``x[i] w0 + sum_{j=r..1} (x[i-j] + x[i+j]) wj``.
    """
    for axis, s in enumerate(sigma):
        r = int(4.0 * s + 0.5)
        w = np.exp(-0.5 / (s * s) * np.arange(-r, r + 1) ** 2)
        w = w / w.sum()
        x = np.moveaxis(a, axis, 0)
        n = x.shape[0]
        x = np.pad(x, [(r, r), (0, 0)], mode="wrap")
        out = x[r:r + n] * w[r]
        tmp = np.empty_like(out)
        for j in range(r, 0, -1):
            np.add(x[r - j:r - j + n], x[r + j:r + j + n], out=tmp)
            tmp *= w[r + j]
            out += tmp
        a = np.moveaxis(out, 0, axis)
    return a


def _correlated_unit(rng: np.random.Generator, nx: int, ny: int,
                     sx: float, sy: float) -> np.ndarray:
    """Spatially correlated noise with exactly uniform marginals on [0, 1].

    Gaussian white noise is smoothed periodically by :func:`_smooth_periodic`
    (bitwise ``gaussian_filter(mode="wrap")``) with correlation lengths
    (sx, sy) in cell units, then rank-transformed so the values are an even
    spread over [0, 1] while keeping the smooth spatial structure.
    """
    noise = _smooth_periodic(rng.standard_normal((ny, nx)),
                             (max(sy, 0.5), max(sx, 0.5)))
    flat = noise.ravel()
    ranks = np.empty(flat.size)
    ranks[np.argsort(flat, kind="stable")] = np.arange(flat.size)
    return (ranks / max(flat.size - 1, 1)).reshape(ny, nx)


def gen_synthetic(kind: str, seed: int, contrast: float, nx: int, ny: int) -> ScalarCellField:
    """Deterministic synthetic permeability with max/min ratio ``contrast``.

    All kinds share the same construction: a normalized log-field z in [0, 1]
    with kappa = contrast**z, so the field spans [1, contrast] exactly and
    ``contrast == 1`` yields a constant field.  The background is a smooth
    correlated field whose log is uniformly distributed over the lower part
    of the range; "layered" and "channel" overlay smooth high-permeability
    streaks (straight strata and winding channels) that carry the top of the
    range.  The streaks have a few-cell Gaussian cross-section rather than
    single-cell jumps so coarse spaces resolve them the way they resolve
    natural strata.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic field kind {kind!r}, choose from {SYNTHETIC_KINDS}")
    if contrast < 1:
        raise ValueError("contrast must be >= 1")
    rng = np.random.default_rng([SYNTHETIC_KINDS.index(kind), seed])
    iy, ix = np.mgrid[0:ny, 0:nx]
    yc = iy + 0.5

    if kind == "layered":
        # Long horizontal correlation plus a few straight high-kappa strata.
        z = 0.55 * _correlated_unit(rng, nx, ny, 0.10 * nx, 0.025 * ny)
        rows = (0.12 + 0.76 * rng.random(3)) * ny
        amps = 0.85 + 0.15 * rng.random(3)
        width = max(0.035 * ny, 1.2)
        for y0, a in zip(rows, amps):
            z = np.maximum(z, a * np.exp(-((yc - y0) ** 2) / (2.0 * width**2)))
    elif kind == "channel":
        # Isotropic background crossed by winding high-kappa channels.
        z = 0.5 * _correlated_unit(rng, nx, ny, 0.06 * nx, 0.06 * ny)
        for a in (1.0, 0.9):
            y0 = (0.3 + 0.4 * rng.random()) * ny
            amp = (0.08 + 0.10 * rng.random()) * ny
            phase = rng.uniform(0.0, 2.0 * np.pi)
            path = y0 + amp * np.sin(2.0 * np.pi * ix / max(nx, 1) + phase)
            width = max(0.05 * ny, 1.5)
            z = np.maximum(z, a * np.exp(-((yc - path) ** 2) / (2.0 * width**2)))
    else:  # blobs
        z = _correlated_unit(rng, nx, ny, 0.06 * nx, 0.06 * ny)

    span = np.ptp(z)
    z = (z - z.min()) / span if span > 0 else np.zeros_like(z)
    return ScalarCellField(nx, ny, (contrast**z).ravel())


def forchheimer_coeff(kappa: ScalarCellField, beta0: float) -> ScalarCellField:
    """Inertial coefficient field beta = beta0 / kappa."""
    if beta0 < 0:
        raise ValueError("beta0 must be non-negative")
    kappa.require_positive("permeability")
    return ScalarCellField(kappa.nx, kappa.ny, beta0 / kappa.values)
