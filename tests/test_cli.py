"""Batch CLI: artifacts, schemas, exit codes, determinism, config handling."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import msforch.solve
from msforch.cli import main
from msforch.fields import ScalarCellField, gen_synthetic, load_raster, save_raster
from msforch.offline import load_triplets

FIELD = "blobs:4:100"


def _lines(path):
    return path.read_text().splitlines()


def _data_rows(path):
    body = [ln for ln in _lines(path) if ln and not ln.startswith("#")]
    return body[1:]  # first non-comment line is the column header


def _hash_comment(path):
    first = _lines(path)[0]
    assert first.startswith("# config-hash ")
    digest = first.split()[-1]
    assert len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)
    return digest


def test_gen_field_roundtrip(tmp_path, capsys):
    rc = main(["gen-field", "--nx", "12", "--ny", "7", "--field", "blobs:5:1000",
               "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "field_blobs_s5_c1000_12x7.txt"
    assert path.exists()
    assert str(path) in capsys.readouterr().out
    loaded = load_raster(path, 12, 7)
    want = gen_synthetic("blobs", 5, 1000.0, 12, 7)
    assert np.allclose(loaded.values, want.values, rtol=1e-15)
    _hash_comment(path)
    first = path.read_bytes()
    assert main(["gen-field", "--nx", "12", "--ny", "7", "--field", "blobs:5:1000",
                 "--out", str(tmp_path)]) == 0
    assert path.read_bytes() == first


def test_close_contrasts_get_their_own_field_files(tmp_path):
    """gen-field names carry the contrast with 12 digits, so two contrasts
    that agree to 6 digits do not write to one name."""
    for contrast in ("1000000", "1000001"):
        assert main(["gen-field", "--nx", "4", "--ny", "3", "--field", f"blobs:5:{contrast}",
                     "--out", str(tmp_path)]) == 0
    for contrast in (1000000.0, 1000001.0):
        loaded = load_raster(tmp_path / f"field_blobs_s5_c{contrast:.0f}_4x3.txt", 4, 3)
        assert np.allclose(loaded.values, gen_synthetic("blobs", 5, contrast, 4, 3).values,
                           rtol=1e-15)
    assert len(list(tmp_path.iterdir())) == 2


def test_fine_single_combo(tmp_path):
    rc = main(["fine", "--nx", "12", "--ny", "12", "--field", FIELD,
               "--out", str(tmp_path)])
    assert rc == 0
    sol = tmp_path / "fine_solution.csv"
    vel = tmp_path / "fine_velocity.csv"
    its = tmp_path / "iterations.csv"
    raster = tmp_path / "pressure.txt"
    for p in (sol, vel, its, raster):
        assert p.exists(), p.name
    assert _lines(sol)[1] == "cell,x,y,p"
    assert len(_data_rows(sol)) == 144
    assert _lines(vel)[1] == "dof,value"
    assert len(_data_rows(vel)) == 2 * (13 * 12 + 12 * 13)
    rows = _data_rows(its)
    assert len(rows) == 1
    b0, scheme, iters = rows[0].split(",")
    assert (b0, scheme) == ("100", "newton")
    assert int(iters) >= 1
    assert load_raster(raster, 12, 12).values.shape == (144,)
    assert _hash_comment(sol) == _hash_comment(its) == _hash_comment(vel)


def test_fine_sweep_gets_suffixed_files(tmp_path):
    rc = main(["fine", "--nx", "8", "--ny", "8", "--field", FIELD,
               "--beta0", "0,100", "--scheme", "picard,newton",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = _data_rows(tmp_path / "iterations.csv")
    assert len(rows) == 4
    table = {tuple(r.split(",")[:2]): int(r.split(",")[2]) for r in rows}
    # the Darcy limit converges in a single step under either scheme
    assert table[("0", "picard")] == 1
    assert table[("0", "newton")] == 1
    assert table[("100", "newton")] <= table[("100", "picard")]
    for b0 in ("0", "100"):
        for scheme in ("picard", "newton"):
            assert (tmp_path / f"fine_solution_b{b0}_{scheme}.csv").exists()
            assert (tmp_path / f"pressure_b{b0}_{scheme}.txt").exists()
    assert not (tmp_path / "fine_solution.csv").exists()


def test_close_beta0_values_get_their_own_files(tmp_path):
    """File names carry beta0 with the 12 digits of the CSV cells, so two
    values that agree to 6 digits do not write to one name."""
    assert main(["fine", "--nx", "8", "--ny", "8", "--field", FIELD,
                 "--beta0", "100,100.00001", "--out", str(tmp_path)]) == 0
    rows = _data_rows(tmp_path / "iterations.csv")
    assert [r.split(",")[0] for r in rows] == ["100", "100.00001"]
    for b0 in ("100", "100.00001"):
        for name in (f"fine_solution_b{b0}_newton.csv", f"fine_velocity_b{b0}_newton.csv",
                     f"pressure_b{b0}_newton.txt"):
            assert (tmp_path / name).exists(), name
    assert len(list(tmp_path.iterdir())) == 7


@pytest.mark.parametrize("argv", [
    ["fine", "--beta0", "100,100.0"],
    ["fine", "--scheme", "newton,picard,Newton"],
    ["online", "--coarse-nx", "2", "--coarse-ny", "2", "--dof-per-t", "2,2"],
])
def test_repeated_sweep_value_exits_2(tmp_path, capsys, argv):
    """A beta0, scheme or dof_per_t list that repeats a value would write two
    runs to one file name: an input error, reported before any output."""
    out = tmp_path / "out"
    assert main(argv[:1] + ["--nx", "8", "--ny", "8", "--field", FIELD,
                            "--out", str(out)] + argv[1:]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("msforch: error:") and "repeats" in err[0]
    assert not out.exists()


def test_fine_five_spot_preset(tmp_path):
    rc = main(["fine", "--nx", "8", "--ny", "8", "--field", FIELD,
               "--bc", "preset:five-spot", "--beta0", "10",
               "--out", str(tmp_path)])
    assert rc == 0
    assert len(_data_rows(tmp_path / "fine_solution.csv")) == 64


def test_exit_2_missing_perm_file(tmp_path, capsys):
    rc = main(["fine", "--nx", "8", "--ny", "8",
               "--perm", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nope.txt" in err
    assert len(err.strip().splitlines()) == 1


def test_exit_2_collapsed_cells(tmp_path, capsys):
    """Far from the origin the grid's vertices can collapse onto each other:
    a configuration error, not a failed solve."""
    rc = main(["fine", "--nx", "4", "--ny", "1", "--domain", "1e16,10000000000000002,0,1",
               "--field", "blobs:2:10", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("msforch: error:")
    assert "width or height" in err[0]


@pytest.mark.parametrize("domain", [
    pytest.param("0,1e-200,0,1e-200", id="1e-200"),
    pytest.param("0,1e200,0,1e200", id="1e200"),
    pytest.param("0,1e-153,0,1e-153", id="1e-153"),
    pytest.param("0,1e160,0,1e-150", id="1e160x1e-150"),
    pytest.param("0,1e-150,0,1e160", id="1e-150x1e160"),
])
def test_exit_2_cell_areas_out_of_range(tmp_path, capsys, domain):
    """A box whose cell areas underflow to 0 or overflow, whose corner
    weights are subnormal or whose squared edge lengths overflow is a
    configuration error, reported on one line and without a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["fine", "--nx", "4", "--ny", "4", "--field", "blobs:1:10",
                   "--domain", domain, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("msforch: error:") and "area" in err[0]


def test_exit_2_config_errors(tmp_path, capsys):
    base = ["--field", FIELD, "--out", str(tmp_path)]
    # coarse grid must divide the fine grid
    assert main(["offline", "--nx", "10", "--ny", "10", "--coarse-nx", "3",
                 "--coarse-ny", "2"] + base) == 2
    # malformed field spec
    assert main(["fine", "--nx", "8", "--ny", "8", "--field", "perlin:1:10",
                 "--out", str(tmp_path)]) == 2
    assert main(["fine", "--nx", "8", "--ny", "8", "--field", "blobs:1",
                 "--out", str(tmp_path)]) == 2
    # xi outside (0, 1)
    assert main(["online", "--nx", "8", "--ny", "8", "--coarse-nx", "2",
                 "--coarse-ny", "2", "--mode", "adaptive", "--xi", "1.5"]
                + base) == 2
    # both or neither permeability source
    assert main(["fine", "--nx", "8", "--ny", "8", "--perm", "x.txt"] + base) == 2
    assert main(["fine", "--nx", "8", "--ny", "8", "--out", str(tmp_path)]) == 2
    # unknown bc preset
    assert main(["fine", "--nx", "8", "--ny", "8", "--bc", "preset:wells"] + base) == 2
    for line in capsys.readouterr().err.strip().splitlines():
        assert line.startswith("msforch: error:")
    # non-finite numbers, each reported by one error line
    # and malformed flag values
    for flags in (["--tol", "nan"], ["--domain", "0,inf,0,1"], ["--dof-per-t", "inf"],
                  ["--beta0", "nan"], ["--theta", "inf"], ["--sweeps", "2.5"],
                  ["--variant", "frozen"]):
        assert main(["fine", "--nx", "8", "--ny", "8"] + flags + base) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("msforch: error:")


def test_exit_1_nonconvergence(tmp_path, capsys):
    rc = main(["fine", "--nx", "8", "--ny", "8", "--field", FIELD,
               "--beta0", "10000", "--scheme", "picard", "--max-iter", "3",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "did not converge within 3 iterations" in err
    found = re.search(r"\(last increment (\S+), momentum residual (\S+)\)", err)
    increment, residual = map(float, found.groups())
    assert increment > 1e-8 and 0.0 < residual < np.inf


def test_offline_table_schema(tmp_path):
    rc = main(["offline", "--nx", "16", "--ny", "16", "--coarse-nx", "4",
               "--coarse-ny", "4", "--field", FIELD, "--beta0", "0,100",
               "--dof-per-t", "2,3", "--theta", "0.75", "--out", str(tmp_path)])
    assert rc == 0
    table = tmp_path / "offline_errors.csv"
    lines = _lines(table)
    assert lines[1] == "# theta=0.75"
    assert lines[2] == "beta0,dof_per_T,Erp_off,Eru_off,Erp_hat,Eru_hat,N_update,Erp_tilde,Eru_tilde"
    rows = _data_rows(table)
    assert len(rows) == 4
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 9
        if fields[0] == "0":
            assert fields[4:] == ["", "", "", "", ""]
        else:
            n_upd = int(fields[6])
            assert 1 <= n_upd <= 16
            for col in (4, 5, 7, 8):
                assert float(fields[col]) > 0.0
    for m in (2, 3):
        R = load_triplets(tmp_path / f"rmap_dof{m}.txt")
        assert R.shape == (256, 16 * m)


def test_online_history_schema(tmp_path):
    base = ["online", "--nx", "12", "--ny", "12", "--coarse-nx", "3",
            "--coarse-ny", "3", "--field", FIELD, "--beta0", "100",
            "--dof-per-t", "2", "--out", str(tmp_path)]
    assert main(base + ["--sweeps", "1"]) == 0
    hist = tmp_path / "history_b100_m2_uniform_updating.csv"
    assert hist.exists()
    lines = _lines(hist)
    assert lines[1] == "level,subiter,dim_Wms,n_added,Erp,Eru,total_residual"
    assert not any("plateau" in ln for ln in lines)
    rows = [r.split(",") for r in _data_rows(hist)]
    assert len(rows) == 4
    assert [r[0] for r in rows] == ["1"] * 4
    assert [r[1] for r in rows] == ["1", "2", "3", "4"]
    dims = [int(r[2]) for r in rows]
    added = [int(r[3]) for r in rows]
    for k in range(1, 4):
        assert dims[k] == dims[k - 1] + added[k]
    assert (tmp_path / "pressure_b100_m2_uniform_updating.txt").exists()

    assert main(base + ["--sweeps", "4", "--variant", "fixed"]) == 0
    fixed = tmp_path / "history_b100_m2_uniform_fixed.csv"
    assert fixed.exists()
    plateau_lines = [ln for ln in _lines(fixed) if ln.startswith("# plateau")]
    assert len(plateau_lines) == 1
    assert plateau_lines[0].startswith(("# plateau=true sweep=", "# plateau=false"))


def test_adaptive_mode_names_files(tmp_path):
    rc = main(["online", "--nx", "12", "--ny", "12", "--coarse-nx", "3",
               "--coarse-ny", "3", "--field", FIELD, "--beta0", "100",
               "--dof-per-t", "2", "--mode", "adaptive", "--xi", "0.6",
               "--sweeps", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "history_b100_m2_adaptive_updating.csv").exists()


def test_byte_identical_across_out_dirs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["fine", "--nx", "10", "--ny", "10", "--field", FIELD,
            "--beta0", "0,100"]
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    for name in ("iterations.csv", "fine_solution_b100_newton.csv",
                 "pressure_b0_newton.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "nx = 8\nny = 8\nfield = blobs:4:100\nbeta0 = 1, 10\nscheme = newton\n"
    )
    rc = main(["fine", "--config", str(cfg), "--beta0", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = _data_rows(tmp_path / "iterations.csv")
    assert len(rows) == 1
    assert rows[0].split(",")[0] == "5"


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("nx = 8\nny = 8\nfield = blobs:4:100\nbetaO = 5\nshceme = picard\n")
    assert main(["fine", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("msforch: error:")
    assert f"{cfg}:4:" in err[0] and "'betaO'" in err[0]
    assert not (tmp_path / "iterations.csv").exists()


# Digests written by the tree before the settings table was introduced; the
# hash must not move when the CLI code does.
GOLDEN_HASHES = [
    pytest.param(
        ["fine", "--nx", "8", "--ny", "8", "--field", FIELD],
        "938cf8e1911d909d36a2e94cee551bad2beed9fc9264bce23ab05ffce5b7d448", id="defaults"),
    pytest.param(
        ["fine", "--nx", "8", "--ny", "8", "--perm", "k.txt", "--log10", "--beta0", "10",
         "--tol", "1e-10", "--max-iter", "200"],
        "84feea0db0892f6a6364865bb7ab4e03b565e690c74e3c7facdcaf8e8755f7a9", id="perm-log10"),
    pytest.param(
        ["fine", "--config", "run.cfg", "--beta0", "5"],
        "dec02140853dbe0ac312257dc8631569e90fbf8d5758193ec99dd1f877b0f206", id="config-override"),
    pytest.param(
        ["fine", "--nx", "8", "--ny", "8", "--field", "layered:1:10",
         "--scheme", " Newton , picard", "--beta0", "0, 10", "--domain", "0,2,0,1",
         "--bc", "preset:five-spot"],
        "b60ad23c4870466b53a3e9cc22303b2a3b9ffc15c16169effbca308a64274ac1", id="scheme-list"),
    pytest.param(
        ["offline", "--nx", "8", "--ny", "8", "--coarse-nx", "2", "--coarse-ny", "2",
         "--field", "channel:7:1000", "--oversample", "1", "--dof-per-t", "2,3",
         "--theta", "0.5", "--beta0", "0,10"],
        "a7a3ef3bcb9a889341d868ae4025bb1b60ddda1d31fa59951525bd38239e7a62", id="offline-oversample"),
    pytest.param(
        ["online", "--nx", "8", "--ny", "8", "--coarse-nx", "2", "--coarse-ny", "2",
         "--field", FIELD, "--variant", "fixed", "--mode", "adaptive", "--xi", "0.5",
         "--sweeps", "1", "--dof-per-t", "2"],
        "4f20f0b5a9a2c77121b94f632d127c33902500c3927da164706c5f8702539960", id="online-fixed-adaptive"),
    pytest.param(
        ["gen-field", "--nx", "12", "--ny", "7", "--field", "blobs:5:1000"],
        "b4b6690c0ab304023b07a7aa118e2a94d51c078653d22caa036c8ba77f1dff00", id="gen-field"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_HASHES)
def test_config_hash_is_pinned(tmp_path, monkeypatch, argv, digest):
    # The --perm path is part of the hash, so the run uses a relative one.
    monkeypatch.chdir(tmp_path)
    kappa = gen_synthetic("blobs", 3, 100.0, 8, 8)
    save_raster(ScalarCellField(8, 8, np.log10(kappa.values)), tmp_path / "k.txt")
    (tmp_path / "run.cfg").write_text(
        "nx = 8\nny = 8\nfield = blobs:4:100\nbeta0 = 1, 10\nscheme = newton\n"
    )
    assert main(argv + ["--out", "out"]) == 0
    stamps = {_lines(p)[0] for p in (tmp_path / "out").iterdir()}
    assert stamps == {f"# config-hash {digest}"}


def test_help_lists_every_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fine", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for name in ("config", "out", "nx", "ny", "coarse-nx", "coarse-ny", "domain", "perm",
                 "log10", "field", "beta0", "scheme", "dof-per-t", "theta", "xi", "variant",
                 "mode", "sweeps", "tol", "max-iter", "oversample", "bc"):
        assert f"--{name} " in out or f"--{name}\n" in out, name


def _checkout_env():
    """Environment whose subprocesses import this checkout's package,
    installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entrypoint(tmp_path):
    env = _checkout_env()
    proc = subprocess.run(
        [sys.executable, "-m", "msforch.cli", "gen-field", "--nx", "6",
         "--ny", "6", "--field", "layered:1:10", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "field_layered_s1_c10_6x6.txt").exists()
    bad = subprocess.run(
        [sys.executable, "-m", "msforch.cli", "resolve"],
        capture_output=True, text=True, env=env,
    )
    assert bad.returncode == 2
    assert len(bad.stderr.strip().splitlines()) == 1


def test_digit_report_of_two_output_directories(tmp_path):
    """scripts/cli_digits.py reports an identical file, a changed cell
    relative to its file's largest value, and a file on one side only."""
    old, new = tmp_path / "old", tmp_path / "new"
    for root, cell in ((old, "0.25"), (new, "0.5")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.txt").write_text("# rows cols nnz\n2 1 1\n1 0 -0.75\n")
        (root / "run" / "errors.csv").write_text(f"# theta=0.75\nm,Erp\n2,{cell}\n")
    (new / "extra.txt").write_text("1\n")
    script = Path(__file__).resolve().parents[1] / "scripts" / "cli_digits.py"
    proc = subprocess.run([sys.executable, str(script), str(old), str(new)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "extra.txt: only in NEW",
        "run/errors.csv: largest change 1.250e-01 of max |value| 2 (line 3 field 2: 0.25 -> 0.5)",
        "run/same.txt: identical",
    ]


def test_import_loads_no_scipy_ndimage():
    """The package needs numpy and scipy's sparse and linalg modules only; a
    fresh interpreter shows it, since tests may import scipy.ndimage."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, msforch, msforch.cli; print('scipy.ndimage' in sys.modules)"],
        capture_output=True, text=True, env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["fine", "--beta0", "0,100"],   # two (beta0, scheme) pairs
    ["offline", "--coarse-nx", "2", "--coarse-ny", "2", "--dof-per-t", "2", "--beta0", "0,100"],
    ["online", "--coarse-nx", "2", "--coarse-ny", "2", "--dof-per-t", "2", "--sweeps", "1"],
])
def test_one_fine_operator_per_run(tmp_path, monkeypatch, argv):
    """Every fine solve of a run (reference, offline, updated, enrichment)
    shares one prepared operator of the fine grid."""
    built = []
    init = msforch.solve.PreparedOperator.__init__

    def counting(self, grid, *args, **kwargs):
        built.append(grid.n_cells)
        init(self, grid, *args, **kwargs)

    monkeypatch.setattr(msforch.solve.PreparedOperator, "__init__", counting)
    assert main(argv[:1] + ["--nx", "16", "--ny", "16", "--field", FIELD,
                            "--out", str(tmp_path)] + argv[1:]) == 0
    assert built.count(16 * 16) == 1
