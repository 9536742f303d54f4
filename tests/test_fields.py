"""Permeability raster I/O and the synthetic field generators."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from msforch.fields import (
    SYNTHETIC_KINDS,
    ScalarCellField,
    _smooth_periodic,
    forchheimer_coeff,
    gen_synthetic,
    load_raster,
    save_raster,
)


def test_field_length_validation():
    with pytest.raises(ValueError):
        ScalarCellField(2, 2, np.ones(3))
    with pytest.raises(ValueError):
        ScalarCellField(2, 2, np.array([1.0, 1.0, np.nan, 1.0]))


def test_require_positive():
    f = ScalarCellField(2, 1, np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        f.require_positive("perm")
    ScalarCellField(2, 1, np.array([1.0, 2.0])).require_positive()


def test_load_raster_constant(tmp_path):
    p = tmp_path / "k.txt"
    p.write_text("1 1\n1 1\n")
    f = load_raster(p, 2, 2)
    assert np.array_equal(f.values, np.ones(4))


def test_load_raster_count_mismatch(tmp_path):
    p = tmp_path / "k.txt"
    p.write_text("1 2 3\n")
    with pytest.raises(ValueError, match="3.*4|4.*3"):
        load_raster(p, 2, 2)


def test_load_raster_rejects_nonpositive_kappa(tmp_path):
    p = tmp_path / "k.txt"
    p.write_text("1 -1 2 3\n")
    with pytest.raises(ValueError):
        load_raster(p, 2, 2, positive=True)


def test_load_raster_log10(tmp_path):
    p = tmp_path / "k.txt"
    p.write_text("# log-scale raster\n0 1\n2 3\n")
    f = load_raster(p, 2, 2, log10=True)
    assert np.allclose(f.values, [1.0, 10.0, 100.0, 1000.0])


def test_raster_round_trip(tmp_path):
    field = gen_synthetic("blobs", 5, 1e3, 12, 7)
    path = tmp_path / "field.txt"
    save_raster(field, path, comment="round trip")
    back = load_raster(path, 12, 7)
    assert np.array_equal(back.values, field.values)


def test_raster_row_order_bottom_first(tmp_path):
    # y increases with the row index of the file
    p = tmp_path / "k.txt"
    p.write_text("1 2\n3 4\n")
    f = load_raster(p, 2, 2)
    grid = f.as_array2d()
    assert grid[0, 0] == 1.0  # bottom-left
    assert grid[1, 1] == 4.0  # top-right


@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
def test_synthetic_contrast_span(kind):
    f = gen_synthetic(kind, 7, 1e4, 100, 100)
    assert f.values.min() == pytest.approx(1.0)
    assert f.values.max() / f.values.min() == pytest.approx(1e4, rel=0.01)
    assert np.all(f.values > 0)


def test_synthetic_contrast_one_is_constant():
    f = gen_synthetic("channel", 7, 1.0, 40, 40)
    assert np.ptp(f.values) == 0.0
    assert f.values[0] == 1.0


def test_synthetic_determinism():
    a = gen_synthetic("blobs", 3, 100.0, 60, 60)
    b = gen_synthetic("blobs", 3, 100.0, 60, 60)
    assert np.array_equal(a.values, b.values)


def test_synthetic_seeds_and_kinds_differ():
    a = gen_synthetic("blobs", 3, 100.0, 30, 30)
    b = gen_synthetic("blobs", 4, 100.0, 30, 30)
    c = gen_synthetic("layered", 3, 100.0, 30, 30)
    assert not np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@settings(max_examples=60, deadline=None)
@given(
    ny=st.integers(1, 40), nx=st.integers(1, 40),
    sy=st.floats(0.5, 12.0), sx=st.floats(0.5, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_smooth_periodic_is_bitwise_gaussian_filter(ny, nx, sy, sx, seed):
    """The periodic smoother equals scipy's wrap-mode Gaussian bit for bit,
    also where the radius int(4 sigma + 0.5) exceeds the side."""
    a = np.random.default_rng(seed).standard_normal((ny, nx))
    assert np.array_equal(_smooth_periodic(a, (sy, sx)),
                          gaussian_filter(a, (sy, sx), mode="wrap"))


# SHA-256 of gen_synthetic(kind, seed, 100.0, nx, ny).values.tobytes(), taken
# while the generator smoothed with scipy.ndimage.gaussian_filter.
FIELD_DIGESTS = {
    ("layered", 0, 16, 16): "6ed3852b883ae25988f1dc32aa2b5a8946e5022d0bad8b9495fc7882af21cca5",
    ("layered", 0, 160, 60): "171dcaa6ab184863c463491565c2067c408bd36ff5fbe77d440c241b74e74121",
    ("layered", 0, 160, 160): "edfa0c570ad3eafd3ee9ec42a5b8668546771338eddec117568fefb338692865",
    ("layered", 1, 16, 16): "ed48ad62daeb1d4615360d586690a904d80e3e338dce9f08a278d2333db352bd",
    ("layered", 1, 160, 60): "503e1303159ae7e6fadb78d30f7a4560b0f650b2047adcd4413c896d43466b41",
    ("layered", 1, 160, 160): "59b19625fe46fbcbb2d726ee64635c7bd7660ffc26554703b8790b077d261535",
    ("layered", 2, 16, 16): "9a7d72bdb189bf12f5f2b1d882ade42ddd2c4fb596aeec1f555e93fb5102d455",
    ("layered", 2, 160, 60): "4d62a6402e3ad6c5cf51920585d0f7f0cf39e119f10ae4e05644c1eee303af01",
    ("layered", 2, 160, 160): "5a9ae5137214cd9b2559648c5e38142701b438ef2885f5502c9106e3a47a90e0",
    ("channel", 0, 16, 16): "39036b08e2cc7f1269da9bb1edf77c8cac27feb18eb47b324ddf151cf3bd8d82",
    ("channel", 0, 160, 60): "70d01466e74a7c1740c84c07117641623c2d624518ace807f122a25632909850",
    ("channel", 0, 160, 160): "393d5d58b76e095a5291ad57fad45020a039cd10457c3d6004b2f3769cc46acc",
    ("channel", 1, 16, 16): "accc716d35ba1a6b2ebfdcc2f954890352811bb381b8a561234f283f5ea820ff",
    ("channel", 1, 160, 60): "541dcf7095c65882de5d8af05a6ceca563d58fac236273b3960f78e65a79266f",
    ("channel", 1, 160, 160): "76970c191dc8609f3e546de38e45f0884459704e7654c73b5795161caf595289",
    ("channel", 2, 16, 16): "78ce17a1a17e51bfdeaf8c5315f87b5e5e6eb0bc160880d3fc9abd5d95ed6383",
    ("channel", 2, 160, 60): "36842a7cb9704b614167db785d67556e6f50091c0364626053e0a01a3a8d5a38",
    ("channel", 2, 160, 160): "eb3c508fc7b5c3cb267bdfd3d36817e6d434cf6601936080b59b16f5347b9f6d",
    ("blobs", 0, 16, 16): "989ca4c287fef3b13e4484a5f2ad918839574b97bc4e8e0f7e6d302663ec6462",
    ("blobs", 0, 160, 60): "35384faceebd38f96ab5c6d91fc75b0e0f93491321472d20d445c312efba0538",
    ("blobs", 0, 160, 160): "fc420a751f1d0750b85e2bafa159006c7c181375dcf4044628862d7adc4c8e67",
    ("blobs", 1, 16, 16): "08b526e912d6b0f1e9985546f07d2cc275e310400604b3d595a9f1b2e97a76dd",
    ("blobs", 1, 160, 60): "dc65f0e2092b9d88405d97e6b612cb86210558d341fa6aa841a2058d4fed2da9",
    ("blobs", 1, 160, 160): "2d6fabee6c90b279a4e8aab51f57dc1ec976086a15d5f7df824fe47284d05dae",
    ("blobs", 2, 16, 16): "5b3b6f889fea7ee302cab2922f7e2610857a1f69475fba23ab0ba8d332addaf9",
    ("blobs", 2, 160, 60): "c95006d0a84b95796ca8487d2f507eb413c002394c53b5974b63e79d34cc0275",
    ("blobs", 2, 160, 160): "6f7efc16ef3fff64ecca7e09a3a9198f1e612ba6add36b189bf326e58b2c9d1c",
}


@pytest.mark.parametrize("kind, seed, nx, ny", sorted(FIELD_DIGESTS))
def test_synthetic_fields_are_pinned(kind, seed, nx, ny):
    values = gen_synthetic(kind, seed, 100.0, nx, ny).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == FIELD_DIGESTS[kind, seed, nx, ny]


def test_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic("swirl", 1, 10.0, 8, 8)
    with pytest.raises(ValueError):
        gen_synthetic("blobs", 1, 0.5, 8, 8)


def test_forchheimer_coeff_pointwise():
    kappa = ScalarCellField(2, 1, np.array([1.0, 1e4]))
    beta = forchheimer_coeff(kappa, 100.0)
    assert np.allclose(beta.values, [100.0, 0.01])
    zero = forchheimer_coeff(kappa, 0.0)
    assert np.all(zero.values == 0.0)


def test_forchheimer_coeff_monotone_linear():
    rng = np.random.default_rng(0)
    kappa = ScalarCellField(4, 4, rng.uniform(0.5, 5.0, 16))
    b1 = forchheimer_coeff(kappa, 1.0)
    b2 = forchheimer_coeff(kappa, 2.0)
    assert np.allclose(b2.values, 2.0 * b1.values)  # linear in beta0
    order = np.argsort(kappa.values)
    assert np.all(np.diff(b1.values[order]) <= 0)  # decreasing in kappa
