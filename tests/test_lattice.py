import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moellerlab.geometry import MetricField
from moellerlab.lattice import (ScalarField, Section, make_grid, periodic_shift, smooth_noise,
                                smooth_step, weighted_inner_product)


def test_grid_spacings():
    g = make_grid(64, 64, 0.0, 1.0, 1.0)
    assert g.dt == pytest.approx(1.0 / 63.0, abs=0)
    assert g.dx == pytest.approx(1.0 / 64.0, abs=0)


def test_grid_too_small_rejected():
    with pytest.raises(ValueError, match="too small"):
        make_grid(3, 64, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_grid(8, 8, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_grid(8, 8, 0.0, 1.0, -1.0)


def test_inner_product_single_cell():
    g = make_grid(8, 8, 0.0, 1.0, 1.0)
    vals = g.zeros()
    vals[3, 4] = 1.0
    f = Section(g, vals)
    vol = ScalarField.constant(g, 1.0, ScalarField.POSITIVE)
    assert weighted_inner_product(f, f, vol) == pytest.approx(g.dt * g.dx, rel=1e-14)


def test_inner_product_disjoint_supports():
    g = make_grid(8, 8, 0.0, 1.0, 1.0)
    a, b = g.zeros(), g.zeros()
    a[2] = 1.0
    b[5] = 1.0
    vol = ScalarField.constant(g, 1.0, ScalarField.POSITIVE)
    assert weighted_inner_product(Section(g, a), Section(g, b), vol) == 0.0


def test_inner_product_matches_double_loop():
    # brute-force summation oracle on an 8x8 grid
    g = make_grid(8, 8, 0.0, 1.0, 1.0)
    rng = np.random.default_rng(0)
    fv = rng.standard_normal((8, 8))
    hv = rng.standard_normal((8, 8))
    volv = rng.uniform(0.5, 2.0, (8, 8))
    expected = 0.0
    for n in range(8):
        for j in range(8):
            expected += fv[n, j] * hv[n, j] * volv[n, j]
    expected *= g.dt * g.dx
    got = weighted_inner_product(Section(g, fv), Section(g, hv),
                                 ScalarField(g, volv, ScalarField.POSITIVE))
    assert got == pytest.approx(expected, rel=1e-13)


def test_inner_product_bilinear_symmetric_positive():
    g = make_grid(8, 8, 0.0, 1.0, 1.0)
    rng = np.random.default_rng(1)
    vol = ScalarField.constant(g, 1.0, ScalarField.POSITIVE)
    for _ in range(100):
        f = Section(g, rng.standard_normal((8, 8)))
        h = Section(g, rng.standard_normal((8, 8)))
        sym = weighted_inner_product(f, h, vol) - weighted_inner_product(h, f, vol)
        assert abs(sym) < 1e-14
        assert weighted_inner_product(f, f, vol) > 0.0
    a = Section(g, 2.0 * f.values + h.values)
    lin = (weighted_inner_product(a, h, vol)
           - 2.0 * weighted_inner_product(f, h, vol)
           - weighted_inner_product(h, h, vol))
    assert abs(lin) < 1e-12


def test_shape_mismatch_rejected():
    g = make_grid(8, 8, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Section(g, np.zeros((8, 7)))


def test_section_takes_only_the_field_shape():
    g = make_grid(8, 8, 0.0, 1.0, 1.0)
    assert Section(g, np.zeros((8, 8))).values.shape == (8, 8)
    with pytest.raises(ValueError, match=r"section shape \(8, 8, 1\) is not \(nt, nx\) = \(8, 8\)"):
        Section(g, np.zeros((8, 8, 1)))


def test_smooth_step_plateaus_and_midpoint():
    g = make_grid(101, 8, 0.0, 1.0, 1.0)  # level exactly at the window midpoint
    chi = smooth_step(g, 0.3, 0.7)
    assert np.all(chi.values[g.times < 0.3] == 0.0)
    assert np.all(chi.values[g.times > 0.7] == 1.0)
    mid = g.level_of_time(0.5)
    assert chi.values[mid, 0] == pytest.approx(0.5, abs=1e-12)


def test_smooth_step_monotone_and_flat_at_ends():
    g = make_grid(512, 8, 0.0, 1.0, 1.0)
    chi = smooth_step(g, 0.3, 0.7)
    prof = chi.values[:, 0]
    assert np.all(np.diff(prof) >= -1e-15)
    # finite-difference derivative at the switch endpoints
    l0, l1 = g.level_of_time(0.3), g.level_of_time(0.7)
    d0 = (prof[l0 + 1] - prof[l0 - 1]) / (2 * g.dt)
    d1 = (prof[l1 + 1] - prof[l1 - 1]) / (2 * g.dt)
    assert abs(d0) < 1e-12 and abs(d1) < 1e-12


def test_smooth_step_bad_window():
    g = make_grid(16, 8, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        smooth_step(g, 0.7, 0.3)
    with pytest.raises(ValueError):
        smooth_step(g, -0.1, 0.5)


def test_compact_support_window_enforced():
    g = make_grid(10, 8, 0.0, 1.0, 1.0)
    vals = g.zeros()
    vals[4, 3] = 1.0
    Section(g, vals, support_window=(3, 6))
    with pytest.raises(ValueError):
        Section(g, vals, support_window=(5, 6))
    with pytest.raises(ValueError):
        Section(g, vals, support_window=(0, 9))


def test_scalar_field_range_constraints():
    g = make_grid(8, 8, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.full((8, 8), 1.5), ScalarField.UNIT)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 8)), ScalarField.POSITIVE)


def _poke(shape, fill, index, value):
    a = np.full(shape, fill)
    a.reshape(-1)[index % a.size] = value
    return a


G8 = make_grid(8, 8, 0.0, 1.0, 1.0)
NONFINITE_BUILDERS = {
    "grid_t_min": lambda i, v: make_grid(8, 8, v, 1.0, 1.0),
    "grid_t_max": lambda i, v: make_grid(8, 8, 0.0, v, 1.0),
    "grid_length": lambda i, v: make_grid(8, 8, 0.0, 1.0, v),
    "section": lambda i, v: Section(G8, _poke((8, 8), 0.0, i, v)),
    "scalar_positive": lambda i, v: ScalarField(G8, _poke((8, 8), 1.0, i, v), ScalarField.POSITIVE),
    "scalar_unit": lambda i, v: ScalarField(G8, _poke((8, 8), 0.5, i, v), ScalarField.UNIT),
    "metric_g_tt": lambda i, v: MetricField(G8, _poke((8, 8), -1.0, i, v), 0.0, 1.0, 1.0, 0.0),
    "metric_orientation": lambda i, v: MetricField(G8, -1.0, 0.0, 1.0, _poke((8, 8), 1.0, i, v), 0.0),
}


@pytest.mark.parametrize("name", sorted(NONFINITE_BUILDERS))
@settings(max_examples=10, deadline=None)
@given(value=st.sampled_from([math.nan, math.inf, -math.inf]), index=st.integers(0, 1 << 20))
def test_constructors_reject_nonfinite(name, value, index):
    with pytest.raises(ValueError, match="must be finite"):
        NONFINITE_BUILDERS[name](index, value)


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and np.array_equal(
        np.ascontiguousarray(x).view(np.uint64), np.ascontiguousarray(y).view(np.uint64))


@pytest.mark.parametrize("a", [-1, 0, 1])
@pytest.mark.parametrize("b", [-1, 0, 1])
def test_periodic_shift_is_np_roll_bitwise(a, b):
    # every (a, b) shift of an (nt, 1) column and of an (nt, nx) field, -0.0
    # and nan included, and of the last axis of a (K, nt, nx) batch and of
    # one level (nx,); each result is a new array
    rng = np.random.default_rng(3)
    field = rng.standard_normal((7, 5))
    field[2, 3], field[4, 0] = -0.0, math.nan
    for u in (field, field[:, 1:2].copy(), np.broadcast_to(field[:, :1], (7, 5))):
        out = periodic_shift(u, a, b)
        assert _same_bits(out, np.roll(u, (a, b), axis=(0, 1)))
        assert not np.shares_memory(out, u) and out.flags.writeable
    batch = rng.standard_normal((3, 7, 5))
    for u in (batch, batch[1, 2]):
        out = periodic_shift(u, 0, b)
        assert _same_bits(out, np.roll(u, b, axis=-1))
        assert not np.shares_memory(out, u)


def test_smooth_noise_is_the_rolled_smoothing_bitwise():
    # the draws, taper and (1/4, 1/2, 1/4) passes of the test sections, as
    # they were written with np.roll, give the same bits
    g = make_grid(24, 16, 0.0, 0.5, 1.0)
    lo, hi = 4, 20
    taper = np.sin(np.linspace(0.0, np.pi, hi - lo)) ** 2
    for passes, tap in ((2, None), (3, taper), (0, taper)):
        rng = np.random.default_rng(11)
        u = np.zeros((g.nt, g.nx))
        u[lo:hi] = rng.standard_normal((hi - lo, g.nx))
        if tap is not None:
            u[lo:hi] *= tap[:, None]
        for _ in range(passes):
            u[lo:hi] = 0.25 * np.roll(u[lo:hi], 1, 1) + 0.5 * u[lo:hi] + 0.25 * np.roll(u[lo:hi], -1, 1)
        assert _same_bits(smooth_noise(g, np.random.default_rng(11), lo, hi, passes, tap), u)
