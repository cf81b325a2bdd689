import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moellerlab.geometry import (MetricField, convex_combination, metric_preset, squeeze_metric,
                                 stored_field)
from moellerlab.greenhyp import GreenSystem, build_operator, solve_cauchy, wave_operator
from moellerlab.lattice import make_grid, periodic_shift, smooth_noise, smooth_step

G8 = make_grid(8, 8, 0.0, 1.0, 1.0)
M8 = metric_preset("minkowski", G8)
NARROW8 = squeeze_metric(M8, (1.0, 0.0), 0.5)  # cone inside M8's, for the blends
G16 = GreenSystem(wave_operator(metric_preset("minkowski", make_grid(16, 8, 0.0, 0.5, 1.0))))


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


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match=r"field shape \(8, 7\) does not match grid"):
        stored_field(G8, np.zeros((8, 7)))


def test_section_takes_only_the_field_shape():
    # a source is one (nt, nx) section or a (K, nt, nx) batch of them
    assert G16.plus(np.zeros((16, 8))).shape == (16, 8)
    with pytest.raises(ValueError, match=r"source shape \(16, 8, 1\) is neither \(nt, nx\) = \(16, 8\)"):
        G16.plus(np.zeros((16, 8, 1)))


def test_smooth_step_plateaus_and_midpoint():
    g = make_grid(101, 8, 0.0, 1.0, 1.0)  # level exactly at the window midpoint
    chi = smooth_step(g, 0.3, 0.7)
    assert np.all(chi[g.times < 0.3] == 0.0)
    assert np.all(chi[g.times > 0.7] == 1.0)
    mid = g.level_of_time(0.5)
    assert chi[mid, 0] == pytest.approx(0.5, abs=1e-12)


def test_smooth_step_monotone_and_flat_at_ends():
    g = make_grid(512, 8, 0.0, 1.0, 1.0)
    chi = smooth_step(g, 0.3, 0.7)
    prof = chi[:, 0]
    assert np.all(np.diff(prof) >= -1e-15)
    # finite-difference derivative at the switch endpoints
    l0, l1 = g.level_of_time(0.3), g.level_of_time(0.7)
    d0 = (prof[l0 + 1] - prof[l0 - 1]) / (2 * g.dt)
    d1 = (prof[l1 + 1] - prof[l1 - 1]) / (2 * g.dt)
    assert abs(d0) < 1e-12 and abs(d1) < 1e-12


@pytest.mark.parametrize("shape, window", [((128, 16), (0.3, 0.7)), ((101, 8), (0.1, 0.9)),
                                           ((37, 4), (0.25, 0.5))])
def test_smooth_step_matches_its_quadrature_bit_for_bit(shape, window):
    # the quadrature table is built once per process; each switch, a
    # read-only (nt, 1) column, equals the formula evaluated afresh, and a
    # second call equals the first
    g = make_grid(*shape, 0.0, 1.0, 1.0)
    t0, t1 = window
    s = np.clip((g.times - t0) / (t1 - t0), 0.0, 1.0)
    u = np.linspace(0.0, 1.0, 4097)
    with np.errstate(divide="ignore", over="ignore"):
        dens = np.where((u > 0) & (u < 1), np.exp(-1.0 / np.where(u > 0, u, 1.0)
                                                  - 1.0 / np.where(u < 1, 1.0 - u, 1.0)), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * (u[1] - u[0]))])
    cdf /= cdf[-1]
    ref = 0.5 * (np.interp(s, u, cdf) + 1.0 - np.interp(1.0 - s, u, cdf))
    ref[s <= 0.0] = 0.0
    ref[s >= 1.0] = 1.0
    for _ in range(2):
        chi = smooth_step(g, t0, t1)
        assert chi.shape == (g.nt, 1) and not chi.flags.writeable
        assert chi.tobytes() == ref[:, None].tobytes()


def test_smooth_step_bad_window():
    g = make_grid(16, 8, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        smooth_step(g, 0.7, 0.3)
    with pytest.raises(ValueError):
        smooth_step(g, -0.1, 0.5)


def test_scalar_field_range_constraints():
    # a blend weight lies in [0, 1] and a squeeze factor in (0, 1]
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        convex_combination(NARROW8, M8, np.full((8, 8), 1.5))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        squeeze_metric(M8, (1.0, 0.0), np.zeros((8, 8)))


def _poke(shape, fill, index, value):
    a = np.full(shape, fill)
    a.reshape(-1)[index % a.size] = value
    return a


NONFINITE_BUILDERS = {
    "grid_t_min": lambda i, v: make_grid(8, 8, v, 1.0, 1.0),
    "grid_t_max": lambda i, v: make_grid(8, 8, 0.0, v, 1.0),
    "grid_length": lambda i, v: make_grid(8, 8, 0.0, 1.0, v),
    # fields stored by geometry.stored_field: an operator coefficient, a
    # positive field (a squeeze factor) and a [0, 1] one (a blend weight)
    "section": lambda i, v: build_operator(M8, B=_poke((8, 8), 0.0, i, v)),
    "scalar_positive": lambda i, v: squeeze_metric(M8, (1.0, 0.0), _poke((8, 8), 0.5, i, v)),
    "scalar_unit": lambda i, v: convex_combination(NARROW8, M8, _poke((8, 8), 0.5, i, v)),
    # sections where they are used: a Green source and Cauchy data
    "green_source": lambda i, v: G16.propagator(_poke((16, 8), 0.0, i, v)),
    "cauchy_data": lambda i, v: solve_cauchy(G16.operator, 3, _poke((8,), 0.0, i, v), np.zeros(8)),
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
