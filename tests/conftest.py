import numpy as np
import pytest

from moellerlab import geometry as geo
from moellerlab import greenhyp as gh
from moellerlab.lattice import FiberMetric, Section, make_grid


@pytest.fixture
def grid48():
    # nt chosen so dt stays under the 0.8 dx CFL bound at unit speeds
    return make_grid(48, 48, 0.0, 0.5, 1.0)


@pytest.fixture
def grid16():
    return make_grid(16, 16, 0.0, 0.5, 1.0)


@pytest.fixture
def mink48(grid48):
    return geo.metric_preset("minkowski", grid48)


@pytest.fixture
def kg48(mink48):
    return gh.wave_operator(mink48, mass=1.0)


def window_section(grid, rng, lo, hi, smooth=0):
    u = np.zeros((grid.nt, grid.nx, grid.rank))
    u[lo:hi] = rng.standard_normal((hi - lo, grid.nx, grid.rank))
    for _ in range(smooth):
        u[lo:hi] = 0.25 * np.roll(u[lo:hi], 1, 1) + 0.5 * u[lo:hi] + 0.25 * np.roll(u[lo:hi], -1, 1)
    return Section(grid, u)


def fibered_operator(rank, preset, seed, **params):
    """Operator on an 8x6 grid whose fiber metric is SPD, varying and not the identity."""
    g = make_grid(8, 6, 0.0, 0.5, 1.0, rank=rank)
    A = np.random.default_rng(seed).standard_normal((g.nt, g.nx, rank, rank))
    fiber = FiberMetric(g, A @ np.swapaxes(A, -1, -2) + 0.5 * np.eye(rank))
    return gh.build_operator(geo.metric_preset(preset, g, **params), B=1.0, fiber=fiber)
