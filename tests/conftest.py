import numpy as np
import pytest

from moellerlab import geometry as geo
from moellerlab import greenhyp as gh
from moellerlab.lattice import Section, make_grid


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
    u = np.zeros((grid.nt, grid.nx))
    u[lo:hi] = rng.standard_normal((hi - lo, grid.nx))
    for _ in range(smooth):
        u[lo:hi] = 0.25 * np.roll(u[lo:hi], 1, 1) + 0.5 * u[lo:hi] + 0.25 * np.roll(u[lo:hi], -1, 1)
    return Section(grid, u)


def dense_adjoint(T, op_g, op_gp):
    """Oracle V_g^-1 T^T V_g' by a dense solve: the adjoint of T, or of an operator's
    dense matrix, with respect to the volume pairings of op_g and op_gp."""
    if isinstance(T, gh.HyperbolicOperator):
        T = T.as_dense()
    return np.linalg.solve(op_g.weight_dense(), np.asarray(T).T @ op_gp.weight_dense())
