"""Discretized 1+1d spacetime slab: a finite time window times a spatial circle.

The grid carries nt time levels on [t_min, t_max] (both endpoints included)
and nx equispaced sites on a circle of circumference `length`, so every
constant-time slice is compact and spatial index arithmetic is modular.
Fields are plain float arrays, scalar at each point: a section is an
(nt, nx) array and a batch of K sections a (K, nt, nx) array, while a
profile that varies only in time, such as a switch, is an (nt, 1) column
that broadcasts against them.  ``geometry.stored_field`` decides how a
field is kept and refuses non-finite values.  The grid is frozen and a
switch is read-only, so both are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import ClassVar

import numpy as np

__all__ = [
    "SpacetimeGrid",
    "make_grid",
    "smooth_step",
    "periodic_shift",
    "smooth_noise",
]


@dataclass(frozen=True)
class SpacetimeGrid:
    """Uniform lattice on [t_min, t_max] x S^1.

    `rank` = 1 is the number of field values at a point.  The package itself
    never reads it; it stays because the benchmark tracer
    (``benchmarks/layertrace.py``) counts the columns of a march as the
    source's size over nt * nx * rank.
    """

    nt: int
    nx: int
    t_min: float
    t_max: float
    length: float
    rank: ClassVar[int] = 1

    def __post_init__(self):
        if not all(np.isfinite([self.t_min, self.t_max, self.length])):
            raise ValueError("grid extents t_min, t_max and length must be finite")
        if self.nt < 4 or self.nx < 4:
            raise ValueError("grid too small: need nt >= 4 and nx >= 4")
        if not (self.t_max > self.t_min):
            raise ValueError("empty time extent")
        if not (self.length > 0):
            raise ValueError("spatial circumference must be positive")

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.nt - 1)

    @property
    def dx(self) -> float:
        return self.length / self.nx

    @property
    def times(self) -> np.ndarray:
        return self.t_min + self.dt * np.arange(self.nt)

    @property
    def sites(self) -> np.ndarray:
        return self.dx * np.arange(self.nx)

    @property
    def n_points(self) -> int:
        return self.nt * self.nx

    def level_of_time(self, t: float) -> int:
        """Index of the closest time level."""
        return int(round((t - self.t_min) / self.dt))

    def __str__(self):
        return f"{self.nt}x{self.nx} grid, t in [{self.t_min}, {self.t_max}], L={self.length}"


def make_grid(nt, nx, t_min, t_max, length) -> SpacetimeGrid:
    """Build a grid; dt = (t_max-t_min)/(nt-1), dx = length/nx."""
    return SpacetimeGrid(int(nt), int(nx), float(t_min), float(t_max), float(length))


def _pieces(n, s):
    """(destination, source) slice pairs of a periodic shift by s along an axis of extent n."""
    s = s % n if n else 0
    if not s:
        return [(slice(None), slice(None))]
    return [(slice(s, None), slice(None, n - s)), (slice(None, s), slice(n - s, None))]


def periodic_shift(u, a=0, b=0):
    """``np.roll(u, (a, b), axis=(-2, -1))`` bit for bit, as a new array.

    out[..., n, j] = u[..., n - a, j - b], indices taken mod the extents.
    The wrapped pieces are written as slices into a new array, at most four
    copies, so a short field does not pay for np.roll's general path; an
    extent of 1 (an (nt, 1) column along x) moves nothing.  With a = 0 only
    the last axis is read, so u may be one level (nx,) or a batch of levels.
    """
    out = np.empty_like(u)
    levels = [((d,), (s,)) for d, s in _pieces(u.shape[-2], a)] if a else [((), ())]
    for dt, st in levels:
        for dx, sx in _pieces(u.shape[-1], b):
            out[(..., *dt, dx)] = u[(..., *st, sx)]
    return out


def smooth_noise(grid: SpacetimeGrid, rng, lo, hi, passes=2, taper=None) -> np.ndarray:
    """An (nt, nx) array: standard normal draws on levels lo..hi-1, zero elsewhere.

    The draws are multiplied by taper (one value per level of the range), if
    given, then smoothed by `passes` rounds of the periodic (1/4, 1/2, 1/4)
    average along x.
    """
    u = np.zeros((grid.nt, grid.nx))
    v = rng.standard_normal((hi - lo, grid.nx))
    if taper is not None:
        v *= taper[:, None]
    for _ in range(passes):
        v = 0.25 * periodic_shift(v, 0, 1) + 0.5 * v + 0.25 * periodic_shift(v, 0, -1)
    u[lo:hi] = v
    return u


def smooth_step(grid: SpacetimeGrid, t0: float, t1: float) -> np.ndarray:
    """Monotone C^inf switch in time: 0 below t0, 1 above t1, a read-only (nt, 1) column.

    Uses the normalized antiderivative of exp(-1/s) * exp(-1/(1-s)) on the
    transition interval, sampled at the grid's time levels; the profile is
    symmetric about the midpoint, so the midpoint value is exactly 1/2.
    """
    if not (grid.t_min < t0 < t1 < grid.t_max):
        raise ValueError("switch window must sit strictly inside the time extent")
    s = (grid.times - t0) / (t1 - t0)
    chi = _bump_cdf(np.clip(s, 0.0, 1.0))[:, None]
    chi.flags.writeable = False
    return chi


@cache
def _bump_table():
    # integral of exp(-1/u - 1/(1-u)) over (0, u), normalized to hit 1 at u=1:
    # trapezoid quadrature at high resolution, once per process (read-only)
    u = np.linspace(0.0, 1.0, 4097)
    with np.errstate(divide="ignore", over="ignore"):
        dens = np.where((u > 0) & (u < 1), np.exp(-1.0 / np.where(u > 0, u, 1.0)
                                                  - 1.0 / np.where(u < 1, 1.0 - u, 1.0)), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * (u[1] - u[0]))])
    cdf /= cdf[-1]
    u.flags.writeable = cdf.flags.writeable = False
    return u, cdf


def _bump_cdf(s: np.ndarray) -> np.ndarray:
    # the quadrature table interpolated onto the samples
    u, cdf = _bump_table()
    out = np.interp(s, u, cdf)
    # sharpen the symmetry: average with the reflected profile
    out = 0.5 * (out + 1.0 - np.interp(1.0 - s, u, cdf))
    out[s <= 0.0] = 0.0
    out[s >= 1.0] = 1.0
    return out
