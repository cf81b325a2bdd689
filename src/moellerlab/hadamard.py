"""Vacuum two-point kernels, their transport, and a smoothness proxy.

The reference object is the mode-sum vacuum of an ultrastatic metric on the
circle, built with the spatially discretized dispersion so that its spatial
structure matches the lattice operator exactly; all residuals against
lattice quantities are then pure time-discretization effects of second
order.  The wavefront-set characterization of physical kernels is not
computable at desk scale; its stand-in compares a kernel against a
reference vacuum and requires the difference to be smooth in a quantitative
sense (small high-frequency spatial tail, bounded growth of divided
differences under refinement).  Every report carries an explicit
``proxy_for`` marker saying so.

A kernel is a mode sum K(p, q) = sum_k d_k phi_k(p) conj(phi_k(q)), stored
as M mode fields on the grid and their M weights.  ``columns(qs)`` returns
the complex fields K(., q) for a list of probe points, shape (len(qs), nt,
nx), as one matrix product, and ``column(q)`` is ``columns([q])[0]``.  The
Møller operator R is real, so the pullback R K R^T of a mode sum is the
mode sum of the transported modes R phi_k with the same weights: a
pullback marches R once, at construction, on the M = nx modes of its base,
and never needs R^T.  Its cost depends on nx, not on the number of probes.
The checks below take any kernel with ``columns``, or failing that
``column``.
"""

from __future__ import annotations

import numpy as np

from .greenhyp import GreenSystem, HyperbolicOperator, PAST_MARGIN
from .lattice import SpacetimeGrid, periodic_shift

__all__ = [
    "ModeKernel",
    "VacuumKernel",
    "PullbackKernel",
    "SmoothnessReport",
    "ultrastatic_vacuum",
    "ccr_hypothesis_check",
    "bisolution_check",
    "pullback_kernel",
    "smoothness_proxy",
    "hadamard_verdict",
    "default_probes",
]

PROXY_FOR = "wavefront-set condition (not computable at desk scale)"


class ModeKernel:
    """K(p, q) = sum_k d_k phi_k(p) conj(phi_k(q)) on one grid.

    ``modes`` is (n_points, M) complex, one column per mode field phi_k;
    ``weights`` holds the M real weights d_k.
    """

    def __init__(self, grid: SpacetimeGrid, modes: np.ndarray, weights: np.ndarray):
        self.grid = grid
        self.modes = modes
        self.weights = weights

    def columns(self, qs) -> np.ndarray:
        """K(., q) over the grid for each probe q, shape (len(qs), nt, nx), complex."""
        g = self.grid
        coef = self.weights * np.conj(self.modes[list(qs)])
        return (coef @ self.modes.T).reshape(-1, g.nt, g.nx)

    def column(self, q: int) -> np.ndarray:
        return self.columns([q])[0]


class VacuumKernel(ModeKernel):
    """Mode-sum two-point kernel of a static lattice vacuum.

    For the flat cylinder, K(p, q) = sum_k exp(i w_k (t_p - t_q) +
    i k (x_p - x_q)) / (2 w_k L) with w_k^2 = m^2 + (2/dx sin(k dx/2))^2
    over the lattice momenta: the spatially discretized dispersion, so the
    kernel solves the space-discretized field equation exactly and every
    residual against lattice quantities is a pure O(dt^2) time effect.  A
    constant diagonal metric diag(g_tt, g_xx) generalizes the dispersion to
    w^2 = (|i^xx| disp^2 + m^2)/|i^tt| and the mode density to
    1/(2 w |i^tt| vol L), which keeps the commutator normalization of the
    canonical operator exact.  The frequency sign is the positive-frequency
    bookkeeping matching this package's wave-operator sign, so that
    K(p,q) - K(q,p) = i G(p,q) up to the declared tolerance.

    The mode fields are separable, exp(i w t) exp(i k x), and are formed as
    that product, from (nt + nx) M exponentials into one (nt, nx, M)
    buffer; they agree with the direct exp(i(w t + k x)) to round-off.
    """

    def __init__(self, grid: SpacetimeGrid, mass: float, metric=None):
        if mass <= 0.0:
            raise ValueError("mass must be positive for a gapped vacuum")
        self.mass = float(mass)
        if metric is None:
            itt, ixx, vol = -1.0, 1.0, 1.0
        else:
            if np.max(np.abs(metric.stored[1])) != 0.0:
                raise ValueError("mode-sum vacua need a static diagonal metric")
            its = metric.inverse_components()
            itt = float(its[0][0, 0])
            ixx = float(its[2][0, 0])
            vol = float(metric.volume_density()[0, 0])
            varies = max(np.ptp(metric.stored[0]), np.ptp(metric.stored[2]))
            if varies > 0.0 or itt >= 0.0 or ixx <= 0.0:
                raise ValueError("mode-sum vacua need a constant t-class metric")
        j = np.arange(grid.nx)
        j = np.where(j <= grid.nx // 2, j, j - grid.nx)
        self.k = 2.0 * np.pi * j / grid.length
        disp = (2.0 / grid.dx) * np.sin(self.k * grid.dx / 2.0)
        self.omega = np.sqrt((ixx * disp**2 + self.mass**2) / (-itt))
        phase = np.empty((grid.nt, grid.nx, grid.nx), dtype=complex)
        np.multiply(np.exp(1j * np.outer(grid.times, self.omega))[:, None, :],
                    np.exp(1j * np.outer(grid.sites, self.k))[None, :, :], out=phase)
        super().__init__(grid, phase.reshape(grid.n_points, grid.nx),
                         1.0 / (2.0 * self.omega * (-itt) * vol * grid.length))


def _columns(kernel, qs) -> np.ndarray:
    """Probe block of a kernel; stacks column(q) for kernels without columns."""
    if hasattr(kernel, "columns"):
        return kernel.columns(qs)
    return np.array([kernel.column(q) for q in qs])


class PullbackKernel(ModeKernel):
    """Kernel transported by a realized intertwiner: K' = R K R^T.

    R is real, so R K R^T = sum_k d_k (R phi_k)(p) conj((R phi_k)(q)): the
    base's modes are marched through R once, their real and imaginary parts
    as one real batch of 2M columns, and the weights are kept.
    """

    def __init__(self, base, R):
        if not isinstance(base, ModeKernel):
            raise ValueError("kernel transport needs a mode-sum kernel (a ModeKernel); "
                             f"{type(base).__name__} has no modes")
        g = R.op_start.grid
        if base.modes.shape[0] != g.n_points:
            raise ValueError("the kernel and the intertwiner live on different grids")
        M = base.modes.shape[1]
        phi = base.modes.T.reshape(M, g.nt, g.nx)
        out = R.apply(np.concatenate([phi.real, phi.imag])).reshape(2 * M, g.n_points)
        super().__init__(g, (out[:M] + 1j * out[M:]).T, base.weights)
        self.base = base
        self.R = R


def ultrastatic_vacuum(grid: SpacetimeGrid, mass: float, metric=None) -> VacuumKernel:
    return VacuumKernel(grid, mass, metric=metric)


def default_probes(grid: SpacetimeGrid, times=3):
    """Interior probe points: all sites at a few mid-window levels."""
    levels = np.linspace(PAST_MARGIN + 2, grid.nt - PAST_MARGIN - 3, times).astype(int)
    return [int(n) * grid.nx + j for n in levels for j in range(grid.nx)]


def _green_kernel_columns(N: HyperbolicOperator, qs) -> np.ndarray:
    """Columns G(., q) of the causal-propagator kernel (weights divided out)."""
    g = N.grid
    n, j = np.divmod(np.asarray(qs, dtype=int), g.nx)
    E = np.zeros((len(n), g.nt, g.nx))
    E[np.arange(len(n)), n, j] = 1.0
    E = N.unweigh(E)
    gs = GreenSystem(N)
    return gs.plus(E) - gs.minus(E)


def ccr_hypothesis_check(nu, N: HyperbolicOperator, probes=None) -> dict:
    """Residual of antisym(nu) against i times the propagator kernel.

    Hermitian kernels have antisym part 2i Im K(., q); the report carries
    the sup norm over probe columns.
    """
    probes = default_probes(N.grid) if probes is None else probes
    resid = 2.0 * _columns(nu, probes).imag - _green_kernel_columns(N, probes)
    return {"sup": float(np.max(np.abs(resid[:, 1:-1])))}


def bisolution_check(nu, N: HyperbolicOperator, probes=None) -> dict:
    """Apply the operator in each argument of the kernel on probe columns."""
    probes = default_probes(N.grid) if probes is None else probes
    cols = _columns(nu, probes)
    # the left slot; the right one is its conjugate by Hermitian symmetry,
    # N_q K(p, q) = conj(N_q K(q, p)), so it has the same sup.  N acts on
    # each column alone, so it is applied nx columns (one probe level) at a
    # time with a running max: the scratch is that of one level's block.
    worst = 0.0
    for i in range(0, len(cols), N.grid.nx):
        c = cols[i:i + N.grid.nx]
        r = N.apply(c.real) + 1j * N.apply(c.imag)
        worst = max(worst, float(np.max(np.abs(r[:, 1:-1]))))
    return {"sup_left": worst}


def pullback_kernel(nu, R) -> PullbackKernel:
    """Transport K through the intertwiner: (f, h) -> K(R^dagger f, R^dagger h)."""
    return PullbackKernel(nu, R)


class SmoothnessReport:
    """Quantitative stand-in for 'the difference is smooth'.

    tail_ratio: energy of the top-quarter spatial frequencies of the data
    relative to the same bands of the reference kernel; derivative_growth:
    factor by which mixed divided differences up to third order grow from a
    2x-coarsened subsample to the native grid.  Fixed thresholds: 1e-3 and
    4 (documented constants, not derived quantities).
    """

    TAIL_THRESHOLD = 1e-3
    GROWTH_THRESHOLD = 4.0

    def __init__(self, tail_ratio, derivative_growth):
        self.tail_ratio = float(tail_ratio)
        self.derivative_growth = float(derivative_growth)
        self.tail_ok = self.tail_ratio <= self.TAIL_THRESHOLD
        self.growth_ok = self.derivative_growth <= self.GROWTH_THRESHOLD
        self.passes = self.tail_ok and self.growth_ok
        self.proxy_for = PROXY_FOR

    def as_dict(self):
        return {
            "tail_ratio": self.tail_ratio,
            "derivative_growth": self.derivative_growth,
            "passes": self.passes,
            "proxy_for": self.proxy_for,
        }

    def __repr__(self):
        return (f"SmoothnessReport(tail={self.tail_ratio:.2e}, "
                f"growth={self.derivative_growth:.2f}, passes={self.passes})")


def _tail_energy(slices):
    """Energy in the top-quarter spatial frequencies, summed over slices."""
    coef = np.fft.fft(slices, axis=-1)
    nx = slices.shape[-1]
    j = np.arange(nx)
    j = np.minimum(j, nx - j)
    tail = j >= nx // 4
    return float(np.sum(np.abs(coef[..., tail]) ** 2))


def _max_mixed_derivative(data, dt, dx, order=3):
    """Largest |divided difference| of orders a in t and b in x, 1 <= a + b <= order.

    Each (a, b) is derived from (a, b - 1), and (a, 0) from (a - 1, 0), so
    every difference is taken once, in order (order + 3) / 2 passes (9 for
    order 3), each the same operation as in building (a, b) from the data.
    """
    worst = 0.0
    dt_a = data
    for a in range(order + 1):
        if a:
            dt_a = np.diff(dt_a, axis=-2) / dt
        d = dt_a
        for b in range(order + 1 - a):
            if b:
                d = (periodic_shift(d, 0, -1) - d) / dx
            if a + b and d.size:
                worst = max(worst, float(np.max(np.abs(d))))
    return worst


def smoothness_proxy(data, reference=None, spacing=(1.0, 1.0)) -> SmoothnessReport:
    """Smoothness verdict for kernel-difference data.

    data: real or complex array (..., nt, nx) of difference slices;
    reference: same-shape magnitudes of the kernel being compared (defaults
    to data itself, making the ratio 1 for empty input).
    """
    mag = np.abs(data)  # the proxy reads magnitudes only
    tail_d = _tail_energy(mag)
    tail_r = max(tail_d if reference is None else _tail_energy(np.abs(reference)), 1e-300)
    dt, dx = spacing
    fine = _max_mixed_derivative(mag, dt, dx)
    coarse = _max_mixed_derivative(mag[..., ::2, ::2], 2 * dt, 2 * dx)
    growth = fine / max(coarse, 1e-300) if fine > 0 else 1.0
    return SmoothnessReport(tail_d / tail_r, growth)


def hadamard_verdict(nu_prime, reference, N_prime: HyperbolicOperator,
                     probes=None) -> dict:
    """Difference-smoothness verdict of nu_prime against a reference kernel.

    reference is the target metric side's own vacuum (kernels compared on
    one probe block of N_prime's grid); the wavefront-set conclusion itself
    is replaced by the difference-smoothness proxy and labelled as such.
    """
    g = N_prime.grid
    probes = default_probes(g) if probes is None else probes
    cols = _columns(nu_prime, probes)
    proxy = smoothness_proxy(cols - _columns(reference, probes), reference=cols,
                             spacing=(g.dt, g.dx))
    return {
        "difference_proxy": proxy.as_dict(),
        "proxy_for": PROXY_FOR,
        "passes": bool(proxy.passes),
    }
