"""Normally hyperbolic lattice operators and their exact causal inverses.

The second-order part of every operator is assembled in summation-by-parts
divergence form

    N = -(1/vol) [ d_t(vol g^tt d_t .) + d_t(vol g^tx d_x .) + d_x(...) ] + lower order

with forward differences on staggered edges for the pure d_t^2 / d_x^2
pieces and centered differences for the cross piece.  This makes the
volume-weighted matrix V N (V = vol * dt * dx tensor fiber metric) exactly
symmetric, so formal self-adjointness, slice independence of the symplectic
flux and antisymmetry of the causal propagator kernel hold to round-off
rather than to discretization order.

An operator is stored only as its nine-offset stencil: OFF[(a, b)] holds the
(r x r) coupling of row (n, j) to column (n+a, j+b mod nx).  The principal
part is written directly in these offsets from the divergence form above;
the march, the weighted transpose, the symplectic flux and the symbol check
read them, and ``as_dense`` is a derived view.  Green operators are realized
as causal triangular solves: the equation rows at levels 1..nt-2 are marched
forward (retarded) or backward (advanced) in time.  A level's new-time-slice
system comes in two kinds, read off the offsets.  When g^tx = 0 everywhere
the new level couples each site only to itself, offset (a, 0), and a rank-1
level is one division by the stencil's diagonal.  Otherwise (g^tx != 0, or
rank r > 1) the level is solved as a band: the cross offsets (a, +-1) couple
site j to j-1, j, j+1 (mod nx); numbered in the interleaved order 0, 1,
nx-1, 2, nx-2, ... that is a plain band with kl = ku = 3r - 1, factored once
per level by LAPACK's banded LU and cached, so the factors hold O(nt nx r^2)
floats.  Either way a march takes time linear in nx.  The march is refused
(:class:`MarchError`) unless it is stable, g^tt and g^xx keeping opposite
signs, the same at every point (:func:`axis_class`), and the time step keeps
the CFL bound.  Sources must vanish on the first two (resp. last two) time
levels, the discrete stand-in for past (future) compact support in the
window.

Fields are (nt, nx, r) arrays.  ``HyperbolicOperator.apply``, the march and
the Green systems also take a leading batch axis, (K, nt, nx, r): the K
columns then share one level loop and one solve per level, so a kernel
block or a dense matrix costs a few marches, not one per column.  The batch
is the whole interface; there is no batch-size setting.

A stencil may be applied on a range of rows only (:func:`stencil_apply`;
``HyperbolicOperator.apply`` is its whole-window case), and a march may
solve a range of equation rows only (``march(..., rows=(lo, hi))``).  Both
default to the whole window.  A caller whose source vanishes below lo
starts a forward march there, or stops a march at the last level it reads;
the Moller steps do both, since their difference operator vanishes
outside its switch window.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import MetricField, sharp_interpolation
from .lattice import FiberMetric, ScalarField, Section, smooth_step

__all__ = [
    "MarchError",
    "CFLError",
    "UnstableMarch",
    "SymbolMismatch",
    "HyperbolicOperator",
    "GreenSystem",
    "build_operator",
    "wave_operator",
    "symmetrize",
    "convex_operator",
    "solve_cauchy",
    "axis_class",
    "stencil_apply",
    "stencil_transpose",
    "exactness_check",
    "symplectic_form",
    "propagator_symplectic_identity",
    "green_adjoint_relation",
]

PAST_MARGIN = 2     # levels a past-compact-in-window source keeps clear of t_min
CFL_SAFETY = 0.8

class MarchError(RuntimeError):
    """The causal march refuses an operator; subclasses name the failed `check` and `reason`."""

    @property
    def detail(self) -> str:
        return str(self)


class CFLError(MarchError):
    check = "cfl_satisfied"
    reason = "cfl"


class UnstableMarch(MarchError):
    check = "metric_marchable"
    reason = "unstable march"


class SymbolMismatch(ValueError):
    pass


def _roll_x(u, b):
    return np.roll(u, -b, axis=1) if b else u


def _blocks(grid, value_field=None):
    """Promote an (nt, nx) scalar field to diagonal (nt, nx, r, r) blocks."""
    r = grid.rank
    out = np.zeros((grid.nt, grid.nx, r, r))
    idx = np.arange(r)
    if value_field is not None:
        out[:, :, idx, idx] = np.asarray(value_field)[:, :, None]
    return out


def stencil_apply(offsets, u, rows=None):
    """Action of a nine-offset stencil on the rows lo <= n < hi of rows = (lo, hi).

    u is one (nt, nx, r) field or a (K, nt, nx, r) batch; the result has its
    shape and is zero off the row range, and u is read on levels lo - 1 .. hi
    only.  rows defaults to the whole window: ``HyperbolicOperator.apply``.
    Those levels are copied once with one periodic site on either side, so
    offset (a, b) reads its neighbours j + b as a shifted view of the copy.
    """
    nt, nx = u.shape[-3:-1]
    lo, hi = (0, nt) if rows is None else rows
    out = np.zeros_like(u)
    l0 = max(lo - 1, 0)
    levels = u[..., l0:min(hi + 1, nt), :, :]
    halo = np.concatenate([levels[..., -1:, :], levels, levels[..., :1, :]], axis=-2)
    for (a, b), C in offsets.items():
        n0, n1 = max(lo, -a), min(hi, nt - a)  # rows whose level n + a is in the window
        if n0 >= n1:
            continue
        src = halo[..., n0 + a - l0:n1 + a - l0, 1 + b:1 + b + nx, :]
        out[..., n0:n1, :, :] += np.einsum("txab,...txb->...txa", C[n0:n1], src)
    return out


def stencil_transpose(offsets):
    """Offsets of the transposed stencil: trans[(a, b)](n, j) = C[(-a, -b)](n+a, j+b)^T."""
    out = {}
    for (a, b), C in offsets.items():
        # original key (a, b) feeds transposed key (-a, -b); its value at
        # row (n, j) is the block at the source row (n - a, j - b)
        T = _roll_x(np.swapaxes(C, -1, -2), -b)
        if a:
            T = np.roll(T, a, axis=0)
            T[0 if a == 1 else -1] = 0.0  # no source row beyond the window
        out[(-a, -b)] = T
    return out


def axis_class(metric: MetricField) -> int:
    """+1 when dt is timelike (t-class), -1 for the x-class, 0 when mixed.

    t-class is g^tt < 0 and g^xx > 0 at every point, x-class the two signs
    flipped.  The march is stable on either class: the x-class lattice
    scheme is the t-class one with the mass term's sign flipped.  Where g^tt
    and g^xx share a sign, or the class changes across the window, a
    retarded solution grows exponentially from level to level.
    """
    itt, _, ixx = metric.inverse_components()
    if np.max(itt) < 0.0 and np.min(ixx) > 0.0:
        return 1
    if np.min(itt) > 0.0 and np.max(ixx) < 0.0:
        return -1
    return 0


def sup_norms(u):
    """Sup norm of one (nt, nx, r) field, or of each field of a (K, nt, nx, r) batch."""
    return np.max(np.abs(u), axis=(-3, -2, -1))


def worst_ratio(num, den) -> float:
    """Largest of the per-column ratios num / den, with den floored at 1e-300."""
    return float(np.max(num / np.maximum(den, 1e-300)))


class HyperbolicOperator:
    """Assembled lattice operator with metric, weights and stencil offsets."""

    def __init__(self, metric: MetricField, offsets, fiber: FiberMetric,
                 A0=None, A1=None, B=None, self_adjoint=False):
        self.metric = metric
        self.grid = metric.grid
        self.fiber = fiber
        self.offsets = {k: np.ascontiguousarray(v) for k, v in offsets.items()}
        self.A0, self.A1, self.B = A0, A1, B
        self.vol = metric.volume_density()
        self.self_adjoint = self_adjoint
        w = self.vol * self.grid.dt * self.grid.dx
        self.weight_blocks = fiber.values * w[:, :, None, None]
        self.weight_inv_blocks = (1.0 / self.weight_blocks if self.grid.rank == 1
                                  else np.linalg.inv(self.weight_blocks))
        self._steps = {}
        self._dense = None

    # -- linear action -----------------------------------------------------

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Full matrix action on (nt, nx, r) values, boundary rows included.

        A leading batch axis, (K, nt, nx, r), applies the operator to each of
        the K fields.
        """
        return stencil_apply(self.offsets, u)

    def interior_residual(self, u, f=None):
        """Sup norm of N u - f over the equation rows (levels 1..nt-2).

        A number for one field; for a (K, nt, nx, r) batch, the K column norms.
        """
        r = self.apply(u)
        if f is not None:
            r = r - f
        return sup_norms(r[..., 1:-1, :, :])

    # -- weighted transpose ------------------------------------------------

    def transpose_offsets(self):
        """Offsets of N^T: trans[(a, b)](n, j) = N[(-a, -b)](n+a, j+b)^T."""
        return stencil_transpose(self.offsets)

    def adjoint_offsets(self):
        """Offsets of V^{-1} N^T V (the formal adjoint in the same volume)."""
        tr = self.transpose_offsets()
        out = {}
        for (a, b), C in tr.items():
            Wcol = _roll_x(np.roll(self.weight_blocks, -a, axis=0), b)
            if a == 1:
                Wcol[-1] = np.eye(self.grid.rank)
            elif a == -1:
                Wcol[0] = np.eye(self.grid.rank)
            out[(a, b)] = np.einsum("txab,txbc,txcd->txad", self.weight_inv_blocks, C, Wcol)
        return out

    def v_symmetry_defect(self) -> float:
        """Sup norm of N - V^{-1} N^T V entries."""
        adj = self.adjoint_offsets()
        return max(float(np.max(np.abs(self.offsets.get(k, 0.0) - adj.get(k, 0.0))))
                   for k in set(self.offsets) | set(adj))

    # -- the volume weight V = vol dt dx (x) fiber metric ---------------------

    def weigh(self, u):
        """V u for one (nt, nx, r) field or each field of a (K, nt, nx, r) batch."""
        return np.einsum("txab,...txb->...txa", self.weight_blocks, u)

    def unweigh(self, u):
        """V^{-1} u for one (nt, nx, r) field or each field of a (K, nt, nx, r) batch."""
        return np.einsum("txab,...txb->...txa", self.weight_inv_blocks, u)

    def pairing(self, f, h):
        """<f, h>_V: a number for two fields, K numbers for two batches paired column by column.

        Leading axes broadcast, so ``pairing(F[:, None], H)`` is the table of all pairs.
        """
        return np.einsum("...txa,txab,...txb->...", f, self.weight_blocks, h)

    # -- dense form ------------------------------------------------------------

    def as_dense(self) -> np.ndarray:
        if self._dense is None:
            g = self.grid
            n, j = np.meshgrid(np.arange(g.nt), np.arange(g.nx), indexing="ij")
            M = np.zeros((g.nt, g.nx, g.rank, g.nt, g.nx, g.rank))
            for (a, b), C in self.offsets.items():
                ok = (n + a >= 0) & (n + a < g.nt)
                M[n[ok], j[ok], :, n[ok] + a, (j[ok] + b) % g.nx, :] += C[ok]
            self._dense = M.reshape(g.n_dof, g.n_dof)
        return self._dense

    def weight_dense(self) -> np.ndarray:
        """Dense block-diagonal V, an oracle view like ``as_dense``."""
        g = self.grid
        idx = np.arange(g.n_dof).reshape(-1, g.rank)
        M = np.zeros((g.n_dof, g.n_dof))
        M[idx[:, :, None], idx[:, None, :]] = self.weight_blocks.reshape(-1, g.rank, g.rank)
        return M

    # -- principal symbol ----------------------------------------------------

    def principal_coefficients(self):
        """Stencil-extracted second-order coefficients (att, atx, axx)."""
        g = self.grid
        att = np.zeros((g.nt, g.nx))
        atx = np.zeros((g.nt, g.nx))
        axx = np.zeros((g.nt, g.nx))
        r = g.rank
        for (a, b), C in self.offsets.items():
            if not (a or b):
                continue  # (0, 0) has zero weight in all three
            tr = np.trace(C, axis1=-2, axis2=-1) / r
            if a:
                att += 0.5 * a * a * g.dt**2 * tr
            if a and b:
                atx += a * b * g.dt * g.dx * tr / 2.0
            if b:
                axx += 0.5 * b * b * g.dx**2 * tr
        return att, 2.0 * atx, axx

    def check_symbol(self, tol_scale=1e-9):
        """Verify the principal symbol equals -g_sharp(xi, xi) Id.

        The staggered edge weights average neighboring metric values, so the
        pointwise tolerance includes the metric's own discrete second
        differences; constant metrics are checked at round-off level.  Only
        the equation rows 1..nt-2 are checked: the one-sided boundary rows
        carry partial sums.
        """
        itt, itx, ixx = self.metric.inverse_components()
        att, atx2, axx = self.principal_coefficients()
        vol = self.vol[1:-1]
        tol = tol_scale * np.maximum(self.metric.scale()[1:-1], 1.0)

        def stagger_err(w):
            """|second differences| / 4 of w in t and in x (periodic), on the equation rows."""
            x = np.empty_like(w[1:-1])
            x[:, 1:-1] = w[1:-1, :-2] - 2 * w[1:-1, 1:-1] + w[1:-1, 2:]
            x[:, 0] = w[1:-1, -1] - 2 * w[1:-1, 0] + w[1:-1, 1]
            x[:, -1] = w[1:-1, -2] - 2 * w[1:-1, -1] + w[1:-1, 0]
            return np.abs(w[:-2] - 2 * w[1:-1] + w[2:]) / 4.0 + np.abs(x) / 4.0

        def bad(got, k, c):
            """Where got misses -k c by more than the bound, on the equation rows."""
            # factor 2 margin: edge averaging in t and x mixes in the cross term
            bound = 2 * stagger_err(self.vol * c) / vol + np.abs(c[1:-1]) * 1e-9 + tol
            return np.abs(got[1:-1] - (-k * c[1:-1])) > bound

        mismatch = bad(att, 1, itt) | bad(axx, 1, ixx)
        if itx.any() or atx2[1:-1].any():  # both zero: no cross term to check
            mismatch |= bad(atx2, 2, itx)
        if mismatch.any():
            n, j = map(int, np.argwhere(mismatch)[0])
            raise SymbolMismatch(f"principal symbol mismatch at point (level={n + 1}, site={j})")

    # -- causal marching ------------------------------------------------------

    @cached_property
    def _march_refusal(self):
        """None, or the (error class, message) every march of this operator raises.

        Computed once: the metric's components are read-only.
        """
        if axis_class(self.metric) == 0:
            itt, _, ixx = self.metric.inverse_components()
            return UnstableMarch, (
                f"the lattice-time march is unstable unless g^tt and g^xx keep opposite "
                f"signs, the same at every point; g^tt lies in [{itt.min():.3g}, {itt.max():.3g}], "
                f"g^xx in [{ixx.min():.3g}, {ixx.max():.3g}]")
        lo, hi = self.metric.null_slopes()  # finite: g_xx = g^tt det g != 0
        bound = CFL_SAFETY * self.grid.dx / float(np.max(np.maximum(np.abs(lo), np.abs(hi))))
        if self.grid.dt > bound:
            return CFLError, f"CFL violated: dt={self.grid.dt:.3g} > {CFL_SAFETY}*dx/speed={bound:.3g}"
        return None

    def check_march(self):
        """Raise the :class:`MarchError` that refuses marching this operator, if any."""
        if self._march_refusal is not None:
            cls, message = self._march_refusal
            raise cls(message)

    def _step(self, a):
        if a not in self._steps:
            site = self.grid.rank == 1 and not any((a, b) in self.offsets for b in (-1, 1))
            self._steps[a] = (_SiteStep if site else _BandedStep)(self, a)
        return self._steps[a]

    def march(self, f: np.ndarray, direction: int, seed_level=None, seeds=None,
              rows=None) -> np.ndarray:
        """Solve the equation rows causally in time.

        direction +1: zero data on the first two levels (retarded solve);
        direction -1: zero data on the last two levels (advanced solve).
        With seed_level/seeds given, marches both ways from Cauchy data
        (seeds = values on levels seed_level and seed_level+1).

        rows = (lo, hi) solves only the equation rows lo <= n < hi (default
        all, 1 .. nt-2); row n writes level n + 1 going forward and n - 1
        going back, and the levels no row writes stay zero.  A forward march
        from lo equals the full one when f vanishes on the rows below lo (a
        backward march from hi - 1, when f vanishes from hi up); a range
        that ends early cuts the march short after the last level wanted.

        f is one (nt, nx, r) source or a batch (K, nt, nx, r) of K sources;
        the result has the same shape.  A single source is the K = 1 case:
        every column goes through one level loop, and each level solves one
        (nx r, K) right-hand side with the cached level factorisation.
        Seeds of shape (nx, r) are shared by all columns.
        """
        self.check_march()
        g = self.grid
        f = np.asarray(f, dtype=float)
        if f.ndim not in (3, 4) or f.shape[-3:] != (g.nt, g.nx, g.rank):
            raise ValueError(f"march source shape {f.shape} is not (K,) + {(g.nt, g.nx, g.rank)}")
        batched = f.ndim == 4
        F = np.moveaxis(f if batched else f[None], 0, -1)  # (nt, nx, r, K) view
        u = np.zeros(F.shape)
        if seeds is not None:
            u[seed_level], u[seed_level + 1] = (np.asarray(s)[..., None] for s in seeds)
            lo, hi = seed_level, seed_level + 1
        elif direction == 1:
            lo, hi = 0, 1
        else:
            lo, hi = g.nt - 2, g.nt - 1
        first, stop = (1, g.nt - 1) if rows is None else (max(rows[0], 1), min(rows[1], g.nt - 1))
        if direction >= 0 or seeds is not None:
            step = self._step(1)
            for n in range(max(hi, first), stop):
                u[n + 1] = step(n, F[n], u)
        if direction < 0 or seeds is not None:
            step = self._step(-1)
            for n in range(min(lo, stop - 1), first - 1, -1):
                u[n - 1] = step(n, F[n], u)
        return np.moveaxis(u, -1, 0) if batched else u[..., 0]


class _Step:
    """One march step of an operator: level n + a from levels n and n - a.

    The known part, offsets (0, b) on level n and (-a, b) on level n - a, is
    one gather of the two-level window of u and one einsum; the subclass
    solves the new-level system, offsets (a, b), for the rest.
    """

    def __init__(self, op: HyperbolicOperator, a: int):
        nx = op.grid.nx
        sites = np.arange(nx)
        self.lo = min(0, -a)  # first level of the window u[n + lo : n + lo + 2]
        known = [(c, b) for c in (0, -a) for b in (-1, 0, 1) if (c, b) in op.offsets]
        self.gather = np.stack([(c - self.lo) * nx + (sites + b) % nx for c, b in known], axis=1)
        self.known = np.concatenate([op.offsets[k] for k in known], axis=-1)

    def __call__(self, n, f_n, u):
        """Level n + a of the (nt, nx, r, K) batch u from its (nx, r, K) source rows f_n."""
        nx, r, K = f_n.shape
        window = u[n + self.lo:n + self.lo + 2].reshape(2 * nx, r, K)
        rhs = f_n - np.einsum("xab,xbk->xak", self.known[n], window[self.gather].reshape(nx, -1, K))
        return self.solve(n, rhs)


def _singular(n):
    return np.linalg.LinAlgError(f"the level-{n} system of the march is singular")


class _SiteStep(_Step):
    """A rank-1 step whose new level couples each site only to itself (no (a, +-1) offset).

    The level system is diagonal, so the solve divides by the (a, 0)
    stencil entry, which is what the banded solve does with a diagonal band.
    """

    def __init__(self, op: HyperbolicOperator, a: int):
        super().__init__(op, a)
        self.diag = op.offsets[(a, 0)] if (a, 0) in op.offsets else _blocks(op.grid)
        zero = ~self.diag[1:-1].all(axis=(1, 2, 3))
        if zero.any():
            raise _singular(1 + int(np.argmax(zero)))

    def solve(self, n, rhs):
        rhs /= self.diag[n]
        return rhs


class _BandedStep(_Step):
    """A step whose new level couples neighbouring sites (offsets (a, +-1), g^tx != 0).

    The new-level coupling is a band in interleaved site order (module
    docstring); its LAPACK band storage is filled straight from the offsets,
    factored once per level with dgbtrf and solved with dgbtrs, rows
    permuted in and out.
    """

    def __init__(self, op: HyperbolicOperator, a: int):
        from scipy.linalg.lapack import dgbtrf, dgbtrs  # loaded only by levels that couple sites
        super().__init__(op, a)
        self.dgbtrf, self.dgbtrs = dgbtrf, dgbtrs
        nx, r = op.grid.nx, op.grid.rank
        sites = np.arange(nx)
        self.pos = np.minimum(2 * sites - 1, 2 * (nx - sites)).clip(0)  # place of each site
        self.order = np.argsort(self.pos)  # sites 0, 1, nx-1, 2, nx-2, ...
        # A[R, C] sits at ab[2 kl + R - C, C]; ab is filled as its (nx r, ldab) transpose
        self.kl, self.ldab, self.size = 3 * r - 1, 9 * r - 2, nx * r
        rows = self.pos[:, None, None] * r + np.arange(r)[:, None]
        new = [b for b in (-1, 0, 1) if (a, b) in op.offsets]
        cols = [self.pos[(sites + b) % nx][:, None, None] * r + np.arange(r) for b in new]
        self.band = np.stack([c * self.ldab + 2 * self.kl + rows - c for c in cols]).ravel()
        self.new = [op.offsets[(a, b)] for b in new]
        self.factors = {}

    def factor(self, n):
        if n not in self.factors:
            vals = np.stack([C[n] for C in self.new]).ravel()
            ab = np.bincount(self.band, vals, minlength=self.ldab * self.size).reshape(self.size, -1)
            lu, piv, info = self.dgbtrf(ab.T, self.kl, self.kl, overwrite_ab=True)
            if info > 0:
                raise _singular(n)
            self.factors[n] = (lu, piv)
        return self.factors[n]

    def solve(self, n, rhs):
        nx, r, K = rhs.shape
        lu, piv = self.factor(n)
        x, _ = self.dgbtrs(lu, self.kl, self.kl, rhs[self.order].reshape(self.size, K), piv, overwrite_b=True)
        return x.reshape(nx, r, K)[self.pos]


# -- constructors -------------------------------------------------------------

def _principal_offsets(metric: MetricField, ixx_override=None):
    """Scalar nine-offset stencil of -(1/vol) div(vol g_sharp grad .).

    Written straight from the divergence form
    (1/vol) [Dt^T Wtt Dt + Dx^T Wxx Dx + Ct^T Wtx Cx + Cx^T Wtx Ct]:
    Dt, Dx are forward differences onto t edges and periodic x edges,
    weighted by edge means of vol g^tt (no edge beyond the window) and
    vol g^xx; Ct, Cx are centered differences at the nodes, weighted by
    vol g^tx.  Ct's rows at levels 0 and nt-1 are half-weight one-sided
    differences; they feed the transpose so that equation rows 1 and nt-2
    keep the full interior cross coupling.  Keys whose stencil is zero
    everywhere are dropped.
    """
    g = metric.grid
    itt, itx, ixx = metric.inverse_components()
    if ixx_override is not None:
        ixx = np.broadcast_to(np.asarray(ixx_override, dtype=float), ixx.shape)
    vol = metric.volume_density()
    vit, vix = vol * itt, vol * ixx
    idt, idx = 1.0 / g.dt, 1.0 / g.dx
    wt = np.zeros((g.nt + 1, g.nx))  # wt[n]: edge from level n-1 to level n
    wt[1:-1] = 0.5 * (vit[:-1] + vit[1:]) * idt * idt
    wx = 0.5 * (vix + np.roll(vix, -1, axis=1)) * idx * idx  # edge j -> j+1
    wx_in = np.roll(wx, 1, axis=1)  # edge j-1 -> j
    S = {(0, 0): (wt[:-1] + wt[1:]) + (wx + wx_in), (1, 0): -wt[1:], (-1, 0): -wt[:-1],
         (0, 1): -wx, (0, -1): -wx_in}
    c = vol * itx * (0.5 / g.dt) * (0.5 / g.dx)
    for s in (-1, 1):
        cs = np.roll(c, -s, axis=1)
        up, dn = np.zeros_like(c), np.zeros_like(c)
        up[:-1] = -s * (c[1:] + cs[:-1])
        dn[1:] = s * (c[:-1] + cs[1:])
        S[(1, s)], S[(-1, s)] = up, dn
        ends = s * (c - cs)  # one-sided rows of Ct at levels 0 and nt-1
        S[(0, s)][0] -= ends[0]
        S[(0, s)][-1] += ends[-1]
    return {k: v / vol for k, v in S.items() if np.any(v)}


def build_operator(metric: MetricField, A0=None, A1=None, B=None,
                   fiber: FiberMetric | None = None, hxx_override=None,
                   check=True) -> HyperbolicOperator:
    """Assemble the lattice operator for a metric plus lower-order fields.

    A0, A1, B are per-point (r x r) coefficient fields (or scalars / (nt,nx)
    arrays for rank 1) entering as A0 d_t + A1 d_x + B; hxx_override replaces
    the spatial principal coefficient and exists to exercise the symbol
    verifier, which rejects any stencil whose extracted second-order part
    deviates from -g_sharp.
    """
    g = metric.grid
    fiber = fiber or FiberMetric(g)
    S = _principal_offsets(metric, ixx_override=hxx_override)
    offsets = {k: _blocks(g, v) for k, v in S.items()}

    def coerce(c):
        if c is None:
            return None
        c = np.asarray(c, dtype=float)
        if c.shape == ():
            out = _blocks(g, np.full((g.nt, g.nx), float(c)))
        elif c.shape == (g.nt, g.nx):
            out = _blocks(g, c)
        elif c.shape == (g.nt, g.nx, g.rank, g.rank):
            out = c.copy()
        else:
            raise ValueError("coefficient shape does not match grid/rank")
        return out

    A0c, A1c, Bc = coerce(A0), coerce(A1), coerce(B)
    if A0c is not None:
        blk = A0c / (2.0 * g.dt)
        blk[0] = 0.0
        blk[-1] = 0.0
        offsets[(1, 0)] = offsets.get((1, 0), _blocks(g)) + blk
        offsets[(-1, 0)] = offsets.get((-1, 0), _blocks(g)) - blk
    if A1c is not None:
        blk = A1c / (2.0 * g.dx)
        offsets[(0, 1)] = offsets.get((0, 1), _blocks(g)) + blk
        offsets[(0, -1)] = offsets.get((0, -1), _blocks(g)) - blk
    if Bc is not None:
        offsets[(0, 0)] = offsets.get((0, 0), _blocks(g)) + Bc
    op = HyperbolicOperator(metric, offsets, fiber, A0c, A1c, Bc)
    if check:
        op.check_symbol()
    return op


def wave_operator(metric: MetricField, mass=1.0, fiber=None) -> HyperbolicOperator:
    """Canonical formally self-adjoint operator of a metric: div form + m^2."""
    op = build_operator(metric, B=float(mass) ** 2, fiber=fiber)
    # judged against the stencil's own entries, which grow like 1/dt^2
    entry = max(float(np.max(np.abs(C))) for C in op.offsets.values())
    if op.v_symmetry_defect() <= 1e-10 * (1.0 + entry):
        op.self_adjoint = True
        return op
    return symmetrize(op)


def symmetrize(N: HyperbolicOperator) -> HyperbolicOperator:
    """(N + V^{-1} N^T V) / 2; fixes the self-adjoint flag, keeps the symbol."""
    adj = N.adjoint_offsets()
    keys = set(N.offsets) | set(adj)
    zero = _blocks(N.grid)
    offsets = {k: 0.5 * (N.offsets.get(k, zero) + adj.get(k, zero)) for k in keys}
    out = HyperbolicOperator(N.metric, offsets, N.fiber, N.A0, N.A1, N.B, self_adjoint=True)
    return out


def convex_operator(N0: HyperbolicOperator, N1: HyperbolicOperator, chi: ScalarField) -> HyperbolicOperator:
    """Interpolating operator over the sharp-blended metric.

    The principal part is the divergence form of the blended metric (whose
    inverse is the pointwise blend of the two inverses, so the symbol is the
    exact convex combination of the endpoint symbols); the lower-order
    fields blend pointwise.  Where chi is exactly 0 / 1 the stencil
    coincides bitwise with N0 / N1, which keeps the switch-on region of the
    scattering construction exactly inert.
    """
    w = chi.values
    if np.all(w == 0.0):
        return N0
    if np.all(w == 1.0):
        return N1
    gchi = sharp_interpolation(N0.metric, N1.metric, chi)

    def blend(c0, c1):
        if c0 is None and c1 is None:
            return None
        z = _blocks(N0.grid)
        a = c0 if c0 is not None else z
        b = c1 if c1 is not None else z
        return (1.0 - w[:, :, None, None]) * a + w[:, :, None, None] * b

    return build_operator(gchi, blend(N0.A0, N1.A0), blend(N0.A1, N1.A1),
                          blend(N0.B, N1.B), N0.fiber)


# -- Green systems -------------------------------------------------------------

def _check_margin(f, side, what="source"):
    """Reject a source, or any column of a (K, nt, nx, r) batch, that reaches the margin."""
    v = np.abs(f).reshape((-1,) + f.shape[-3:])
    tol = 1e-12 * (1.0 + v.max(axis=(1, 2, 3)))  # round-off dribble is not support
    if side > 0 and np.any(v[:, :PAST_MARGIN].max(axis=(1, 2, 3)) > tol):
        raise ValueError(f"{what} must vanish on the first {PAST_MARGIN} time levels")
    if side < 0 and np.any(v[:, -PAST_MARGIN:].max(axis=(1, 2, 3)) > tol):
        raise ValueError(f"{what} must vanish on the last {PAST_MARGIN} time levels")


class GreenSystem:
    """Retarded/advanced solvers G^+ / G^- of one operator, and its causal
    propagator G = G^+ - G^-.

    Sources are one (nt, nx, r) field (or (nt, nx) for rank 1) or a batch
    (K, nt, nx, r) solved in one march.
    """

    def __init__(self, N: HyperbolicOperator):
        self.operator = N

    def _prep(self, f):
        v = f.values if isinstance(f, Section) else np.asarray(f, dtype=float)
        if v.shape == (self.operator.grid.nt, self.operator.grid.nx):
            v = v[:, :, None]
        return v

    def plus(self, f):
        v = self._prep(f)
        _check_margin(v, +1)
        return self.operator.march(v, +1)

    def minus(self, f):
        v = self._prep(f)
        _check_margin(v, -1)
        return self.operator.march(v, -1)

    def propagator(self, f):
        v = self._prep(f)
        _check_margin(v, +1)
        _check_margin(v, -1)
        return self.operator.march(v, +1) - self.operator.march(v, -1)

    def kernel_matrices(self):
        """Dense (G+, G-) on the admissible interior columns, one batched march each.

        Columns of unit sources on the margin levels stay zero.
        """
        g = self.operator.grid
        n = g.n_dof
        per_level = g.nx * g.rank
        qs = np.arange(PAST_MARGIN * per_level, (g.nt - PAST_MARGIN) * per_level)
        E = np.zeros((len(qs), n))
        E[np.arange(len(qs)), qs] = 1.0
        E = E.reshape(-1, g.nt, g.nx, g.rank)
        out = []
        for solve in (self.plus, self.minus):
            M = np.zeros((n, n))
            M[:, qs] = solve(E).reshape(len(qs), n).T
            out.append(M)
        return tuple(out)


# -- Cauchy problem -------------------------------------------------------------

def solve_cauchy(N: HyperbolicOperator, slice_index: int, h1, h2, f=None) -> Section:
    """March both ways from data on a slice: values h1 and time derivative h2.

    The first step uses a second-order Taylor start built from the equation,
    so smooth solutions converge at the scheme's quadratic rate; the discrete
    residual N Psi - f vanishes on every equation row regardless.
    """
    g = N.grid
    if slice_index < 1 or slice_index > g.nt - 3:
        raise ValueError("Cauchy slice must keep one level clear of the window boundary")
    N.check_march()
    h1 = np.asarray(h1, dtype=float).reshape(g.nx, g.rank)
    h2 = np.asarray(h2, dtype=float).reshape(g.nx, g.rank)
    fv = np.zeros((g.nt, g.nx, g.rank)) if f is None else \
        (f.values if isinstance(f, Section) else np.asarray(f, dtype=float))
    if fv.shape == (g.nt, g.nx):
        fv = fv[:, :, None]
    # second-order start: read u_tt off the equation at the data slice by
    # probing the stencil with the linear-in-time extension of the data
    u0 = np.zeros((g.nt, g.nx, g.rank))
    u0[slice_index] = h1
    u0[slice_index + 1] = h1 + g.dt * h2
    u0[slice_index - 1] = h1 - g.dt * h2
    res = fv[slice_index] - N.apply(u0)[slice_index]
    itt = N.metric.inverse_components()[0][slice_index][:, None]
    utt = res / (-itt)  # the stencil's u_tt coefficient is -g^tt
    u1 = h1 + g.dt * h2 + 0.5 * g.dt**2 * utt
    sol = N.march(fv, 0, seed_level=slice_index, seeds=(h1, u1))
    return Section(g, sol)


# -- verification-grade identities ----------------------------------------------

def exactness_check(N: HyperbolicOperator, seed=0, count=5) -> dict:
    """Residuals of the four-term exact sequence on random window sections.

    (a) injectivity of N on compacts via retarded recovery, (b) G(N h) = 0,
    (c) every spatially-compact homogeneous solution is G of N(chi Psi),
    (d) kernel of G on compacts is N of something compact.  Each law is
    marched once for all `count` samples and reported as its worst column.
    """
    g = N.grid
    rng = np.random.default_rng(seed)
    Gs = GreenSystem(N)
    lo, hi = g.nt // 4, g.nt - g.nt // 4
    chi = smooth_step(g, g.times[g.nt // 3], g.times[2 * g.nt // 3])
    hs, psis = [], []
    for _ in range(count):  # draws per sample: h, then the Cauchy data of psi
        hs.append(_window_section(g, rng, lo, hi))
        psis.append(solve_cauchy(N, 2, rng.standard_normal((g.nx, g.rank)),
                                 rng.standard_normal((g.nx, g.rank))).values)
    h, psi = np.stack(hs), np.stack(psis)
    f = N.apply(h)
    fpsi = N.apply(chi.values[:, :, None] * psi)
    for v in (f, fpsi):
        v[:, :1] = 0.0
        v[:, -1:] = 0.0
    rec = Gs.plus(f)  # recovers h for (a); for (d), f with G f = 0 is N of h = G+ f
    return {
        "injectivity": worst_ratio(sup_norms(rec - h), sup_norms(h)),
        "complex": float(np.max(sup_norms(rec - Gs.minus(f)))),
        "reconstruction": worst_ratio(sup_norms(Gs.propagator(fpsi) - psi), sup_norms(psi)),
        "kernel": worst_ratio(N.interior_residual(rec, f), sup_norms(f)),
    }


def _window_section(grid, rng, lo, hi):
    u = np.zeros((grid.nt, grid.nx, grid.rank))
    u[lo:hi] = rng.standard_normal((hi - lo, grid.nx, grid.rank))
    # smooth a little so sup norms are O(1)
    for _ in range(2):
        u[lo:hi] = 0.25 * np.roll(u[lo:hi], 1, 1) + 0.5 * u[lo:hi] + 0.25 * np.roll(u[lo:hi], -1, 1)
    return u


def flux_blocks(N: HyperbolicOperator, n: int) -> np.ndarray:
    """(V N)[level n rows, level n+1 cols] as per-offset blocks for the flux."""
    out = {}
    for b in (-1, 0, 1):
        C = N.offsets.get((1, b))
        if C is not None:
            out[b] = np.einsum("xab,xbc->xac", N.weight_blocks[n], C[n])
    return out


def symplectic_form(N: HyperbolicOperator, psi, phi, slice_index: int):
    """Conserved symplectic flux through the cut between two time levels.

    Equals the slice integral of <Psi | grad_n Phi> - <grad_n Psi | Phi>
    evaluated with staggered differences; slice independence on equation
    rows is exact because V N is exactly symmetric.  A number for two
    solutions; for two (K, nt, nx, r) batches, the K column-pair fluxes.
    """
    if not N.self_adjoint:
        raise ValueError("symplectic flux needs a formally self-adjoint operator")
    g = N.grid
    n = int(slice_index)
    if n < 0 or n > g.nt - 2:
        raise ValueError("slice must have a successor level inside the window")
    pv = psi.values if isinstance(psi, Section) else psi
    fv = phi.values if isinstance(phi, Section) else phi
    tol = 1e-8 * np.maximum(np.maximum(sup_norms(pv), sup_norms(fv)), 1.0)
    if np.any(N.interior_residual(pv) > tol) or np.any(N.interior_residual(fv) > tol):
        raise ValueError("arguments must be homogeneous solutions")
    return _flux(N, pv, fv, n)


def _flux(N, pv, fv, n):
    # orientation fixed so that sigma(G f, G h) = +<f, G h>_V; this pins the
    # sign of the slice normal consistently with the wave-operator sign
    acc = 0.0
    for b, Bk in flux_blocks(N, n).items():
        fpn = np.roll(fv[..., n + 1, :, :], -b, axis=-2)
        ppn = np.roll(pv[..., n + 1, :, :], -b, axis=-2)
        acc += np.einsum("...xa,xab,...xb->...", fv[..., n, :, :], Bk, ppn)
        acc -= np.einsum("...xa,xab,...xb->...", pv[..., n, :, :], Bk, fpn)
    return acc


def propagator_symplectic_identity(N: HyperbolicOperator, f, h) -> dict:
    """sigma(G f, G h) against the volume pairing of f with G h.

    f and h are sections or (nt, nx, r) fields, or (K, nt, nx, r) batches
    paired column by column, each value of the result then holding K numbers.
    """
    fv, hv = (v.values if isinstance(v, Section) else np.asarray(v, dtype=float) for v in (f, h))
    G = GreenSystem(N)
    ph = G.propagator(hv)
    lhs = symplectic_form(N, G.propagator(fv), ph, N.grid.nt // 2)
    rhs = N.pairing(fv, ph)
    return {"lhs": lhs, "rhs": rhs, "residual": np.abs(lhs - rhs)}


def green_adjoint_relation(N: HyperbolicOperator, fp: Section, f: Section) -> dict:
    """Both weighted-transpose identities tying G+ of N to G- of its adjoint."""
    adj = HyperbolicOperator(N.metric, N.adjoint_offsets(), N.fiber)
    Gs_N = GreenSystem(N)
    Gs_A = GreenSystem(adj)
    r1 = abs(N.pairing(Gs_A.minus(fp), f.values) - N.pairing(fp.values, Gs_N.plus(f)))
    r2 = abs(N.pairing(Gs_A.plus(fp), f.values) - N.pairing(fp.values, Gs_N.minus(f)))
    scale = max(np.max(np.abs(f.values)), np.max(np.abs(fp.values)), 1e-300)
    return {"minus_plus": r1 / scale, "plus_minus": r2 / scale}
