"""Normally hyperbolic lattice operators and their exact causal inverses.

The second-order part of every operator is assembled in summation-by-parts
divergence form

    N = -(1/vol) [ d_t(vol g^tt d_t .) + d_t(vol g^tx d_x .) + d_x(...) ] + lower order

with forward differences on staggered edges for the pure d_t^2 / d_x^2
pieces and centered differences for the cross piece.  This makes the
volume-weighted matrix V N (V = vol * dt * dx) exactly symmetric, so formal
self-adjointness, slice independence of the symplectic flux and antisymmetry
of the causal propagator kernel hold to round-off rather than to
discretization order.

An operator is stored only as its nine-offset stencil: OFF[(a, b)] holds the
coupling of row (n, j) to column (n+a, j+b mod nx), an (nt, nx) field,
or an (nt, 1) column of one value per level when it is constant along x
(``geometry.stored_field``).  The principal part is written directly in
these offsets from the divergence form above; the march, the weighted
transpose, the symplectic flux and the symbol check read them, whatever
their shape, and ``as_dense`` is a derived view.
Green operators are realized as causal triangular solves: the equation rows
at levels 1..nt-2 are marched forward (retarded) or backward (advanced) in
time.  A level's new-time-slice system comes in two kinds, read off the
offsets.  When g^tx = 0 everywhere the new level couples each site only to
itself, offset (a, 0), and a level is one division by the stencil's
diagonal.  Otherwise the level is solved as a band: the cross offsets
(a, +-1) couple site j to j-1, j, j+1 (mod nx); numbered in the interleaved
order 0, 1, nx-1, 2, nx-2, ... that is a plain band with kl = ku = 2,
factored once per level by LAPACK's banded LU and cached, so the factors
hold 8 floats per point and direction.  Either way a march takes time
linear in nx.  The march is refused (:class:`MarchError`) unless it is
stable, g^tt and g^xx keeping opposite signs, the same at every point
(:func:`axis_class`), and the time step keeps the CFL bound.  Sources must
vanish on the first two (resp. last two) time levels, the discrete stand-in
for past (future) compact support in the window.

Fields are (nt, nx) arrays.  ``HyperbolicOperator.apply``, the march and
the Green systems also take a leading batch axis, (K, nt, nx): the K
columns then share one level loop and one solve per level, so a kernel
block or a dense matrix costs a few marches, not one per column.  The batch
is the whole interface; there is no batch-size setting.  A level is three
numpy calls: one ``take`` gathers the known rows and the level's source
row, which waits on the level it solves for (:class:`_Step`), one einsum
folds them into the right-hand side, and one solve writes the level.  The
einsum adds its terms in the same order for every K, so a column's bits do
not depend on the batch it is marched in.

A stencil may be applied on a range of rows only (:func:`stencil_apply`;
``HyperbolicOperator.apply`` is its whole-window case), and a march may
solve a range of equation rows only (``march(..., rows=(lo, hi))``).  Both
default to the whole window.  A caller whose source vanishes below lo
starts a forward march there, or stops a march at the last level it reads;
the Moller steps do both, since their difference operator vanishes
outside its switch window.

Memory: an operator keeps its offsets, the volume density and the weights,
each at the resolution the metric varies at (``MetricField``): a metric
constant along x, as every preset and every time-switched blend of presets
is, gives (nt, 1) columns, which are built and checked in O(nt), while a
metric that varies along x gives whole fields through the same code.
Lower-order terms are added into the offsets, not kept apart.  A pass
over the whole window holds at most a fixed block of levels of scratch
(``_BLOCK_BYTES`` a field, a private constant, not a setting): the march
stacks the coefficient rows it reads a block at a time, at the width the
known-level offsets are stored at (one value a level for a per-level
operator, whose whole window is then one block), copies the sources into
the solution's own levels, and writes each new level in place, and
the symbol check and the march's own checks read the metric a block at a
time, so their scratch does not grow with nt.  Their blocks too are sized
at the stored width (:func:`_row_blocks`): an operator constant along x
is checked as one block.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import MetricField, sharp_interpolation, stored_field
from .lattice import ScalarField, Section, periodic_shift, smooth_noise, smooth_step

__all__ = [
    "MarchError",
    "CFLError",
    "UnstableMarch",
    "SymbolMismatch",
    "HyperbolicOperator",
    "GreenSystem",
    "build_operator",
    "wave_operator",
    "principal_offsets",
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
_BLOCK_BYTES = 256 * 1024  # scratch of a whole-window pass (march block, symbol check)

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


def _into(ufunc, A, B):
    """ufunc(A, B), written into A when A already has the broadcast shape of the two.

    That is so when B has no more axes than A and each of its trailing
    extents is 1 or A's.
    """
    shape = np.shape(B)
    fits = len(shape) <= A.ndim and all(m == 1 or m == n for m, n in zip(shape[::-1], A.shape[::-1]))
    return ufunc(A, B, out=A if fits else None)


def _block_levels(level_bytes):
    """Levels per block of a whole-window pass whose scratch takes level_bytes a level."""
    return max(1, _BLOCK_BYTES // level_bytes)


def _width(arrays):
    """The stored width of what a pass reads: nx when any of the (nt, 1) or (nt, nx) arrays
    varies along x, else 1."""
    return max(A.shape[-1] for A in arrays)


def _row_blocks(first, stop, width):
    """Consecutive slices of levels covering first <= n < stop, each a block of
    at most :data:`_BLOCK_BYTES` a field stored at width floats a level.

    width is the stored width of what the pass reads (:func:`_width`): an
    operator or metric constant along x reads one value a level, so any
    window short of _BLOCK_BYTES / 8 levels is one block, while an x-varying
    one is blocked at nx floats a level.
    """
    L = _block_levels(8 * width)
    return [slice(r0, min(r0 + L, stop)) for r0 in range(first, stop, L)]


def stencil_apply(offsets, u, rows=None):
    """Action of a nine-offset stencil on the rows lo <= n < hi of rows = (lo, hi).

    u is one (nt, nx) field or a (K, nt, nx) batch; the result has its
    shape and is zero off the row range, and u is read on levels lo - 1 .. hi
    only.  rows defaults to the whole window: ``HyperbolicOperator.apply``.
    Those levels are copied once with one periodic site on either side, so
    offset (a, b) reads its neighbours j + b as a shifted view of the copy.
    """
    nt, nx = u.shape[-2:]
    lo, hi = (0, nt) if rows is None else rows
    out = np.zeros_like(u)
    l0 = max(lo - 1, 0)
    levels = u[..., l0:min(hi + 1, nt), :]
    halo = np.concatenate([levels[..., -1:], levels, levels[..., :1]], axis=-1)
    for (a, b), C in offsets.items():
        n0, n1 = max(lo, -a), min(hi, nt - a)  # rows whose level n + a is in the window
        if n0 >= n1:
            continue
        out[..., n0:n1, :] += C[n0:n1] * halo[..., n0 + a - l0:n1 + a - l0, 1 + b:1 + b + nx]
    return out


def _transposed(offsets):
    """The offsets of the transposed stencil as (key, offset) pairs, built one at a time.

    An offset is a new array, except for key (0, 0), whose offset is the original's.
    """
    for (a, b), T in offsets.items():
        # original key (a, b) feeds transposed key (-a, -b); its value at
        # row (n, j) is the entry at the source row (n - a, j - b)
        if a or b:
            T = periodic_shift(T, a, b)
        if a:
            T[0 if a == 1 else -1] = 0.0  # no source row beyond the window
        yield (-a, -b), T


def stencil_transpose(offsets):
    """Offsets of the transposed stencil: trans[(a, b)](n, j) = C[(-a, -b)](n+a, j+b)."""
    return dict(_transposed(offsets))


def axis_class(metric: MetricField) -> int:
    """+1 when dt is timelike (t-class), -1 for the x-class, 0 when mixed.

    t-class is g^tt < 0 and g^xx > 0 at every point, x-class the two signs
    flipped.  The march is stable on either class: the x-class lattice
    scheme is the t-class one with the mass term's sign flipped.  Where g^tt
    and g^xx share a sign, or the class changes across the window, a
    retarded solution grows exponentially from level to level.
    """
    tt_lo, tt_hi, xx_lo, xx_hi = _inverse_ranges(metric)
    if tt_hi < 0.0 and xx_lo > 0.0:
        return 1
    if tt_lo > 0.0 and xx_hi < 0.0:
        return -1
    return 0


def _inverse_ranges(metric: MetricField):
    """min and max of g^tt, then of g^xx, over the window, read a block of levels at a time."""
    ends = []
    for rows in _row_blocks(0, metric.grid.nt, _width(metric.stored[:3])):
        itt, _, ixx = metric.inverse_components(rows)
        ends.append((itt.min(), itt.max(), ixx.min(), ixx.max()))
    tt_lo, tt_hi, xx_lo, xx_hi = zip(*ends)
    return min(tt_lo), max(tt_hi), min(xx_lo), max(xx_hi)


def sup_norms(u):
    """Sup norm of one (nt, nx) field, or of each field of a (K, nt, nx) batch."""
    return np.max(np.abs(u), axis=(-2, -1))


def worst_ratio(num, den) -> float:
    """Largest of the per-column ratios num / den, with den floored at 1e-300."""
    return float(np.max(num / np.maximum(den, 1e-300)))


class HyperbolicOperator:
    """A lattice operator: a metric and a nine-offset stencil, from which all else is derived."""

    def __init__(self, metric: MetricField, offsets):
        self.metric = metric
        self.grid = metric.grid
        self.offsets = {k: np.ascontiguousarray(v) for k, v in offsets.items()}
        self.vol = metric.volume_density()
        self.weight = self.vol * self.grid.dt * self.grid.dx
        self.weight_inv = 1.0 / self.weight
        self._steps = {}

    # -- linear action -----------------------------------------------------

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Full matrix action on (nt, nx) values, boundary rows included.

        A leading batch axis, (K, nt, nx), applies the operator to each of
        the K fields.
        """
        return stencil_apply(self.offsets, u)

    def interior_residual(self, u, f=None):
        """Sup norm of N u - f over the equation rows (levels 1..nt-2).

        A number for one field; for a (K, nt, nx) batch, the K column norms.
        """
        r = self.apply(u)
        if f is not None:
            r = r - f
        return sup_norms(r[..., 1:-1, :])

    # -- weighted transpose ------------------------------------------------

    def transpose_offsets(self):
        """Offsets of N^T: trans[(a, b)](n, j) = N[(-a, -b)](n+a, j+b)."""
        return stencil_transpose(self.offsets)

    def _adjoint_items(self):
        """The offsets of V^{-1} N^T V as (key, offset) pairs, built one at a time."""
        for (a, b), C in _transposed(self.offsets):
            Wcol = periodic_shift(self.weight, -a, -b)
            if a == 1:
                Wcol[-1] = 1.0
            elif a == -1:
                Wcol[0] = 1.0
            if (a, b) == (0, 0):  # the one offset that is the stencil's own
                C = C.copy()
            C = _into(np.multiply, C, self.weight_inv)
            yield (a, b), _into(np.multiply, C, Wcol)

    def adjoint_offsets(self):
        """Offsets of V^{-1} N^T V (the formal adjoint in the same volume)."""
        return dict(self._adjoint_items())

    def v_symmetry_defect(self) -> float:
        """Sup norm of N - V^{-1} N^T V entries, compared one offset at a time."""
        worst, seen = 0.0, set()
        for k, A in self._adjoint_items():
            seen.add(k)
            if k in self.offsets:
                A = _into(np.subtract, A, self.offsets[k])  # |A - N| is |N - A| bit for bit
            worst = max(worst, float(np.max(np.abs(A, out=A))))
            del A  # so the next offset's scratch does not share the peak with this one
        for k in self.offsets.keys() - seen:  # no transposed partner: compared with zero
            worst = max(worst, float(np.max(np.abs(self.offsets[k]))))
        return worst

    @cached_property
    def self_adjoint(self) -> bool:
        """V N symmetric: the V-symmetry defect within 1e-10 of the largest entry (~1/dt^2)."""
        entry = max(float(np.max(np.abs(C))) for C in self.offsets.values())
        return self.v_symmetry_defect() <= 1e-10 * (1.0 + entry)

    # -- the volume weight V = vol dt dx ---------------------------------------

    def weigh(self, u):
        """V u for one (nt, nx) field or each field of a (K, nt, nx) batch."""
        return u * self.weight

    def unweigh(self, u):
        """V^{-1} u for one (nt, nx) field or each field of a (K, nt, nx) batch."""
        return u * self.weight_inv

    def pairing(self, f, h):
        """<f, h>_V: a number for two fields, K numbers for two batches paired column by column.

        Leading axes broadcast, so ``pairing(F[:, None], H)`` is the table of all pairs.
        """
        return np.einsum("...tx,tx,...tx->...", f, self.weight, h)

    # -- dense form ------------------------------------------------------------

    def as_dense(self) -> np.ndarray:
        """The dense matrix of the stencil, an oracle view built anew on each call."""
        g = self.grid
        n, j = np.meshgrid(np.arange(g.nt), np.arange(g.nx), indexing="ij")
        M = np.zeros((g.nt, g.nx, g.nt, g.nx))
        for (a, b), C in self.offsets.items():
            ok = (n + a >= 0) & (n + a < g.nt)
            M[n[ok], j[ok], n[ok] + a, (j[ok] + b) % g.nx] += np.broadcast_to(C, n.shape)[ok]
        return M.reshape(g.n_dof, g.n_dof)

    def weight_dense(self) -> np.ndarray:
        """Dense diagonal V, an oracle view like ``as_dense``."""
        return np.diag(np.broadcast_to(self.weight, (self.grid.nt, self.grid.nx)).ravel())

    # -- principal symbol ----------------------------------------------------

    def _principal_coefficient(self, i, rows=slice(None)):
        """Stencil-extracted second-order coefficient i of (att, atx, axx) on the levels `rows`."""
        g = self.grid
        out = np.zeros(self.vol[rows].shape)
        for (a, b), C in self.offsets.items():
            w = (0.5 * a * a * g.dt**2, a * b * g.dt * g.dx, 0.5 * b * b * g.dx**2)[i]
            if w:  # (0, 0) has zero weight in all three
                out = _into(np.add, out, w * C[rows])
        return out

    def principal_coefficients(self):
        """Stencil-extracted second-order coefficients (att, atx, axx)."""
        return tuple(self._principal_coefficient(i) for i in range(3))

    def check_symbol(self):
        """Verify the principal symbol equals -g_sharp(xi, xi) Id.

        The staggered edge weights average neighboring metric values, so the
        pointwise tolerance includes the metric's own discrete second
        differences; constant metrics are checked at round-off level.  Only
        the equation rows 1..nt-2 are checked: the one-sided boundary rows
        carry partial sums.  The rows are checked in blocks of levels, each
        read with one level of halo on either side for the second
        differences, so the scratch is a few fields of one block
        (:data:`_BLOCK_BYTES` a field) whatever the window; the first
        mismatch found is the first in row order.  Blocks are sized at the
        stored width of the offsets and the metric: an operator constant
        along x is checked as one block of (nt, 1) columns, an x-varying
        one in blocks of nx-wide levels.
        """
        width = _width([*self.offsets.values(), *self.metric.stored[:3]])
        for rows in _row_blocks(1, self.grid.nt - 1, width):
            self._check_symbol_rows(rows)

    def _check_symbol_rows(self, rows):
        """check_symbol on the equation rows in the slice rows, reading one more level either side."""
        r0 = rows.start
        halo = slice(r0 - 1, rows.stop + 1)
        vol = self.vol[rows]
        tol = np.maximum(self.metric.scale(rows), 1.0)
        tol *= 1e-9

        def stagger_err(w):
            """|second differences| / 4 of w in t and in x (periodic), on the halo's inner rows."""
            x = -2 * w[1:-1]  # each difference is (w- - 2 w) + w+, summed as (-2 w + w-) + w+
            x += periodic_shift(w[1:-1], 0, 1)
            x += periodic_shift(w[1:-1], 0, -1)
            err = -2 * w[1:-1]
            err += w[:-2]
            err += w[2:]
            np.abs(err, out=err)
            err /= 4.0
            np.abs(x, out=x)
            x /= 4.0
            err += x
            return err

        def bad(c, i, k):
            """Where coefficient i misses -k times its g_sharp component c (read on the halo)
            by more than the bound."""
            got = self._principal_coefficient(i, rows)
            if i == 1 and not (c.any() or got.any()):
                return False  # no cross term to check
            # factor 2 margin: edge averaging in t and x mixes in the cross term
            bound = stagger_err(self.vol[halo] * c)
            bound *= 2
            bound /= vol
            rel = np.abs(c[1:-1])
            rel *= 1e-9
            bound += rel
            bound += tol
            got = _into(np.subtract, got, -k * c[1:-1])
            return np.abs(got, out=got) > bound

        itt, itx, ixx = self.metric.inverse_components(halo)
        mismatch = bad(itt, 0, 1) | bad(ixx, 2, 1) | bad(itx, 1, 2)
        if mismatch.any():
            n, j = map(int, np.argwhere(mismatch)[0])
            raise SymbolMismatch(f"principal symbol mismatch at point (level={r0 + n}, site={j})")

    # -- causal marching ------------------------------------------------------

    @cached_property
    def _march_refusal(self):
        """None, or the (error class, message) every march of this operator raises.

        Computed once: the metric's components are read-only.  The metric is
        read a block of levels at a time, at its stored width.
        """
        if axis_class(self.metric) == 0:
            tt_lo, tt_hi, xx_lo, xx_hi = _inverse_ranges(self.metric)
            return UnstableMarch, (
                f"the lattice-time march is unstable unless g^tt and g^xx keep opposite "
                f"signs, the same at every point; g^tt lies in [{tt_lo:.3g}, {tt_hi:.3g}], "
                f"g^xx in [{xx_lo:.3g}, {xx_hi:.3g}]")
        speed = 0.0
        for rows in _row_blocks(0, self.grid.nt, _width(self.metric.stored[:3])):
            # finite: g_xx = g^tt det g != 0
            speed = max(speed, float(np.max(self.metric.null_speed(rows))))
        bound = CFL_SAFETY * self.grid.dx / speed
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
            site = not any((a, b) in self.offsets for b in (-1, 1))
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

        f is one (nt, nx) source or a batch (K, nt, nx) of K sources; the
        result has the same shape.  A single source is the K = 1 case: every
        column goes through one level loop, and each level solves one (nx, K)
        right-hand side with the cached level factorisation.  Seeds of shape
        (nx,) are shared by all columns; seeds of shape (K, nx) give each
        column of a batch its own.
        """
        self.check_march()
        g = self.grid
        f = _fields(g, f, "march source")
        batched = f.ndim == 3
        F = np.moveaxis(f if batched else f[None], 0, -1)  # (nt, nx, K) view
        u = np.zeros(F.shape)
        if seeds is not None:
            # an (nx,) seed is shared by the K columns, a (K, nx) one is per column
            u[seed_level], u[seed_level + 1] = (np.asarray(s)[:, None] if np.ndim(s) == 1
                                                else np.asarray(s).T for s in seeds)
            lo, hi = seed_level, seed_level + 1
        elif direction == 1:
            lo, hi = 0, 1
        else:
            lo, hi = g.nt - 2, g.nt - 1
        first, stop = (1, g.nt - 1) if rows is None else (max(rows[0], 1), min(rows[1], g.nt - 1))
        if direction >= 0 or seeds is not None:
            self._step(1).run(F, u, range(max(hi, first), stop))
        if direction < 0 or seeds is not None:
            self._step(-1).run(F, u, range(min(lo, stop - 1), first - 1, -1))
        return np.moveaxis(u, -1, 0) if batched else u[..., 0]


class _Step:
    """One march step of an operator: level n + a from levels n and n - a and the source F[n].

    Before a leg starts, each marched row's source F[n] is copied into the
    level n + a that the row writes, which no row reads earlier.  A level is
    then one ``take`` of the (m + 1, nx) site index from the window
    u[n - 1 : n + 2], rows of K columns, giving the m known rows (offsets
    (0, b) on level n and (-a, b) on level n - a) and the source row, and
    one einsum against the coefficient row: the m known offsets negated and
    a constant +1.  The summed axis leads, so the einsum adds the m + 1
    terms in order for every K; as (-c) u is -(c u) exactly, the result is
    F[n] minus the known part summed in order, bit for bit, and a column's
    bits do not depend on the batch width K.  The subclass solves the
    new-level system, offsets (a, b), for that right-hand side.

    The coefficient rows are stacked at the width the known offsets are
    stored at: a (levels, width, m + 1) buffer, width 1 when every known
    offset is an (nt, 1) column and nx otherwise, a block of levels at a
    time, as many as :data:`_BLOCK_BYTES` holds, the last block cached.  The
    einsum reads the block as a read-only ``broadcast_to`` view along x, a
    stride-0 operand that keeps the summation order, so the bits are those
    of a whole-field block.  A per-level operator's window (m + 1 floats a
    level: 6553 levels when m = 4) is then one block, stacked once for all
    marches; an x-varying window wider than one block is stacked block by
    block in each march.
    """

    def __init__(self, op: HyperbolicOperator, a: int):
        nx = op.grid.nx
        self.a = a
        known = [(c, b) for c in (0, -a) for b in (-1, 0, 1) if (c, b) in op.offsets]
        # level n + c is row c + 1 of the window, read at sites j + b; the
        # source waits on level n + a
        level, shift = np.array([(c + 1, b) for c, b in known] + [(a + 1, 0)]).T[..., None]
        self.gather = level * nx + (np.arange(nx) + shift) % nx
        self.known = [op.offsets[k] for k in known]
        width, terms = _width(self.known), len(self.gather)  # m + 1 terms a level
        self.levels = min(_block_levels(8 * width * terms), op.grid.nt)
        self.buffer = np.empty((self.levels, width, terms))
        self.buffer[..., -1] = 1.0  # the source's coefficient, never restacked
        self.first, self.block = 0, self.buffer[:0]  # empty: the first level stacks

    def _stack(self, n):
        """Stack the block of levels that holds level n; return its first level and its view."""
        L = self.levels
        self.first = first = n - n % L
        rows = self.buffer[:len(self.known[0]) - first]  # L levels, or the window's last ones
        for i, C in enumerate(self.known):
            np.negative(C[first:first + L], out=rows[..., i])
        self.block = np.broadcast_to(rows, rows.shape[:1] + self.gather.shape[::-1])
        return first, self.block

    def run(self, F, u, levels):
        """Write level n + a of the (nt, nx, K) batch u from its source rows F[n], for n in levels."""
        if not levels:
            return
        _, nx, K = u.shape
        a, gather, solve = self.a, self.gather, self.solve
        n0, n1 = sorted((levels[0], levels[-1]))
        u[n0 + a:n1 + a + 1] = F[n0:n1 + 1]  # each source waits on the level its row writes
        flat, rhs = u.reshape(-1, K), np.empty((nx, K))  # flat: u's sites, level after level
        first, block = self.first, self.block
        end = first + len(block)
        for n in levels:
            if not first <= n < end:
                first, block = self._stack(n)
                end = first + len(block)
            window = flat[(n - 1) * nx:(n + 2) * nx].take(gather, axis=0)  # (m + 1, nx, K)
            np.einsum("xm,mxk->xk", block[n - first], window, out=rhs)  # F[n] - known part
            solve(n, rhs, u[n + a])


def _singular(n):
    return np.linalg.LinAlgError(f"the level-{n} system of the march is singular")


class _SiteStep(_Step):
    """A step whose new level couples each site only to itself (no (a, +-1) offset).

    The level system is diagonal, so the solve divides the folded
    right-hand side F[n] - (known part) by the (a, 0) stencil entry, read
    in place, which is what the banded solve does with a diagonal band.
    """

    def __init__(self, op: HyperbolicOperator, a: int):
        super().__init__(op, a)
        self.diag = op.offsets[(a, 0)] if (a, 0) in op.offsets else np.zeros((op.grid.nt, 1))
        if not self.diag[1:-1].all():
            raise _singular(1 + int(np.argmax(~self.diag[1:-1].all(axis=1))))
        self.divisor = self.diag[:, :, None]  # level n: one value per site, for all K columns

    def solve(self, n, rhs, out):
        np.divide(rhs, self.divisor[n], out=out)


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
        nx = op.grid.nx
        sites = np.arange(nx)
        self.pos = np.minimum(2 * sites - 1, 2 * (nx - sites)).clip(0)  # place of each site
        self.order = np.argsort(self.pos)  # sites 0, 1, nx-1, 2, nx-2, ...
        # ring neighbours sit at most 2 places apart: kl = ku = 2, and LAPACK's
        # band storage has 2 kl + ku + 1 = 7 rows; A[R, C] sits at
        # ab[2 kl + R - C, C], and ab is filled as its (nx, ldab) transpose
        self.kl, self.ldab = 2, 7
        new = [b for b in (-1, 0, 1) if (a, b) in op.offsets]
        cols = [self.pos[(sites + b) % nx] for b in new]
        self.band = np.stack([c * self.ldab + 2 * self.kl + self.pos - c for c in cols]).ravel()
        self.new = [op.offsets[(a, b)] for b in new]
        self.factors = {}

    def factor(self, n):
        if n not in self.factors:
            nx = len(self.pos)
            vals = np.stack([np.broadcast_to(C[n], (nx,)) for C in self.new]).ravel()
            ab = np.bincount(self.band, vals, minlength=self.ldab * nx).reshape(nx, -1)
            lu, piv, info = self.dgbtrf(ab.T, self.kl, self.kl, overwrite_ab=True)
            if info > 0:
                raise _singular(n)
            self.factors[n] = (lu, piv)
        return self.factors[n]

    def solve(self, n, rhs, out):
        lu, piv = self.factor(n)
        x, _ = self.dgbtrs(lu, self.kl, self.kl, rhs[self.order], piv, overwrite_b=True)
        np.take(x, self.pos, axis=0, out=out, mode="clip")  # "raise" buffers out


# -- constructors -------------------------------------------------------------

def principal_offsets(metric: MetricField):
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
    # each has the broadcast shape of the metric's components: (nt, 1) when none varies along x
    itt, itx, ixx = metric.inverse_components()
    vol = metric.volume_density()
    c = vol * itx * (0.5 / g.dt) * (0.5 / g.dx)
    vit = vol * itt
    del itt, itx  # each field is dropped once read, so assembly holds a few at a time
    idt, idx = 1.0 / g.dt, 1.0 / g.dx
    wt = np.zeros((g.nt + 1,) + vit.shape[1:])  # wt[n]: edge from level n-1 to level n
    wt[1:-1] = 0.5 * (vit[:-1] + vit[1:]) * idt * idt
    vix = vol * ixx
    del vit, ixx
    wx = 0.5 * (vix + periodic_shift(vix, 0, -1)) * idx * idx  # edge j -> j+1
    del vix
    wx_in = periodic_shift(wx, 0, 1)  # edge j-1 -> j
    S = {(0, 0): (wt[:-1] + wt[1:]) + (wx + wx_in), (1, 0): -wt[1:], (-1, 0): -wt[:-1],
         (0, 1): np.negative(wx, out=wx), (0, -1): np.negative(wx_in, out=wx_in)}
    del wt
    for s in (-1, 1) if c.any() else ():  # g^tx = 0 everywhere: no cross term
        cs = periodic_shift(c, 0, -s)
        up, dn = np.zeros_like(c), np.zeros_like(c)
        up[:-1] = -s * (c[1:] + cs[:-1])
        dn[1:] = s * (c[:-1] + cs[1:])
        S[(1, s)], S[(-1, s)] = up, dn
        ends = s * (c - cs)  # one-sided rows of Ct at levels 0 and nt-1
        S[(0, s)][0] -= ends[0]
        S[(0, s)][-1] += ends[-1]
    del c
    S = {k: v for k, v in S.items() if v.any()}
    for v in S.values():
        v /= vol
    return S


def build_operator(metric: MetricField, A0=None, A1=None, B=None, principal=None) -> HyperbolicOperator:
    """Assemble the stencil of a metric's divergence form plus A0 d_t + A1 d_x + B.

    A0, A1, B are scalars, (nt, 1) columns, (1, nx) rows or (nt, nx) fields;
    each is added into the offsets at the resolution it varies at
    (:func:`geometry.stored_field`; a row is the field it broadcasts to) and
    not kept apart from them, so a scalar or a per-level column costs no
    field.  The symbol check refuses the result when its extracted
    second-order part deviates from -g_sharp.

    principal, if given, is the metric's :func:`principal_offsets`, built by
    the caller for other uses too.  It is read, not written: the operator
    shares the offsets that no lower-order term changes, and each term makes
    the offsets it changes new arrays.
    """
    g = metric.grid
    own = principal is None  # the offsets are this call's own, to add into in place
    offsets = principal_offsets(metric) if own else dict(principal)

    def coerce(c):
        c = np.asarray(c, dtype=float)
        if c.shape == ():
            return c
        if c.shape not in ((g.nt, 1), (1, g.nx), (g.nt, g.nx)):
            raise ValueError("coefficient shape does not match grid")
        return stored_field(g, np.broadcast_to(c, np.broadcast_shapes(c.shape, (g.nt, 1))))

    def add(key, blk):
        """Add blk, a scalar or an (nt, 1) or (nt, nx) array, into offset `key`,
        in place where the shapes allow and the offsets are this call's own."""
        C = offsets.get(key, np.zeros((g.nt, 1)))
        offsets[key] = _into(np.add, C, blk) if own else np.add(C, blk)  # x + (-b) is x - b bit for bit

    A0c, A1c, Bc = (None if c is None else coerce(c) for c in (A0, A1, B))
    if A0c is not None:
        blk = np.broadcast_to(A0c, np.broadcast_shapes(A0c.shape, (g.nt, 1))) / (2.0 * g.dt)
        blk[0] = 0.0
        blk[-1] = 0.0
        add((1, 0), blk)
        add((-1, 0), -blk)
    if A1c is not None:
        blk = A1c / (2.0 * g.dx)
        add((0, 1), blk)
        add((0, -1), -blk)
    if Bc is not None:
        add((0, 0), Bc)
    op = HyperbolicOperator(metric, offsets)
    op.check_symbol()
    return op


def wave_operator(metric: MetricField, mass=1.0, principal=None) -> HyperbolicOperator:
    """Canonical operator of a metric: div form + m^2, formally self-adjoint by construction.

    principal is passed to :func:`build_operator`.
    """
    return build_operator(metric, B=float(mass) ** 2, principal=principal)


def symmetrize(N: HyperbolicOperator) -> HyperbolicOperator:
    """(N + V^{-1} N^T V) / 2: a formally self-adjoint operator with N's symbol."""
    adj = N.adjoint_offsets()
    keys = set(N.offsets) | set(adj)
    zero = np.zeros((N.grid.nt, 1))
    offsets = {k: 0.5 * (N.offsets.get(k, zero) + adj.get(k, zero)) for k in keys}
    return HyperbolicOperator(N.metric, offsets)


def convex_operator(N0: HyperbolicOperator, N1: HyperbolicOperator, chi: ScalarField,
                    principal=None) -> HyperbolicOperator:
    """Interpolating operator over the sharp-blended metric g_chi: the stencil
    ((1 - chi) N0 + chi N1) + (P_chi - ((1 - chi) P0 + chi P1)), P a metric's principal stencil.

    g_chi's inverse blends the two inverses, so the symbol (checked on P_chi)
    is the exact convex combination of the end symbols, while the ends'
    lower-order terms, whatever they are, blend pointwise.  Where chi is
    exactly 0 / 1 every offset is N0's / N1's bit for bit (1 x = x, 0 y = 0,
    x - x = 0), which keeps the switch-on region of the scattering exactly inert.

    principal, if given, is the pair (P0, P1) of the end metrics'
    :func:`principal_offsets`, built by the caller (``moller.compose_chain``
    builds each chain metric's once for the links on either side of it); it
    is read, not written.  Otherwise both are built here.
    """
    grid = N0.grid
    w = stored_field(grid, chi.values)
    if np.all(w == 0.0):
        return N0
    if np.all(w == 1.0):
        return N1
    gchi = sharp_interpolation(N0.metric, N1.metric, chi)
    Pchi = principal_offsets(gchi)
    HyperbolicOperator(gchi, Pchi).check_symbol()
    if principal is None:
        P0, P1 = principal_offsets(N0.metric), principal_offsets(N1.metric)
    else:  # own dicts, so that popping below leaves the caller's whole
        P0, P1 = (dict(P) for P in principal)
    v = 1.0 - w
    zero = np.zeros((grid.nt, 1))
    offsets = {}
    for k in dict.fromkeys([*Pchi, *N0.offsets, *N1.offsets]):
        C = _into(np.add, v * N0.offsets.get(k, zero), w * N1.offsets.get(k, zero))
        P = _into(np.add, v * P0.pop(k, zero), w * P1.pop(k, zero))
        P = _into(np.subtract, P, Pchi.pop(k, zero))
        C = _into(np.subtract, C, P)  # x - (p - q) is x + (q - p) bit for bit
        if C.any():
            offsets[k] = C
    return HyperbolicOperator(gchi, offsets)


# -- Green systems -------------------------------------------------------------

def _fields(grid, f, what):
    """f as a float array, one (nt, nx) field or a (K, nt, nx) batch; any other shape is refused."""
    f = np.asarray(f, dtype=float)
    if f.ndim not in (2, 3) or f.shape[-2:] != (grid.nt, grid.nx):
        raise ValueError(f"{what} shape {f.shape} is neither (nt, nx) = {(grid.nt, grid.nx)} "
                         f"nor a batch (K, nt, nx)")
    return f


def _check_margin(f, sides, what="source"):
    """Reject a source, or any column of a (K, nt, nx) batch, that reaches the
    margin of a side in sides: +1 the first levels (checked first), -1 the last."""
    v = np.abs(f).reshape((-1,) + f.shape[-2:])
    tol = 1e-12 * (1.0 + v.max(axis=(1, 2)))  # round-off dribble is not support
    if +1 in sides and np.any(v[:, :PAST_MARGIN].max(axis=(1, 2)) > tol):
        raise ValueError(f"{what} must vanish on the first {PAST_MARGIN} time levels")
    if -1 in sides and np.any(v[:, -PAST_MARGIN:].max(axis=(1, 2)) > tol):
        raise ValueError(f"{what} must vanish on the last {PAST_MARGIN} time levels")


class GreenSystem:
    """Retarded/advanced solvers G^+ / G^- of one operator, and its causal
    propagator G = G^+ - G^-.

    Sources are one (nt, nx) field or section, or a batch (K, nt, nx)
    solved in one march.
    """

    def __init__(self, N: HyperbolicOperator):
        self.operator = N

    def _prep(self, f):
        return _fields(self.operator.grid, f.values if isinstance(f, Section) else f, "source")

    def plus(self, f):
        v = self._prep(f)
        _check_margin(v, (+1,))
        return self.operator.march(v, +1)

    def minus(self, f):
        v = self._prep(f)
        _check_margin(v, (-1,))
        return self.operator.march(v, -1)

    def propagator(self, f):
        v = self._prep(f)
        _check_margin(v, (+1, -1))
        return self.operator.march(v, +1) - self.operator.march(v, -1)

    def kernel_matrices(self):
        """Dense (G+, G-) on the admissible interior columns, one batched march each.

        Columns of unit sources on the margin levels stay zero.
        """
        g = self.operator.grid
        n = g.n_dof
        qs = np.arange(PAST_MARGIN * g.nx, (g.nt - PAST_MARGIN) * g.nx)
        E = np.zeros((len(qs), n))
        E[np.arange(len(qs)), qs] = 1.0
        E = E.reshape(-1, g.nt, g.nx)
        out = []
        for solve in (self.plus, self.minus):
            M = np.zeros((n, n))
            M[:, qs] = solve(E).reshape(len(qs), n).T
            out.append(M)
        return tuple(out)


# -- Cauchy problem -------------------------------------------------------------

def solve_cauchy(N: HyperbolicOperator, slice_index: int, h1, h2, f=None):
    """March both ways from data on a slice: values h1 and time derivative h2.

    h1 and h2 are one (nx,) pair, solved into a :class:`Section`, or a
    batch of K pairs, each (K, nx), solved in one march into a (K, nt, nx)
    array; the (nt, nx) source f, if any, is shared by every column.
    The first step uses a second-order Taylor start built from the equation,
    so smooth solutions converge at the scheme's quadratic rate; the discrete
    residual N Psi - f vanishes on every equation row regardless.
    """
    g = N.grid
    if slice_index < 1 or slice_index > g.nt - 3:
        raise ValueError("Cauchy slice must keep one level clear of the window boundary")
    N.check_march()
    h1, h2 = (np.asarray(h, dtype=float) for h in (h1, h2))
    if h1.shape != h2.shape or h1.ndim not in (1, 2) or h1.shape[-1] != g.nx:
        raise ValueError(f"Cauchy data shapes {h1.shape}, {h2.shape} are not (nx,) = {(g.nx,)} "
                         f"nor one batch (K, nx)")
    fv = np.broadcast_to(0.0, (g.nt, g.nx)) if f is None else \
        (f.values if isinstance(f, Section) else np.asarray(f, dtype=float))
    if fv.shape != (g.nt, g.nx):
        raise ValueError(f"Cauchy source shape {fv.shape} is not (nt, nx) = {(g.nt, g.nx)}")
    u1 = _taylor_start(N, slice_index, h1, h2, fv[slice_index])
    if h1.ndim == 2:
        fv = np.broadcast_to(fv, (len(h1),) + fv.shape)
    sol = N.march(fv, 0, seed_level=slice_index, seeds=(h1, u1))
    return Section(g, sol) if h1.ndim == 1 else sol


def _taylor_start(N, s, h1, h2, f_s):
    """Level s + 1 of the second-order start from values h1 and time derivative h2 on level s.

    h1 and h2 are (nx,) or a batch (K, nx).  u_tt is read off the equation
    at the data slice by probing the stencil, on row s only, with the
    linear-in-time extension of the data.  Only the three levels s - 1 ..
    s + 1 are made and read, of the data and of the stencil, and g^tt is
    read on row s alone.
    """
    g = N.grid
    u3 = np.stack([h1 - g.dt * h2, h1, h1 + g.dt * h2], axis=-2)
    res = f_s - stencil_apply({k: C[s - 1:s + 2] for k, C in N.offsets.items()}, u3,
                              rows=(1, 2))[..., 1, :]
    itt = N.metric.inverse_components(s)[0]
    utt = res / (-itt)  # the stencil's u_tt coefficient is -g^tt
    return h1 + g.dt * h2 + 0.5 * g.dt**2 * utt


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
    hs, h1s, h2s = [], [], []
    for _ in range(count):  # draws per sample: h, then the Cauchy data of psi
        hs.append(smooth_noise(g, rng, lo, hi))  # smoothed a little so sup norms are O(1)
        h1s.append(rng.standard_normal(g.nx))
        h2s.append(rng.standard_normal(g.nx))
    h, psi = np.stack(hs), solve_cauchy(N, 2, np.stack(h1s), np.stack(h2s))
    f = N.apply(h)
    fpsi = N.apply(chi.values * psi)
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


def flux_blocks(N: HyperbolicOperator, n: int) -> dict:
    """(V N)[level n rows, level n+1 cols] as one row of entries per offset (1, b), for the flux."""
    out = {}
    for b in (-1, 0, 1):
        C = N.offsets.get((1, b))
        if C is not None:
            out[b] = N.weight[n] * C[n]
    return out


def symplectic_form(N: HyperbolicOperator, psi, phi, slice_index):
    """Conserved symplectic flux through the cut between two time levels.

    Equals the slice integral of <Psi | grad_n Phi> - <grad_n Psi | Phi>
    evaluated with staggered differences; slice independence on equation
    rows is exact because V N is exactly symmetric.  A number for two
    solutions; for two (K, nt, nx) batches, the K column-pair fluxes.
    slice_index may be a sequence of cuts: the arguments are then checked
    once and the result holds one flux (or K fluxes) per cut.
    """
    if not N.self_adjoint:
        raise ValueError("symplectic flux needs a formally self-adjoint operator")
    g = N.grid
    cuts = [int(n) for n in np.atleast_1d(slice_index)]
    if any(n < 0 or n > g.nt - 2 for n in cuts):
        raise ValueError("slice must have a successor level inside the window")
    pv = psi.values if isinstance(psi, Section) else psi
    fv = phi.values if isinstance(phi, Section) else phi
    tol = 1e-8 * np.maximum(np.maximum(sup_norms(pv), sup_norms(fv)), 1.0)
    if np.any(N.interior_residual(pv) > tol) or np.any(N.interior_residual(fv) > tol):
        raise ValueError("arguments must be homogeneous solutions")
    fluxes = [_flux(N, pv, fv, n) for n in cuts]
    return fluxes[0] if np.ndim(slice_index) == 0 else np.array(fluxes)


def _flux(N, pv, fv, n):
    # orientation fixed so that sigma(G f, G h) = +<f, G h>_V; this pins the
    # sign of the slice normal consistently with the wave-operator sign
    acc = 0.0
    for b, Bk in flux_blocks(N, n).items():
        fpn = periodic_shift(fv[..., n + 1, :], 0, -b)
        ppn = periodic_shift(pv[..., n + 1, :], 0, -b)
        acc += np.einsum("...x,x,...x->...", fv[..., n, :], Bk, ppn)
        acc -= np.einsum("...x,x,...x->...", pv[..., n, :], Bk, fpn)
    return acc


def propagator_symplectic_identity(N: HyperbolicOperator, f, h) -> dict:
    """sigma(G f, G h) against the volume pairing of f with G h.

    f and h are sections or (nt, nx) fields, or (K, nt, nx) batches
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
    adj = HyperbolicOperator(N.metric, N.adjoint_offsets())
    Gs_N = GreenSystem(N)
    Gs_A = GreenSystem(adj)
    r1 = abs(N.pairing(Gs_A.minus(fp), f.values) - N.pairing(fp.values, Gs_N.plus(f)))
    r2 = abs(N.pairing(Gs_A.plus(fp), f.values) - N.pairing(fp.values, Gs_N.minus(f)))
    scale = max(np.max(np.abs(f.values)), np.max(np.abs(fp.values)), 1e-300)
    return {"minus_plus": r1 / scale, "plus_minus": r2 / scale}
